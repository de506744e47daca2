import filecmp
import json
import os
import struct

import numpy as np
import pytest

from conftest import FOURBUS_SLACK, replaced, rewrite_csv
from gridpilot import ddpg, nn
from gridpilot import feeder as feeder_mod
from gridpilot.cli import main
from gridpilot.feeder import resolve_feeder


def write_config(path, **entries):
    with open(path, "w") as fh:
        json.dump(entries, fh)
    return str(path)


def with_metadata(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with ``edit`` applied to its header metadata."""
    prefix = 4 + struct.calcsize("<HQ")
    version, length = struct.unpack("<HQ", blob[4:prefix])
    header = json.loads(blob[prefix:prefix + length])
    edit(header["metadata"])
    raw = json.dumps(header, sort_keys=True).encode()
    return blob[:4] + struct.pack("<HQ", version, len(raw)) + raw + blob[prefix + length:]


BASE = dict(feeder="4bus", slack_voltage=FOURBUS_SLACK, seed=3)
DEEP = "[" * 100_000 + "]" * 100_000  # JSON nested deeper than the parser recurses
SCEN = {"count": 140, "load_scale_range": [0.1, 0.5],
        "power_factor_range": [0.95, 1.0], "households_per_node": 2}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the full command chain once; individual tests inspect artifacts."""
    ws = tmp_path_factory.mktemp("cli")

    def run(command, outdir, **cfg_entries):
        cfg = write_config(ws / f"{command}-{outdir}.json", **cfg_entries)
        out = ws / outdir
        rc = main([command, "--config", cfg, "--out", str(out)])
        assert rc == 0, f"{command} failed"
        return out

    gen = run("gen-scenarios", "gen", **BASE, scenario=SCEN)
    scen_csv = str(gen / "scenarios.csv")

    d = run("train-dsse", "dsse", **BASE, scenario_file=scen_csv,
            dsse={"hidden_layers": [16, 16], "epochs": 8, "noise_pct": 1.0})
    run("eval-dsse", "dsse_eval", **BASE, scenario_file=scen_csv,
        dsse_checkpoint=str(d / "dsse.ckpt"), dsse={"noise_pct": 1.0})

    a = run("train-agent", "agent", **BASE, scenario_file=scen_csv,
            train={"episodes": 3, "horizon": 2, "batch_size": 8,
                   "buffer_capacity": 64})
    run("evaluate", "eval", **BASE, scenario_file=scen_csv,
        agent_checkpoint=str(a / "agent.ckpt"))
    run("run-online", "online", **BASE, scenario_file=scen_csv,
        agent_checkpoint=str(a / "agent.ckpt"),
        apr={"reference_reward": -1.0, "window": 50})
    run("oracle", "oracle", **BASE, scenario_file=scen_csv,
        oracle={"n_grid": 21})
    return ws


def summary(workspace, outdir):
    with open(workspace / outdir / "summary.json") as fh:
        return json.load(fh)


def test_gen_scenarios_artifacts(workspace):
    gen = workspace / "gen"
    assert (gen / "scenarios.csv").exists()
    assert (gen / "scenarios.csv.meta.json").exists()
    s = summary(workspace, "gen")
    assert s["command"] == "gen-scenarios"
    assert s["count"] == 140
    assert s["seed"] == 3
    header = (gen / "scenarios.csv").read_text().splitlines()[0]
    assert header == "scenario_id, element_type, element_id, p_pu, q_pu"


def test_train_dsse_artifacts(workspace):
    d = workspace / "dsse"
    assert (d / "dsse.ckpt").exists()
    loss_lines = (d / "dsse_loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch, loss"
    assert len(loss_lines) == 1 + 8
    s = summary(workspace, "dsse")
    assert s["train_pairs"] == 112 and s["test_pairs"] == 28
    assert set(s["mag_mape_per_phase"]) == {"A", "B", "C"}
    assert loss_lines[-1] == f"7,{s['final_loss']!r}"
    assert_dsse_metrics_csv(d, s)


def assert_dsse_metrics_csv(out, s):
    """dsse_metrics.csv holds summary.json's metrics, one row per phase letter."""
    lines = (out / "dsse_metrics.csv").read_text().splitlines()
    assert lines[0] == "phase, mag_mape_pct, angle_mae_deg"
    assert [line.split(",") for line in lines[1:]] == [
        [ph, repr(s["mag_mape_per_phase"][ph]), repr(s["angle_mae_per_phase"][ph])]
        for ph in "ABC"]


def test_eval_dsse_artifacts(workspace):
    s = summary(workspace, "dsse_eval")
    assert s["command"] == "eval-dsse"
    assert s["pairs"] == 140
    assert_dsse_metrics_csv(workspace / "dsse_eval", s)


def test_train_agent_artifacts(workspace):
    a = workspace / "agent"
    assert (a / "agent.ckpt").exists()
    traj = (a / "reward_trajectory.csv").read_text().splitlines()
    assert traj[0] == "episode, cumulative_reward, sigma"
    assert len(traj) == 1 + 3
    s = summary(workspace, "agent")
    assert s["episodes"] == 3
    assert s["final_reward"] <= 0.0
    _, cfg, _ = ddpg.load_agent(a / "agent.ckpt")
    for ep, line in enumerate(traj[1:]):
        episode, _, sigma = line.split(",")
        assert int(episode) == ep and float(sigma) == ddpg.sigma_schedule(cfg, ep)
    assert traj[-1].split(",")[1] == repr(s["final_reward"])


def test_evaluate_artifacts(workspace):
    e = workspace / "eval"
    s = summary(workspace, "eval")
    assert s["scenario_count"] == 140
    assert 0.0 <= s["in_band_fraction_controlled"] <= 1.0
    assert not any("latency" in k for k in s)
    with open(e / "latency.json") as fh:
        lat = json.load(fh)
    assert lat["count"] == 140 and lat["p99_ms"] > 0.0
    profile = (e / "eval_profile.csv").read_text().splitlines()
    assert profile[0] == ("node_phase, phase, v_mean_baseline, v_std_baseline, "
                          "v_mean_controlled, v_std_controlled")
    assert len(profile) == 1 + 9  # node-phases of the 4-bus fixture
    assert profile[1].startswith("src.A,A,")
    # every value cell is a plain number, not a numpy scalar's repr
    for line in profile[1:]:
        assert all(repr(float(c)) == c for c in line.split(",")[2:])


def test_evaluate_and_run_online_share_one_latency_schema(workspace):
    keys = []
    for outdir in ("eval", "online"):
        with open(workspace / outdir / "latency.json") as fh:
            keys.append(sorted(json.load(fh)))
    assert keys[0] == keys[1] == ["count", "max_ms", "mean_ms", "p50_ms", "p99_ms"]


def test_run_online_artifacts(workspace):
    s = summary(workspace, "online")
    assert s["steps"] == 140
    assert s["fine_tune_events"] == []
    log_lines = (workspace / "online" / "run_log.csv").read_text().splitlines()
    assert log_lines[0] == ("episode, step, scenario_id, action..., reward, max_v, min_v, "
                            "pf_p, pf_q, violation_count")
    assert len(log_lines) == 1 + 140
    rows = [line.split(",") for line in log_lines[1:]]
    assert [row[:2] for row in rows] == [["0", str(step)] for step in range(140)]
    # action and value cells are plain numbers, not numpy scalar reprs
    for row in rows:
        assert all(repr(float(c)) == c for c in row[3].split(";") + row[4:9])
        assert int(row[9]) >= 0
    assert float(np.mean([float(row[4]) for row in rows])) == s["mean_reward"]
    with open(workspace / "online" / "latency.json") as fh:
        assert json.load(fh)["count"] == 140


def test_oracle_artifacts(workspace):
    lines = (workspace / "oracle" / "oracle.csv").read_text().splitlines()
    assert lines[0] == "scenario_id, best_action, best_reward"
    assert len(lines) == 1 + 140
    actions = [float(l.split(",")[1]) for l in lines[1:]]
    # over-voltage fixture: the oracle overwhelmingly absorbs
    assert np.mean(np.array(actions) < 0.0) > 0.8


def test_seed_override_changes_output(workspace, tmp_path):
    cfg = write_config(tmp_path / "gen.json", **BASE, scenario=SCEN)
    out = tmp_path / "gen9"
    assert main(["gen-scenarios", "--config", cfg, "--seed", "9",
                 "--out", str(out)]) == 0
    assert json.load(open(out / "summary.json"))["seed"] == 9
    base = (workspace / "gen" / "scenarios.csv").read_bytes()
    assert (out / "scenarios.csv").read_bytes() != base


def test_rerun_is_byte_identical(workspace, tmp_path):
    """Same seed, fresh process state: every artifact except latency.json
    must come out bit-for-bit identical."""
    scen_csv = str(workspace / "gen" / "scenarios.csv")

    cfg = write_config(tmp_path / "gen.json", **BASE, scenario=SCEN)
    out = tmp_path / "gen"
    assert main(["gen-scenarios", "--config", cfg, "--out", str(out)]) == 0
    for name in ("scenarios.csv", "scenarios.csv.meta.json", "summary.json"):
        assert filecmp.cmp(out / name, workspace / "gen" / name, shallow=False)

    cfg = write_config(tmp_path / "dsse.json", **BASE, scenario_file=scen_csv,
                       dsse={"hidden_layers": [16, 16], "epochs": 8,
                             "noise_pct": 1.0})
    out = tmp_path / "dsse"
    assert main(["train-dsse", "--config", cfg, "--out", str(out)]) == 0
    for name in ("dsse.ckpt", "dsse_loss.csv", "dsse_metrics.csv", "summary.json"):
        assert filecmp.cmp(out / name, workspace / "dsse" / name, shallow=False)

    cfg = write_config(tmp_path / "agent.json", **BASE, scenario_file=scen_csv,
                       train={"episodes": 3, "horizon": 2, "batch_size": 8,
                              "buffer_capacity": 64})
    out = tmp_path / "agent"
    assert main(["train-agent", "--config", cfg, "--out", str(out)]) == 0
    for name in ("agent.ckpt", "reward_trajectory.csv", "summary.json"):
        assert filecmp.cmp(out / name, workspace / "agent" / name, shallow=False)

    cfg = write_config(tmp_path / "eval.json", **BASE, scenario_file=scen_csv,
                       agent_checkpoint=str(workspace / "agent" / "agent.ckpt"))
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
    for name in ("eval_profile.csv", "summary.json"):
        assert filecmp.cmp(out / name, workspace / "eval" / name, shallow=False)
    # latency.json is wall-clock and carries no reproducibility promise


def test_checkpoint_arrays_nothing_reads_exit_2(tmp_path, workspace):
    # a checkpoint with an array no layer reads loaded as the same net and
    # exited 0; re-saving it dropped the array
    scen_csv = str(workspace / "gen" / "scenarios.csv")
    cases = {"dsse": ("eval-dsse", "dsse_checkpoint", "L7.W"),
             "agent": ("evaluate", "agent_checkpoint", "actor.L9.b")}
    for name, (command, key, extra) in cases.items():
        arrays, meta = nn.load_checkpoint(workspace / name / f"{name}.ckpt")
        bad = tmp_path / f"{name}.ckpt"
        nn.save_checkpoint(bad, {**arrays, extra: np.zeros(3)}, meta)
        cfg = write_config(tmp_path / f"{name}.json", **BASE, scenario_file=scen_csv,
                           **{key: str(bad)})
        assert main([command, "--config", cfg, "--out", str(tmp_path / name)]) == 2, name


def test_error_exit_codes(tmp_path, workspace, capsys):
    assert main(["gen-scenarios", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o1")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-scenarios", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 2
    bad.write_bytes(b"\xff{}")  # not UTF-8: was a raw UnicodeDecodeError
    assert main(["gen-scenarios", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 2
    bad.write_text(DEEP)  # nested too deep to parse: was a raw RecursionError
    assert main(["gen-scenarios", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 2

    no_feeder = write_config(tmp_path / "nofeeder.json", scenario=SCEN)
    assert main(["gen-scenarios", "--config", no_feeder,
                 "--out", str(tmp_path / "o3")]) == 2

    no_count = write_config(tmp_path / "nocount.json", **BASE, scenario={})
    assert main(["gen-scenarios", "--config", no_count,
                 "--out", str(tmp_path / "o4")]) == 2

    # checkpoint trained on 4bus used against a different feeder
    mismatched = write_config(
        tmp_path / "mismatch.json", feeder="synth34", seed=3,
        scenario_file=str(workspace / "gen" / "scenarios.csv"),
        dsse_checkpoint=str(workspace / "dsse" / "dsse.ckpt"))
    assert main(["eval-dsse", "--config", mismatched,
                 "--out", str(tmp_path / "o5")]) == 2

    # an --out that names a file: was a raw FileExistsError
    (tmp_path / "a_file").write_text("")
    gen_cfg = write_config(tmp_path / "gen.json", **BASE, scenario={**SCEN, "count": 5})
    assert main(["gen-scenarios", "--config", gen_cfg, "--out", str(tmp_path / "a_file")]) == 2

    no_apr = write_config(tmp_path / "noapr.json", **BASE,
                          scenario_file=str(workspace / "gen" / "scenarios.csv"),
                          agent_checkpoint=str(workspace / "agent" / "agent.ckpt"))
    assert main(["run-online", "--config", no_apr,
                 "--out", str(tmp_path / "o6")]) == 2

    # bad config sections and values and missing checkpoints end in exit
    # code 2, not a TypeError, ValueError, KeyError or AttributeError traceback
    scen_csv = str(workspace / "gen" / "scenarios.csv")
    dsse_ckpt = str(workspace / "dsse" / "dsse.ckpt")
    agent_ckpt = str(workspace / "agent" / "agent.ckpt")
    # a 3-zone agent against the default single-zone map
    zones3_ckpt = str(tmp_path / "zones3.ckpt")
    n = resolve_feeder("4bus").n_node_phases
    ddpg.save_agent(zones3_ckpt, ddpg.build_agent(n, 3, np.random.default_rng(0)),
                    ddpg.TrainConfig())
    bad_sections = [
        ("gen-scenarios", dict(scenario={**SCEN, "count": 5, "bogus": 1})),
        ("train-agent", dict(scenario_file=scen_csv, train={"bogus": 1})),
        ("train-dsse", dict(scenario_file=scen_csv, dsse={"bogus": 1})),
        ("oracle", dict(scenario_file=scen_csv, reward={"v_min": 1.2})),
        ("evaluate", dict(scenario_file=scen_csv)),
        ("eval-dsse", dict(scenario_file=scen_csv)),
        ("oracle", dict(scenario_file=scen_csv, slack_voltage="high")),
        ("eval-dsse", dict(scenario_file=scen_csv, dsse_checkpoint=dsse_ckpt, dsse=[1])),
        ("train-agent", dict(scenario_file=scen_csv, env=3)),
        ("oracle", dict(scenario_file=scen_csv, oracle={"n_grid": "x"})),
        ("oracle", dict(scenario_file=scen_csv, oracle={"n_grid": 2})),
        ("oracle", dict(scenario_file=scen_csv, oracle={"n_grid": 21, "bogus": 1})),
        ("train-dsse", dict(scenario_file=scen_csv, split={"train_fracton": 0.5})),
        ("evaluate", dict(scenario_file=scen_csv, agent_checkpoint=agent_ckpt,
                          env={"measurment_noise_pct": 1.0})),
        ("train-agent", dict(scenario_file=scen_csv, env={"horizon": 5})),
        ("train-agent", dict(scenario_file=scen_csv, train={"horizon": 0})),
        ("train-agent", dict(scenario_file=scen_csv, train={"episodes": 0})),
        # misspelt keys: a top-level typo, and one in the dsse section eval-dsse reads
        ("oracle", dict(scenario_file=scen_csv, slack_volatge=1.04)),
        ("eval-dsse", dict(scenario_file=scen_csv, dsse_checkpoint=dsse_ckpt,
                           dsse={"noise_pc": 1.0})),
        ("evaluate", dict(scenario_file=scen_csv, agent_checkpoint=zones3_ckpt)),
        ("run-online", dict(scenario_file=scen_csv, agent_checkpoint=zones3_ckpt,
                            apr={"reference_reward": -1.0})),
        # values of the wrong type and paths that are not strings: each was a
        # raw TypeError, OverflowError or AttributeError, and agent_checkpoint
        # 0 opened (and closed) file descriptor 0, stdin
        ("gen-scenarios", dict(scenario={**SCEN, "count": 1.5})),
        ("gen-scenarios", dict(scenario={**SCEN, "households_per_node": 1.5})),
        ("gen-scenarios", dict(scenario={**SCEN, "load_scale_range": ["a", "b"]})),
        ("train-agent", dict(scenario_file=scen_csv, train={"episodes": 2.5})),
        ("train-agent", dict(scenario_file=scen_csv, train={"buffer_capacity": 64.5})),
        ("train-dsse", dict(scenario_file=scen_csv, dsse={"hidden_layers": [16.5]})),
        ("gen-scenarios", dict(scenario=SCEN, seed=float("inf"))),  # JSON 1e400
        ("oracle", dict(scenario_file=scen_csv, oracle={"n_grid": float("inf")})),
        ("gen-scenarios", dict(scenario=SCEN, feeder=5)),
        ("oracle", dict(scenario_file=7)),
        ("oracle", dict(scenario_file=scen_csv + "\0")),
        ("evaluate", dict(scenario_file=scen_csv, agent_checkpoint=0)),
        ("gen-scenarios", dict(scenario=SCEN, seed=-1)),
        ("train-dsse", dict(scenario_file=scen_csv, split={"seed": -1})),
        # values out of range: tracebacks, or (negative or NaN noise) a run
        # that exited 0 as if noise-free
        ("train-dsse", dict(scenario_file=scen_csv, dsse={"epochs": 0})),
        ("train-dsse", dict(scenario_file=scen_csv, dsse={"batch_size": 0})),
        ("train-dsse", dict(scenario_file=scen_csv, dsse={"hidden_layers": [-1]})),
        ("train-dsse", dict(scenario_file=scen_csv, dsse={"noise_pct": -3})),
        ("train-agent", dict(scenario_file=scen_csv, train={"batch_size": 0,
                                                            "buffer_capacity": 0})),
        ("train-agent", dict(scenario_file=scen_csv, env={"zone_map": [-1]})),
        ("train-agent", dict(scenario_file=scen_csv, env={"measurement_noise_pct": -3})),
        ("train-agent", dict(scenario_file=scen_csv,
                             env={"measurement_noise_pct": float("nan")})),
        # a negative head voltage solved as the positive one and exited 0; zero
        # exited 2, but as a power flow that "diverged at every grid point"
        *((command, dict(scenario_file=scen_csv, slack_voltage=slack))
          for command in ("oracle", "train-dsse", "train-agent") for slack in (-1.04, 0.0)),
        # negative exploration sigmas and non-positive learning rates: each
        # exited 0, exploring not at all or ascending the loss
        ("train-agent", dict(scenario_file=scen_csv, train={"noise_sigma_start": -0.5})),
        ("train-agent", dict(scenario_file=scen_csv, train={"noise_sigma_end": -0.1})),
        ("train-agent", dict(scenario_file=scen_csv, train={"actor_lr": -0.001})),
        ("train-agent", dict(scenario_file=scen_csv, train={"critic_lr": 0.0})),
        ("train-dsse", dict(scenario_file=scen_csv, dsse={"learning_rate": -0.05})),
        # sizes of tens of TiB or more, which numpy fails to allocate without
        # touching memory: each was a raw numpy MemoryError traceback
        ("train-agent", dict(scenario_file=scen_csv, train={"buffer_capacity": 10**12})),
        ("train-dsse", dict(scenario_file=scen_csv, dsse={"hidden_layers": [10**12]})),
        ("oracle", dict(scenario_file=scen_csv, oracle={"n_grid": 10**15})),
        ("gen-scenarios", dict(scenario={**SCEN, "household_pool_size": 10**15})),
        ("gen-scenarios", dict(scenario={**SCEN, "households_per_node": 10**15})),
        # loads that overflow to inf: exited 0 with a file its own reader refuses
        ("gen-scenarios", dict(scenario={"count": 5, "load_scale_range": [1e307, 1.5e308]})),
        # negative loads, which exited 0, and a household count too large for
        # a float, which was a raw ValueError traceback
        ("gen-scenarios", dict(scenario={**SCEN, "load_scale_range": [-0.3, 0.2]})),
        ("gen-scenarios", dict(scenario={**SCEN, "households_per_node": 10**400})),
    ]
    # malformed scenario files and checkpoints: each was a raw ValueError,
    # IndexError, StopIteration, KeyError or struct.error, or (nan) a run
    # that diverged at every grid point
    lines = open(scen_csv).read().splitlines()
    sid, etype, eid, p, q = lines[1].split(",")
    bad_rows = {"text_p": f"{sid},{etype},{eid},high,{q}",
                "float_id": f"0.5,{etype},{eid},{p},{q}",
                "short_row": f"{sid},{etype},{eid}",
                "nan_p": f"{sid},{etype},{eid},nan,{q}"}
    meta = open(scen_csv + ".meta.json").read()
    bad_files = {name: ("\n".join([lines[0], row] + lines[2:]) + "\n", meta)
                 for name, row in bad_rows.items()}
    bad_files["empty"] = ("", meta)
    bad_files["empty_sidecar"] = (open(scen_csv).read(), "{}")
    # a sidecar that is not UTF-8, and one nested too deep to parse: a raw
    # UnicodeDecodeError and a raw RecursionError
    bad_files["sidecar_not_utf8"] = (open(scen_csv).read(), b"\xff" + meta.encode())
    bad_files["sidecar_deep"] = (open(scen_csv).read(), DEEP)
    # sidecar generator counts that are not integers: each loaded
    for count in (1.5, True):
        sidecar = json.loads(meta)
        sidecar["generator_config"]["count"] = count
        bad_files[f"count_{count}"] = (open(scen_csv).read(), json.dumps(sidecar))
    for name, (text, sidecar) in bad_files.items():
        path = tmp_path / f"{name}.csv"
        sidecar_path = tmp_path / f"{name}.csv.meta.json"
        if isinstance(sidecar, bytes):
            sidecar_path.write_bytes(sidecar)
        else:
            sidecar_path.write_text(sidecar)
        if name.startswith(("empty_sidecar", "sidecar_")):
            path.write_text(text)
        else:  # a sidecar that matches the bad rows, which must fail on their own
            rewrite_csv(path, text)
        bad_sections.append(("oracle", dict(scenario_file=str(path), oracle={"n_grid": 3})))
    # a pv output above its unit's 0.56 p.u. rating: train-agent ended in a raw
    # ValueError, and train-dsse trained on it
    k = next(i for i, line in enumerate(lines) if ",pv," in line)
    sid, etype, eid, p, q = lines[k].split(",")
    pv_over = tmp_path / "pv_over.csv"
    (tmp_path / "pv_over.csv.meta.json").write_text(meta)
    rewrite_csv(pv_over, "\n".join(lines[:k] + [f"{sid},{etype},{eid},50.0,{q}"]
                                   + lines[k + 1:]) + "\n")
    for command in ("train-agent", "train-dsse"):
        bad_sections.append((command, dict(scenario_file=str(pv_over))))
    blob = open(agent_ckpt, "rb").read()
    header = json.dumps({"metadata": {"kind": "agent"}}).encode()
    bad_ckpts = {"five_bytes": blob[:5],
                 "no_arrays": blob[:4] + struct.pack("<HQ", 1, len(header)) + header,
                 # a header nested too deep to parse: was a raw RecursionError
                 "deep_header": blob[:4] + struct.pack("<HQ", 1, len(DEEP)) + DEEP.encode()}
    # a sound container whose metadata is not: each was a raw KeyError,
    # ValueError or TypeError, or (no layers) an IndexError once evaluated
    bad_ckpts["no_config"] = with_metadata(blob, lambda m: m.pop("config"))
    bad_ckpts["no_nets"] = with_metadata(blob, lambda m: m.pop("nets"))
    bad_ckpts["horizon_0"] = with_metadata(blob, lambda m: m["config"].update(horizon=0))
    bad_ckpts["config_key"] = with_metadata(blob, lambda m: m["config"].update(bogus=1))
    bad_ckpts["arch_no_in"] = with_metadata(
        blob, lambda m: m["nets"]["critic"]["arch"][1].pop("in"))
    bad_ckpts["no_layers"] = with_metadata(blob, lambda m: m["nets"]["actor"].update(arch=[]))
    # loaded, then a raw TypeError in run-online's fine-tune burst
    bad_ckpts["horizon_2.5"] = with_metadata(blob, lambda m: m["config"].update(horizon=2.5))
    for name, data in bad_ckpts.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(data)
        bad_sections.append(("evaluate", dict(scenario_file=scen_csv,
                                              agent_checkpoint=str(path))))
    bad_sections.append(("run-online", dict(scenario_file=scen_csv,
                                            agent_checkpoint=str(tmp_path / "horizon_2.5.ckpt"),
                                            apr={"reference_reward": -1e-3, "window": 2})))
    # feeder files with an entry that is not an object, a number that is not
    # one, a NaN, or a negative reactive rating: a raw AttributeError, a raw
    # ValueError, and runs that exited 0 (the last with an inverter that
    # absorbs at every action, 0 included)
    feeder_doc = json.loads(feeder_mod.builtin_feeder_path("4bus").read_text())
    feeder_edits = {"pv_string": lambda d: d["pv_units"].__setitem__(0, "pv"),
                    "z_text": lambda d: d["lines"][0]["z_ohm"][0][0].__setitem__("re", "a"),
                    "q_nan": lambda d: d["loads"][0].__setitem__("q_kvar", float("nan")),
                    "phase_int": lambda d: d["loads"][0].__setitem__("phase", 2),
                    "q_rated_neg": lambda d: d["pv_units"][0].__setitem__("q_rated_kvar", -5.0)}
    feeder_docs = {}
    for name, edit in feeder_edits.items():
        feeder_docs[name] = doc = json.loads(json.dumps(feeder_doc))
        edit(doc)
    # ids that are not strings, renamed in every place that names the bus:
    # the null and integer ones loaded as buses "None" and "1"
    for name, old, new in (("id_null", "b4", None), ("id_int", "src", 1),
                           ("id_list", "b4", ["b4"])):
        feeder_docs[name] = replaced(feeder_doc, old, new)
    feeder_files = {name: json.dumps(doc).encode() for name, doc in feeder_docs.items()}
    # a file that is not UTF-8, and one nested too deep to parse: a raw
    # UnicodeDecodeError and a raw RecursionError
    feeder_files["not_utf8"] = b"\xff" + json.dumps(feeder_doc).encode()
    feeder_files["deep"] = DEEP.encode()
    for name, data in feeder_files.items():
        path = tmp_path / f"feeder_{name}.json"
        path.write_bytes(data)
        bad_sections.append(("gen-scenarios", dict(scenario=SCEN, feeder=str(path))))
    no_net = tmp_path / "no_net.ckpt"
    no_net.write_bytes(with_metadata(open(dsse_ckpt, "rb").read(), lambda m: m.pop("net")))
    bad_sections.append(("evaluate", dict(scenario_file=scen_csv, agent_checkpoint=agent_ckpt,
                                          dsse_checkpoint=str(no_net))))
    for i, (command, entries) in enumerate(bad_sections):
        cfg = write_config(tmp_path / f"section{i}.json", **{**BASE, **entries})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / f"s{i}")]) == 2, (command, entries)

    # a zero b2 -> b3 impedance passes validation, but no admittance can be
    # built for it: train-agent reported that as an abort in its first episode
    singular_doc = json.loads(json.dumps(feeder_doc))
    for row in singular_doc["lines"][1]["z_ohm"]:
        for entry in row:
            entry.update(re=0.0, im=0.0)
    singular = tmp_path / "feeder_singular.json"
    singular.write_text(json.dumps(singular_doc))
    singular_base = {**BASE, "feeder": str(singular)}
    gen_cfg = write_config(tmp_path / "gen_singular.json", **singular_base,
                           scenario={**SCEN, "count": 5})
    assert main(["gen-scenarios", "--config", gen_cfg,
                 "--out", str(tmp_path / "gen_singular")]) == 0
    capsys.readouterr()
    for command in ("train-agent", "oracle", "train-dsse"):
        cfg = write_config(tmp_path / f"singular_{command}.json", **singular_base,
                           scenario_file=str(tmp_path / "gen_singular" / "scenarios.csv"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / f"sg_{command}")]) == 2
        err = capsys.readouterr().err
        assert "line b2->b3 has a singular impedance matrix" in err, (command, err)
        assert "aborted in episode" not in err, (command, err)


def test_unwritable_artifact_exits_2(tmp_path, workspace, capsys):
    """A directory squats on an artifact path. ``os.replace`` onto it fails
    even for root, so the command ends in exit code 2 and leaves no temp file."""
    cfg = write_config(tmp_path / "oracle.json", **BASE,
                       scenario_file=str(workspace / "gen" / "scenarios.csv"),
                       oracle={"n_grid": 3})
    for name in ("oracle.csv", "summary.json"):
        out = tmp_path / f"out_{name}"
        (out / name).mkdir(parents=True)
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(out.glob("*.tmp"))


def test_oracle_builds_admittance_once(tmp_path, workspace, monkeypatch):
    calls = []
    real = feeder_mod.build_admittance

    def counting(feeder):
        calls.append(feeder.fingerprint)
        return real(feeder)

    monkeypatch.setattr(feeder_mod, "build_admittance", counting)
    cfg = write_config(tmp_path / "oracle.json", **BASE,
                       scenario_file=str(workspace / "gen" / "scenarios.csv"),
                       oracle={"n_grid": 3})
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1  # one system description for all 140 scenarios


def test_argparse_usage_errors():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["no-such-command", "--config", "x", "--out", "y"])
    with pytest.raises(SystemExit):
        main(["gen-scenarios"])  # missing required flags


def test_log_env_variable_accepted(tmp_path, monkeypatch, workspace):
    monkeypatch.setenv("GRIDPILOT_LOG", "debug")
    cfg = write_config(tmp_path / "gen.json", **BASE,
                       scenario={**SCEN, "count": 5})
    assert main(["gen-scenarios", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    monkeypatch.setenv("GRIDPILOT_LOG", "not-a-level")
    assert main(["gen-scenarios", "--config", cfg,
                 "--out", str(tmp_path / "o2")]) == 0
