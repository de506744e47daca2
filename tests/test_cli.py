import filecmp
import json
import os

import numpy as np
import pytest

from conftest import FOURBUS_SLACK
from gridpilot import ddpg, env
from gridpilot.cli import main
from gridpilot.feeder import resolve_feeder


def write_config(path, **entries):
    with open(path, "w") as fh:
        json.dump(entries, fh)
    return str(path)


BASE = dict(feeder="4bus", slack_voltage=FOURBUS_SLACK, seed=3)
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


def test_eval_dsse_artifacts(workspace):
    s = summary(workspace, "dsse_eval")
    assert s["command"] == "eval-dsse"
    assert s["pairs"] == 140
    assert (workspace / "dsse_eval" / "dsse_metrics.csv").exists()


def test_train_agent_artifacts(workspace):
    a = workspace / "agent"
    assert (a / "agent.ckpt").exists()
    traj = (a / "reward_trajectory.csv").read_text().splitlines()
    assert traj[0] == "episode, cumulative_reward, sigma"
    assert len(traj) == 1 + 3
    s = summary(workspace, "agent")
    assert s["episodes"] == 3
    assert s["final_reward"] <= 0.0


def test_evaluate_artifacts(workspace):
    e = workspace / "eval"
    s = summary(workspace, "eval")
    assert s["scenario_count"] == 140
    assert 0.0 <= s["in_band_fraction_controlled"] <= 1.0
    assert not any("latency" in k for k in s)
    with open(e / "latency.json") as fh:
        lat = json.load(fh)
    assert lat["p99_ms"] > 0.0
    profile = (e / "eval_profile.csv").read_text().splitlines()
    assert len(profile) == 1 + 9  # node-phases of the 4-bus fixture


def test_run_online_artifacts(workspace):
    s = summary(workspace, "online")
    assert s["steps"] == 140
    assert s["fine_tune_events"] == []
    log_lines = (workspace / "online" / "run_log.csv").read_text().splitlines()
    assert len(log_lines) == 1 + 140
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


def test_error_exit_codes(tmp_path, workspace):
    assert main(["gen-scenarios", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o1")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
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
    ]
    for i, (command, entries) in enumerate(bad_sections):
        cfg = write_config(tmp_path / f"section{i}.json", **{**BASE, **entries})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / f"s{i}")]) == 2, command


def test_oracle_builds_admittance_once(tmp_path, workspace, monkeypatch):
    calls = []
    real = env.build_admittance

    def counting(feeder):
        calls.append(feeder.fingerprint)
        return real(feeder)

    monkeypatch.setattr(env, "build_admittance", counting)
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
