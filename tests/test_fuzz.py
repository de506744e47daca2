"""Fuzzed inputs at the boundaries: a damaged checkpoint, scenario file,
sidecar or feeder file either loads or raises the package's typed error, never
a raw KeyError, TypeError, ValueError or UnicodeDecodeError, and a mutated
config, or a checkpoint whose training config was edited, ends a command in
exit code 0 or 2."""

import copy
import dataclasses
import hashlib
import json
import operator
import struct
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FOURBUS_SLACK, fourbus_gen, replaced
from gridpilot import ddpg, dsse, nn
from gridpilot.cli import main
from gridpilot.errors import CheckpointError, DatasetError, GridPilotError
from gridpilot.feeder import builtin_feeder_path, load_feeder
from gridpilot.scenario import generate_scenario_set, read_scenario_set, write_scenario_set

_PREFIX = 4 + struct.calcsize("<HQ")  # magic, version, header length

# any JSON value, including the NaN and Infinity that json.loads accepts
JSON_VALUES = (st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats()
               | st.text(max_size=4) | st.lists(st.integers(-1, 3), max_size=3)
               | st.just({}))


def json_paths(node, path=()):
    """The key path of every value nested in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutate_json(doc, data, values=JSON_VALUES, kept=()):
    """A copy of ``doc`` with one nested value replaced by one of ``values``,
    or (in an object) deleted. A path in ``kept`` is never deleted or
    replaced by {}."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    parent = reduce(operator.getitem, path[:-1], doc)
    if path in kept:
        parent[path[-1]] = data.draw(values.filter(lambda v: v != {}))
    elif isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(values)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoints(fuzz_dir, feeder4):
    """Loader and bytes of a small agent and a small batch-norm estimator
    checkpoint for 4bus."""
    rng = np.random.default_rng(0)
    n = feeder4.n_node_phases
    actor = nn.build_mlp([n, 6, 1], ["relu", "identity"], rng)
    critic = nn.build_mlp([n + 1, 6, 1], ["relu", "identity"], rng)
    nets = ddpg.AgentNets(actor, critic, nn.clone_model(actor), nn.clone_model(critic))
    ddpg.save_agent(fuzz_dir / "agent.ckpt", nets, ddpg.TrainConfig(),
                    feeder_fingerprint=feeder4.fingerprint)
    net = nn.build_mlp([12, 6, 2 * n], ["relu", "identity"], rng, batch_norm=True)
    model = dsse.DsseModel(net=net, input_mean=np.zeros(12), input_std=np.ones(12),
                           output_mean=np.zeros(2 * n), output_std=np.ones(2 * n),
                           feeder_fingerprint=feeder4.fingerprint,
                           node_phases=feeder4.node_phases())
    dsse.save_dsse(model, fuzz_dir / "dsse.ckpt")
    return {kind: (load, (fuzz_dir / f"{kind}.ckpt").read_bytes())
            for kind, load in (("agent", ddpg.load_agent), ("dsse", dsse.load_dsse))}


def loads_or_raises(load, path, error):
    try:
        load(path)
    except error:
        pass


def damaged_bytes(blob: bytes, data) -> bytes:
    """``blob`` with one to three bytes flipped, cut short, or with a byte
    that never occurs in UTF-8 inserted."""
    damaged = bytearray(blob)
    action = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
    if action == "flip":
        for _ in range(data.draw(st.integers(1, 3))):
            damaged[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    elif action == "truncate":
        del damaged[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        damaged.insert(data.draw(st.integers(0, len(blob))),
                       data.draw(st.sampled_from([0xC0, 0xC1, *range(0xF5, 0x100)])))
    return bytes(damaged)


@settings(max_examples=150)
@given(kind=st.sampled_from(["agent", "dsse"]), data=st.data())
def test_byte_flipped_checkpoint_loads_or_raises(checkpoints, fuzz_dir, kind, data):
    load, blob = checkpoints[kind]
    header_end = _PREFIX + struct.unpack("<Q", blob[6:_PREFIX])[0]
    damaged = bytearray(blob)
    # most flips land in the prefix and header, where they change meaning
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, header_end - 1) | st.integers(0, len(blob) - 1))
        damaged[i] ^= data.draw(st.integers(1, 255))
    path = fuzz_dir / "flipped.ckpt"
    path.write_bytes(bytes(damaged))
    loads_or_raises(load, path, GridPilotError)


@settings(max_examples=60)
@given(kind=st.sampled_from(["agent", "dsse"]), data=st.data())
def test_truncated_checkpoint_raises(checkpoints, fuzz_dir, kind, data):
    load, blob = checkpoints[kind]
    path = fuzz_dir / "truncated.ckpt"
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(CheckpointError):
        load(path)


@settings(max_examples=300)
@given(kind=st.sampled_from(["agent", "dsse"]), data=st.data())
def test_mutated_checkpoint_header_loads_or_raises(checkpoints, fuzz_dir, kind, data):
    load, blob = checkpoints[kind]
    header_end = _PREFIX + struct.unpack("<Q", blob[6:_PREFIX])[0]
    header = mutate_json(json.loads(blob[_PREFIX:header_end]), data)
    raw = json.dumps(header, sort_keys=True).encode()
    path = fuzz_dir / "mutated.ckpt"
    path.write_bytes(blob[:6] + struct.pack("<Q", len(raw)) + raw + blob[header_end:])
    loads_or_raises(load, path, GridPilotError)


@pytest.fixture(scope="module")
def scenario_file(fuzz_dir, feeder4):
    """Lines of a written 4bus scenario CSV and its parsed sidecar."""
    path = fuzz_dir / "scenarios.csv"
    write_scenario_set(generate_scenario_set(feeder4, fourbus_gen(3), seed=5), feeder4, path)
    sidecar = json.loads((fuzz_dir / "scenarios.csv.meta.json").read_text())
    return path.read_text().splitlines(), sidecar


# characters a damaged numeric or id cell might hold
_CELL = st.text(alphabet="0123456789.-+eEnaifINFx_ ,;\t\r\n\"'b2AB#", max_size=12)


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_scenario_rows_load_or_raise(scenario_file, fuzz_dir, feeder4, data):
    lines, sidecar = scenario_file
    lines = list(lines)
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    action = data.draw(st.sampled_from(["replace", "drop", "add", "delete_row"]))
    if action == "replace":
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_CELL)
    elif action == "drop":
        del cells[data.draw(st.integers(0, len(cells) - 1))]
    elif action == "add":
        cells.insert(data.draw(st.integers(0, len(cells))), data.draw(_CELL))
    lines[row] = ",".join(cells)
    if action == "delete_row":
        del lines[row]
    text = "\n".join(lines) + "\n"
    path = fuzz_dir / "rows.csv"
    path.write_text(text)
    # stamped with the mutated CSV's digest, so the rows reach the parser
    digest = hashlib.sha256(text.encode()).hexdigest()
    (fuzz_dir / "rows.csv.meta.json").write_text(json.dumps({**sidecar, "csv_sha256": digest}))
    loads_or_raises(lambda p: read_scenario_set(p, feeder4), path, DatasetError)


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_sidecar_loads_or_raises(scenario_file, fuzz_dir, feeder4, data):
    lines, sidecar = scenario_file
    path = fuzz_dir / "sidecar.csv"
    path.write_text("\n".join(lines) + "\n")
    (fuzz_dir / "sidecar.csv.meta.json").write_text(json.dumps(mutate_json(sidecar, data)))
    loads_or_raises(lambda p: read_scenario_set(p, feeder4), path, DatasetError)


@settings(max_examples=200)
@given(data=st.data())
def test_damaged_sidecar_bytes_load_or_raise(scenario_file, fuzz_dir, feeder4, data):
    lines, sidecar = scenario_file
    path = fuzz_dir / "sidecar_bytes.csv"
    path.write_text("\n".join(lines) + "\n")
    raw = json.dumps(sidecar, indent=2, sort_keys=True).encode()
    (fuzz_dir / "sidecar_bytes.csv.meta.json").write_bytes(damaged_bytes(raw, data))
    loads_or_raises(lambda p: read_scenario_set(p, feeder4), path, DatasetError)


@settings(max_examples=200)
@given(data=st.data())
def test_damaged_feeder_bytes_load_or_raise(fuzz_dir, data):
    path = fuzz_dir / "feeder_bytes.json"
    path.write_bytes(damaged_bytes(builtin_feeder_path("4bus").read_bytes(), data))
    loads_or_raises(load_feeder, path, GridPilotError)


@settings(max_examples=400)
@given(data=st.data())
def test_mutated_feeder_loads_or_raises(fuzz_dir, data):
    doc = json.loads(builtin_feeder_path("4bus").read_text())
    ids = [bus["id"] for bus in doc["buses"]]
    doc = mutate_json(doc, data)
    if data.draw(st.booleans()):  # rename one bus in every place that names it
        doc = replaced(doc, data.draw(st.sampled_from(ids)), data.draw(JSON_VALUES))
    path = fuzz_dir / "feeder.json"
    path.write_text(json.dumps(doc))
    try:
        feeder = load_feeder(path)
    except GridPilotError:
        return
    values = [feeder.base_voltage_kv, feeder.base_power_kva]
    values += [x for ld in feeder.loads for x in (ld.p_nominal, ld.q_nominal)]
    values += [x for pv in feeder.pv_units for x in (pv.s_rated, pv.p_rated, pv.q_rated)]
    assert all(np.isfinite(values)), values
    assert all(np.isfinite(line.phase_impedance).all() for line in feeder.lines)
    # every id and phase is the very JSON string in the file
    assert feeder.source_bus_id == doc["source_bus_id"]
    assert [bus.id for bus in feeder.buses] == [entry["id"] for entry in doc["buses"]]
    assert ([(line.from_bus, line.to_bus) for line in feeder.lines]
            == [(entry["from"], entry["to"]) for entry in doc["lines"]])
    assert ([(unit.bus_id, unit.phase) for unit in feeder.loads + feeder.pv_units]
            == [(entry["bus"], entry["phase"]) for entry in doc["loads"] + doc["pv_units"]])


# config values: like JSON_VALUES, but with integers small enough that a run
# stays short when they land on a size
CONFIG_VALUES = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats()
                 | st.text(max_size=4) | st.lists(st.integers(-1, 3), max_size=3)
                 | st.just({}))
# entries whose default is a full-length run (100 episodes, 100 epochs of a
# 5 x 200 estimator, 201 grid points): they bound the run time
SIZED = {("train",), ("train", "episodes"), ("dsse",), ("dsse", "epochs"),
         ("dsse", "hidden_layers"), ("oracle", "n_grid")}


@pytest.fixture(scope="module")
def configs(fuzz_dir, feeder4, checkpoints):
    """A small known-good 4bus config for each command."""
    few, many = fuzz_dir / "few.csv", fuzz_dir / "many.csv"
    write_scenario_set(generate_scenario_set(feeder4, fourbus_gen(3), seed=5), feeder4, few)
    # train-dsse needs 100 training pairs
    write_scenario_set(generate_scenario_set(feeder4, fourbus_gen(125), seed=6), feeder4, many)
    base = {"feeder": "4bus", "seed": 3, "slack_voltage": FOURBUS_SLACK,
            "scenario_file": str(few)}
    reward = {"lambda_weight": 1.0, "eta_weight": 0.5, "v_min": 0.95, "v_max": 1.05,
              "v_nominal": 1.0}
    deployed = {**base, "agent_checkpoint": str(fuzz_dir / "agent.ckpt"),
                "dsse_checkpoint": str(fuzz_dir / "dsse.ckpt"), "reward": reward,
                "env": {"measurement_noise_pct": 1.0,
                        "zone_map": [0] * len(feeder4.pv_units)}}
    return {
        "gen-scenarios": {**base, "scenario": {
            "count": 3, "pv_to_load_ratio_range": [0.74, 1.05],
            "load_scale_range": [0.1, 0.5], "power_factor_range": [0.95, 1.0],
            "household_pool_size": 4, "households_per_node": 2}},
        "train-dsse": {**base, "scenario_file": str(many),
                       "split": {"train_fraction": 0.8, "seed": 1},
                       "dsse": {"hidden_layers": [4], "epochs": 2, "batch_size": 50,
                                "learning_rate": 0.01, "dropout_rate": 0.1,
                                "batch_norm": True, "noise_pct": 1.0}},
        "eval-dsse": {**base, "dsse_checkpoint": str(fuzz_dir / "dsse.ckpt"),
                      "dsse": {"noise_pct": 1.0}},
        "train-agent": {**deployed, "train": {
            "episodes": 2, "horizon": 2, "gamma": 0.95, "tau": 0.01, "batch_size": 2,
            "actor_lr": 0.001, "critic_lr": 0.001, "noise_sigma_start": 0.5,
            "noise_sigma_end": 0.01, "noise_mu": 0.1, "noise_process": "ou",
            "buffer_capacity": 4, "updates_start": "batch"}},
        "evaluate": deployed,
        "run-online": {**deployed, "apr": {"reference_reward": -0.001, "window": 2,
                                          "degradation_threshold": None,
                                          "fine_tune_episodes": 1}},
        "oracle": {**base, "reward": reward, "oracle": {"n_grid": 5}},
    }


@settings(max_examples=150)
@given(data=st.data())
@pytest.mark.parametrize("command", ["gen-scenarios", "train-dsse", "eval-dsse", "train-agent",
                                     "evaluate", "run-online", "oracle"])
def test_mutated_config_exits_0_or_2(configs, fuzz_dir, command, data):
    path = fuzz_dir / f"{command}.json"
    path.write_text(json.dumps(mutate_json(configs[command], data, CONFIG_VALUES, SIZED)))
    assert main([command, "--config", str(path), "--out", str(fuzz_dir / command)]) in (0, 2)


@settings(max_examples=100)
@given(command=st.sampled_from(["run-online", "evaluate"]),
       key=st.sampled_from(sorted(dataclasses.asdict(ddpg.TrainConfig()))),
       value=CONFIG_VALUES | st.floats(-1.0, 5.0))
@example(command="run-online", key="horizon", value=2.5)
def test_edited_agent_config_runs_or_exits_2(checkpoints, configs, fuzz_dir, command, key,
                                              value):
    """The training config a checkpoint carries reaches run-online's
    fine-tune bursts, so a loaded config must be one they can run."""
    _, blob = checkpoints["agent"]
    header_end = _PREFIX + struct.unpack("<Q", blob[6:_PREFIX])[0]
    header = json.loads(blob[_PREFIX:header_end])
    header["metadata"]["config"][key] = value
    raw = json.dumps(header, sort_keys=True).encode()
    ckpt = fuzz_dir / "edited.ckpt"
    ckpt.write_bytes(blob[:6] + struct.pack("<Q", len(raw)) + raw + blob[header_end:])
    path = fuzz_dir / f"{command}-edited.json"
    path.write_text(json.dumps({**configs[command], "agent_checkpoint": str(ckpt)}))
    assert main([command, "--config", str(path), "--out", str(fuzz_dir / command)]) in (0, 2)
