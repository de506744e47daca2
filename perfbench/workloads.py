"""The four benchmark workloads: inputs, CLI config, expected counts, checks.

Every workload runs one real ``gridpilot`` CLI command on the synth34
feeder at a 1.045 p.u. feeder head, with the scenario ranges the acceptance
tests use. Inputs are generated through public API only, from the run's
``--seed``; the command under test sees nothing but the generated files and
its JSON config. Each workload runs the same command several times per
benchmark run, so one "call" below is one CLI invocation of a fixed size.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gridpilot import ddpg, dsse, scenario
from gridpilot.feeder import resolve_feeder

FEEDER = "synth34"
SLACK_VOLTAGE = 1.045
HORIZON = 20
N_GRID = 201

# Sizes of one CLI call. Each is chosen so that one call takes roughly two
# to three and a half seconds on a 2-core Xeon with single-threaded BLAS,
# so a 22-second run times five to eight calls. train-agent's DDPG updates
# start once the replay buffer holds 64 transitions, so 137 of each call's
# 200 steps include a learner update.
AGENT_SCENARIOS = 300
AGENT_EPISODES = 10
ORACLE_SCENARIOS = 2
EVAL_SCENARIOS = 200
EVAL_DSSE_SCENARIOS = 140
DSSE_SCENARIOS = 150
DSSE_TRAIN_FRACTION = 0.8


class CheckFailed(Exception):
    """An artifact or count of a CLI call is not what the workload implies."""


def gen_config(count: int) -> scenario.GenConfig:
    return scenario.GenConfig(count=count, load_scale_range=(0.008, 0.045),
                              power_factor_range=(0.97, 1.0), households_per_node=2)


def _write_scenarios(feeder, count: int, seed: int, path: str) -> str:
    sset = scenario.generate_scenario_set(feeder, gen_config(count), seed)
    scenario.write_scenario_set(sset, feeder, path)
    return path


def _base_config(seed: int, scenario_file: str) -> dict:
    return {"feeder": FEEDER, "seed": seed, "slack_voltage": SLACK_VOLTAGE,
            "scenario_file": scenario_file}


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _finite(value: str, where: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise CheckFailed(f"{where}: non-finite value {value!r}")
    return x


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- train-agent -------------------------------------------------------------

def _agent_inputs(workdir: str, seed: int) -> dict:
    feeder = resolve_feeder(FEEDER)
    csv_path = _write_scenarios(feeder, AGENT_SCENARIOS, 500 + seed,
                                os.path.join(workdir, "scenarios.csv"))
    return {**_base_config(seed, csv_path),
            "train": {"episodes": AGENT_EPISODES, "horizon": HORIZON}}


def _agent_check(out: str) -> None:
    rows = _csv_rows(os.path.join(out, "reward_trajectory.csv"))
    _expect(len(rows) == AGENT_EPISODES + 1,
            f"reward_trajectory.csv has {len(rows) - 1} episodes, want {AGENT_EPISODES}")
    for row in rows[1:]:
        _expect(_finite(row[1], "cumulative_reward") <= 0.0, "reward above zero")


# --- oracle ------------------------------------------------------------------

def _oracle_inputs(workdir: str, seed: int) -> dict:
    feeder = resolve_feeder(FEEDER)
    csv_path = _write_scenarios(feeder, ORACLE_SCENARIOS, 901 + seed,
                                os.path.join(workdir, "scenarios.csv"))
    return {**_base_config(seed, csv_path), "oracle": {"n_grid": N_GRID}}


def _oracle_check(out: str) -> None:
    rows = _csv_rows(os.path.join(out, "oracle.csv"))
    _expect(len(rows) == ORACLE_SCENARIOS + 1,
            f"oracle.csv has {len(rows) - 1} rows, want {ORACLE_SCENARIOS}")
    step = 2.0 / (N_GRID - 1)
    for row in rows[1:]:
        action = _finite(row[1], "best_action")
        _expect(-1.0 <= action <= 1.0, "action outside [-1, 1]")
        _expect(abs((action + 1.0) / step - round((action + 1.0) / step)) < 1e-6,
                f"action {action!r} is not on the {N_GRID}-point grid")
        _expect(_finite(row[2], "best_reward") <= 0.0, "reward above zero")


# --- evaluate ----------------------------------------------------------------

def _eval_inputs(workdir: str, seed: int) -> dict:
    """Held-out scenarios plus the two checkpoints the criterion-8 setup uses:
    a full-size estimator trained for two epochs and an untrained agent."""
    feeder = resolve_feeder(FEEDER)
    csv_path = _write_scenarios(feeder, EVAL_SCENARIOS, 901 + seed,
                                os.path.join(workdir, "scenarios.csv"))
    train_set = scenario.generate_scenario_set(feeder, gen_config(EVAL_DSSE_SCENARIOS),
                                               9 + seed)
    pairs = dsse.build_training_pairs(train_set, feeder, 1.0,
                                      slack_voltage=SLACK_VOLTAGE, seed=seed)
    model, _ = dsse.train_dsse(pairs, dsse.DsseHyperparams(epochs=2, seed=seed), feeder)
    dsse_path = os.path.join(workdir, "dsse.ckpt")
    dsse.save_dsse(model, dsse_path)
    nets = ddpg.build_agent(feeder.n_node_phases, 1, np.random.default_rng(seed))
    agent_path = os.path.join(workdir, "agent.ckpt")
    ddpg.save_agent(agent_path, nets, ddpg.TrainConfig(seed=seed),
                    feeder_fingerprint=feeder.fingerprint)
    return {**_base_config(seed, csv_path), "dsse_checkpoint": dsse_path,
            "agent_checkpoint": agent_path, "env": {"measurement_noise_pct": 1.0}}


def _eval_check(out: str) -> None:
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    _expect(summary.get("scenario_count") == EVAL_SCENARIOS,
            f"summary.json scenario_count {summary.get('scenario_count')}, "
            f"want {EVAL_SCENARIOS}")
    rows = _csv_rows(os.path.join(out, "eval_profile.csv"))
    n = resolve_feeder(FEEDER).n_node_phases
    _expect(len(rows) == n + 1, f"eval_profile.csv has {len(rows) - 1} rows, want {n}")


# --- train-dsse --------------------------------------------------------------

def _dsse_inputs(workdir: str, seed: int) -> dict:
    feeder = resolve_feeder(FEEDER)
    csv_path = _write_scenarios(feeder, DSSE_SCENARIOS, 42 + seed,
                                os.path.join(workdir, "scenarios.csv"))
    return {**_base_config(seed, csv_path), "dsse": {"noise_pct": 1.0},
            "split": {"train_fraction": DSSE_TRAIN_FRACTION}}


def _dsse_check(out: str) -> None:
    rows = _csv_rows(os.path.join(out, "dsse_metrics.csv"))
    _expect([r[0] for r in rows[1:]] == ["A", "B", "C"],
            "dsse_metrics.csv does not list phases A, B, C")
    for row in rows[1:]:
        _expect(_finite(row[1], "mag_mape_pct") >= 0.0, "negative MAPE")


_DSSE_TEST = DSSE_SCENARIOS - int(round(DSSE_TRAIN_FRACTION * DSSE_SCENARIOS))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # gridpilot CLI subcommand
    op: str  # what one operation is
    ops_per_call: int
    artifacts: tuple[str, ...]  # byte-stable outputs compared across calls
    make_inputs: Callable[[str, int], dict]  # (directory, seed) -> CLI config
    check_outputs: Callable[[str], None]  # raises CheckFailed
    expected_calls: dict[str, int]  # traced span -> exact calls per CLI call


WORKLOADS = {w.name: w for w in [
    Workload(
        name="train-agent", command="train-agent",
        op="environment step with the learner update that follows it",
        ops_per_call=AGENT_EPISODES * HORIZON,
        artifacts=("reward_trajectory.csv",),
        make_inputs=_agent_inputs, check_outputs=_agent_check,
        # reset() is one extra zero-action step per episode; no synth34
        # step diverges, so every episode runs its full horizon
        expected_calls={"env.env_step": AGENT_EPISODES * (HORIZON + 1),
                        "powerflow.solve_power_flow": AGENT_EPISODES * (HORIZON + 1),
                        "ddpg.act": AGENT_EPISODES * HORIZON}),
    Workload(
        name="oracle", command="oracle",
        op="grid-point power-flow solve",
        ops_per_call=ORACLE_SCENARIOS * N_GRID,
        artifacts=("oracle.csv",),
        make_inputs=_oracle_inputs, check_outputs=_oracle_check,
        expected_calls={"powerflow.solve_power_flow": ORACLE_SCENARIOS * N_GRID,
                        "env.env_step": ORACLE_SCENARIOS * N_GRID,
                        "runtime.oracle_best_action": ORACLE_SCENARIOS,
                        "nn.adam_step": 0}),
    Workload(
        name="evaluate", command="evaluate",
        op="scenario evaluated (baseline solve, measure, estimate, act, controlled solve)",
        ops_per_call=EVAL_SCENARIOS,
        artifacts=("summary.json", "eval_profile.csv"),
        make_inputs=_eval_inputs, check_outputs=_eval_check,
        expected_calls={"powerflow.solve_power_flow": 2 * EVAL_SCENARIOS,
                        "dsse.estimate_states": EVAL_SCENARIOS,
                        "ddpg.act": EVAL_SCENARIOS,
                        "nn.adam_step": 0}),
    Workload(
        name="train-dsse", command="train-dsse",
        op="scenario consumed (solved, measured, trained on or scored)",
        ops_per_call=DSSE_SCENARIOS,
        artifacts=("dsse_metrics.csv",),
        make_inputs=_dsse_inputs, check_outputs=_dsse_check,
        expected_calls={"powerflow.solve_power_flow": DSSE_SCENARIOS,
                        "dsse.build_training_pairs": 2,
                        "dsse.train_dsse": 1,
                        "dsse.estimate_states": _DSSE_TEST}),
]}
