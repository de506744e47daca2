"""Online execution, performance monitoring, oracle baseline, evaluation.

Every entry point takes the controlled system as one ``env.EnvConfig``:
feeder, estimator, inverter zones, slack voltage, noise and reward band.
Both the online loop and evaluation run the deployed control cycle, written
once in ``_control_cycle``: per scenario snapshot, solve under idle inverters
(``env.idle_step``, the same start a training episode makes), take the head
measurement, estimate the state through the config's estimator, act without
exploration through its zone map, and solve under the applied setpoints.
A trailing-reward monitor (APR) triggers fine-tuning when control quality
degrades against the training reference.
Latency is recorded separately from the deterministic run log so logs stay
bit-reproducible under a fixed seed.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import ddpg
from .env import EnvConfig, env_step, idle_step, observe
from .errors import InfeasibleScenarioError, ModelMismatchError, TrainingError
from .scenario import Scenario

log = logging.getLogger(__name__)


@dataclass
class AprConfig:
    reference_reward: float
    window: int = 50
    degradation_threshold: float | None = None  # None: 25% of |reference_reward|
    fine_tune_episodes: int = 10

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.fine_tune_episodes < 1:
            raise ValueError("fine_tune_episodes must be >= 1")
        if self.degradation_threshold is None:
            self.degradation_threshold = 0.25 * abs(self.reference_reward)


def apr_check(trailing_rewards, apr: AprConfig) -> str:
    """'fine_tune' when the trailing-window mean degrades past the threshold.

    Fewer than ``window`` observations is warm-up and always 'ok'.
    """
    if len(trailing_rewards) < apr.window:
        return "ok"
    trailing = float(np.mean(np.asarray(trailing_rewards)[-apr.window:]))
    if trailing < apr.reference_reward - apr.degradation_threshold:
        return "fine_tune"
    return "ok"


class StepRecord(NamedTuple):
    """One online control cycle, its fields in run_log.csv's column order."""
    step: int
    scenario_id: int
    action: np.ndarray
    reward: float
    max_v: float
    min_v: float
    p_head: float
    q_head: float
    violations: int


@dataclass
class RunLog:
    records: list[StepRecord] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    fine_tune_events: list[int] = field(default_factory=list)


def latency_stats(latencies_s) -> dict:
    """latency.json's summary of per-cycle latencies: count, then mean, p50,
    p99 and max in milliseconds (the count alone when there are none)."""
    if not latencies_s:
        return {"count": 0}
    arr = np.array(latencies_s) * 1000.0
    return {"count": len(arr), "mean_ms": float(arr.mean()),
            "p50_ms": float(np.percentile(arr, 50)),
            "p99_ms": float(np.percentile(arr, 99)),
            "max_ms": float(arr.max())}


def _check_agent(nets: ddpg.AgentNets, cfg: EnvConfig) -> None:
    """The actor reads ``cfg``'s state and writes one coefficient per zone."""
    if nets.state_dim != cfg.state_dim:
        raise ModelMismatchError(
            f"actor expects {nets.state_dim} state entries, feeder has {cfg.state_dim}")
    if nets.action_dim != cfg.n_zones:
        raise ModelMismatchError(f"actor outputs {nets.action_dim} zone coefficients, "
                                 f"zone_map has {cfg.n_zones} zones")


def _control_cycle(cfg: EnvConfig, nets: ddpg.AgentNets, scenario: Scenario,
                   rng: np.random.Generator):
    """One deployed control cycle on a scenario snapshot.

    Solve under idle inverters, observe the head measurement (through
    ``cfg.estimator`` when set), act without exploration, solve under the
    action. Returns (baseline reward, baseline info, action, reward, info,
    latency_s); the latency covers estimation plus action selection. Raises
    InfeasibleScenarioError when either solve diverges.
    """
    state, r0, info0 = idle_step(cfg, scenario, rng)
    t0 = time.perf_counter()
    action = ddpg.act(nets, observe(cfg.estimator, state, info0))
    latency = time.perf_counter() - t0
    _, r1, info1 = env_step(cfg, scenario, action, rng=rng)
    if info1["terminal"]:
        raise InfeasibleScenarioError(
            f"scenario {scenario.id} diverged under control action")
    return r0, info0, action, r1, info1, latency


def run_online(nets: ddpg.AgentNets, cfg: EnvConfig, scenarios, apr: AprConfig,
               seed: int = 0, train_cfg: ddpg.TrainConfig | None = None
               ) -> tuple[RunLog, ddpg.AgentNets]:
    """Drive the trained agent over a scenario stream with APR supervision.

    Each stream element is one control cycle (``_control_cycle``) on the
    system ``cfg`` describes; a scenario whose idle or controlled solve
    diverges is skipped with a warning. Each cycle's ``StepRecord`` goes into
    the log, and each "fine_tune" APR decision's step into ``fine_tune_events``
    as it starts a fine-tuning burst. Bursts run on the same ``cfg``, so they
    observe through its estimator as the deployed agent does, and run episodes of
    ``train_cfg.horizon`` (the default ``TrainConfig``'s when None). Only the
    last ``apr.window`` rewards and scenarios are held, so memory stays flat
    however long the stream; the reward window starts afresh after each
    fine-tune. Returns the run log and the (possibly fine-tuned) agent.
    """
    _check_agent(nets, cfg)
    rng = np.random.default_rng(seed)
    run = RunLog()
    rewards: deque[float] = deque(maxlen=apr.window)
    recent: deque[Scenario] = deque(maxlen=apr.window)

    for step, scenario in enumerate(scenarios):
        try:
            _, _, action, r, info, latency = _control_cycle(cfg, nets, scenario, rng)
        except InfeasibleScenarioError as exc:
            log.warning("%s; skipped", exc)
            continue
        run.latencies_s.append(latency)
        rewards.append(r)
        recent.append(scenario)

        decision = apr_check(rewards, apr)
        run.records.append(StepRecord(
            step, scenario.id, action, r, float(info["v_mag_true"].max()),
            float(info["v_mag_true"].min()), info["p_head"], info["q_head"],
            info["violations"]))

        if decision == "fine_tune":
            run.fine_tune_events.append(step)
            log.info("APR triggered fine-tune at step %d (trailing mean %.4g)",
                     step, float(np.mean(rewards)))
            nets = fine_tune(nets, list(recent), apr.fine_tune_episodes,
                             cfg, train_cfg=train_cfg, seed=seed + step + 1)
            rewards.clear()  # fresh window for the updated agent
    return run, nets


def fine_tune(nets: ddpg.AgentNets, recent_scenarios, episodes: int,
              env_cfg: EnvConfig, train_cfg: ddpg.TrainConfig | None = None,
              seed: int = 0) -> ddpg.AgentNets:
    """Short retraining burst on recent conditions; reverts on divergence.

    Runs the normal training loop from the current nets with a small fixed
    exploration sigma and episodes of ``train_cfg.horizon`` steps; the critic
    is frozen for the first 20% of updates so a stale actor gradient cannot
    whipsaw it. The input nets are never mutated; callers keep their
    checkpoint.
    """
    if episodes == 0:
        return nets
    base = train_cfg if train_cfg is not None else ddpg.TrainConfig()
    cfg = replace(base, episodes=episodes, seed=seed,
                  noise_sigma_start=base.noise_sigma_end,
                  noise_sigma_end=base.noise_sigma_end)
    freeze = int(0.2 * episodes * cfg.horizon)
    try:
        tuned, _ = ddpg.train(env_cfg, list(recent_scenarios), cfg,
                              nets=ddpg.clone_agent(nets), critic_freeze_updates=freeze)
        return tuned
    except TrainingError as exc:
        log.warning("fine-tune diverged (%s); keeping previous agent", exc)
        return nets


def oracle_best_action(cfg: EnvConfig, scenario: Scenario, n_grid: int = 201
                       ) -> tuple[float, float]:
    """Exhaustive single-zone search over a uniform action grid.

    Evaluates a in linspace(-1, 1, n_grid) through ``env_step`` on ``cfg``,
    which must be single-zone and noise-free; rewards come from true solver
    voltages, so its estimator plays no part. Ties break toward
    smaller |a|. Grid spacing is 2/(n_grid - 1), so n_grid=201 gives the
    0.01 resolution used by the benchmark comparisons.
    """
    if n_grid < 3:
        raise ValueError("need at least 3 grid points")
    if cfg.n_zones != 1:
        raise ValueError(f"the oracle searches one zone, zone_map has {cfg.n_zones}")
    best_a = None
    best_r = -np.inf
    for a in np.linspace(-1.0, 1.0, n_grid):
        _, r, info = env_step(cfg, scenario, np.array([a]))
        if info["terminal"]:
            continue
        if r > best_r or (r == best_r and abs(a) < abs(best_a)):
            best_a, best_r = float(a), float(r)
    if best_a is None:
        raise InfeasibleScenarioError(
            f"scenario {scenario.id}: power flow diverged at every grid point")
    return best_a, best_r


def evaluate(nets: ddpg.AgentNets, cfg: EnvConfig, scenarios, seed: int = 0
             ) -> tuple[dict, list[tuple], list[float]]:
    """Baseline (zero action) vs controlled sweep over a scenario set.

    Each scenario is one control cycle on the system ``cfg`` describes. The
    agent sees only ``cfg.estimator``'s output (or true magnitudes in
    perfect-state mode) and acts through ``cfg.zone_map``; rewards,
    violations, and deviations always come from true solver voltages.
    Returns (summary, profile, latencies_s): summary.json's ten metrics;
    eval_profile.csv's rows, per node-phase its ``bus.phase``, phase, and
    baseline and controlled voltage means and stds; each cycle's latency.
    """
    if len(scenarios) == 0:
        raise ValueError("empty scenario set")
    _check_agent(nets, cfg)
    rng = np.random.default_rng(seed)

    v_base, v_ctrl = [], []
    r_base, r_ctrl = [], []
    dev_base, dev_ctrl = [], []
    latencies = []

    for scenario in scenarios:
        r0, info0, _, r1, info1, latency = _control_cycle(cfg, nets, scenario, rng)
        v_base.append(info0["v_mag_true"])
        r_base.append(r0)
        dev_base.append(info0["deviation"])
        v_ctrl.append(info1["v_mag_true"])
        r_ctrl.append(r1)
        dev_ctrl.append(info1["deviation"])
        latencies.append(latency)

    v_base = np.stack(v_base)
    v_ctrl = np.stack(v_ctrl)
    lo, hi = cfg.reward.v_min, cfg.reward.v_max
    out_base = (v_base < lo) | (v_base > hi)
    out_ctrl = (v_ctrl < lo) | (v_ctrl > hi)

    summary = {
        "scenario_count": v_base.shape[0],
        "violations_baseline": int(out_base.sum()),
        "violations_controlled": int(out_ctrl.sum()),
        "scenarios_violating_baseline": int(out_base.any(axis=1).sum()),
        "scenarios_violating_controlled": int(out_ctrl.any(axis=1).sum()),
        "mean_deviation_baseline": float(np.mean(dev_base)),
        "mean_deviation_controlled": float(np.mean(dev_ctrl)),
        "mean_reward_baseline": float(np.mean(r_base)),
        "mean_reward_controlled": float(np.mean(r_ctrl)),
        "in_band_fraction_controlled": float(1.0 - out_ctrl.mean()),
    }
    columns = (v_base.mean(axis=0), v_base.std(axis=0), v_ctrl.mean(axis=0), v_ctrl.std(axis=0))
    profile = [(f"{bus}.{ph}", ph, *values) for (bus, ph), *values
               in zip(cfg.feeder.node_phases(), *(c.tolist() for c in columns))]
    return summary, profile, latencies
