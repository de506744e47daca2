"""Volt-VAr control MDP: actions, barrier reward, environment step.

A state is the 1-D vector of node-phase voltage magnitudes (p.u.). One
environment step is the physical half of the pipeline: map the agent's zone
coefficients to inverter reactive setpoints, superimpose them on the
scenario's injections, solve the power flow, and take the feeder-head
measurement. ``observe`` is the other half: it turns a step into what the
agent sees, the state estimator's reading of the head measurement or (in
perfect-state mode, no estimator) the true solver voltages. ``idle_step`` is
the step under idle inverters that starts both a training episode
(``ddpg.train``) and a deployed control cycle (``runtime``). The reward is
always computed from true solver voltages; estimation error only affects
what the agent observes.

``EnvConfig`` is the one description of the controlled system: feeder,
estimator, inverter zones, slack voltage, measurement noise and reward band.
Training, evaluation, the online loop and the oracle all take one; building
it is where an estimator is checked against its feeder. The episode length
belongs to the learner (``ddpg.TrainConfig.horizon``).

Sign conventions: positive q setpoint injects reactive power (raises local
voltage), negative absorbs. Reward is never positive; zero only for an
exactly nominal profile with no curtailment-barrier violation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dsse import DsseModel, estimate_states
from .errors import InfeasibleScenarioError, ModelMismatchError, PowerFlowDivergedError
from .feeder import AdmittanceMatrix, Feeder, build_admittance
from .powerflow import (
    MeasurementVector,
    feeder_head_measurement,
    solve_power_flow,
)
from .scenario import Scenario, to_injections

log = logging.getLogger(__name__)

DIVERGENCE_PENALTY_PER_NODE = -10.0


@dataclass
class MdpAction:
    coefficients: np.ndarray  # one per zone, in [-1, 1]

    def __post_init__(self):
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=float))


@dataclass
class RewardConfig:
    lambda_weight: float = 1.0
    eta_weight: float = 0.5
    v_min: float = 0.95
    v_max: float = 1.05
    v_nominal: float = 1.0

    def __post_init__(self):
        if not self.v_min < self.v_nominal < self.v_max:
            raise ValueError("need v_min < v_nominal < v_max")
        if self.lambda_weight < 0 or self.eta_weight < 0:
            raise ValueError("barrier weights must be nonnegative")


@dataclass
class EnvConfig:
    feeder: Feeder
    estimator: DsseModel | None = None  # None means perfect-state mode
    measurement_noise_pct: float = 0.0
    zone_map: np.ndarray | None = None  # pv unit -> zone index; default all zone 0
    slack_voltage: float = 1.0
    reward: RewardConfig = field(default_factory=RewardConfig)
    admittance: AdmittanceMatrix = None

    def __post_init__(self):
        n_pv = len(self.feeder.pv_units)
        if self.zone_map is None:
            self.zone_map = np.zeros(n_pv, dtype=int)
        else:
            self.zone_map = np.asarray(self.zone_map, dtype=int)
            if self.zone_map.shape != (n_pv,):
                raise ValueError(f"zone_map must cover all {n_pv} pv units")
        est = self.estimator
        if est is not None and est.feeder_fingerprint != self.feeder.fingerprint:
            raise ModelMismatchError(
                f"state estimator was trained for feeder {est.feeder_fingerprint[:12]}..., "
                f"active feeder is {self.feeder.fingerprint[:12]}...")
        if est is not None and est.n_node_phases != self.feeder.n_node_phases:
            raise ModelMismatchError(f"estimator outputs {est.n_node_phases} node-phases, "
                                     f"feeder has {self.feeder.n_node_phases}")
        if self.admittance is None:
            self.admittance = build_admittance(self.feeder)

    @property
    def n_zones(self) -> int:
        return int(self.zone_map.max()) + 1 if self.zone_map.size else 1

    @property
    def state_dim(self) -> int:
        return self.feeder.n_node_phases


def q_max_no_curtailment(s_rated: float, p_pv: float) -> float:
    """Largest reactive magnitude the inverter can carry without curtailing."""
    if p_pv < 0 or p_pv > s_rated:
        raise ValueError(f"p_pv={p_pv} outside [0, s_rated={s_rated}]")
    return math.sqrt(s_rated * s_rated - p_pv * p_pv)


def q_max_vector(feeder: Feeder, scenario: Scenario) -> np.ndarray:
    return np.array([q_max_no_curtailment(pv.s_rated, scenario.p_pv[k])
                     for k, pv in enumerate(feeder.pv_units)])


def map_action(action: MdpAction, pv_units, zone_map) -> np.ndarray:
    """Reactive setpoints q[k] = a[zone(k)] * q_rated[k], bounded by ratings.

    Out-of-range coefficients are clamped to [-1, 1] (and logged); the final
    hard clamp to +-q_rated keeps the rating bound even if a caller bypasses
    the coefficient clamp.
    """
    coeff = action.coefficients
    clamped = np.clip(coeff, -1.0, 1.0)
    if not np.array_equal(coeff, clamped):
        log.debug("action coefficients clamped: %s", coeff)
    q_rated = np.array([pv.q_rated for pv in pv_units])
    q = clamped[zone_map] * q_rated if len(pv_units) else np.zeros(0)
    return np.clip(q, -q_rated, q_rated)


def voltage_barrier(v: float, cfg: RewardConfig) -> float:
    """Quadratic inside the [v_min, v_max] band (inclusive), absolute outside."""
    dev = v - cfg.v_nominal
    if cfg.v_min <= v <= cfg.v_max:
        return dev * dev
    return abs(dev)


def _voltage_barrier_vec(v: np.ndarray, cfg: RewardConfig) -> np.ndarray:
    dev = v - cfg.v_nominal
    in_band = (v >= cfg.v_min) & (v <= cfg.v_max)
    return np.where(in_band, dev * dev, np.abs(dev))


def curtailment_barrier(q: float, q_max: float) -> float:
    """Zero up to the no-curtailment limit, linear excess beyond it."""
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    return max(abs(q) - q_max, 0.0)


def reward(v_mags: np.ndarray, q_setpoints: np.ndarray, q_max_values: np.ndarray,
           cfg: RewardConfig) -> float:
    """r = -(lambda * sum voltage barriers + eta * sum curtailment barriers)."""
    if q_setpoints.shape != q_max_values.shape:
        raise ValueError("q_setpoints and q_max_values must align")
    lam = _voltage_barrier_vec(np.asarray(v_mags, dtype=float), cfg).sum()
    gam = np.maximum(np.abs(q_setpoints) - q_max_values, 0.0).sum()
    return float(-(cfg.lambda_weight * lam + cfg.eta_weight * gam))


def objective_deviation(v_mags: np.ndarray, v_nominal: float = 1.0) -> float:
    """Sum of absolute voltage deviations from nominal (the tracking metric)."""
    return float(np.abs(np.asarray(v_mags, dtype=float) - v_nominal).sum())


def env_step(cfg: EnvConfig, scenario: Scenario, action: MdpAction,
             rng: np.random.Generator | None = None) -> tuple[np.ndarray, float, dict]:
    """Apply an action to a scenario and measure the resulting system.

    Returns (true_state, reward, info). info carries the true voltages, the
    feeder-head measurement and P/Q, the realized setpoints, and a terminal
    flag; ``observe`` turns the step into the agent's state. Power-flow
    divergence under the action yields a large negative reward scaled by the
    node-phase count and terminal=True; the placeholder next state is a flat
    nominal profile (never bootstrapped from, since the transition is
    terminal).
    """
    q_set = map_action(action, cfg.feeder.pv_units, cfg.zone_map)
    injections = to_injections(cfg.feeder, cfg.admittance, scenario, q_pv=q_set)
    q_max_vals = q_max_vector(cfg.feeder, scenario)

    try:
        sol = solve_power_flow(cfg.feeder, cfg.admittance, injections,
                               slack_voltage=cfg.slack_voltage)
    except PowerFlowDivergedError as exc:
        log.warning("power flow diverged under action %s: %s", action.coefficients, exc)
        n = cfg.state_dim
        placeholder = np.full(n, cfg.reward.v_nominal)
        info = {"terminal": True, "diverged": True, "q_setpoints": q_set,
                "residual": exc.residual, "iterations": exc.iterations}
        return placeholder, DIVERGENCE_PENALTY_PER_NODE * n, info

    r = reward(sol.v_mag, q_set, q_max_vals, cfg.reward)

    sigma = cfg.measurement_noise_pct / 100.0
    meas = feeder_head_measurement(cfg.feeder, cfg.admittance, sol,
                                   noise_sigma=sigma,
                                   rng=rng if sigma > 0 else None)
    state = sol.v_mag.copy()

    slack = cfg.admittance.slack
    v = sol.v_complex
    s_head = v[slack] * np.conj(cfg.admittance.y[slack] @ v)

    band = cfg.reward
    info = {
        "terminal": False,
        "diverged": False,
        "v_mag_true": sol.v_mag,
        "v_ang_deg_true": sol.v_ang_deg,
        "q_setpoints": q_set,
        "q_max": q_max_vals,
        "p_head": float(s_head.real.sum()),
        "q_head": float(s_head.imag.sum()),
        "measurement": meas,
        "violations": int(np.sum((sol.v_mag < band.v_min) | (sol.v_mag > band.v_max))),
        "deviation": objective_deviation(sol.v_mag, band.v_nominal),
        "iterations": sol.iterations,
    }
    return state, r, info


def observe(estimator: DsseModel | None, state: np.ndarray, info: dict) -> np.ndarray:
    """The agent's state after an ``env_step``.

    ``state`` (the true magnitudes, or the placeholder after a divergence)
    when there is no estimator or the step was terminal; otherwise the
    estimator's reading of the step's feeder-head measurement.
    """
    if estimator is None or info["terminal"]:
        return state
    return estimate_states(estimator, info["measurement"]).v_mag


def idle_step(cfg: EnvConfig, scenario: Scenario,
              rng: np.random.Generator | None = None) -> tuple[np.ndarray, float, dict]:
    """``env_step`` under idle inverters (all zone coefficients zero).

    Raises InfeasibleScenarioError when the power flow diverges, since no
    episode or control cycle can start from such a scenario.
    """
    state, r, info = env_step(cfg, scenario, MdpAction(np.zeros(cfg.n_zones)), rng=rng)
    if info["terminal"]:
        raise InfeasibleScenarioError(f"scenario {scenario.id} infeasible at zero action")
    return state, r, info
