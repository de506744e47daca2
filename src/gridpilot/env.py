"""Volt-VAr control MDP: actions, barrier reward, environment step.

A state is the 1-D vector of node-phase voltage magnitudes (p.u.). One
environment step is the physical half of the pipeline: map the agent's zone
coefficients to inverter reactive setpoints, subtract them from the scenario's
idle-inverter injections (``conditions``, built once per scenario), solve the
power flow, and take the feeder-head measurement; its ``info`` holds
``terminal``, ``iterations``, and the ``solution`` and ``measurement`` (or,
diverged, the solver's ``residual``), from which each report derives its own
numbers. ``observe`` is the other half: it turns a step into what the agent
sees, the state estimator's reading of the head measurement or (in
perfect-state mode, no estimator) the true solver voltages. ``idle_step`` is
the step under idle inverters that starts both a training episode
(``ddpg.train``) and a deployed control cycle (``runtime``). The reward is
always computed from true solver voltages; estimation error only affects what
the agent observes.

``EnvConfig`` is the one description of the controlled system: feeder,
estimator, inverter zones, slack voltage, measurement noise and reward band.
Training, evaluation, the online loop and the oracle all take one; building
it checks an estimator against its feeder and builds the feeder's admittance.
The episode length belongs to the learner (``ddpg.TrainConfig.horizon``).

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
from .feeder import Feeder
from .powerflow import InjectionSet, feeder_head_measurement, solve_power_flow
from .scenario import Scenario, to_injections

log = logging.getLogger(__name__)

DIVERGENCE_PENALTY_PER_NODE = -10.0


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
    # per pv unit, read-only: apparent-power and reactive ratings, p.u.
    s_rated: np.ndarray = field(init=False, repr=False)
    q_rated: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_pv = len(self.feeder.pv_units)
        if self.zone_map is None:
            self.zone_map = np.zeros(n_pv, dtype=int)
        else:
            self.zone_map = np.asarray(self.zone_map, dtype=int)
            if self.zone_map.shape != (n_pv,) or (self.zone_map < 0).any():
                raise ValueError(f"zone_map must give all {n_pv} pv units a zone index >= 0")
        if not self.measurement_noise_pct >= 0.0:
            raise ValueError("measurement_noise_pct must be >= 0")
        if not self.slack_voltage > 0.0:
            raise ValueError(f"slack_voltage must be > 0, got {self.slack_voltage}")
        est = self.estimator
        if est is not None and est.feeder_fingerprint != self.feeder.fingerprint:
            raise ModelMismatchError(
                f"state estimator was trained for feeder {est.feeder_fingerprint[:12]}..., "
                f"active feeder is {self.feeder.fingerprint[:12]}...")
        if est is not None and est.n_node_phases != self.feeder.n_node_phases:
            raise ModelMismatchError(f"estimator outputs {est.n_node_phases} node-phases, "
                                     f"feeder has {self.feeder.n_node_phases}")
        self.s_rated = np.array([pv.s_rated for pv in self.feeder.pv_units], dtype=float)
        self.q_rated = np.array([pv.q_rated for pv in self.feeder.pv_units], dtype=float)
        self.s_rated.flags.writeable = self.q_rated.flags.writeable = False
        self.feeder.admittance  # NumericalError here, not inside a stage

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


def q_max_vector(s_rated: np.ndarray, p_pv: np.ndarray) -> np.ndarray:
    """``q_max_no_curtailment`` for every pv unit at once.

    One array expression; ``np.sqrt`` is correctly rounded, as ``math.sqrt``
    is. Raises ValueError when any p_pv lies outside [0, s_rated].
    """
    outside = (p_pv < 0) | (p_pv > s_rated)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"p_pv={p_pv[k]} outside [0, s_rated={s_rated[k]}] (pv unit {k})")
    return np.sqrt(s_rated * s_rated - p_pv * p_pv)


def map_action(coeff: np.ndarray, q_rated: np.ndarray, zone_map) -> np.ndarray:
    """Reactive setpoints q[k] = coeff[zone(k)] * q_rated[k], bounded by ratings.

    ``q_rated`` is the per-unit reactive rating (``EnvConfig.q_rated``).
    Out-of-range coefficients are clamped to [-1, 1] (and logged); the final
    hard clamp to +-q_rated keeps the rating bound even if a caller bypasses
    the coefficient clamp.
    """
    clamped = np.minimum(np.maximum(coeff, -1.0), 1.0)  # np.clip's values, without its overhead
    if log.isEnabledFor(logging.DEBUG) and not np.array_equal(coeff, clamped):
        log.debug("action coefficients clamped: %s", coeff)
    return np.minimum(np.maximum(clamped[zone_map] * q_rated, -q_rated), q_rated)


def voltage_barrier(v: float, cfg: RewardConfig) -> float:
    """Quadratic inside the [v_min, v_max] band (inclusive), absolute outside."""
    dev = v - cfg.v_nominal
    if cfg.v_min <= v <= cfg.v_max:
        return dev * dev
    return abs(dev)


def _voltage_barrier_vec(v: np.ndarray, cfg: RewardConfig) -> np.ndarray:
    dev = v - cfg.v_nominal
    barrier = np.abs(dev)
    np.multiply(dev, dev, out=barrier, where=(v >= cfg.v_min) & (v <= cfg.v_max))
    return barrier


def curtailment_barrier(q: float, q_max: float) -> float:
    """Zero up to the no-curtailment limit, linear excess beyond it."""
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    return max(abs(q) - q_max, 0.0)


def reward(v_mags: np.ndarray, q_set: np.ndarray, q_max_values: np.ndarray,
           cfg: RewardConfig) -> float:
    """r = -(lambda * sum voltage barriers + eta * sum curtailment barriers)."""
    if q_set.shape != q_max_values.shape:
        raise ValueError("q_set and q_max_values must align")
    lam = _voltage_barrier_vec(np.asarray(v_mags, dtype=float), cfg).sum()
    gam = np.maximum(np.abs(q_set) - q_max_values, 0.0).sum()
    return float(-(cfg.lambda_weight * lam + cfg.eta_weight * gam))


def objective_deviation(v_mags: np.ndarray, v_nominal: float = 1.0) -> float | np.ndarray:
    """Sum of absolute deviations from nominal over the last axis (the tracking metric)."""
    return np.abs(np.asarray(v_mags, dtype=float) - v_nominal).sum(axis=-1)


@dataclass(frozen=True)
class Conditions:
    """What every step on one scenario shares; ``conditions`` builds it."""
    scenario: Scenario
    injections: InjectionSet  # read-only: loads minus PV active output in p, loads in q
    q_max: np.ndarray  # read-only: per pv unit, the no-curtailment reactive limit


def conditions(cfg: EnvConfig, scenario: Scenario) -> Conditions:
    """Raises ValueError when a PV unit's output lies outside its rating."""
    injections = to_injections(cfg.feeder.admittance, scenario)
    q_max = q_max_vector(cfg.s_rated, scenario.p_pv)
    injections.p.flags.writeable = injections.q.flags.writeable = q_max.flags.writeable = False
    return Conditions(scenario, injections, q_max)


def env_step(cfg: EnvConfig, cond: Conditions, action: np.ndarray,
             rng: np.random.Generator | None = None) -> tuple[np.ndarray, float, dict]:
    """Apply an action to a scenario's conditions and measure the system.

    ``action`` holds one coefficient per zone. Returns (true magnitudes,
    reward, info); info holds ``terminal``, ``iterations``, the ``solution``
    and its 12 feeder-head features (``measurement``), which ``observe``
    turns into the agent's state. Power-flow divergence under the action
    yields a large negative reward scaled by the node-phase count, info of
    ``terminal`` (True), ``iterations`` and ``residual``, and a placeholder
    flat nominal profile (never bootstrapped from: the step is terminal).
    """
    admittance = cfg.feeder.admittance
    q_set = map_action(action, cfg.q_rated, cfg.zone_map)
    injections = InjectionSet(p=cond.injections.p, q=cond.injections.q.copy())
    np.subtract.at(injections.q, admittance.pv_rows, q_set)  # to_injections' q_pv step

    try:
        sol = solve_power_flow(cfg.feeder, admittance, injections,
                               slack_voltage=cfg.slack_voltage)
    except PowerFlowDivergedError as exc:
        log.warning("power flow diverged under action %s: %s", action, exc)
        n = cfg.state_dim
        info = {"terminal": True, "iterations": exc.iterations, "residual": exc.residual}
        return np.full(n, cfg.reward.v_nominal), DIVERGENCE_PENALTY_PER_NODE * n, info

    meas = feeder_head_measurement(admittance, sol, cfg.measurement_noise_pct / 100.0, rng=rng)
    info = {"terminal": False, "iterations": sol.iterations, "solution": sol, "measurement": meas}
    return sol.v_mag, reward(sol.v_mag, q_set, cond.q_max, cfg.reward), info


def observe(estimator: DsseModel | None, state: np.ndarray, info: dict) -> np.ndarray:
    """The agent's state after an ``env_step``.

    ``state`` (the true magnitudes, or the placeholder after a divergence)
    when there is no estimator or the step was terminal; otherwise the
    estimator's reading of the step's feeder-head measurement.
    """
    if estimator is None or info["terminal"]:
        return state
    return estimate_states(estimator, info["measurement"]).v_mag


def idle_step(cfg: EnvConfig, cond: Conditions,
              rng: np.random.Generator | None = None) -> tuple[np.ndarray, float, dict]:
    """``env_step`` under idle inverters (all zone coefficients zero).

    Raises InfeasibleScenarioError when the power flow diverges, since no
    episode or control cycle can start from such a scenario.
    """
    state, r, info = env_step(cfg, cond, np.zeros(cfg.n_zones), rng=rng)
    if info["terminal"]:
        raise InfeasibleScenarioError(f"scenario {cond.scenario.id} infeasible at zero action")
    return state, r, info
