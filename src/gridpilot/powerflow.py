"""Z-bus fixed-point power flow on node-phase voltage vectors.

Every bus-phase pair is one node with a complex voltage V. The source bus
phases are the slack nodes, pinned to ``slack_voltage`` at 0/-120/+120
degrees for phases A/B/C. Injections follow the load-positive convention
(consumption is positive p/q, generation negative), so with I = Y V the
injected current the mismatch at node n is

    f[n] = V[n] * conj(I[n]) + (p[n] + j q[n])

and ``f_p``/``f_q`` are its real and imaginary parts. Splitting the nodes
into free (f) and slack (s) rows, f = 0 at the free rows reads

    V_f = w - Z_ff conj(S_f / V_f),   w = -Z_ff Y_fs V_s,   Z_ff = inv(Y_ff)

(Bazrafshan & Gatsis, "Comprehensive modeling of three-phase distribution
systems via the bus admittance matrix", IEEE TPWRS 2018). ``Z_ff`` and
``Z_ff Y_fs`` are built once per feeder by ``build_admittance``, so each
iteration is two matrix-vector products: one applying the update, one
checking the mismatch against ``tol`` in absolute terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PowerFlowDivergedError
from .feeder import PHASES, AdmittanceMatrix, Feeder

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50


@dataclass
class InjectionSet:
    """Per node-phase real/reactive power, p.u., load-positive.

    Vectors span every node-phase in admittance index order; source-bus
    entries must be zero (the slack absorbs the system imbalance).
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.p.shape != self.q.shape or self.p.ndim != 1:
            raise ValueError("p and q must be 1-d arrays of equal length")


@dataclass
class PowerFlowSolution:
    v_re: np.ndarray
    v_im: np.ndarray
    iterations: int
    residual: float
    converged: bool

    @property
    def v_complex(self) -> np.ndarray:
        return self.v_re + 1j * self.v_im

    @property
    def v_mag(self) -> np.ndarray:
        return np.hypot(self.v_re, self.v_im)

    @property
    def v_ang_deg(self) -> np.ndarray:
        return np.degrees(np.arctan2(self.v_im, self.v_re))


@dataclass
class MeasurementVector:
    """Feeder-head voltage and current phasors, one slot per phase letter.

    Slots for phases absent at the source bus stay zero. ``as_features``
    flattens to the fixed 12-float layout (v_re, v_im, i_re, i_im) x (A,B,C)
    used as the state-estimator input.
    """

    v_re: np.ndarray  # shape (3,)
    v_im: np.ndarray
    i_re: np.ndarray
    i_im: np.ndarray

    def as_features(self) -> np.ndarray:
        return np.concatenate([self.v_re, self.v_im, self.i_re, self.i_im])

    @classmethod
    def from_features(cls, features: np.ndarray) -> "MeasurementVector":
        features = np.asarray(features, dtype=float)
        if features.shape != (12,):
            raise ValueError(f"expected 12 features, got shape {features.shape}")
        return cls(v_re=features[0:3].copy(), v_im=features[3:6].copy(),
                   i_re=features[6:9].copy(), i_im=features[9:12].copy())


def flat_start(admittance: AdmittanceMatrix, slack_voltage: float) -> np.ndarray:
    """Initial complex voltage: every node-phase at the slack phasor of its phase."""
    return slack_voltage * admittance.unit


def _mismatch(admittance: AdmittanceMatrix, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    return v * np.conj(admittance.y @ v) + s


def _residual(admittance: AdmittanceMatrix, v: np.ndarray, s: np.ndarray) -> float:
    """Largest absolute P or Q mismatch over the non-slack node-phases."""
    f = _mismatch(admittance, v, s)[admittance.free]
    return float(max(np.max(np.abs(f.real), initial=0.0),
                     np.max(np.abs(f.imag), initial=0.0)))


def power_mismatch(admittance: AdmittanceMatrix, v: np.ndarray,
                   injections: InjectionSet) -> tuple[np.ndarray, np.ndarray]:
    """Mismatch vectors (f_p, f_q) at every node-phase for a voltage guess."""
    f = _mismatch(admittance, v, injections.p + 1j * injections.q)
    return f.real, f.imag


def solve_power_flow(feeder: Feeder, admittance: AdmittanceMatrix, injections: InjectionSet,
                     slack_voltage: float = 1.0, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> PowerFlowSolution:
    """Z-bus fixed point from a flat start until the mismatch drops below tol.

    ``iterations`` counts the fixed-point updates. Raises
    PowerFlowDivergedError when the mismatch turns non-finite or is still
    above tol after ``max_iter`` updates; the exception carries the last
    residual so the caller can report how far off the solve ended.
    """
    n = admittance.size
    if injections.p.shape[0] != n:
        raise ValueError(f"injection length {injections.p.shape[0]} != {n} node-phases")
    free = admittance.free
    s = injections.p + 1j * injections.q
    s_free = s[free]
    v = flat_start(admittance, slack_voltage)
    w = -(admittance.z_slack @ v[admittance.slack])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iteration in range(max_iter + 1):
            residual = _residual(admittance, v, s)
            if not math.isfinite(residual):
                raise PowerFlowDivergedError("mismatch turned non-finite",
                                             residual=residual, iterations=iteration)
            if residual < tol:
                return PowerFlowSolution(v_re=v.real.copy(), v_im=v.imag.copy(),
                                         iterations=iteration, residual=residual,
                                         converged=True)
            if iteration < max_iter:
                v[free] = w - admittance.z_ff @ np.conj(s_free / v[free])

    raise PowerFlowDivergedError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        residual=residual, iterations=max_iter)


def feeder_head_measurement(feeder: Feeder, admittance: AdmittanceMatrix,
                            solution: PowerFlowSolution, noise_sigma: float = 0.0,
                            rng: np.random.Generator | None = None) -> MeasurementVector:
    """Voltage and line-current phasors at the source bus.

    The current slot is the total current leaving the source bus into the
    feeder per phase, computed as the slack rows of Y @ V. Optional Gaussian
    noise is added per rectangular component with standard deviation
    ``noise_sigma`` times the phasor magnitude.
    """
    src = feeder.bus(feeder.source_bus_id)
    v = solution.v_complex
    v_head = v[admittance.slack]
    i_head = admittance.y[admittance.slack] @ v

    out = {name: np.zeros(3) for name in ("v_re", "v_im", "i_re", "i_im")}
    slots = [PHASES.index(ph) for ph in src.phases]
    out["v_re"][slots], out["v_im"][slots] = v_head.real, v_head.imag
    out["i_re"][slots], out["i_im"][slots] = i_head.real, i_head.imag

    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        v_scale = np.hypot(out["v_re"], out["v_im"])
        i_scale = np.hypot(out["i_re"], out["i_im"])
        out["v_re"] += noise_sigma * v_scale * rng.standard_normal(3)
        out["v_im"] += noise_sigma * v_scale * rng.standard_normal(3)
        out["i_re"] += noise_sigma * i_scale * rng.standard_normal(3)
        out["i_im"] += noise_sigma * i_scale * rng.standard_normal(3)

    return MeasurementVector(**out)
