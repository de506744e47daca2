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
``Z_ff Y_fs`` are built once per feeder by ``build_admittance``, so an update
is one ``Z_ff`` matrix-vector product. It leaves the free rows of Y V at
-conj(S_f / V_f,old), so S_f - V_f,new (S_f / V_f,old) is its mismatch at O(n)
cost; at the flat start the screen is the largest |P| or |Q| injection less
slack_voltage**2 * ``AdmittanceMatrix.flat_bound``. Screens only say when to
check: one exact ``Y`` product checks the mismatch against ``TOL`` in absolute
terms where the screen is below ``SCREEN`` or not finite, and after
``MAX_ITER`` updates, so only the exact mismatch ends a solve. A solve either
returns a converged ``PowerFlowSolution`` or raises PowerFlowDivergedError.
The feeder-head measurement reads the source bus's slack rows of the same
admittance, so neither it nor the solve needs anything else of the feeder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PowerFlowDivergedError
from .feeder import AdmittanceMatrix, Feeder

TOL = 1e-8  # largest absolute P or Q mismatch of a converged solve, p.u.
MAX_ITER = 50
SCREEN = 2 * TOL  # an update whose own mismatch is below this takes the exact check


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
    """The solver's node-phase voltages, and their ``np.hypot`` magnitudes.

    Only a converged solve returns one: a divergence raises instead.
    """

    v_complex: np.ndarray
    v_mag: np.ndarray
    iterations: int
    residual: float

    @property
    def v_re(self) -> np.ndarray:
        return self.v_complex.real

    @property
    def v_im(self) -> np.ndarray:
        return self.v_complex.imag

    @property
    def v_ang_deg(self) -> np.ndarray:
        return np.degrees(np.arctan2(self.v_im, self.v_re))


def solve_power_flow(feeder: Feeder, admittance: AdmittanceMatrix, injections: InjectionSet,
                     slack_voltage: float = 1.0) -> PowerFlowSolution:
    """Z-bus fixed point from a flat start until the mismatch drops below TOL.

    Reads only ``admittance``, which was built from ``feeder``.
    ``iterations`` counts the fixed-point updates. Raises
    PowerFlowDivergedError when the mismatch turns non-finite or is still
    above TOL after MAX_ITER updates; the exception carries the last
    residual so the caller can report how far off the solve ended.
    """
    n = admittance.size
    if injections.p.shape[0] != n:
        raise ValueError(f"injection length {injections.p.shape[0]} != {n} node-phases")
    free, y, z_ff = admittance.free, admittance.y, admittance.z_ff
    v = slack_voltage * admittance.unit  # flat start: each row at its slack phasor
    v_free = v[free]  # carried between iterations; v[free] is set before each check
    w = -(admittance.z_slack @ v[admittance.slack])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_free = (injections.p + 1j * injections.q)[free]  # 1j * inf is nan + inf j
        screen = (float(np.abs(s_free.view(np.float64)).max(initial=0.0))  # <= exact mismatch
                  - slack_voltage * slack_voltage * admittance.flat_bound)
        for iteration in range(MAX_ITER + 1):
            if not SCREEN <= screen < math.inf or iteration == MAX_ITER:
                # the exact mismatch on the free rows; the largest |P| or |Q| is
                # one reduction over the float view, and np.max propagates a NaN
                v[free] = v_free
                f = v_free * np.conj((y @ v)[free]) + s_free
                residual = float(np.abs(f.view(np.float64)).max(initial=0.0))
                if not math.isfinite(residual):
                    raise PowerFlowDivergedError("mismatch turned non-finite",
                                                 residual=residual, iterations=iteration)
                if residual < TOL:
                    return PowerFlowSolution(v_complex=v, v_mag=np.hypot(v.real, v.imag),
                                             iterations=iteration, residual=residual)
            if iteration < MAX_ITER:
                s_over_v = s_free / v_free
                v_free = w - z_ff @ np.conj(s_over_v)
                screen = float(np.abs((s_free - v_free * s_over_v).view(np.float64))
                               .max(initial=0.0))

    raise PowerFlowDivergedError(
        f"no convergence after {MAX_ITER} iterations (residual {residual:.3e})",
        residual=residual, iterations=MAX_ITER)


def feeder_head_measurement(admittance: AdmittanceMatrix, solution: PowerFlowSolution,
                            noise_sigma: float = 0.0,
                            rng: np.random.Generator | None = None) -> np.ndarray:
    """Voltage and line-current phasors at the source bus as 12 features.

    The layout is (v_re, v_im, i_re, i_im) x (A, B, C), with zeros in the
    slots of phases absent at the source bus; it is the state estimator's
    input. The current is the total current leaving the source bus into the
    feeder per phase, computed as the slack rows of Y @ V. Optional Gaussian
    noise is added per rectangular component with standard deviation
    ``noise_sigma`` times the phasor magnitude.
    """
    v = solution.v_complex
    v_head = v[admittance.slack]
    i_head = admittance.y_slack @ v

    features = np.zeros((4, 3))
    features[:, admittance.slack_slots] = v_head.real, v_head.imag, i_head.real, i_head.imag

    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        scale = np.hypot(features[0::2], features[1::2]).repeat(2, axis=0)
        features += noise_sigma * scale * rng.standard_normal((4, 3))

    return features.ravel()
