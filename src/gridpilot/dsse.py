"""Feeder-head state estimation: 12 measurements in, all node voltages out.

The estimator is an MLP regression from the rectangular components of the
three feeder-head voltage and current phasors (12 reals, absent phases as
zeros) to voltage magnitude (p.u.) and angle (degrees) at every node-phase.
Angle targets are trained relative to each phase letter's source angle
(0/-120/+120 deg) so the regression never sees a +-180 wrap; estimates are
reported as absolute angles.

Inputs and targets are standardized per feature from the training set; the
checkpoint stores the normalizers, the node-phase layout, and the feeder
fingerprint so a model cannot silently run against the wrong feeder:
``env.EnvConfig`` checks both against its feeder when the estimator joins a
control system.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import CheckpointError, DatasetError, TrainingError
from .feeder import PHASE_ANGLES, Feeder
from .powerflow import PowerFlowDivergedError, feeder_head_measurement, solve_power_flow
from .scenario import ScenarioSet, to_injections

log = logging.getLogger(__name__)

# features with less spread than this are treated as constant and left
# unscaled, instead of blowing up through a near-zero std
_STD_FLOOR = 1e-12


@dataclass
class DsseHyperparams:
    hidden_layers: tuple[int, ...] = (200, 200, 200, 200, 200)
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 0.095  # aggressive; viable only with standardized targets
    dropout_rate: float = 0.5
    batch_norm: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if any(width < 1 for width in self.hidden_layers):
            raise ValueError("hidden layer widths must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass
class DsseModel:
    net: nn.MlpModel
    input_mean: np.ndarray
    input_std: np.ndarray
    output_mean: np.ndarray
    output_std: np.ndarray
    feeder_fingerprint: str
    node_phases: list[tuple[str, str]]
    # per node-phase, its phase letter's source angle in degrees
    angle_refs_deg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.angle_refs_deg = _angle_refs_deg(self.node_phases)

    @property
    def n_node_phases(self) -> int:
        return len(self.node_phases)


@dataclass
class StateEstimate:
    v_mag: np.ndarray  # p.u.
    v_angle: np.ndarray  # absolute degrees
    clamp_count: int = 0  # magnitudes pushed back into (0.5, 1.5)


def _angle_refs_deg(node_phases) -> np.ndarray:
    return np.array([math.degrees(PHASE_ANGLES[ph]) for _, ph in node_phases])


def _wrap_deg(angles: np.ndarray) -> np.ndarray:
    return (angles + 180.0) % 360.0 - 180.0


def build_training_pairs(scenarios: ScenarioSet, feeder: Feeder, noise_pct: float,
                         slack_voltage: float = 1.0, seed: int = 0,
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Solve each scenario and pair its noisy head features with the state.

    Targets stack v_mag (p.u.) then per-phase-relative angles (degrees).
    Solves on ``feeder.admittance``, which every call on the same feeder
    shares. Diverging scenarios are dropped and counted; more than 10%
    dropped means the fixture or config is broken and raises DatasetError.
    """
    admittance = feeder.admittance
    if not noise_pct >= 0.0:
        raise DatasetError(f"noise_pct must be >= 0, got {noise_pct}")
    refs = _angle_refs_deg(feeder.node_phases())
    rng = np.random.default_rng(seed)
    sigma = noise_pct / 100.0

    pairs = []
    dropped = 0
    for sc in scenarios:
        injections = to_injections(admittance, sc)
        try:
            sol = solve_power_flow(feeder, admittance, injections,
                                   slack_voltage=slack_voltage)
        except PowerFlowDivergedError:
            dropped += 1
            continue
        features = feeder_head_measurement(admittance, sol, noise_sigma=sigma,
                                           rng=rng if sigma > 0 else None)
        angle_rel = _wrap_deg(sol.v_ang_deg - refs)
        pairs.append((features, np.concatenate([sol.v_mag, angle_rel])))

    if dropped:
        log.warning("dropped %d/%d diverging scenarios", dropped, len(scenarios))
    if dropped > 0.1 * len(scenarios):
        raise DatasetError(f"{dropped}/{len(scenarios)} scenarios diverged; "
                           "fixture or config problem")
    return pairs


def _standardize_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > _STD_FLOOR, std, 1.0)
    return mean, std


def train_dsse(pairs, hyperparams: DsseHyperparams, feeder: Feeder
               ) -> tuple[DsseModel, list[float]]:
    """Train the estimator with MSE on standardized features/targets.

    Returns the model and the per-epoch mean-loss trajectory. A non-finite
    loss aborts with TrainingError carrying the epoch index.
    """
    if len(pairs) < 100:
        raise DatasetError(f"need at least 100 training pairs, got {len(pairs)}")
    inputs = np.stack([f for f, _ in pairs])
    targets = np.stack([t for _, t in pairs])
    n_out = targets.shape[1]

    in_mean, in_std = _standardize_stats(inputs)
    out_mean, out_std = _standardize_stats(targets)
    x = (inputs - in_mean) / in_std
    y = (targets - out_mean) / out_std

    rng = np.random.default_rng(hyperparams.seed)
    net = nn.build_mlp([12, *hyperparams.hidden_layers, n_out],
                       ["relu"] * len(hyperparams.hidden_layers) + ["identity"], rng,
                       dropout_rate=hyperparams.dropout_rate,
                       batch_norm=hyperparams.batch_norm)
    adam = nn.AdamState(learning_rate=hyperparams.learning_rate)

    losses = []
    n = x.shape[0]
    for epoch in range(hyperparams.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, hyperparams.batch_size):
            idx = order[start:start + hyperparams.batch_size]
            if idx.shape[0] < 2 and hyperparams.batch_norm:
                continue  # batch stats undefined on a single sample
            out, cache = nn.forward(net, x[idx], rng)
            loss, dloss = nn.mse_loss(out, y[idx])
            if not math.isfinite(loss):
                raise TrainingError(f"loss diverged to {loss}", epoch=epoch)
            nn.adam_step(adam, net, nn.backward(net, cache, dloss))
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / max(n_batches, 1))
        if not math.isfinite(losses[-1]):
            raise TrainingError(f"loss diverged to {losses[-1]}", epoch=epoch)
        log.debug("dsse epoch %d loss %.6g", epoch, losses[-1])

    if losses and losses[-1] >= losses[0]:
        log.warning("dsse training did not improve: first %.4g last %.4g",
                    losses[0], losses[-1])
    model = DsseModel(net=net, input_mean=in_mean, input_std=in_std,
                      output_mean=out_mean, output_std=out_std,
                      feeder_fingerprint=feeder.fingerprint,
                      node_phases=feeder.node_phases())
    return model, losses


def estimate_states(model: DsseModel, features: np.ndarray) -> StateEstimate:
    """Denormalized estimate for one 12-float head measurement.

    The model is not checked against a feeder here; ``env.EnvConfig`` does
    that once when an estimator joins a control system.
    """
    x = (features - model.input_mean) / model.input_std
    out, _ = nn.forward(model.net, x[None, :])
    raw = out[0] * model.output_std + model.output_mean
    n = model.n_node_phases
    v_mag = raw[:n].copy()
    clamped = int(np.sum((v_mag < 0.5) | (v_mag > 1.5)))
    if clamped:
        log.warning("clamped %d implausible magnitude estimates", clamped)
        v_mag = np.clip(v_mag, 0.5, 1.5)
    v_angle = _wrap_deg(raw[n:] + model.angle_refs_deg)
    return StateEstimate(v_mag=v_mag, v_angle=v_angle, clamp_count=clamped)


def evaluate_dsse(model: DsseModel, pairs) -> dict[str, dict[str, float]]:
    """Per-phase-letter magnitude MAPE (%) and angle MAE (degrees), as
    ``mag_mape_per_phase`` and ``angle_mae_per_phase``, each keyed by the
    phase letters the model's node-phases use."""
    if not pairs:
        raise DatasetError("empty test set")
    n = model.n_node_phases
    letters = np.array([ph for _, ph in model.node_phases])

    abs_rel = np.zeros(n)
    abs_ang = np.zeros(n)
    for features, target in pairs:
        est = estimate_states(model, features)
        true_mag = target[:n]
        true_rel = target[n:]
        est_rel = _wrap_deg(est.v_angle - model.angle_refs_deg)
        abs_rel += np.abs(est.v_mag - true_mag) / np.abs(true_mag)
        abs_ang += np.abs(_wrap_deg(est_rel - true_rel))
    abs_rel /= len(pairs)
    abs_ang /= len(pairs)

    mape = {}
    mae = {}
    for ph in ("A", "B", "C"):
        mask = letters == ph
        if mask.any():
            mape[ph] = float(abs_rel[mask].mean() * 100.0)
            mae[ph] = float(abs_ang[mask].mean())
    return {"mag_mape_per_phase": mape, "angle_mae_per_phase": mae}


def save_dsse(model: DsseModel, path) -> None:
    arrays, descriptor = nn.model_to_arrays(model.net)
    arrays["norm.input_mean"] = model.input_mean
    arrays["norm.input_std"] = model.input_std
    arrays["norm.output_mean"] = model.output_mean
    arrays["norm.output_std"] = model.output_std
    nn.save_checkpoint(path, arrays, {
        "kind": "dsse",
        "net": descriptor,
        "feeder_fingerprint": model.feeder_fingerprint,
        "node_phases": [[b, p] for b, p in model.node_phases],
    })


def load_dsse(path) -> DsseModel:
    """The estimator in a ``save_dsse`` file; CheckpointError when its net,
    normalizers or node-phase layout is missing or malformed."""
    arrays, meta = nn.load_checkpoint(path)
    if meta.get("kind") != "dsse":
        raise CheckpointError(f"{path} is not a state-estimator checkpoint")
    try:
        net = nn.model_from_arrays(arrays, meta["net"])
        model = DsseModel(net=net,
                          input_mean=arrays["norm.input_mean"],
                          input_std=arrays["norm.input_std"],
                          output_mean=arrays["norm.output_mean"],
                          output_std=arrays["norm.output_std"],
                          feeder_fingerprint=meta["feeder_fingerprint"],
                          node_phases=[(b, p) for b, p in meta["node_phases"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed state-estimator checkpoint {path}: {exc!r}") from exc
    n_in, n_out = 12, 2 * model.n_node_phases
    if ((net.input_dim, net.output_dim) != (n_in, n_out)
            or {model.input_mean.shape, model.input_std.shape} != {(n_in,)}
            or {model.output_mean.shape, model.output_std.shape} != {(n_out,)}):
        raise CheckpointError(f"{path}: estimator net, normalizers and "
                              f"{model.n_node_phases} node-phases disagree")
    return model
