"""Dense-network machinery used by the state estimator and the DDPG nets.

Everything is plain numpy in float64. A model is an ordered list of dense
layers; each layer applies, in order: affine transform, optional batch
normalization, activation, optional inverted dropout. Gradients are
hand-derived and verified against central finite differences in the tests,
so any change here must keep the backward pass in lockstep with forward().

Conventions:
  - batches are (n_samples, n_features), weights are (in_dim, out_dim)
  - a pass given an rng is a training pass: it samples dropout masks from
    that rng and uses batch statistics for batch norm (updating running
    statistics as a side effect); a pass without one is an inference pass,
    deterministic and on running statistics. Nets carry no mode
  - layer i's arrays are its attributes ``W``, ``b`` and, with batch norm,
    ``gamma``, ``beta``, ``running_mean`` and ``running_var``, each saved under
    the key "L{i}.<attribute>"; the trainable ones, W, b, gamma and beta, are
    views into one vector, ``MlpModel.params``, in layer order; ``backward`` returns
    d(loss)/d(params) in that layout (never the input gradient, which
    ``input_gradient`` returns alone), and ``adam_step`` consumes it as scratch
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ModelMismatchError, NumericalError
from .fileio import write_atomic

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults

_ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass
class DenseLayer:
    """One layer; each array attribute is named as the suffix of its
    checkpoint key "L{i}.<name>". The batch-norm arrays (scale ``gamma``,
    shift ``beta`` and the running statistics) are all None without batch norm."""
    W: np.ndarray
    b: np.ndarray
    activation: str = "identity"
    dropout_rate: float = 0.0
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ModelMismatchError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ModelMismatchError("dropout_rate must lie in [0, 1)")

    @property
    def in_dim(self) -> int:
        return self.W.shape[0]

    @property
    def out_dim(self) -> int:
        return self.W.shape[1]


@dataclass
class MlpModel:
    layers: list[DenseLayer]
    # every trainable array of ``layers`` is a view into this vector
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ModelMismatchError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")
        _bind(self, np.concatenate(
            [np.ravel(getattr(layer, name)) for _, layer, name in _slots(self)], dtype=float))

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


def build_mlp(dims: list[int], activations: list[str], rng: np.random.Generator,
              dropout_rate: float = 0.0, batch_norm: bool = False,
              final_init_scale: float | None = None) -> MlpModel:
    """Stack dense layers for the given dimension chain, one activation each.

    Hidden layers get the dropout/batch-norm treatment; the output layer is
    a plain affine + activation. Weights and biases start uniform in
    +-1/sqrt(fan_in); ``final_init_scale`` overrides the output layer bound
    (the DDPG nets want +-3e-3 there).
    """
    if len(dims) < 2:
        raise ModelMismatchError("need at least input and output dims")
    n_layers = len(dims) - 1
    if len(activations) != n_layers:
        raise ModelMismatchError(f"need {n_layers} activations, got {len(activations)}")
    layers = []
    last = n_layers - 1
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        bound = 1.0 / np.sqrt(d_in)
        if i == last and final_init_scale is not None:
            bound = final_init_scale
        layer = DenseLayer(W=rng.uniform(-bound, bound, size=(d_in, d_out)),
                           b=rng.uniform(-bound, bound, size=d_out),
                           activation=activations[i],
                           dropout_rate=0.0 if i == last else dropout_rate)
        if batch_norm and i != last:  # starts as the identity transform
            layer.gamma, layer.beta = np.ones(d_out), np.zeros(d_out)
            layer.running_mean, layer.running_var = np.zeros(d_out), np.ones(d_out)
        layers.append(layer)
    return MlpModel(layers=layers)


def _slots(model: MlpModel):
    """(key, layer, attribute) of every trainable array, in ``params`` order."""
    for i, layer in enumerate(model.layers):
        for name in ("W", "b", "gamma", "beta") if layer.gamma is not None else ("W", "b"):
            yield f"L{i}.{name}", layer, name


def _views(model: MlpModel, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Views of a vector laid out like ``model.params``, keyed like its arrays."""
    views, offset = {}, 0
    for key, layer, name in _slots(model):
        shape = getattr(layer, name).shape
        size = math.prod(shape)
        views[key] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def _bind(model: MlpModel, flat: np.ndarray) -> None:
    """Make ``flat`` the model's parameter vector and each array a view of it."""
    for (_, layer, name), view in zip(_slots(model), _views(model, flat).values()):
        setattr(layer, name, view)
    model.params = flat


def clone_model(model: MlpModel) -> MlpModel:
    """Independent copy of ``model``'s arrays (target-network init)."""
    arrays, descriptor = model_to_arrays(model)
    return model_from_arrays({k: v.copy() for k, v in arrays.items()}, descriptor)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _activation_backward(name: str, y: np.ndarray, a: np.ndarray,
                         da: np.ndarray) -> np.ndarray:
    """d(loss)/d(y) from d(loss)/d(a), a = activation(y); relu multiplies by its
    mask and identity by nothing, which leaves every product's bits as they are."""
    if name == "relu":
        return da * (y > 0.0)
    if name == "tanh":
        return da * (1.0 - a * a)
    return da


def forward(model: MlpModel, batch: np.ndarray,
            rng: np.random.Generator | None = None) -> tuple[np.ndarray, list]:
    """Run the network, returning outputs and the per-layer backward cache.

    Given ``rng``, this is a training pass (dropout masks from ``rng``, batch
    statistics, running statistics updated); without one, an inference pass.
    """
    x = np.atleast_2d(np.asarray(batch, dtype=float))
    if x.shape[1] != model.input_dim:
        raise ModelMismatchError(
            f"batch has {x.shape[1]} features, model expects {model.input_dim}")
    train = rng is not None

    cache = []
    for layer in model.layers:
        z = x @ layer.W
        z += layer.b
        entry = {"x": x, "train": train}

        y = z
        if layer.gamma is not None:
            if train:
                mu = z.mean(axis=0)
                var = z.var(axis=0)  # biased, matches the backward pass
                layer.running_mean = BN_MOMENTUM * layer.running_mean + (1 - BN_MOMENTUM) * mu
                layer.running_var = BN_MOMENTUM * layer.running_var + (1 - BN_MOMENTUM) * var
            else:
                mu, var = layer.running_mean, layer.running_var
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            z_hat = (z - mu) * inv_std
            y = layer.gamma * z_hat + layer.beta
            entry.update(mu=mu, inv_std=inv_std, z_hat=z_hat)

        a = _activate(layer.activation, y)
        entry["y"] = y
        entry["a"] = a

        if layer.dropout_rate > 0.0 and train:
            keep = 1.0 - layer.dropout_rate
            mask = (rng.random(a.shape) < keep) / keep  # inverted dropout
            a = a * mask
            entry["mask"] = mask

        cache.append(entry)
        x = a

    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite network output")
    return x, cache


def _backprop(model: MlpModel, cache: list, output_gradient: np.ndarray):
    """Yield (i, d(loss)/d(batch-norm output), d(loss)/d(affine output)) from
    the last layer to layer 0, whose input gradient is never formed. Batch
    norm is differentiated through the batch statistics after a training
    pass and through the running statistics after an inference pass."""
    if len(cache) != len(model.layers):
        raise ModelMismatchError("cache does not match model (stale or truncated)")
    # contiguous: an identity layer passes it on as dz, and a strided dz could
    # change the order of the reductions and products taken from it
    da = np.atleast_2d(np.ascontiguousarray(output_gradient, dtype=float))

    for i in range(len(model.layers) - 1, -1, -1):
        layer, entry = model.layers[i], cache[i]
        if da.shape != entry["a"].shape:
            raise ModelMismatchError("output gradient shape does not match cached forward")

        if "mask" in entry:
            da = da * entry["mask"]

        dy = _activation_backward(layer.activation, entry["y"], entry["a"], da)

        if layer.gamma is not None:
            z_hat, inv_std = entry["z_hat"], entry["inv_std"]
            dz_hat = dy * layer.gamma
            if entry["train"]:
                n = z_hat.shape[0]
                # standard batch-norm backward through batch mean/variance
                dz = (inv_std / n) * (n * dz_hat - dz_hat.sum(axis=0)
                                      - z_hat * (dz_hat * z_hat).sum(axis=0))
            else:
                dz = dz_hat * inv_std
        else:
            dz = dy

        yield i, dy, dz
        if i:
            da = dz @ layer.W.T


def backward(model: MlpModel, cache: list, output_gradient: np.ndarray) -> np.ndarray:
    """d(loss)/d(model.params), as one new vector, from d(loss)/d(outputs)."""
    grad = np.empty_like(model.params)
    views = _views(model, grad)
    for i, dy, dz in _backprop(model, cache, output_gradient):
        entry = cache[i]
        if model.layers[i].gamma is not None:
            np.sum(dy * entry["z_hat"], axis=0, out=views[f"L{i}.gamma"])
            np.sum(dy, axis=0, out=views[f"L{i}.beta"])
        np.matmul(entry["x"].T, dz, out=views[f"L{i}.W"])
        np.sum(dz, axis=0, out=views[f"L{i}.b"])
    return grad


def input_gradient(model: MlpModel, cache: list, output_gradient: np.ndarray) -> np.ndarray:
    """d(loss)/d(inputs) from d(loss)/d(outputs); no parameter gradient is formed."""
    *_, (_, _, dz) = _backprop(model, cache, output_gradient)
    return dz @ model.layers[0].W.T


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of squared elementwise differences and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ModelMismatchError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


# elementwise updates of a whole parameter vector (Adam, soft updates) run in
# blocks of this many elements, so that each temporary they need is small
# enough for the allocator to reuse: a parameter-sized one is fresh,
# page-faulting memory on every call
BLOCK_SIZE = 1 << 15


@dataclass
class AdamState:
    learning_rate: float
    step: int = 0
    m: np.ndarray | None = None  # first and second moments, laid out like params
    v: np.ndarray | None = None


def adam_step(state: AdamState, model: MlpModel, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of ``model.params`` in place (Kingma & Ba,
    Algorithm 1). ``grad`` is consumed as scratch. A non-finite gradient
    raises NumericalError naming the parameter before anything is updated."""
    state.step += 1
    t = state.step
    params = model.params
    if grad.shape != params.shape:
        raise ModelMismatchError(
            f"gradient has shape {grad.shape}, parameters {params.shape}")
    if not np.isfinite(grad).all():
        key = next(k for k, g in _views(model, grad).items() if not np.isfinite(g).all())
        raise NumericalError(f"non-finite gradient for {key!r} at step {t}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    m, v = state.m, state.v
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    scratch = np.empty(min(BLOCK_SIZE, params.size))
    for start in range(0, params.size, BLOCK_SIZE):
        block = slice(start, start + BLOCK_SIZE)
        g, mb, vb, pb = grad[block], m[block], v[block], params[block]
        tmp = scratch[:g.size]
        # one elementwise operation a line, in the order of m = b1 m + (1 - b1) g,
        # v = b2 v + ((1 - b2) g) g, p -= (lr (m / c1)) / (sqrt(v / c2) + eps)
        np.multiply(g, 1 - ADAM_BETA2, out=tmp)
        tmp *= g
        vb *= ADAM_BETA2
        vb += tmp
        g *= 1 - ADAM_BETA1
        mb *= ADAM_BETA1
        mb += g
        np.divide(mb, correction1, out=g)
        g *= state.learning_rate
        np.divide(vb, correction2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPSILON
        g /= tmp
        pb -= g


# --- checkpointing ---------------------------------------------------------
#
# Single-file binary container: magic, version, JSON header (metadata plus an
# array manifest with dtype/shape/byte offsets), then the raw little-endian
# array payloads. No timestamps or compression, so identical contents give
# identical bytes.

_MAGIC = b"GPCK"
_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], metadata: dict) -> None:
    manifest = []
    offset = 0
    payload = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        raw = arr.tobytes()
        payload.append(raw)
        offset += len(raw)
    header = json.dumps({"metadata": metadata, "arrays": manifest},
                        sort_keys=True).encode()
    write_atomic(path, _MAGIC, struct.pack("<HQ", _VERSION, len(header)), header, *payload)


_PREFIX = len(_MAGIC) + struct.calcsize("<HQ")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """(arrays, metadata) of a checkpoint; CheckpointError if it is not one
    (unreadable, truncated, wrong magic or version, malformed header)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    if len(blob) < _PREFIX:
        raise CheckpointError(f"truncated checkpoint {path}")
    version, header_len = struct.unpack("<HQ", blob[4:_PREFIX])
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    base = _PREFIX + header_len
    if base > len(blob):
        raise CheckpointError(f"truncated checkpoint {path}")
    try:
        header = json.loads(blob[_PREFIX:base])
        arrays = {}
        for item in header["arrays"]:
            shape = tuple(int(d) for d in item["shape"])
            start = base + int(item["offset"])
            end = start + 8 * math.prod(shape)
            if not base <= start <= end <= len(blob):
                raise CheckpointError(f"truncated checkpoint {path}")
            arrays[str(item["name"])] = np.frombuffer(
                blob[start:end], dtype="<f8").reshape(shape).copy()
        metadata = header["metadata"]
    # JSONDecodeError is a ValueError; int() of an inf read from 1e400 overflows;
    # a header nested too deep for the parser raises RecursionError
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CheckpointError(f"corrupt checkpoint header in {path}: {exc!r}") from exc
    if not isinstance(metadata, dict):
        raise CheckpointError(f"corrupt checkpoint header in {path}: metadata is not an object")
    return arrays, metadata


def model_to_arrays(model: MlpModel) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a model into checkpoint arrays plus an architecture descriptor."""
    arrays, arch = {}, []
    for i, layer in enumerate(model.layers):
        arch.append({"in": layer.in_dim, "out": layer.out_dim,
                     "activation": layer.activation,
                     "dropout_rate": layer.dropout_rate,
                     "batch_norm": layer.gamma is not None})
        arrays.update((f"L{i}.{name}", value) for name, value in vars(layer).items()
                      if isinstance(value, np.ndarray))
    # format 1 records a mode; every saved net is used for inference
    return arrays, {"arch": arch, "mode": "eval"}


def model_from_arrays(arrays: dict[str, np.ndarray], descriptor: dict) -> MlpModel:
    """Inverse of ``model_to_arrays``. CheckpointError when the descriptor is
    malformed, an array is missing or has another shape than its layer's, or
    ``arrays`` holds one that no layer reads."""
    layers, unread = [], dict(arrays)
    try:
        for i, spec in enumerate(descriptor["arch"]):
            out = spec["out"]
            shapes = {"W": (spec["in"], out), "b": (out,)}
            if spec["batch_norm"]:
                shapes.update(gamma=(out,), beta=(out,), running_mean=(out,), running_var=(out,))
            arr = {name: unread.pop(f"L{i}.{name}") for name in shapes}
            if any(arr[name].shape != shape for name, shape in shapes.items()):
                raise CheckpointError(
                    f"checkpoint arrays of layer {i} disagree with architecture descriptor")
            layers.append(DenseLayer(**arr, activation=spec["activation"],
                                     dropout_rate=spec["dropout_rate"]))
        if not layers:
            raise CheckpointError("checkpoint describes a model without layers")
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed architecture descriptor: {exc!r}") from exc
    if unread:
        raise CheckpointError(f"arrays no layer reads: {sorted(unread)}")
    return MlpModel(layers=layers)
