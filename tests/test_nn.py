import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from fd_oracle import assert_gradients_match, assert_input_gradient_matches
from gridpilot import nn
from gridpilot.errors import CheckpointError, ModelMismatchError, NumericalError


def test_gradients_plain_relu_net(rng):
    model = nn.build_mlp([4, 8, 3], ["relu", "identity"], rng)
    batch = rng.standard_normal((6, 4))
    target = rng.standard_normal((6, 3))
    assert_gradients_match(model, batch, target, rng=rng)


def test_gradients_tanh_with_final_scale(rng):
    model = nn.build_mlp([5, 16, 8, 2], ["tanh", "tanh", "tanh"], rng,
                         final_init_scale=3e-3)
    batch = rng.standard_normal((7, 5))
    target = rng.uniform(-1, 1, size=(7, 2))
    assert_gradients_match(model, batch, target, rng=rng)


def test_gradients_batchnorm_dropout_net(rng):
    model = nn.build_mlp([4, 12, 12, 3], ["relu", "relu", "identity"], rng,
                         dropout_rate=0.5, batch_norm=True)
    batch = rng.standard_normal((10, 4))
    target = rng.standard_normal((10, 3))
    # running stats drift on every training pass, but batch statistics (what
    # its backward differentiates through) depend only on the batch
    assert_gradients_match(model, batch, target, rng_seed=17, rng=rng)


def test_gradients_eval_mode_batchnorm(rng):
    model = nn.build_mlp([3, 9, 2], ["relu", "identity"], rng, batch_norm=True)
    nn.forward(model, rng.standard_normal((32, 3)), rng)  # populate running stats
    batch = rng.standard_normal((5, 3))
    target = rng.standard_normal((5, 2))
    assert_gradients_match(model, batch, target, rng=rng)


def test_input_gradient_matches_finite_differences(rng):
    plain = nn.build_mlp([4, 10, 2], ["relu", "identity"], rng)
    assert_input_gradient_matches(plain, rng.standard_normal((3, 4)),
                                  rng.standard_normal((3, 2)), rng=rng)
    # training-pass batch norm: each input also moves the batch statistics
    bn = nn.build_mlp([4, 12, 12, 3], ["relu", "relu", "identity"], rng, batch_norm=True)
    assert_input_gradient_matches(bn, rng.standard_normal((10, 4)),
                                  rng.standard_normal((10, 3)), rng_seed=0, rng=rng)
    nn.forward(bn, rng.standard_normal((32, 4)), rng)  # populate running stats
    assert_input_gradient_matches(bn, rng.standard_normal((5, 4)),
                                  rng.standard_normal((5, 3)), rng=rng)
    dropout = nn.build_mlp([4, 12, 12, 3], ["relu", "relu", "identity"], rng,
                           dropout_rate=0.5, batch_norm=True)
    assert_input_gradient_matches(dropout, rng.standard_normal((10, 4)),
                                  rng.standard_normal((10, 3)), rng_seed=17, rng=rng)


def test_forward_shapes_and_activation_bounds(rng):
    model = nn.build_mlp([3, 7, 2], ["relu", "tanh"], rng)
    out, cache = nn.forward(model, rng.standard_normal((11, 3)))
    assert out.shape == (11, 2)
    assert np.all(np.abs(out) <= 1.0)
    assert len(cache) == 2


def test_forward_rejects_wrong_width(rng):
    model = nn.build_mlp([3, 4, 2], ["relu", "identity"], rng)
    with pytest.raises(ModelMismatchError):
        nn.forward(model, np.zeros((2, 5)))


def test_dropout_reproducible_and_unbiased(rng):
    model = nn.build_mlp([6, 64, 4], ["relu", "identity"], rng, dropout_rate=0.5)
    x = rng.standard_normal((5, 6))
    a, _ = nn.forward(model, x, np.random.default_rng(123))
    b, _ = nn.forward(model, x, np.random.default_rng(123))
    c, _ = nn.forward(model, x, np.random.default_rng(124))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

    # inverted dropout: the training-pass expectation approximates inference
    mean = np.mean([nn.forward(model, x, np.random.default_rng(s))[0] for s in range(400)],
                   axis=0)
    expected, _ = nn.forward(model, x)
    assert np.allclose(mean, expected, atol=0.12 * np.abs(expected).max() + 0.02)


def test_batchnorm_running_stats_ema(rng):
    model = nn.build_mlp([2, 3, 1], ["relu", "identity"], rng, batch_norm=True)
    bn = model.layers[0]
    x = rng.standard_normal((50, 2))
    z = x @ bn.W + bn.b
    nn.forward(model, x, rng)
    assert np.allclose(bn.running_mean, 0.1 * z.mean(axis=0))
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * z.var(axis=0))
    # second pass compounds the same EMA
    rm = bn.running_mean.copy()
    nn.forward(model, x, rng)
    assert np.allclose(bn.running_mean, 0.9 * rm + 0.1 * z.mean(axis=0))


def test_pass_kind_follows_the_rng_alone(rng):
    """Without an rng a pass is an inference pass, also right after a training
    pass; with one it trains, also right after an inference pass."""
    model = nn.build_mlp([3, 6, 2], ["relu", "identity"], rng,
                         dropout_rate=0.5, batch_norm=True)
    layer = model.layers[0]
    x = rng.standard_normal((8, 3))
    z = x @ layer.W + layer.b
    nn.forward(model, x, np.random.default_rng(1))
    mean, var = layer.running_mean.copy(), layer.running_var.copy()
    out, cache = nn.forward(model, x)
    hidden = np.maximum(layer.gamma * (z - mean) / np.sqrt(var + nn.BN_EPS) + layer.beta, 0.0)
    assert np.allclose(out, hidden @ model.layers[1].W + model.layers[1].b)
    assert not cache[0]["train"] and "mask" not in cache[0]
    assert np.array_equal(layer.running_mean, mean) and np.array_equal(layer.running_var, var)

    _, cache = nn.forward(model, x, np.random.default_rng(2))
    assert cache[0]["train"] and "mask" in cache[0]
    assert np.array_equal(cache[0]["mu"], z.mean(axis=0))
    momentum = nn.BN_MOMENTUM
    assert np.array_equal(layer.running_mean, momentum * mean + (1 - momentum) * z.mean(axis=0))


def test_batchnorm_eval_uses_running_stats(rng):
    model = nn.build_mlp([2, 4, 1], ["relu", "identity"], rng, batch_norm=True)
    bn = model.layers[0]
    bn.running_mean = np.array([1.0, -1.0, 0.5, 0.0])
    bn.running_var = np.array([4.0, 1.0, 0.25, 9.0])
    bn.gamma = np.array([2.0, 1.0, 1.0, 3.0])
    bn.beta = np.array([0.0, 1.0, 0.0, -2.0])
    x = rng.standard_normal((3, 2))
    z = x @ bn.W + bn.b
    expected = bn.gamma * (z - bn.running_mean) / np.sqrt(bn.running_var + nn.BN_EPS) \
        + bn.beta
    out, _ = nn.forward(model, x)
    assert np.allclose(out, np.maximum(expected, 0.0) @ model.layers[1].W
                       + model.layers[1].b)


def test_build_mlp_init_bounds(rng):
    model = nn.build_mlp([100, 50, 4], ["relu", "identity"], rng, final_init_scale=3e-3)
    w0, b0 = model.layers[0].W, model.layers[0].b
    assert np.max(np.abs(w0)) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(b0)) <= 1.0 / np.sqrt(100)
    w1, b1 = model.layers[1].W, model.layers[1].b
    assert np.max(np.abs(w1)) <= 3e-3
    assert np.max(np.abs(b1)) <= 3e-3


def test_build_mlp_per_layer_activation_override(rng):
    model = nn.build_mlp([3, 5, 5, 1], ["relu", "tanh", "identity"], rng)
    assert [l.activation for l in model.layers] == ["relu", "tanh", "identity"]
    with pytest.raises(ModelMismatchError):
        nn.build_mlp([3, 5, 1], ["relu"], rng)


def test_mse_loss_value_and_gradient():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[0.0, 2.0], [3.0, 2.0]])
    loss, grad = nn.mse_loss(pred, target)
    assert loss == pytest.approx((1.0 + 0.0 + 0.0 + 4.0) / 4.0)
    assert np.allclose(grad, np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(ModelMismatchError):
        nn.mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_adam_first_step_and_asymptotic_step_size():
    model = nn.build_mlp([1, 1], ["identity"], np.random.default_rng(0))  # W and b
    model.params[:] = 10.0
    state = nn.AdamState(learning_rate=0.01)
    nn.adam_step(state, model, np.full(2, 0.37))
    # bias correction makes the very first update ~= lr * sign(grad)
    assert np.abs(10.0 - model.params) == pytest.approx(0.01, rel=1e-6)

    for _ in range(10_000):
        before = model.params.copy()
        nn.adam_step(state, model, np.full(2, 0.37))
    assert np.abs(before - model.params) == pytest.approx(0.01, rel=1e-5)


def test_adam_updates_in_place_and_validates(rng):
    model = nn.build_mlp([3, 4, 2], ["relu", "identity"], rng)
    params, weights = model.params, model.layers[0].W
    before = params.copy()
    state = nn.AdamState(learning_rate=0.1)
    nn.adam_step(state, model, np.ones_like(params))
    assert model.params is params and model.layers[0].W is weights
    assert not np.any(params == before)  # every element moved, views too
    with pytest.raises(ModelMismatchError):
        nn.adam_step(state, model, np.ones(params.size + 1))


def test_adam_names_non_finite_parameter(rng):
    model = nn.build_mlp([3, 4, 2], ["relu", "identity"], rng, batch_norm=True)
    state = nn.AdamState(learning_rate=0.1)
    nn.adam_step(state, model, np.ones_like(model.params))
    before = model.params.copy()
    for key, bad in (("L0.gamma", np.nan), ("L1.b", np.inf), ("L0.W", -np.inf)):
        grad = np.ones_like(model.params)
        nn._views(model, grad)[key].flat[-1] = bad
        with pytest.raises(NumericalError, match=f"'{key}'"):
            nn.adam_step(state, model, grad)
        assert np.array_equal(model.params, before)  # nothing was updated


def _reference_adam_step(state, params, grads):
    """The per-key Adam loop that adam_step replaced, verbatim; ``state``
    holds the moments as dicts ``m`` and ``v``."""
    state.step += 1
    t = state.step
    correction1 = 1.0 - state.beta1**t
    correction2 = 1.0 - state.beta2**t
    for key, grad in grads.items():
        if key not in params:
            raise ModelMismatchError(f"gradient for unknown parameter {key!r}")
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient for {key!r} at step {t}")
        if key not in state.m:
            state.m[key] = np.zeros_like(params[key])
            state.v[key] = np.zeros_like(params[key])
        m = state.m[key]
        v = state.v[key]
        m *= state.beta1
        m += (1 - state.beta1) * grad
        v *= state.beta2
        v += (1 - state.beta2) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        params[key] -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return params


@pytest.mark.parametrize("dims, batch_norm, lr", [
    ([100, 400, 300, 1], False, 1e-3),  # actor-sized
    ([12, 200, 200, 200, 200, 200, 120], True, 0.095),  # DSSE-sized, batch norm
])
def test_adam_bit_equal_to_per_key_loop(dims, batch_norm, lr):
    rng = np.random.default_rng(11)
    model = nn.build_mlp(dims, ["relu"] * (len(dims) - 2) + ["identity"], rng,
                         batch_norm=batch_norm)
    reference = nn.clone_model(model)
    state = nn.AdamState(learning_rate=lr)
    ref_state = SimpleNamespace(learning_rate=lr, beta1=0.9, beta2=0.999, epsilon=1e-8,
                                step=0, m={}, v={})
    for _ in range(100):
        grad = rng.standard_normal(model.params.size) * rng.uniform(1e-4, 10.0)
        _reference_adam_step(ref_state, nn._views(reference, reference.params),
                             nn._views(reference, grad.copy()))
        nn.adam_step(state, model, grad)
    assert np.array_equal(model.params, reference.params)
    assert np.array_equal(state.m, np.concatenate([a.ravel() for a in ref_state.m.values()]))
    assert np.array_equal(state.v, np.concatenate([a.ravel() for a in ref_state.v.values()]))


def test_flat_vector_aliases_every_layer_array(rng):
    built = nn.build_mlp([3, 5, 4, 2], ["relu", "relu", "identity"], rng, batch_norm=True)
    arrays, descriptor = nn.model_to_arrays(built)
    rebuilt = nn.model_from_arrays({k: v.copy() for k, v in arrays.items()}, descriptor)
    for model in (built, nn.clone_model(built), rebuilt):
        # the layers' own arrays, not fresh views of ``params``
        params = {k: v for k, v in nn.model_to_arrays(model)[0].items() if ".running_" not in k}
        assert list(params) == ["L0.W", "L0.b", "L0.gamma", "L0.beta",
                                "L1.W", "L1.b", "L1.gamma", "L1.beta", "L2.W", "L2.b"]
        assert model.params.size == sum(a.size for a in params.values())
        model.params[:] = np.arange(model.params.size)
        offset = 0
        for key, arr in params.items():
            assert arr.base is model.params, key
            assert np.array_equal(arr.ravel(), np.arange(offset, offset + arr.size)), key
            offset += arr.size


def test_param_views_are_live_references(rng):
    model = nn.build_mlp([2, 3, 1], ["relu", "identity"], rng, batch_norm=True)
    params = nn._views(model, model.params)
    assert set(params) == {"L0.W", "L0.b", "L0.gamma", "L0.beta", "L1.W", "L1.b"}
    params["L0.W"][0, 0] = 123.0
    assert model.layers[0].W[0, 0] == 123.0


def test_clone_model_is_independent(rng):
    model = nn.build_mlp([2, 4, 1], ["relu", "identity"], rng, batch_norm=True)
    nn.forward(model, rng.standard_normal((8, 2)), rng)  # move running stats
    twin = nn.clone_model(model)
    x = rng.standard_normal((3, 2))
    assert np.array_equal(nn.forward(model, x)[0], nn.forward(twin, x)[0])
    twin.layers[0].W += 1.0
    assert not np.array_equal(model.layers[0].W, twin.layers[0].W)
    assert not np.shares_memory(model.params, twin.params)
    bn, twin_bn = model.layers[0], twin.layers[0]
    assert not np.shares_memory(bn.running_mean, twin_bn.running_mean)
    assert not np.shares_memory(bn.running_var, twin_bn.running_var)
    before = twin.params.copy()
    model.params += 1.0
    nn.adam_step(nn.AdamState(learning_rate=0.1), model, np.ones_like(model.params))
    assert np.array_equal(twin.params, before)


def test_checkpoint_round_trip_and_reproducibility(tmp_path, rng):
    arrays = {"a": rng.standard_normal((3, 2)), "b": np.arange(4.0)}
    meta = {"kind": "test", "note": "fixed"}
    p1, p2 = tmp_path / "x.ckpt", tmp_path / "y.ckpt"
    nn.save_checkpoint(p1, arrays, meta)
    nn.save_checkpoint(p2, arrays, meta)
    assert p1.read_bytes() == p2.read_bytes()  # no timestamps, stable layout

    loaded, meta2 = nn.load_checkpoint(p1)
    assert meta2 == meta
    assert set(loaded) == {"a", "b"}
    assert np.array_equal(loaded["a"], arrays["a"])
    assert np.array_equal(loaded["b"], arrays["b"])


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        nn.load_checkpoint(path)
    with pytest.raises(CheckpointError):
        nn.load_checkpoint(tmp_path / "missing.ckpt")


def test_checkpoint_detects_truncation(tmp_path, rng):
    path = tmp_path / "t.ckpt"
    nn.save_checkpoint(path, {"a": rng.standard_normal(16)}, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-32])
    with pytest.raises(CheckpointError):
        nn.load_checkpoint(path)


def test_checkpoint_malformed_header_is_typed(tmp_path, rng):
    good = tmp_path / "good.ckpt"
    nn.save_checkpoint(good, {"a": rng.standard_normal(4)}, {"kind": "test"})
    blob = good.read_bytes()
    prefix = len(nn._MAGIC) + struct.calcsize("<HQ")

    def with_header(header: dict) -> bytes:
        raw = json.dumps(header).encode()
        return nn._MAGIC + struct.pack("<HQ", nn._VERSION, len(raw)) + raw + blob[prefix:]

    cases = {
        "five_bytes": blob[:5],
        "prefix_only": blob[:prefix],
        "header_cut": blob[:prefix + 3],
        "no_arrays": with_header({"metadata": {}}),
        "no_metadata": with_header({"arrays": []}),
        "not_an_object": with_header([1, 2]),
        "bad_shape": with_header({"metadata": {}, "arrays": [
            {"name": "a", "shape": ["x"], "offset": 0}]}),
        "negative_offset": with_header({"metadata": {}, "arrays": [
            {"name": "a", "shape": [4], "offset": -8}]}),
        "metadata_list": with_header({"metadata": [], "arrays": []}),
        # an offset of 1e400 or Infinity reads as inf, which int() cannot take
        "infinite_offset": with_header({"metadata": {}, "arrays": [
            {"name": "a", "shape": [4], "offset": float("inf")}]}),
    }
    for name, data in cases.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointError):
            nn.load_checkpoint(path)


def test_model_arrays_round_trip_exact(tmp_path, rng):
    model = nn.build_mlp([4, 6, 6, 2], ["relu", "relu", "identity"], rng,
                         dropout_rate=0.3, batch_norm=True)
    nn.forward(model, rng.standard_normal((16, 4)), np.random.default_rng(5))
    arrays, descriptor = nn.model_to_arrays(model)
    path = tmp_path / "m.ckpt"
    nn.save_checkpoint(path, arrays, {"descriptor": descriptor})
    loaded_arrays, meta = nn.load_checkpoint(path)
    rebuilt = nn.model_from_arrays(loaded_arrays, meta["descriptor"])
    x = rng.standard_normal((5, 4))
    assert np.array_equal(nn.forward(model, x)[0], nn.forward(rebuilt, x)[0])


def test_model_descriptor_mode_is_written_and_ignored(rng):
    """Format 1 records a mode: "eval" is always written, and a descriptor
    with "train" or no mode loads the same net."""
    model = nn.build_mlp([2, 3, 1], ["relu", "identity"], rng, dropout_rate=0.5,
                         batch_norm=True)
    nn.forward(model, rng.standard_normal((8, 2)), rng)  # a training pass
    arrays, descriptor = nn.model_to_arrays(model)
    assert descriptor == {"arch": descriptor["arch"], "mode": "eval"}
    x = rng.standard_normal((4, 2))
    expected, _ = nn.forward(model, x)
    for desc in ({**descriptor, "mode": "train"}, {"arch": descriptor["arch"]}):
        rebuilt = nn.model_from_arrays(arrays, desc)
        assert np.array_equal(nn.forward(rebuilt, x)[0], expected)
        assert nn.model_to_arrays(rebuilt)[1] == descriptor


def test_model_from_arrays_rejects_missing(rng):
    model = nn.build_mlp([2, 3, 1], ["relu", "identity"], rng, batch_norm=True)
    arrays, descriptor = nn.model_to_arrays(model)
    no_w1 = {k: v for k, v in arrays.items() if k != "L1.W"}
    with pytest.raises(CheckpointError):
        nn.model_from_arrays(no_w1, descriptor)
    # a descriptor without its arch, any layer, or any key of a layer
    bad = {"no_arch": {}, "no_layers": {"arch": []}, "arch_not_list": {"arch": 3}}
    for key in ("in", "out", "activation", "dropout_rate", "batch_norm"):
        arch = [dict(spec) for spec in descriptor["arch"]]
        del arch[0][key]
        bad[f"no_{key}"] = {"arch": arch}
    for name, desc in bad.items():
        with pytest.raises(CheckpointError):
            nn.model_from_arrays(arrays, desc)
    # arrays whose shapes disagree with the arch
    arch = [dict(spec) for spec in descriptor["arch"]]
    arch[0]["out"] = 4  # no longer the shape of L0.W, L0.b or the batch-norm arrays
    short = dict(arrays, **{"L0.running_var": np.ones(2)})
    for arr, desc in ((arrays, {"arch": arch}), (short, descriptor)):
        with pytest.raises(CheckpointError, match="disagree"):
            nn.model_from_arrays(arr, desc)
