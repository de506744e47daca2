"""Central finite-difference gradient oracle shared by the test suites.

Central differences are only meaningful where the loss is smooth in the
perturbed coordinate; a relu preactivation crossing zero inside the +-h
bracket makes the numeric quotient measure the kink, not the derivative.
Such coordinates are detected by comparing relu sign patterns at the two
evaluation points and skipped; the caller asserts that only a small
fraction get skipped so the check keeps its teeth.

With ``rng_seed`` None the passes differentiated are inference passes.
With a seed they are training passes, each given a fresh
``default_rng(rng_seed)``, so every pass draws the same dropout masks.
"""
import numpy as np

from gridpilot import nn


def _forward(model, batch, rng_seed):
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    return nn.forward(model, batch, rng)


def _loss_and_pattern(model, batch, target, rng_seed):
    out, cache = _forward(model, batch, rng_seed)
    loss, _ = nn.mse_loss(out, target)
    pattern = [entry["y"] > 0.0
               for layer, entry in zip(model.layers, cache)
               if layer.activation == "relu"]
    return loss, pattern


def _same_pattern(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _worst_relative_error(model, batch, target, rng_seed, h, tensors,
                          samples_per_tensor, rng):
    """Compare each (array, analytic gradient) pair of ``tensors`` with
    central differences of the loss, perturbing the array in place."""
    worst = 0.0
    checked = 0
    skipped = 0
    for arr, grad in tensors:
        flat = arr.reshape(-1)
        assert np.shares_memory(flat, arr), "perturbation must reach the model"
        n = min(samples_per_tensor, flat.size)
        for idx in rng.choice(flat.size, size=n, replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up, pat_up = _loss_and_pattern(model, batch, target, rng_seed)
            flat[idx] = keep - h
            down, pat_down = _loss_and_pattern(model, batch, target, rng_seed)
            flat[idx] = keep
            if not _same_pattern(pat_up, pat_down):
                skipped += 1
                continue
            numeric = (up - down) / (2.0 * h)
            analytic = grad.reshape(-1)[idx]
            # floor: the quotient carries ~eps*|loss|/h ~ 1e-11 of roundoff
            # (exactly-zero gradients exist, e.g. biases feeding batch norm),
            # so below 1e-6 the comparison would measure noise, not calculus
            scale = max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, abs(numeric - analytic) / scale)
            checked += 1
    return worst, checked, skipped


def max_relative_gradient_error(model, batch, target, rng_seed=None, h=1e-5,
                                samples_per_tensor=12, rng=None):
    """Worst relative error between backward() and central differences.

    Returns (max_rel_err, checked, skipped); ``skipped`` counts coordinates
    rejected for relu sign flips between the two evaluation points.
    """
    rng = rng or np.random.default_rng(0)
    out, cache = _forward(model, batch, rng_seed)
    _, dloss = nn.mse_loss(out, target)
    grads = nn._views(model, nn.backward(model, cache, dloss))
    params = nn._views(model, model.params)
    return _worst_relative_error(model, batch, target, rng_seed, h,
                                 [(params[k], grads[k]) for k in params],
                                 samples_per_tensor, rng)


def max_relative_input_gradient_error(model, batch, target, rng_seed=None, h=1e-5,
                                      samples=24, rng=None):
    """Worst relative error between input_gradient() and central differences
    of the loss in the batch entries; returns (max_rel_err, checked, skipped)."""
    rng = rng or np.random.default_rng(0)
    batch = np.array(batch, dtype=float)  # perturbed in place below
    out, cache = _forward(model, batch, rng_seed)
    _, dloss = nn.mse_loss(out, target)
    dx = nn.input_gradient(model, cache, dloss)
    assert dx.shape == batch.shape
    return _worst_relative_error(model, batch, target, rng_seed, h, [(batch, dx)],
                                 samples, rng)


def _assert_small(result, tol, min_valid_fraction):
    worst, checked, skipped = result
    total = checked + skipped
    assert checked >= min_valid_fraction * total, \
        f"too many kink-adjacent coordinates ({skipped}/{total})"
    assert worst <= tol, f"gradient mismatch {worst:.3e} over {checked} coordinates"
    return worst


def assert_gradients_match(model, batch, target, rng_seed=None, tol=1e-4,
                           samples_per_tensor=12, rng=None,
                           min_valid_fraction=0.8):
    return _assert_small(max_relative_gradient_error(
        model, batch, target, rng_seed=rng_seed,
        samples_per_tensor=samples_per_tensor, rng=rng), tol, min_valid_fraction)


def assert_input_gradient_matches(model, batch, target, rng_seed=None, tol=1e-4,
                                  rng=None, min_valid_fraction=0.8):
    return _assert_small(max_relative_input_gradient_error(
        model, batch, target, rng_seed=rng_seed, rng=rng), tol, min_valid_fraction)
