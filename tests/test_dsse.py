from dataclasses import replace

import numpy as np
import pytest

from conftest import FOURBUS_SLACK, fourbus_gen
from gridpilot import nn
from gridpilot.dsse import (
    DsseHyperparams,
    DsseModel,
    _wrap_deg,
    build_training_pairs,
    estimate_states,
    evaluate_dsse,
    load_dsse,
    save_dsse,
    train_dsse,
)
from gridpilot.env import EnvConfig
from gridpilot.errors import CheckpointError, DatasetError, ModelMismatchError
from gridpilot.scenario import Scenario, ScenarioSet, generate_scenario_set


@pytest.fixture(scope="module")
def sset4(feeder4):
    return generate_scenario_set(feeder4, fourbus_gen(150), seed=7)


@pytest.fixture(scope="module")
def pairs4(feeder4, sset4):
    return build_training_pairs(sset4, feeder4, noise_pct=0.5,
                                slack_voltage=FOURBUS_SLACK, seed=3)


@pytest.fixture(scope="module")
def model4(feeder4, pairs4):
    hp = DsseHyperparams(hidden_layers=(48, 48), epochs=40, dropout_rate=0.2,
                         seed=0)
    model, losses = train_dsse(pairs4, hp, feeder4)
    return model, losses


def test_wrap_deg_range():
    a = np.array([0.0, 179.0, 181.0, -181.0, 359.0, 540.0])
    w = _wrap_deg(a)
    assert np.all(w >= -180.0) and np.all(w < 180.0)
    assert np.allclose(w, [0.0, 179.0, -179.0, 179.0, -1.0, 180.0 - 360.0])


def test_training_pairs_shapes_and_targets(feeder4, pairs4, sset4):
    assert len(pairs4) == len(sset4)
    n = feeder4.n_node_phases
    features, target = pairs4[0]
    assert features.shape == (12,)
    assert target.shape == (2 * n,)
    # magnitudes near nominal, relative angles near zero on a healthy feeder
    assert np.all(target[:n] > 0.8) and np.all(target[:n] < 1.2)
    assert np.all(np.abs(target[n:]) < 15.0)


def test_training_pairs_deterministic(feeder4, sset4):
    a = build_training_pairs(sset4, feeder4, 1.0, slack_voltage=FOURBUS_SLACK, seed=5)
    b = build_training_pairs(sset4, feeder4, 1.0, slack_voltage=FOURBUS_SLACK, seed=5)
    for (ma, ta), (mb, tb) in zip(a, b):
        assert np.array_equal(ma, mb)
        assert np.array_equal(ta, tb)


def test_training_pairs_noise_seed_matters(feeder4, sset4):
    a = build_training_pairs(sset4, feeder4, 1.0, slack_voltage=FOURBUS_SLACK, seed=5)
    b = build_training_pairs(sset4, feeder4, 1.0, slack_voltage=FOURBUS_SLACK, seed=6)
    assert not np.array_equal(a[0][0], b[0][0])
    # targets come from the noise-free solve and must agree
    assert np.array_equal(a[0][1], b[0][1])


def test_training_pairs_reject_broken_fixture(feeder2, sset4):
    # every scenario is far beyond the 2-bus loadability limit
    bad = ScenarioSet(
        scenarios=[Scenario(id=i, p_load=np.array([40.0]),
                            q_load=np.array([10.0]), p_pv=np.zeros(0))
                   for i in range(20)],
        seed=0, generator_config=sset4.generator_config)
    with pytest.raises(DatasetError, match="diverged"):
        build_training_pairs(bad, feeder2, 0.0)


def test_train_requires_minimum_pairs(feeder4, pairs4):
    with pytest.raises(DatasetError, match="at least 100"):
        train_dsse(pairs4[:50], DsseHyperparams(), feeder4)


def test_training_converges(model4):
    _, losses = model4
    assert len(losses) == 40
    # dropout stays on in the reported training loss; expect a clear drop,
    # not a vanishing one
    assert losses[-1] < 0.5 * losses[0]


def test_constant_features_not_rescaled(feeder4, sset4, model4):
    # without measurement noise the head voltage phasors are pinned at the
    # slack; their std collapses and the normalizer must fall back to 1.0
    # rather than divide by ~0
    clean = build_training_pairs(sset4, feeder4, 0.0,
                                 slack_voltage=FOURBUS_SLACK)
    hp = DsseHyperparams(hidden_layers=(8,), epochs=1, seed=0)
    model, _ = train_dsse(clean, hp, feeder4)
    assert np.all(model.input_std[0:6] == 1.0)
    assert np.all(model.input_std[6:12] != 1.0)
    noisy, _ = model4
    assert noisy.feeder_fingerprint == feeder4.fingerprint
    assert noisy.node_phases == feeder4.node_phases()


def test_estimate_shapes_and_fingerprint_guard(feeder2, feeder4, model4, pairs4):
    model, _ = model4
    est = estimate_states(model, pairs4[0][0])
    assert est.v_mag.shape == (feeder4.n_node_phases,)
    assert est.v_angle.shape == (feeder4.n_node_phases,)
    assert est.clamp_count == 0
    EnvConfig(feeder=feeder4, estimator=model)
    with pytest.raises(ModelMismatchError, match="trained for feeder"):
        EnvConfig(feeder=feeder2, estimator=model)


def test_estimate_states_leaves_net_untouched(model4, pairs4):
    """Estimates are inference passes: weights and batch-norm running
    statistics stay bit-identical, so the estimate repeats exactly."""
    model, _ = model4
    before = {k: v.copy() for k, v in nn.model_to_arrays(model.net)[0].items()}
    assert any(k.endswith("running_mean") for k in before)
    first = estimate_states(model, pairs4[0][0])
    for features, _ in pairs4[:20]:
        estimate_states(model, features)
    again = estimate_states(model, pairs4[0][0])
    assert np.array_equal(first.v_mag, again.v_mag)
    assert np.array_equal(first.v_angle, again.v_angle)
    after, _ = nn.model_to_arrays(model.net)
    assert after.keys() == before.keys()
    assert all(np.array_equal(after[k], before[k]) for k in before)


def test_estimates_are_absolute_angles(model4, pairs4):
    model, _ = model4
    est = estimate_states(model, pairs4[0][0])
    letters = np.array([ph for _, ph in model.node_phases])
    # absolute angles cluster near each phase's source angle
    for ph, ref in (("A", 0.0), ("B", -120.0), ("C", 120.0)):
        mask = letters == ph
        if mask.any():
            assert np.all(np.abs(_wrap_deg(est.v_angle[mask] - ref)) < 20.0)


def test_evaluate_metrics(feeder4, model4, pairs4):
    model, _ = model4
    metrics = evaluate_dsse(model, pairs4[:60])
    present = {ph for _, ph in feeder4.node_phases()}
    assert set(metrics) == {"mag_mape_per_phase", "angle_mae_per_phase"}
    assert set(metrics["mag_mape_per_phase"]) == present
    assert set(metrics["angle_mae_per_phase"]) == present
    # small net, small set: loose sanity bounds only
    assert all(v < 5.0 for v in metrics["mag_mape_per_phase"].values())
    assert all(v < 2.0 for v in metrics["angle_mae_per_phase"].values())


def test_evaluate_rejects_empty(model4):
    model, _ = model4
    with pytest.raises(DatasetError, match="empty"):
        evaluate_dsse(model, [])


def test_save_load_round_trip(tmp_path, model4, pairs4):
    model, _ = model4
    p = tmp_path / "dsse.gpck"
    save_dsse(model, p)
    loaded = load_dsse(p)
    assert loaded.feeder_fingerprint == model.feeder_fingerprint
    assert loaded.node_phases == model.node_phases
    a = estimate_states(model, pairs4[0][0])
    b = estimate_states(loaded, pairs4[0][0])
    assert np.array_equal(a.v_mag, b.v_mag)
    assert np.array_equal(a.v_angle, b.v_angle)
    # checkpoints carry no timestamps; re-saving is bit-identical
    p2 = tmp_path / "dsse2.gpck"
    save_dsse(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_kind(tmp_path):
    p = tmp_path / "other.gpck"
    nn.save_checkpoint(p, {"x": np.zeros(3)}, {"kind": "agent"})
    with pytest.raises(CheckpointError, match="not a state-estimator"):
        load_dsse(p)


def test_load_rejects_shapes_that_disagree(tmp_path, model4):
    # the net, the normalizers and the node-phase layout must fit together,
    # or the first estimate fails inside numpy
    model, _ = model4
    cases = {"short_input_mean": replace(model, input_mean=model.input_mean[:6]),
             "short_output_std": replace(model, output_std=model.output_std[1:]),
             "node_phase_dropped": replace(model, node_phases=model.node_phases[:-1])}
    for name, bad in cases.items():
        p = tmp_path / f"{name}.gpck"
        save_dsse(bad, p)
        with pytest.raises(CheckpointError, match="disagree"):
            load_dsse(p)
