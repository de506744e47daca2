import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FOURBUS_SLACK, fourbus_gen
from gridpilot.env import (
    DIVERGENCE_PENALTY_PER_NODE,
    EnvConfig,
    MdpAction,
    RewardConfig,
    curtailment_barrier,
    env_step,
    map_action,
    objective_deviation,
    q_max_no_curtailment,
    q_max_vector,
    reward,
    voltage_barrier,
)
from gridpilot.scenario import generate_scenario_set


# --- equation unit values (hand-computable) ---------------------------------

def test_voltage_barrier_hand_values():
    cfg = RewardConfig()
    # exact to the hand formula carried out in the same float arithmetic;
    # written as a product because libm pow(x, 2.0) can be 1 ulp off the
    # correctly rounded square
    assert voltage_barrier(1.03, cfg) == (1.03 - 1.0) * (1.03 - 1.0)
    assert voltage_barrier(1.03, cfg) == pytest.approx(0.0009, abs=1e-15)
    assert voltage_barrier(1.0, cfg) == 0.0
    assert voltage_barrier(0.95, cfg) == pytest.approx(0.0025)   # boundary: inside
    assert voltage_barrier(1.05, cfg) == pytest.approx(0.0025)
    assert voltage_barrier(1.06, cfg) == pytest.approx(0.06)     # outside: absolute
    assert voltage_barrier(0.90, cfg) == pytest.approx(0.10)


def test_curtailment_barrier_hand_values():
    assert curtailment_barrier(1.2, 1.0) == abs(1.2) - 1.0
    assert curtailment_barrier(1.2, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert curtailment_barrier(-1.2, 1.0) == pytest.approx(0.2)  # sign-symmetric
    assert curtailment_barrier(0.8, 1.0) == 0.0
    assert curtailment_barrier(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        curtailment_barrier(0.5, -0.1)


def test_q_max_hand_values():
    assert q_max_no_curtailment(1.0, 0.6) == pytest.approx(0.8, abs=0)
    assert q_max_no_curtailment(1.0, 0.0) == 1.0
    assert q_max_no_curtailment(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        q_max_no_curtailment(1.0, 1.1)
    with pytest.raises(ValueError):
        q_max_no_curtailment(1.0, -0.1)


def test_reward_matches_brute_force_on_random_inputs():
    rng = np.random.default_rng(0)
    cfg = RewardConfig(lambda_weight=1.0, eta_weight=0.5)
    for _ in range(100):
        n_v = int(rng.integers(1, 40))
        n_q = int(rng.integers(0, 12))
        v = rng.uniform(0.85, 1.15, size=n_v)
        q = rng.uniform(-1.5, 1.5, size=n_q)
        qmax = rng.uniform(0.0, 1.2, size=n_q)
        got = reward(v, q, qmax, cfg)
        expected = -(cfg.lambda_weight * sum(voltage_barrier(x, cfg) for x in v)
                     + cfg.eta_weight * sum(curtailment_barrier(a, b)
                                            for a, b in zip(q, qmax)))
        assert got == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(v=st.floats(0.5, 1.5), lam=st.floats(0.0, 5.0), eta=st.floats(0.0, 5.0))
def test_reward_never_positive(v, lam, eta):
    cfg = RewardConfig(lambda_weight=lam, eta_weight=eta)
    assert reward(np.array([v]), np.array([0.3]), np.array([0.2]), cfg) <= 0.0


@settings(max_examples=100, deadline=None)
@given(v=st.floats(0.9501, 1.0499))
def test_barrier_quadratic_branch_inside_band(v):
    cfg = RewardConfig()
    # product, not ** 2: libm pow is not always correctly rounded
    assert voltage_barrier(v, cfg) == (v - 1.0) * (v - 1.0)


@settings(max_examples=100, deadline=None)
@given(v=st.one_of(st.floats(0.5, 0.9499), st.floats(1.0501, 1.5)))
def test_barrier_absolute_branch_outside_band(v):
    cfg = RewardConfig()
    assert voltage_barrier(v, cfg) == abs(v - 1.0)


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(v_min=1.01)
    with pytest.raises(ValueError):
        RewardConfig(lambda_weight=-1.0)


def test_objective_deviation():
    assert objective_deviation(np.array([1.02, 0.97])) == pytest.approx(0.05)
    assert objective_deviation(np.array([1.0])) == 0.0


# --- action mapping ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(c=st.floats(-10.0, 10.0))
def test_map_action_clamps_coefficients(feeder4, c):
    zone_map = np.zeros(len(feeder4.pv_units), dtype=int)
    q = map_action(MdpAction(np.array([c])), feeder4.pv_units, zone_map)
    q_rated = np.array([pv.q_rated for pv in feeder4.pv_units])
    assert np.all(np.abs(q) <= q_rated + 1e-15)
    expected = np.clip(c, -1.0, 1.0) * q_rated
    assert np.allclose(q, expected)


def test_map_action_zone_routing(feeder34):
    n_pv = len(feeder34.pv_units)
    zone_map = np.arange(n_pv) % 3
    coeffs = np.array([0.5, -0.25, 1.0])
    q = map_action(MdpAction(coeffs), feeder34.pv_units, zone_map)
    q_rated = np.array([pv.q_rated for pv in feeder34.pv_units])
    assert np.allclose(q, coeffs[zone_map] * q_rated)


def test_map_action_no_pv():
    q = map_action(MdpAction(np.array([1.0])), [], np.zeros(0, dtype=int))
    assert q.shape == (0,)


# --- environment step --------------------------------------------------------

@pytest.fixture(scope="module")
def env4_setup():
    from gridpilot.feeder import builtin_feeder_path, load_feeder
    feeder = load_feeder(builtin_feeder_path("4bus"))
    cfg = EnvConfig(feeder=feeder, estimator=None, slack_voltage=FOURBUS_SLACK)
    sset = generate_scenario_set(feeder, fourbus_gen(8), seed=42)
    return feeder, cfg, sset


def test_env_step_info_consistency(env4_setup):
    feeder, cfg, sset = env4_setup
    sc = sset.scenarios[0]
    state, r, info = env_step(cfg, sc, MdpAction(np.array([-0.4])))
    assert not info["terminal"]
    assert state.shape == (feeder.n_node_phases,)
    assert np.array_equal(state, info["v_mag_true"])  # perfect-state mode

    # reward recomputable from the reported true voltages and setpoints
    expected = reward(info["v_mag_true"], info["q_setpoints"], info["q_max"], cfg.reward)
    assert r == pytest.approx(expected, abs=1e-15)
    assert info["deviation"] == pytest.approx(
        objective_deviation(info["v_mag_true"]))
    assert info["violations"] == int(np.sum((info["v_mag_true"] < 0.95)
                                            | (info["v_mag_true"] > 1.05)))
    assert np.array_equal(info["q_max"], q_max_vector(feeder, sc))


def test_env_step_head_power_sign(env4_setup):
    _, cfg, sset = env4_setup
    _, _, info = env_step(cfg, sset.scenarios[0], MdpAction(np.array([0.0])))
    # loads dominate PV on this fixture; the head supplies real power
    assert info["p_head"] > 0.0


def test_absorption_lowers_peak_voltage(env4_setup):
    _, cfg, sset = env4_setup
    peaks = []
    for a in (0.4, 0.0, -0.5, -1.0):
        _, _, info = env_step(cfg, sset.scenarios[1], MdpAction(np.array([a])))
        peaks.append(info["v_mag_true"].max())
    assert peaks[0] > peaks[1] > peaks[2] > peaks[3]


def test_divergence_penalty_and_placeholder(feeder2):
    cfg = EnvConfig(feeder=feeder2, estimator=None)
    from gridpilot.scenario import Scenario
    # 40 p.u. behind a j0.1 p.u. line is far beyond loadability
    sc = Scenario(id=0, p_load=np.array([40.0]), q_load=np.array([10.0]),
                  p_pv=np.zeros(0))
    state, r, info = env_step(cfg, sc, MdpAction(np.zeros(1)))
    assert info["terminal"] and info["diverged"]
    assert r == DIVERGENCE_PENALTY_PER_NODE * feeder2.n_node_phases
    assert np.allclose(state, 1.0)  # flat nominal placeholder


def test_env_config_validation(feeder4):
    with pytest.raises(ValueError):
        EnvConfig(feeder=feeder4, zone_map=np.zeros(2, dtype=int))  # 1 pv unit
    cfg = EnvConfig(feeder=feeder4)
    assert cfg.n_zones == 1
    assert cfg.state_dim == 9


def test_measurement_noise_flows_through_env(env4_setup):
    feeder, _, sset = env4_setup
    cfg = EnvConfig(feeder=feeder, estimator=None, measurement_noise_pct=1.0,
                    slack_voltage=FOURBUS_SLACK)
    sc = sset.scenarios[0]
    m1 = env_step(cfg, sc, MdpAction(np.zeros(1)),
                  rng=np.random.default_rng(1))[2]["measurement"]
    m2 = env_step(cfg, sc, MdpAction(np.zeros(1)),
                  rng=np.random.default_rng(2))[2]["measurement"]
    clean_cfg = EnvConfig(feeder=feeder, estimator=None,
                          slack_voltage=FOURBUS_SLACK)
    m0 = env_step(clean_cfg, sc, MdpAction(np.zeros(1)))[2]["measurement"]
    assert not np.array_equal(m1.as_features(), m2.as_features())
    # 1% noise: perturbations are small relative to the clean phasors
    rel = np.abs(m1.as_features() - m0.as_features())
    assert rel.max() < 0.1
    # true voltages are untouched by measurement noise
    v1 = env_step(cfg, sc, MdpAction(np.zeros(1)),
                  rng=np.random.default_rng(3))[2]["v_mag_true"]
    assert np.array_equal(v1, env_step(clean_cfg, sc,
                                       MdpAction(np.zeros(1)))[2]["v_mag_true"])
