import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FOURBUS_SLACK, SYNTH34_SLACK, fourbus_gen, synth34_gen
from gridpilot.env import (
    DIVERGENCE_PENALTY_PER_NODE,
    EnvConfig,
    RewardConfig,
    conditions,
    curtailment_barrier,
    env_step,
    map_action,
    objective_deviation,
    q_max_no_curtailment,
    q_max_vector,
    reward,
    voltage_barrier,
)
from gridpilot.feeder import LoadPoint, PvUnit, validate_feeder
from gridpilot.powerflow import PowerFlowDivergedError, feeder_head_measurement, solve_power_flow
from gridpilot.scenario import Scenario, generate_scenario_set, to_injections


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


def test_q_max_vector_bit_equal_to_scalar(feeder34):
    s_rated = np.array([pv.s_rated for pv in feeder34.pv_units])
    rng = np.random.default_rng(11)
    p_pv = rng.uniform(0.0, 1.0, size=s_rated.shape) * s_rated
    p_pv[:3] = 0.0, s_rated[1], np.nextafter(s_rated[2], 0.0)  # both ends of the range
    q = q_max_vector(s_rated, p_pv)
    ref = np.array([q_max_no_curtailment(s, p) for s, p in zip(s_rated, p_pv)])
    assert q.tobytes() == ref.tobytes()

    for k, bad in ((4, -1e-300), (7, np.nextafter(s_rated[7], 2.0)), (9, 2.0 * s_rated[9])):
        p_bad = p_pv.copy()
        p_bad[k] = bad
        with pytest.raises(ValueError):
            q_max_no_curtailment(s_rated[k], p_bad[k])
        with pytest.raises(ValueError, match=f"pv unit {k}"):
            q_max_vector(s_rated, p_bad)


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


@settings(max_examples=200)
@given(v=st.floats(0.5, 1.5), lam=st.floats(0.0, 5.0), eta=st.floats(0.0, 5.0))
def test_reward_never_positive(v, lam, eta):
    cfg = RewardConfig(lambda_weight=lam, eta_weight=eta)
    assert reward(np.array([v]), np.array([0.3]), np.array([0.2]), cfg) <= 0.0


@settings(max_examples=100)
@given(v=st.floats(0.9501, 1.0499))
def test_barrier_quadratic_branch_inside_band(v):
    cfg = RewardConfig()
    # product, not ** 2: libm pow is not always correctly rounded
    assert voltage_barrier(v, cfg) == (v - 1.0) * (v - 1.0)


@settings(max_examples=100)
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
    # a stack's row sums are each profile's sum, bit for bit, at any length
    rng = np.random.default_rng(0)
    for n in (1, 7, 9, 102, 300):
        stack = rng.uniform(0.9, 1.1, size=(5, n))
        rows = objective_deviation(stack, 1.01)
        assert rows.shape == (5,)
        assert rows.tolist() == [objective_deviation(v, 1.01) for v in stack]


# --- action mapping ----------------------------------------------------------

@settings(max_examples=60)
@given(c=st.floats(-10.0, 10.0))
def test_map_action_clamps_coefficients(feeder4, c):
    zone_map = np.zeros(len(feeder4.pv_units), dtype=int)
    q_rated = np.array([pv.q_rated for pv in feeder4.pv_units])
    q = map_action(np.array([c]), q_rated, zone_map)
    assert np.all(np.abs(q) <= q_rated + 1e-15)
    expected = np.clip(c, -1.0, 1.0) * q_rated
    assert np.allclose(q, expected)


def test_map_action_zone_routing(feeder34):
    n_pv = len(feeder34.pv_units)
    zone_map = np.arange(n_pv) % 3
    coeffs = np.array([0.5, -0.25, 1.0])
    q_rated = np.array([pv.q_rated for pv in feeder34.pv_units])
    q = map_action(coeffs, q_rated, zone_map)
    assert np.allclose(q, coeffs[zone_map] * q_rated)


def test_map_action_no_pv():
    q = map_action(np.array([1.0]), np.zeros(0), np.zeros(0, dtype=int))
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
    state, r, info = env_step(cfg, conditions(cfg, sc), np.array([-0.4]))
    assert sorted(info) == ["iterations", "measurement", "solution", "terminal"]
    assert not info["terminal"]
    assert state.shape == (feeder.n_node_phases,)
    sol = info["solution"]
    assert np.array_equal(state, sol.v_mag) and info["iterations"] == sol.iterations

    # reward recomputable from the true voltages and the setpoints
    q_set = map_action(np.array([-0.4]), cfg.q_rated, cfg.zone_map)
    expected = reward(state, q_set, q_max_vector(cfg.s_rated, sc.p_pv), cfg.reward)
    assert r == pytest.approx(expected, abs=1e-15)


def test_env_step_head_power_sign(env4_setup):
    feeder, cfg, sset = env4_setup
    _, _, info = env_step(cfg, conditions(cfg, sset.scenarios[0]), np.array([0.0]))
    v, adm = info["solution"].v_complex, feeder.admittance
    head = v[adm.slack] * np.conj((adm.g + 1j * adm.b)[adm.slack] @ v)
    # loads dominate PV on this fixture; the head supplies real power
    assert head.real.sum() > 0.0


def test_absorption_lowers_peak_voltage(env4_setup):
    _, cfg, sset = env4_setup
    cond = conditions(cfg, sset.scenarios[1])
    peaks = []
    for a in (0.4, 0.0, -0.5, -1.0):
        state, _, _ = env_step(cfg, cond, np.array([a]))
        peaks.append(state.max())
    assert peaks[0] > peaks[1] > peaks[2] > peaks[3]


def test_divergence_penalty_and_placeholder(feeder2):
    cfg = EnvConfig(feeder=feeder2, estimator=None)
    from gridpilot.scenario import Scenario
    # 40 p.u. behind a j0.1 p.u. line is far beyond loadability
    sc = Scenario(id=0, p_load=np.array([40.0]), q_load=np.array([10.0]),
                  p_pv=np.zeros(0))
    state, r, info = env_step(cfg, conditions(cfg, sc), np.zeros(1))
    assert info["terminal"]
    assert sorted(info) == ["iterations", "residual", "terminal"]
    assert r == DIVERGENCE_PENALTY_PER_NODE * feeder2.n_node_phases
    assert np.allclose(state, 1.0)  # flat nominal placeholder


def test_out_of_range_pv_raises_on_a_diverging_step(env4_setup):
    # conditions refuses the scenario before any step, even one that diverges
    _, cfg, sset = env4_setup
    from gridpilot.scenario import Scenario
    sc = sset.scenarios[0]
    heavy = Scenario(id=0, p_load=sc.p_load * 1e3, q_load=sc.q_load, p_pv=sc.p_pv)
    assert env_step(cfg, conditions(cfg, heavy), np.zeros(1))[2]["terminal"]
    heavy.p_pv = cfg.s_rated * 2.0
    with pytest.raises(ValueError, match="outside"):
        conditions(cfg, heavy)


def test_env_config_validation(feeder4):
    with pytest.raises(ValueError):
        EnvConfig(feeder=feeder4, zone_map=np.zeros(2, dtype=int))  # 1 pv unit
    # the solve is symmetric under V -> -V, so a negative head voltage solved
    # as the positive one, and zero (or a subnormal) as a divergence
    for slack in (-1.04, 0.0, float("nan")):
        with pytest.raises(ValueError, match="slack_voltage"):
            EnvConfig(feeder=feeder4, slack_voltage=slack)
    cfg = EnvConfig(feeder=feeder4)
    assert cfg.n_zones == 1
    assert cfg.state_dim == 9


def test_measurement_noise_flows_through_env(env4_setup):
    feeder, _, sset = env4_setup
    cfg = EnvConfig(feeder=feeder, estimator=None, measurement_noise_pct=1.0,
                    slack_voltage=FOURBUS_SLACK)
    cond = conditions(cfg, sset.scenarios[0])
    m1 = env_step(cfg, cond, np.zeros(1),
                  rng=np.random.default_rng(1))[2]["measurement"]
    m2 = env_step(cfg, cond, np.zeros(1),
                  rng=np.random.default_rng(2))[2]["measurement"]
    clean_cfg = EnvConfig(feeder=feeder, estimator=None,
                          slack_voltage=FOURBUS_SLACK)
    m0 = env_step(clean_cfg, cond, np.zeros(1))[2]["measurement"]
    assert m1.shape == (12,) and not np.array_equal(m1, m2)
    # 1% noise: perturbations are small relative to the clean phasors
    rel = np.abs(m1 - m0)
    assert rel.max() < 0.1
    # true voltages are untouched by measurement noise
    v1 = env_step(cfg, cond, np.zeros(1), rng=np.random.default_rng(3))[0]
    assert np.array_equal(v1, env_step(clean_cfg, cond, np.zeros(1))[0])


# --- conditions ----------------------------------------------------------------

def per_step_reference(cfg, scenario, action):
    """A step that rebuilds the scenario's injections and curtailment limits
    on every call: (magnitudes, reward, iterations, solution, measurement),
    or None where the solve diverges."""
    adm = cfg.feeder.admittance
    q_set = map_action(action, cfg.q_rated, cfg.zone_map)
    inj = to_injections(adm, scenario, q_pv=q_set)
    q_max = q_max_vector(cfg.s_rated, scenario.p_pv)
    try:
        sol = solve_power_flow(cfg.feeder, adm, inj, slack_voltage=cfg.slack_voltage)
    except PowerFlowDivergedError:
        return None
    r = reward(sol.v_mag, q_set, q_max, cfg.reward)
    return sol.v_mag, r, sol.iterations, sol, feeder_head_measurement(adm, sol)


def assert_steps_match_per_step_reference(cfg, scenario, actions):
    cond = conditions(cfg, scenario)
    for action in actions:
        state, r, info = env_step(cfg, cond, action)
        ref = per_step_reference(cfg, scenario, action)
        assert info["terminal"] == (ref is None)
        if ref is None:
            continue
        v_mag, r_ref, iterations, sol, meas = ref
        assert state.tobytes() == v_mag.tobytes()
        assert (r, info["iterations"]) == (r_ref, iterations)
        assert info["solution"].v_complex.tobytes() == sol.v_complex.tobytes()
        assert info["measurement"].tobytes() == meas.tobytes()


def test_env_step_bit_equal_to_per_step_injections_on_synth34_oracle_grid(feeder34):
    cfg = EnvConfig(feeder=feeder34, slack_voltage=SYNTH34_SLACK)
    scenario = generate_scenario_set(feeder34, synth34_gen(1), seed=901).scenarios[0]
    actions = [np.array([a]) for a in np.linspace(-1.0, 1.0, 201)]
    assert_steps_match_per_step_reference(cfg, scenario, actions)


def test_env_step_bit_equal_to_per_step_injections_sharing_a_node_phase(feeder4):
    # test_scenario's feeder: two loads and two pv units on b2.B, so the
    # reactive setpoints of units that share a node-phase sum in feeder order
    loads = feeder4.loads + [LoadPoint("b2", "B", 0.1, 0.02), LoadPoint("b2", "B", 0.3, 0.1)]
    pv_units = feeder4.pv_units + [PvUnit("b2", "B", 0.5, 0.4), PvUnit("b2", "B", 0.3, 0.3)]
    feeder = dataclasses.replace(feeder4, loads=loads, pv_units=pv_units, fingerprint="")
    assert not validate_feeder(feeder)
    cfg = EnvConfig(feeder=feeder, slack_voltage=FOURBUS_SLACK)
    rng = np.random.default_rng(8)
    actions = [np.array([a]) for a in np.linspace(-1.0, 1.0, 21)]
    for _ in range(10):
        # magnitudes spread over decades, so summation order shows in the bits
        scenario = Scenario(id=0, p_load=0.1 * 10.0 ** rng.uniform(-6, 0, len(loads)),
                            q_load=0.1 * 10.0 ** rng.uniform(-6, 0, len(loads)),
                            p_pv=cfg.s_rated * 10.0 ** rng.uniform(-6, 0, len(pv_units)))
        assert_steps_match_per_step_reference(cfg, scenario, actions)


def test_conditions_are_read_only(env4_setup):
    _, cfg, sset = env4_setup
    cond = conditions(cfg, sset.scenarios[0])
    arrays = (cond.injections.p, cond.injections.q, cond.q_max)
    before = [a.copy() for a in arrays]
    env_step(cfg, cond, np.array([0.7]))
    for arr, old in zip(arrays, before):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
        assert np.array_equal(arr, old)  # a step leaves them as they were
    with pytest.raises(dataclasses.FrozenInstanceError):
        cond.q_max = np.zeros(1)
