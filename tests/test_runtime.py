import numpy as np
import pytest

from conftest import FOURBUS_SLACK, fourbus_gen
from gridpilot import ddpg, env, nn, runtime
from gridpilot.dsse import DsseModel, estimate_states
from gridpilot.env import EnvConfig, MdpAction, MdpState, env_step
from gridpilot.errors import (
    InfeasibleScenarioError,
    ModelMismatchError,
    PowerFlowDivergedError,
    TrainingError,
)
from gridpilot.runtime import (
    AprConfig,
    EvalReport,
    RunLog,
    apr_check,
    evaluate,
    fine_tune,
    oracle_best_action,
    run_online,
)
from gridpilot.scenario import Scenario, generate_scenario_set


@pytest.fixture(scope="module")
def scenarios4(feeder4):
    return generate_scenario_set(feeder4, fourbus_gen(12), seed=21).scenarios


@pytest.fixture(scope="module")
def nets4(feeder4):
    return ddpg.build_agent(feeder4.n_node_phases, 1, np.random.default_rng(0))


def identity_dsse(feeder, fingerprint=None):
    """Estimator shell with pass-through normalizers; accuracy is irrelevant
    to the wiring and compatibility checks exercised here."""
    n = feeder.n_node_phases
    net = nn.build_mlp([12, 8, 2 * n], rng=np.random.default_rng(0))
    net.eval()
    return DsseModel(net=net,
                     input_mean=np.zeros(12), input_std=np.ones(12),
                     output_mean=np.concatenate([np.ones(n), np.zeros(n)]),
                     output_std=np.ones(2 * n),
                     feeder_fingerprint=fingerprint or feeder.fingerprint,
                     node_phases=feeder.node_phases())


def estimated_actions(feeder, nets, dsse, scenarios):
    """The action the deployed agent should apply to each scenario: act on
    the estimate from the noiseless zero-action head measurement."""
    cfg = EnvConfig(feeder=feeder, estimator=None, horizon=1,
                    slack_voltage=FOURBUS_SLACK)
    zero = MdpAction(np.zeros(1))
    actions = []
    for sc in scenarios:
        meas = env_step(cfg, sc, zero)[2]["measurement"]
        actions.append(ddpg.act(nets, MdpState(estimate_states(dsse, meas).v_mag)))
    return cfg, actions


# --- APR monitor --------------------------------------------------------------

def test_apr_config_defaults_and_validation():
    apr = AprConfig(reference_reward=-2.0)
    assert apr.degradation_threshold == 0.5  # 25% of |ref|
    apr2 = AprConfig(reference_reward=-2.0, degradation_threshold=0.1)
    assert apr2.degradation_threshold == 0.1
    with pytest.raises(ValueError):
        AprConfig(reference_reward=-1.0, window=0)
    with pytest.raises(ValueError):
        AprConfig(reference_reward=-1.0, fine_tune_episodes=0)


def test_apr_check_rules():
    apr = AprConfig(reference_reward=-1.0, window=3)  # trigger below -1.25
    assert apr_check([-99.0], apr) == "ok"  # warm-up
    assert apr_check([-99.0, -99.0], apr) == "ok"
    assert apr_check([-1.1, -1.2, -1.1], apr) == "ok"
    assert apr_check([-2.0, -2.0, -2.0], apr) == "fine_tune"
    # only the trailing window counts
    assert apr_check([-50.0, -1.0, -1.0, -1.0], apr) == "ok"


# --- oracle -------------------------------------------------------------------

def test_oracle_absorbs_on_overvoltage_fixture(feeder4, scenarios4):
    a, r = oracle_best_action(feeder4, scenarios4[0],
                              slack_voltage=FOURBUS_SLACK)
    assert -1.0 <= a < 0.0
    for probe in (0.0, -1.0, 1.0):
        cfg = EnvConfig(feeder=feeder4, estimator=None, horizon=1,
                        slack_voltage=FOURBUS_SLACK)
        _, r_probe, _ = env_step(cfg, scenarios4[0], MdpAction(np.array([probe])))
        assert r >= r_probe


def test_oracle_tie_breaks_toward_idle(feeder2):
    # no inverters: every grid point scores identically, pick a = 0
    sc = Scenario(id=0, p_load=np.array([0.05]), q_load=np.array([0.01]),
                  p_pv=np.zeros(0))
    a, r = oracle_best_action(feeder2, sc)
    assert a == 0.0
    assert r <= 0.0


def test_oracle_finer_grid_dominates(feeder4, scenarios4):
    # the 3-point grid {-1, 0, 1} is a subset of the 201-point grid
    _, r_coarse = oracle_best_action(feeder4, scenarios4[1], n_grid=3,
                                     slack_voltage=FOURBUS_SLACK)
    _, r_fine = oracle_best_action(feeder4, scenarios4[1], n_grid=201,
                                   slack_voltage=FOURBUS_SLACK)
    assert r_fine >= r_coarse


def test_oracle_grid_validation_and_infeasible(feeder2):
    sc = Scenario(id=0, p_load=np.array([0.05]), q_load=np.array([0.01]),
                  p_pv=np.zeros(0))
    with pytest.raises(ValueError):
        oracle_best_action(feeder2, sc, n_grid=2)
    hopeless = Scenario(id=1, p_load=np.array([40.0]), q_load=np.array([10.0]),
                        p_pv=np.zeros(0))
    with pytest.raises(InfeasibleScenarioError, match="every grid point"):
        oracle_best_action(feeder2, hopeless)


def test_oracle_beats_any_snapped_policy_action(feeder4, scenarios4, nets4):
    """Grid optimality: no policy can beat the oracle on its own grid."""
    cfg = EnvConfig(feeder=feeder4, estimator=None, horizon=1,
                    slack_voltage=FOURBUS_SLACK)
    grid = np.linspace(-1.0, 1.0, 201)
    for sc in scenarios4[:5]:
        state, _, _ = env_step(cfg, sc, MdpAction(np.zeros(1)))
        agent_a = ddpg.act(nets4, state).coefficients[0]
        snapped = grid[np.argmin(np.abs(grid - agent_a))]
        _, r_snap, _ = env_step(cfg, sc, MdpAction(np.array([snapped])))
        _, r_star = oracle_best_action(feeder4, sc, slack_voltage=FOURBUS_SLACK)
        assert r_star >= r_snap


# --- fine-tune ----------------------------------------------------------------

def test_fine_tune_zero_episodes_is_identity(feeder4, nets4, scenarios4):
    cfg = EnvConfig(feeder=feeder4, estimator=None, horizon=1,
                    slack_voltage=FOURBUS_SLACK)
    assert fine_tune(nets4, scenarios4, 0, cfg) is nets4


def test_fine_tune_never_mutates_input(feeder4, nets4, scenarios4):
    cfg = EnvConfig(feeder=feeder4, estimator=None, horizon=2,
                    slack_voltage=FOURBUS_SLACK)
    before = {k: v.copy() for k, v in nn.model_parameters(nets4.actor).items()}
    tcfg = ddpg.TrainConfig(batch_size=4, buffer_capacity=64)
    tuned = fine_tune(nets4, scenarios4[:4], 3, cfg, train_cfg=tcfg, seed=1)
    after = nn.model_parameters(nets4.actor)
    for k in before:
        assert np.array_equal(before[k], after[k])
    assert tuned is not nets4
    assert any(not np.array_equal(before[k], v)
               for k, v in nn.model_parameters(tuned.actor).items())


def test_fine_tune_freeze_and_prefill(feeder4, nets4, scenarios4, monkeypatch):
    captured = {}

    def fake_train(env, scenarios, cfg, nets=None, buffer=None,
                   critic_freeze_updates=0):
        captured["freeze"] = critic_freeze_updates
        captured["buffer_len"] = len(buffer)
        captured["sigma"] = (cfg.noise_sigma_start, cfg.noise_sigma_end)
        return nets, []

    monkeypatch.setattr(ddpg, "train", fake_train)
    cfg = EnvConfig(feeder=feeder4, estimator=None, horizon=5,
                    slack_voltage=FOURBUS_SLACK)
    n = feeder4.n_node_phases
    transitions = [(np.ones(n), np.zeros(1), -1.0, np.ones(n), False)] * 7
    fine_tune(nets4, scenarios4[:3], 10, cfg, transitions=transitions)
    assert captured["freeze"] == int(0.2 * 10 * 5)
    assert captured["buffer_len"] == 7
    # exploration stays at the small terminal sigma for the whole burst
    assert captured["sigma"] == (0.005, 0.005)


def test_fine_tune_reverts_on_divergence(feeder4, nets4, scenarios4, monkeypatch):
    def exploding(*args, **kwargs):
        raise TrainingError("loss diverged to nan", epoch=0)

    monkeypatch.setattr(ddpg, "train", exploding)
    cfg = EnvConfig(feeder=feeder4, estimator=None, horizon=1,
                    slack_voltage=FOURBUS_SLACK)
    assert fine_tune(nets4, scenarios4[:2], 5, cfg) is nets4


# --- online loop --------------------------------------------------------------

def test_run_online_logs_every_feasible_step(feeder4, nets4, scenarios4):
    apr = AprConfig(reference_reward=-1.0, window=50)
    run, nets_out = run_online(feeder4, nets4, None, scenarios4, apr,
                               slack_voltage=FOURBUS_SLACK)
    assert len(run.records) == len(scenarios4)
    assert len(run.latencies_s) == len(scenarios4)
    assert run.fine_tune_events == []
    assert nets_out is nets4
    rec = run.records[0]
    assert rec.scenario_id == scenarios4[0].id
    assert rec.max_v >= rec.min_v > 0.0
    assert rec.apr_decision == "ok"


def test_run_online_skips_infeasible(feeder2):
    nets = ddpg.build_agent(feeder2.n_node_phases, 1, np.random.default_rng(0))
    ok = Scenario(id=0, p_load=np.array([0.05]), q_load=np.array([0.01]),
                  p_pv=np.zeros(0))
    bad = Scenario(id=1, p_load=np.array([40.0]), q_load=np.array([10.0]),
                   p_pv=np.zeros(0))
    apr = AprConfig(reference_reward=-1.0)
    run, _ = run_online(feeder2, nets, None, [ok, bad, ok], apr)
    assert [r.scenario_id for r in run.records] == [0, 0]


def test_run_online_skips_controlled_divergence(feeder4, nets4, scenarios4,
                                               monkeypatch, caplog):
    # the second scenario converges under idle inverters (solve 3) but its
    # controlled solve (solve 4) diverges
    real_solve = env.solve_power_flow
    calls = {"n": 0}

    def solve(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:
            raise PowerFlowDivergedError("forced", 1.0, 7)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(env, "solve_power_flow", solve)
    apr = AprConfig(reference_reward=-1.0)
    run, _ = run_online(feeder4, nets4, None, scenarios4[:3], apr,
                        slack_voltage=FOURBUS_SLACK)
    assert [r.scenario_id for r in run.records] == [scenarios4[0].id, scenarios4[2].id]
    assert len(run.latencies_s) == 2
    assert "diverged under control action" in caplog.text


def test_run_online_apr_triggers_fine_tune(feeder4, nets4, scenarios4, monkeypatch):
    tuned_marker = ddpg.build_agent(feeder4.n_node_phases, 1,
                                    np.random.default_rng(5))
    calls = {"n": 0}

    def fake_fine_tune(nets, recent, episodes, cfg, train_cfg=None, seed=0):
        calls["n"] += 1
        assert episodes == 2
        return tuned_marker

    monkeypatch.setattr(runtime, "fine_tune", fake_fine_tune)
    # reference far above anything achievable: every full window degrades
    apr = AprConfig(reference_reward=0.0, degradation_threshold=1e-9,
                    window=3, fine_tune_episodes=2)
    run, nets_out = run_online(feeder4, nets4, None, scenarios4[:8], apr,
                               slack_voltage=FOURBUS_SLACK)
    # trigger at step 2, window cleared, trigger again at step 5
    assert run.fine_tune_events == [2, 5]
    assert calls["n"] == 2
    assert nets_out is tuned_marker
    assert run.records[2].apr_decision == "fine_tune"
    assert run.records[3].apr_decision == "ok"  # fresh window after tuning


def test_run_online_fine_tune_disabled(feeder4, nets4, scenarios4):
    apr = AprConfig(reference_reward=0.0, degradation_threshold=1e-9, window=3)
    run, nets_out = run_online(feeder4, nets4, None, scenarios4[:6], apr,
                               slack_voltage=FOURBUS_SLACK,
                               fine_tune_enabled=False)
    assert run.fine_tune_events == []
    assert nets_out is nets4
    assert any(r.apr_decision == "fine_tune" for r in run.records)


def test_run_online_estimator_path(feeder4, nets4, scenarios4):
    dsse = identity_dsse(feeder4)
    apr = AprConfig(reference_reward=-1.0)
    run, _ = run_online(feeder4, nets4, dsse, scenarios4[:3],
                        apr, slack_voltage=FOURBUS_SLACK)
    assert len(run.records) == 3
    _, expected = estimated_actions(feeder4, nets4, dsse, scenarios4[:3])
    for rec, action in zip(run.records, expected):
        assert np.array_equal(rec.action, action.coefficients)


def test_run_log_csv_and_latency_stats(feeder4, nets4, scenarios4):
    apr = AprConfig(reference_reward=-1.0)
    run, _ = run_online(feeder4, nets4, None, scenarios4[:4], apr,
                        slack_voltage=FOURBUS_SLACK)
    lines = run.to_csv().splitlines()
    assert lines[0].startswith("episode, step, scenario_id, action...")
    assert len(lines) == 5
    fields = lines[1].split(",")
    assert float(fields[4]) == run.records[0].reward
    stats = run.latency_stats()
    assert stats["count"] == 4
    assert 0 < stats["p50_ms"] <= stats["p99_ms"] <= stats["max_ms"]
    assert RunLog().latency_stats() == {"count": 0}


# --- evaluation ---------------------------------------------------------------

def test_evaluate_report_contents(feeder4, nets4, scenarios4):
    report = evaluate(nets4, None, feeder4, scenarios4,
                      slack_voltage=FOURBUS_SLACK)
    n = feeder4.n_node_phases
    assert report.scenario_count == len(scenarios4)
    assert report.v_mean_baseline.shape == (n,)
    assert 0.0 <= report.in_band_fraction_controlled <= 1.0
    assert report.scenarios_violating_baseline <= report.scenario_count
    assert report.latency_p99_ms > 0.0

    lines = report.profile_csv().splitlines()
    assert len(lines) == 1 + n
    assert lines[1].split(",")[0] == "src.A"

    # latency is reported separately and never enters the summary, which
    # must stay bit-stable across machines
    summary = report.summary()
    assert not any("latency" in k for k in summary)
    assert summary["scenario_count"] == len(scenarios4)


def test_evaluate_estimator_observed(feeder4, nets4, scenarios4):
    dsse = identity_dsse(feeder4)
    report = evaluate(nets4, dsse, feeder4, scenarios4[:5],
                      slack_voltage=FOURBUS_SLACK)
    assert report.scenario_count == 5
    # the controlled profile is the one the estimate-driven actions produce,
    # and it differs from the profile under perfect-state actions
    cfg, expected = estimated_actions(feeder4, nets4, dsse, scenarios4[:5])
    v = np.stack([env_step(cfg, sc, a)[2]["v_mag_true"]
                  for sc, a in zip(scenarios4[:5], expected)])
    assert np.array_equal(report.v_mean_controlled, v.mean(axis=0))
    perfect = evaluate(nets4, None, feeder4, scenarios4[:5],
                       slack_voltage=FOURBUS_SLACK)
    assert not np.array_equal(perfect.v_mean_controlled, report.v_mean_controlled)


def test_evaluate_empty_raises(feeder4, nets4):
    with pytest.raises(ValueError, match="empty"):
        evaluate(nets4, None, feeder4, [])


def test_compatibility_guards(feeder4, feeder34, nets4, scenarios4):
    wrong_nets = ddpg.build_agent(5, 1, np.random.default_rng(0))
    with pytest.raises(ModelMismatchError, match="actor expects"):
        evaluate(wrong_nets, None, feeder4, scenarios4)
    with pytest.raises(ModelMismatchError, match="different feeder"):
        evaluate(nets4, identity_dsse(feeder4, fingerprint="bogus"),
                 feeder4, scenarios4)
    mislabeled = identity_dsse(feeder34)
    mislabeled.feeder_fingerprint = feeder4.fingerprint
    with pytest.raises(ModelMismatchError, match="node-phases"):
        evaluate(nets4, mislabeled, feeder4, scenarios4)
