import sys

import numpy as np
import pytest

from conftest import FOURBUS_SLACK, fourbus_gen, synth34_gen
from gridpilot import ddpg, env, nn, runtime
from gridpilot.dsse import DsseModel, estimate_states
from gridpilot.env import EnvConfig, env_step
from gridpilot.errors import (
    InfeasibleScenarioError,
    ModelMismatchError,
    PowerFlowDivergedError,
    TrainingError,
)
from gridpilot.runtime import (
    AprConfig,
    apr_check,
    evaluate,
    fine_tune,
    latency_stats,
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


def system(feeder, slack_voltage=FOURBUS_SLACK, **entries):
    """The controlled system on ``feeder``; single-zone and perfect-state
    unless ``entries`` say otherwise."""
    return EnvConfig(feeder=feeder, slack_voltage=slack_voltage, **entries)


def identity_dsse(feeder, fingerprint=None):
    """Estimator shell with pass-through normalizers; accuracy is irrelevant
    to the wiring and compatibility checks exercised here."""
    n = feeder.n_node_phases
    net = nn.build_mlp([12, 8, 2 * n], ["relu", "identity"], np.random.default_rng(0))
    return DsseModel(net=net,
                     input_mean=np.zeros(12), input_std=np.ones(12),
                     output_mean=np.concatenate([np.ones(n), np.zeros(n)]),
                     output_std=np.ones(2 * n),
                     feeder_fingerprint=fingerprint or feeder.fingerprint,
                     node_phases=feeder.node_phases())


def estimated_actions(feeder, nets, dsse, scenarios):
    """The action the deployed agent should apply to each scenario: act on
    the estimate from the noiseless zero-action head measurement."""
    cfg = system(feeder)
    zero = np.zeros(1)
    actions = []
    for sc in scenarios:
        meas = env_step(cfg, sc, zero)[2]["measurement"]
        actions.append(ddpg.act(nets, estimate_states(dsse, meas).v_mag))
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
    a, r = oracle_best_action(system(feeder4), scenarios4[0])
    assert -1.0 <= a < 0.0
    for probe in (0.0, -1.0, 1.0):
        cfg = system(feeder4)
        _, r_probe, _ = env_step(cfg, scenarios4[0], np.array([probe]))
        assert r >= r_probe


def test_oracle_tie_breaks_toward_idle(feeder2):
    # no inverters: every grid point scores identically, pick a = 0
    sc = Scenario(id=0, p_load=np.array([0.05]), q_load=np.array([0.01]),
                  p_pv=np.zeros(0))
    a, r = oracle_best_action(system(feeder2, 1.0), sc)
    assert a == 0.0
    assert r <= 0.0


def test_oracle_finer_grid_dominates(feeder4, scenarios4):
    # the 3-point grid {-1, 0, 1} is a subset of the 201-point grid
    cfg = system(feeder4)
    _, r_coarse = oracle_best_action(cfg, scenarios4[1], n_grid=3)
    _, r_fine = oracle_best_action(cfg, scenarios4[1], n_grid=201)
    assert r_fine >= r_coarse


def test_oracle_grid_validation_and_infeasible(feeder2):
    sc = Scenario(id=0, p_load=np.array([0.05]), q_load=np.array([0.01]),
                  p_pv=np.zeros(0))
    cfg = system(feeder2, 1.0)
    with pytest.raises(ValueError):
        oracle_best_action(cfg, sc, n_grid=2)
    hopeless = Scenario(id=1, p_load=np.array([40.0]), q_load=np.array([10.0]),
                        p_pv=np.zeros(0))
    with pytest.raises(InfeasibleScenarioError, match="every grid point"):
        oracle_best_action(cfg, hopeless)


def test_oracle_beats_any_snapped_policy_action(feeder4, scenarios4, nets4):
    """Grid optimality: no policy can beat the oracle on its own grid."""
    cfg = system(feeder4)
    grid = np.linspace(-1.0, 1.0, 201)
    for sc in scenarios4[:5]:
        state, _, _ = env_step(cfg, sc, np.zeros(1))
        agent_a = ddpg.act(nets4, state)[0]
        snapped = grid[np.argmin(np.abs(grid - agent_a))]
        _, r_snap, _ = env_step(cfg, sc, np.array([snapped]))
        _, r_star = oracle_best_action(cfg, sc)
        assert r_star >= r_snap


# --- fine-tune ----------------------------------------------------------------

def test_fine_tune_zero_episodes_is_identity(feeder4, nets4, scenarios4):
    cfg = system(feeder4)
    assert fine_tune(nets4, scenarios4, 0, cfg) is nets4


def test_fine_tune_never_mutates_input(feeder4, nets4, scenarios4):
    cfg = system(feeder4)
    before = {k: v.copy() for k, v in nn.model_parameters(nets4.actor).items()}
    tcfg = ddpg.TrainConfig(horizon=2, batch_size=4, buffer_capacity=64)
    tuned = fine_tune(nets4, scenarios4[:4], 3, cfg, train_cfg=tcfg, seed=1)
    after = nn.model_parameters(nets4.actor)
    for k in before:
        assert np.array_equal(before[k], after[k])
    assert tuned is not nets4
    assert any(not np.array_equal(before[k], v)
               for k, v in nn.model_parameters(tuned.actor).items())


def test_fine_tune_freeze_and_prefill(feeder4, nets4, scenarios4, monkeypatch):
    captured = {}

    def fake_train(env_cfg, scenarios, cfg, nets=None, critic_freeze_updates=0):
        captured["freeze"] = critic_freeze_updates
        captured["sigma"] = (cfg.noise_sigma_start, cfg.noise_sigma_end)
        return nets, []

    monkeypatch.setattr(ddpg, "train", fake_train)
    # the critic stays frozen for 20% of the burst's episodes x horizon
    fine_tune(nets4, scenarios4[:3], 10, system(feeder4),
              train_cfg=ddpg.TrainConfig(horizon=5))
    assert captured["freeze"] == int(0.2 * 10 * 5)
    # exploration stays at the small terminal sigma for the whole burst
    assert captured["sigma"] == (0.005, 0.005)


def test_fine_tune_reverts_on_divergence(feeder4, nets4, scenarios4, monkeypatch):
    def exploding(*args, **kwargs):
        raise TrainingError("loss diverged to nan", epoch=0)

    monkeypatch.setattr(ddpg, "train", exploding)
    cfg = system(feeder4)
    assert fine_tune(nets4, scenarios4[:2], 5, cfg) is nets4


# --- online loop --------------------------------------------------------------

def test_run_online_logs_every_feasible_step(feeder4, nets4, scenarios4):
    apr = AprConfig(reference_reward=-1.0, window=50)
    run, nets_out = run_online(nets4, system(feeder4), scenarios4, apr)
    assert len(run.records) == len(scenarios4)
    assert len(run.latencies_s) == len(scenarios4)
    assert run.fine_tune_events == []
    assert nets_out is nets4
    rec = run.records[0]
    assert rec.scenario_id == scenarios4[0].id
    assert rec.max_v >= rec.min_v > 0.0


def test_run_online_skips_infeasible(feeder2):
    nets = ddpg.build_agent(feeder2.n_node_phases, 1, np.random.default_rng(0))
    ok = Scenario(id=0, p_load=np.array([0.05]), q_load=np.array([0.01]),
                  p_pv=np.zeros(0))
    bad = Scenario(id=1, p_load=np.array([40.0]), q_load=np.array([10.0]),
                   p_pv=np.zeros(0))
    apr = AprConfig(reference_reward=-1.0)
    run, _ = run_online(nets, system(feeder2, 1.0), [ok, bad, ok], apr)
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
    run, _ = run_online(nets4, system(feeder4), scenarios4[:3], apr)
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
    run, nets_out = run_online(nets4, system(feeder4), scenarios4[:8], apr)
    # trigger at step 2, window cleared, trigger again at step 5
    assert run.fine_tune_events == [2, 5]
    assert calls["n"] == 2
    assert nets_out is tuned_marker
    assert [r.step for r in run.records] == list(range(8))  # triggering steps logged too


@pytest.mark.parametrize("degrading", [False, True])
def test_run_online_windows_stay_bounded(feeder4, nets4, scenarios4, monkeypatch,
                                         degrading):
    # a long stream against a monitor that degrades on every full window, or
    # on none; at each decision, read the loop's own reward and scenario windows
    real_check = runtime.apr_check
    seen = []

    def watching_check(trailing_rewards, apr):
        loop = sys._getframe(1).f_locals
        seen.append((len(loop["rewards"]), len(loop["recent"])))
        return real_check(trailing_rewards, apr)

    tuned = []

    def fake_fine_tune(nets, recent, episodes, cfg, train_cfg=None, seed=0):
        tuned.append(list(recent))
        return nets

    monkeypatch.setattr(runtime, "apr_check", watching_check)
    monkeypatch.setattr(runtime, "fine_tune", fake_fine_tune)
    stream = scenarios4 * 25  # 300 cycles
    # every reward lies below 0 and above -1e9
    reference = 0.0 if degrading else -1e9
    apr = AprConfig(reference_reward=reference, degradation_threshold=1e-9, window=7)
    run, _ = run_online(nets4, system(feeder4), stream, apr)
    assert len(run.records) == len(stream) == len(seen)
    assert max(r for r, _ in seen) == apr.window
    assert max(n for _, n in seen) == apr.window
    if degrading:
        # every 7th cycle fine-tunes on the last 7 scenarios, and the reward
        # window restarts after it while the scenario window does not
        assert run.fine_tune_events == list(range(6, len(stream), 7))
        assert all(len(recent) == apr.window for recent in tuned)
        assert tuned[-1] == stream[run.fine_tune_events[-1] - 6:run.fine_tune_events[-1] + 1]
        assert seen[7] == (1, 7)
    else:
        # the reward window fills once and then slides, never cleared
        assert run.fine_tune_events == [] and tuned == []
        assert seen[6:] == [(7, 7)] * (len(stream) - 6)


def test_run_online_estimator_path(feeder4, nets4, scenarios4):
    dsse = identity_dsse(feeder4)
    apr = AprConfig(reference_reward=-1.0)
    run, _ = run_online(nets4, system(feeder4, estimator=dsse), scenarios4[:3], apr)
    assert len(run.records) == 3
    _, expected = estimated_actions(feeder4, nets4, dsse, scenarios4[:3])
    for rec, action in zip(run.records, expected):
        assert np.array_equal(rec.action, action)


def test_run_online_fine_tunes_on_estimates(feeder4, nets4, scenarios4, monkeypatch):
    # the deployed agent observes estimates, so its fine-tune burst must too
    dsse = identity_dsse(feeder4)
    calls = []
    real_estimate, real_fine_tune = env.estimate_states, runtime.fine_tune

    def spy_estimate(*args, **kwargs):
        calls.append("estimate")
        return real_estimate(*args, **kwargs)

    def spy_fine_tune(*args, **kwargs):
        calls.append("start")
        tuned = real_fine_tune(*args, **kwargs)
        calls.append("end")
        return tuned

    monkeypatch.setattr(env, "estimate_states", spy_estimate)
    monkeypatch.setattr(runtime, "fine_tune", spy_fine_tune)
    apr = AprConfig(reference_reward=0.0, degradation_threshold=1e-9,
                    window=3, fine_tune_episodes=1)
    run, _ = run_online(nets4, system(feeder4, estimator=dsse), scenarios4[:3], apr)
    assert run.fine_tune_events == [2]
    burst = calls[calls.index("start") + 1:calls.index("end")]
    assert burst and set(burst) == {"estimate"}


def test_run_online_fine_tune_updates_actor(feeder4, nets4, scenarios4):
    # the checkpoint's TrainConfig, as run-online passes it: its 20-step
    # episodes fill enough transitions for a batch within the burst
    apr = AprConfig(reference_reward=0.0, degradation_threshold=1e-9, window=3)
    run, tuned = run_online(nets4, system(feeder4), scenarios4[:3], apr,
                            train_cfg=ddpg.TrainConfig())
    assert run.fine_tune_events == [2]
    before = nn.model_parameters(nets4.actor)
    after = nn.model_parameters(tuned.actor)
    assert any(not np.array_equal(before[k], after[k]) for k in before)


def test_latency_stats(feeder4, nets4, scenarios4):
    apr = AprConfig(reference_reward=-1.0)
    run, _ = run_online(nets4, system(feeder4), scenarios4[:4], apr)
    stats = latency_stats(run.latencies_s)
    assert stats["count"] == 4
    assert 0 < stats["p50_ms"] <= stats["p99_ms"] <= stats["max_ms"]
    assert stats["mean_ms"] == pytest.approx(1000.0 * np.mean(run.latencies_s))
    assert latency_stats([]) == {"count": 0}


# --- evaluation ---------------------------------------------------------------

def test_evaluate_report_contents(feeder4, nets4, scenarios4):
    cfg = system(feeder4)
    summary, profile, latencies_s = evaluate(nets4, cfg, scenarios4)
    assert summary["scenario_count"] == len(scenarios4)
    assert 0.0 <= summary["in_band_fraction_controlled"] <= 1.0
    assert summary["scenarios_violating_baseline"] <= summary["scenario_count"]
    assert len(latencies_s) == len(scenarios4) and min(latencies_s) > 0.0
    # latency is reported separately and never enters the summary, which
    # must stay bit-stable across machines
    assert len(summary) == 10 and not any("latency" in k for k in summary)

    # one row per node-phase: its name, phase, and the profile's four
    # columns as plain floats
    assert [row[:2] for row in profile] == [(f"{b}.{ph}", ph) for b, ph in feeder4.node_phases()]
    assert profile[0][0] == "src.A"
    assert all(type(c) is float for row in profile for c in row[2:])
    v_idle = np.stack([env_step(cfg, sc, np.zeros(1))[2]["v_mag_true"] for sc in scenarios4])
    baseline = np.array([row[2:4] for row in profile])
    assert np.array_equal(baseline, np.column_stack([v_idle.mean(axis=0), v_idle.std(axis=0)]))


def test_evaluate_estimator_observed(feeder4, nets4, scenarios4):
    dsse = identity_dsse(feeder4)
    summary, profile, _ = evaluate(nets4, system(feeder4, estimator=dsse), scenarios4[:5])
    assert summary["scenario_count"] == 5
    # the controlled profile is the one the estimate-driven actions produce,
    # and it differs from the profile under perfect-state actions
    cfg, expected = estimated_actions(feeder4, nets4, dsse, scenarios4[:5])
    v = np.stack([env_step(cfg, sc, a)[2]["v_mag_true"]
                  for sc, a in zip(scenarios4[:5], expected)])
    v_mean_controlled = np.array([row[4] for row in profile])
    assert np.array_equal(v_mean_controlled, v.mean(axis=0))
    _, perfect, _ = evaluate(nets4, cfg, scenarios4[:5])
    assert not np.array_equal([row[4] for row in perfect], v_mean_controlled)


def test_evaluate_empty_raises(feeder4, nets4):
    with pytest.raises(ValueError, match="empty"):
        evaluate(nets4, system(feeder4), [])


def test_compatibility_guards(feeder4, feeder34, nets4, scenarios4):
    wrong_nets = ddpg.build_agent(5, 1, np.random.default_rng(0))
    with pytest.raises(ModelMismatchError, match="actor expects"):
        evaluate(wrong_nets, system(feeder4), scenarios4)
    # the estimator is checked once, when it joins the system description
    with pytest.raises(ModelMismatchError, match="trained for feeder"):
        system(feeder4, estimator=identity_dsse(feeder4, fingerprint="bogus"))
    mislabeled = identity_dsse(feeder34)
    mislabeled.feeder_fingerprint = feeder4.fingerprint
    with pytest.raises(ModelMismatchError, match="node-phases"):
        system(feeder4, estimator=mislabeled)


def test_zone_count_guard(feeder34):
    # a 3-zone agent on the default single-zone map would drive every
    # inverter with its first coefficient
    nets = ddpg.build_agent(feeder34.n_node_phases, 3, np.random.default_rng(0))
    cfg = EnvConfig(feeder=feeder34, slack_voltage=1.045)
    sset = generate_scenario_set(feeder34, synth34_gen(2), seed=3).scenarios
    with pytest.raises(ModelMismatchError, match="3 zone coefficients"):
        evaluate(nets, cfg, sset)
    with pytest.raises(ModelMismatchError, match="3 zone coefficients"):
        run_online(nets, cfg, sset, AprConfig(reference_reward=-1.0))
    # the oracle searches a single coefficient
    zoned = EnvConfig(feeder=feeder34, zone_map=np.arange(len(feeder34.pv_units)) % 3)
    with pytest.raises(ValueError, match="one zone"):
        oracle_best_action(zoned, sset[0])


def test_evaluate_applies_zone_map(feeder34):
    nets = ddpg.build_agent(feeder34.n_node_phases, 3, np.random.default_rng(0))
    n_pv = len(feeder34.pv_units)
    cfg = EnvConfig(feeder=feeder34, slack_voltage=1.045,
                    zone_map=np.arange(n_pv) % 3)
    sset = generate_scenario_set(feeder34, synth34_gen(2), seed=3).scenarios
    _, profile, _ = evaluate(nets, cfg, sset)
    # the controlled profile is the one the per-zone actions produce
    v = []
    for sc in sset:
        state, _, _ = env_step(cfg, sc, np.zeros(3))
        action = ddpg.act(nets, state)
        assert len(set(action)) == 3
        v.append(env_step(cfg, sc, action)[2]["v_mag_true"])
    assert np.array_equal([row[4] for row in profile], np.stack(v).mean(axis=0))
