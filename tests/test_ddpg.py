from dataclasses import replace

import numpy as np
import pytest

from conftest import FOURBUS_SLACK, fourbus_gen
from gridpilot import ddpg, env, nn
from gridpilot.ddpg import (
    AgentNets,
    ReplayBuffer,
    TrainConfig,
    act,
    build_agent,
    load_agent,
    policy_gradient,
    save_agent,
    sigma_schedule,
    soft_update,
    soft_update_nets,
    td_loss,
    train,
)
from gridpilot.env import EnvConfig
from gridpilot.errors import (
    CheckpointError,
    InfeasibleScenarioError,
    ModelMismatchError,
    NumericalError,
    TrainingError,
)
from gridpilot.scenario import Scenario, generate_scenario_set


def small_nets(rng=None, state_dim=4, action_dim=2):
    """Hand-assembled agent with tanh-only hidden layers.

    Small and kink-free so finite differences on the policy gradient are
    exact; the production sizes are exercised by build_agent and training.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    actor = nn.build_mlp([state_dim, 10, 10, action_dim], ["tanh", "tanh", "tanh"], rng)
    critic = nn.build_mlp([state_dim + action_dim, 12, 12, 1],
                          ["tanh", "tanh", "identity"], rng)
    return AgentNets(actor=actor, critic=critic,
                     actor_target=nn.clone_model(actor),
                     critic_target=nn.clone_model(critic))


# --- construction ------------------------------------------------------------

def test_build_agent_shapes_and_activations():
    nets = build_agent(9, 1, rng=np.random.default_rng(0))
    assert nets.state_dim == 9
    assert nets.action_dim == 1
    assert [l.out_dim for l in nets.actor.layers] == [400, 300, 1]
    assert [l.activation for l in nets.actor.layers] == ["relu", "tanh", "tanh"]
    assert [l.out_dim for l in nets.critic.layers] == [400, 300, 1]
    assert [l.activation for l in nets.critic.layers] == ["relu", "relu", "identity"]
    assert nets.critic.input_dim == 10
    # output layers start near zero so early actions/values stay small
    for net in (nets.actor, nets.critic):
        final = net.layers[-1]
        assert np.abs(final.W).max() <= 3e-3
        assert np.abs(final.b).max() <= 3e-3


def test_build_agent_targets_start_equal():
    nets = build_agent(3, 1, rng=np.random.default_rng(1))
    for src, dst in ((nets.actor, nets.actor_target),
                     (nets.critic, nets.critic_target)):
        a = nn._views(src, src.params)
        b = nn._views(dst, dst.params)
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k])
            assert not np.shares_memory(a[k], b[k])  # clones, not views


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(tau=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=128, buffer_capacity=64)
    with pytest.raises(ValueError):
        TrainConfig(noise_process="brownian")
    with pytest.raises(ValueError):
        TrainConfig(updates_start="never")
    with pytest.raises(ValueError, match="episodes"):
        TrainConfig(episodes=0)
    with pytest.raises(ValueError, match="horizon"):
        TrainConfig(horizon=0)
    for sigmas in ({"noise_sigma_start": -0.5}, {"noise_sigma_end": -1e-9}):
        with pytest.raises(ValueError, match="noise_sigma"):
            TrainConfig(**sigmas)
    for rates in ({"actor_lr": -0.001}, {"critic_lr": 0.0}, {"actor_lr": float("nan")}):
        with pytest.raises(ValueError, match="_lr"):
            TrainConfig(**rates)
    TrainConfig(noise_sigma_start=0.0, noise_sigma_end=0.0)  # no exploration is allowed


# --- replay buffer ------------------------------------------------------------

def test_replay_ring_evicts_oldest():
    buf = ReplayBuffer(4, state_dim=1, action_dim=1)
    for i in range(6):
        buf.push([float(i)], [0.0], float(i), [0.0], False)
    assert len(buf) == 4
    # 0 and 1 were overwritten by 4 and 5
    assert sorted(buf.s[:, 0].tolist()) == [2.0, 3.0, 4.0, 5.0]
    assert buf.head == 2


def test_replay_sample_uniform():
    buf = ReplayBuffer(8, 1, 1)
    for i in range(8):
        buf.push([float(i)], [0.0], 0.0, [0.0], False)
    rng = np.random.default_rng(0)
    draws = 16_000
    batch = buf.sample(draws, rng)
    counts = np.bincount(batch["s"][:, 0].astype(int), minlength=8)
    expected = draws / 8
    sigma = np.sqrt(draws * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_replay_sample_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        ReplayBuffer(4, 1, 1).sample(2, np.random.default_rng(0))


def test_replay_sample_only_filled_region():
    buf = ReplayBuffer(100, 1, 1)
    buf.push([7.0], [0.0], 0.0, [0.0], False)
    batch = buf.sample(50, np.random.default_rng(0))
    assert np.all(batch["s"] == 7.0)


# --- update arithmetic --------------------------------------------------------

def test_soft_update_hand_value():
    target = np.array([0.0])
    soft_update(np.array([1.0]), target, 0.001)
    assert target[0] == 0.001  # exactly: 0.001*1 + 0.999*0
    # a vector of several blocks gets the same two products in every element
    rng = np.random.default_rng(0)
    learned, target = rng.standard_normal((2, 2 * nn.BLOCK_SIZE + 5))
    expected = target * (1.0 - 0.001) + 0.001 * learned
    soft_update(learned, target, 0.001)
    assert np.array_equal(target, expected)


def test_soft_update_mismatch_raises():
    with pytest.raises(ModelMismatchError):
        soft_update(np.zeros(2), np.zeros(3), 0.5)
    with pytest.raises(ModelMismatchError):
        soft_update(np.zeros(2), np.zeros(0), 0.5)


def test_soft_update_nets_converges_geometrically():
    nets = small_nets()
    rng = np.random.default_rng(2)
    for p in nn._views(nets.actor, nets.actor.params).values():
        p += rng.normal(0, 0.1, p.shape)
    learned = nn._views(nets.actor, nets.actor.params)
    target = nn._views(nets.actor_target, nets.actor_target.params)
    gap0 = {k: learned[k] - target[k] for k in learned}
    soft_update_nets(nets, 0.1)
    for k in learned:
        assert np.allclose(learned[k] - target[k], 0.9 * gap0[k])


def test_td_loss_terminal_masking():
    nets = small_nets()
    rng = np.random.default_rng(3)
    batch = {
        "s": rng.normal(size=(6, 4)),
        "a": rng.uniform(-1, 1, size=(6, 2)),
        "r": rng.normal(size=6),
        "s2": rng.normal(size=(6, 4)),
        "terminal": np.array([True, False, True, False, False, True]),
    }
    loss, grads = td_loss(nets, batch, gamma=0.9)

    a2, _ = nn.forward(nets.actor_target, batch["s2"])
    q2, _ = nn.forward(nets.critic_target, np.hstack([batch["s2"], a2]))
    y = batch["r"][:, None] + 0.9 * q2 * (~batch["terminal"])[:, None]
    q, _ = nn.forward(nets.critic, np.hstack([batch["s"], batch["a"]]))
    assert loss == pytest.approx(float(np.mean((q - y) ** 2)), abs=1e-15)
    # terminal rows bootstrap from nothing: y == r exactly there
    assert np.array_equal(y[batch["terminal"], 0], batch["r"][batch["terminal"]])
    assert grads.shape == nets.critic.params.shape


def test_policy_gradient_matches_finite_differences():
    nets = small_nets()
    rng = np.random.default_rng(4)
    states = rng.normal(size=(5, 4))
    mean_q, grads = policy_gradient(nets, states)

    def objective():
        a, _ = nn.forward(nets.actor, states)
        q, _ = nn.forward(nets.critic, np.hstack([states, a]))
        return -float(np.mean(q))

    params = nn._views(nets.actor, nets.actor.params)
    h = 1e-6
    worst = 0.0
    for key, tensor in params.items():
        flat = tensor.reshape(-1)
        for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = objective()
            flat[idx] = orig - h
            down = objective()
            flat[idx] = orig
            num = (up - down) / (2 * h)
            ana = nn._views(nets.actor, grads)[key].reshape(-1)[idx]
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-8))
    assert worst <= 1e-4


def test_policy_gradient_leaves_critic_untouched():
    nets = small_nets()
    before = {k: v.copy() for k, v in nn._views(nets.critic, nets.critic.params).items()}
    policy_gradient(nets, np.random.default_rng(5).normal(size=(3, 4)))
    after = nn._views(nets.critic, nets.critic.params)
    for k in before:
        assert np.array_equal(before[k], after[k])


# --- exploration --------------------------------------------------------------

def test_sigma_schedule_endpoints():
    cfg = TrainConfig(episodes=100)
    assert sigma_schedule(cfg, 0) == 0.5
    assert sigma_schedule(cfg, 99) == pytest.approx(0.005, abs=1e-15)
    sigmas = [sigma_schedule(cfg, e) for e in range(100)]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    assert sigma_schedule(TrainConfig(episodes=1), 0) == 0.5


def test_act_clamps_and_validates():
    # an identity output far past [-1, 1]: only act's own clip bounds it
    big = nn.build_mlp([4, 3], ["identity"], np.random.default_rng(6))
    big.layers[0].W *= 100.0
    nets = replace(small_nets(), actor=big)
    state = np.ones(4)
    out, _ = nn.forward(big, state[None, :])
    a = act(nets, state)
    assert np.abs(out).max() > 1.0
    assert np.array_equal(a, np.clip(out[0], -1.0, 1.0))
    with pytest.raises(ModelMismatchError):
        act(nets, np.ones(7))
    # deterministic: the deployed policy draws nothing
    assert np.array_equal(act(nets, state), a)


def test_act_leaves_nets_untouched():
    nets = build_agent(5, 2, np.random.default_rng(3))
    before = [{k: v.copy() for k, v in nn.model_to_arrays(getattr(nets, name))[0].items()}
              for name in ddpg.NET_NAMES]
    first = act(nets, np.linspace(0.9, 1.1, 5))
    act(nets, np.ones(5))
    assert np.array_equal(act(nets, np.linspace(0.9, 1.1, 5)), first)
    for name, arrays in zip(ddpg.NET_NAMES, before):
        after, _ = nn.model_to_arrays(getattr(nets, name))
        assert after.keys() == arrays.keys()
        assert all(np.array_equal(after[k], arrays[k]) for k in arrays), name


# --- training loop ------------------------------------------------------------

@pytest.fixture(scope="module")
def train_setup(feeder4):
    cfg = EnvConfig(feeder=feeder4, estimator=None, slack_voltage=FOURBUS_SLACK)
    scenarios = generate_scenario_set(feeder4, fourbus_gen(6), seed=11).scenarios
    return cfg, scenarios


def quick_cfg(**kw):
    base = dict(episodes=4, horizon=3, batch_size=8, buffer_capacity=64, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_deterministic_per_seed(train_setup):
    env_cfg, scenarios = train_setup
    nets_a, traj_a = train(env_cfg, scenarios, quick_cfg())
    nets_b, traj_b = train(env_cfg, scenarios, quick_cfg())
    assert traj_a == traj_b
    pa = nn._views(nets_a.actor, nets_a.actor.params)
    pb = nn._views(nets_b.actor, nets_b.actor.params)
    for k in pa:
        assert np.array_equal(pa[k], pb[k])
    _, traj_c = train(env_cfg, scenarios, quick_cfg(seed=1))
    assert traj_c != traj_a


def test_train_returns_one_reward_per_episode(train_setup):
    env_cfg, scenarios = train_setup
    _, traj = train(env_cfg, scenarios, quick_cfg(episodes=5))
    assert len(traj) == 5
    assert all(r <= 0.0 for r in traj)


def test_train_ou_process_runs(train_setup):
    env_cfg, scenarios = train_setup
    _, traj = train(env_cfg, scenarios, quick_cfg(noise_process="ou"))
    assert len(traj) == 4


# train(replace(train_setup's config, measurement_noise_pct=1.0), ...,
# quick_cfg(episodes=4, horizon=4, noise_process=..., noise_sigma_end=...),
# nets=small_nets(state_dim=9, action_dim=1)): the reward per episode and the
# trained actor's parameter sum, as float hex. Exploration, measurement noise
# and replay sampling share one stream, so any change to the order or the
# expressions of the exploration draws shows here.
EXPLORATION_BITS = {
    ("gaussian", 0.005): (["-0x1.8bcea06ce298cp-2", "-0x1.c3c0749d0c848p-2",
                           "-0x1.a050731d10201p-2", "-0x1.3d039397bb3a3p-2"],
                          "0x1.536b6849b3edep+2"),
    ("gaussian", 0.0): (["-0x1.8bcea06ce298cp-2", "-0x1.c3999b008af20p-2",
                         "-0x1.a0a14fd7fc912p-2", "-0x1.3d0f91aec02e4p-2"],
                        "0x1.536c662aba4dcp+2"),
    ("ou", 0.005): (["-0x1.59b42997dd560p-2", "-0x1.ca6c264856a2bp-2",
                     "-0x1.95c0aed478743p-4", "-0x1.3d2491aac94c8p-2"],
                    "0x1.536b2139cd8cfp+2"),
    ("ou", 0.0): (["-0x1.59b42997dd560p-2", "-0x1.ca483d158d0b2p-2",
                   "-0x1.96d37ec4f6f42p-4", "-0x1.3d0f286619568p-2"],
                  "0x1.536b181013438p+2"),
}


@pytest.mark.parametrize("process, sigma_end", list(EXPLORATION_BITS))
def test_train_exploration_bits(train_setup, process, sigma_end):
    env_cfg, scenarios = train_setup
    noisy = replace(env_cfg, measurement_noise_pct=1.0)
    nets = small_nets(state_dim=noisy.state_dim, action_dim=noisy.n_zones)
    tuned, traj = train(noisy, scenarios, nets=nets,
                        cfg=quick_cfg(episodes=4, horizon=4, noise_process=process,
                                      noise_sigma_end=sigma_end))
    assert ([r.hex() for r in traj], float(tuned.actor.params.sum()).hex()) \
        == EXPLORATION_BITS[process, sigma_end]


@pytest.mark.parametrize("process", ["gaussian", "ou"])
def test_train_clips_exploratory_actions(train_setup, monkeypatch, process):
    env_cfg, scenarios = train_setup
    actions = []
    real = ddpg.env_step

    def spying(cfg, cond, action, rng=None):
        actions.append(action.copy())
        return real(cfg, cond, action, rng=rng)

    monkeypatch.setattr(ddpg, "env_step", spying)
    train(env_cfg, scenarios, quick_cfg(noise_sigma_start=5.0, noise_process=process))
    actions = np.concatenate(actions)
    assert actions.size == 4 * 3
    assert np.all(np.abs(actions) <= 1.0)
    assert np.any(np.abs(actions) == 1.0)  # sigma 5 pushes some action past the bound


def test_train_empty_scenarios_raises(train_setup):
    env_cfg, _ = train_setup
    with pytest.raises(TrainingError, match="empty"):
        train(env_cfg, [], quick_cfg())


def test_train_episode_steps(train_setup, monkeypatch):
    # an idle start, then the full horizon: no step on this fixture diverges
    env_cfg, scenarios = train_setup
    terminals = []
    real = env.env_step

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        terminals.append(out[2]["terminal"])
        return out

    monkeypatch.setattr(env, "env_step", counting)
    monkeypatch.setattr(ddpg, "env_step", counting)
    train(env_cfg, scenarios, quick_cfg(episodes=2, horizon=5))
    assert len(terminals) == 2 * (5 + 1)
    assert not any(terminals)


def test_train_builds_conditions_once_per_episode(train_setup, monkeypatch):
    env_cfg, scenarios = train_setup
    seen = []
    real = ddpg.conditions

    def counting(cfg, scenario):
        seen.append(scenario)
        return real(cfg, scenario)

    monkeypatch.setattr(ddpg, "conditions", counting)
    train(env_cfg, scenarios, quick_cfg(episodes=3, horizon=5))
    assert len(seen) == 3 and {id(sc) for sc in seen} <= {id(sc) for sc in scenarios}


def test_train_raises_on_infeasible_start(feeder2):
    # 40 p.u. behind a j0.1 p.u. line diverges even with idle inverters
    sc = Scenario(id=0, p_load=np.array([40.0]), q_load=np.array([10.0]),
                  p_pv=np.zeros(0))
    with pytest.raises(InfeasibleScenarioError, match="infeasible at zero action"):
        train(EnvConfig(feeder=feeder2), [sc], quick_cfg())


def test_train_critic_freeze(train_setup):
    env_cfg, scenarios = train_setup
    rng = np.random.default_rng(0)
    nets = build_agent(env_cfg.state_dim, env_cfg.n_zones, rng)
    before = {k: v.copy() for k, v in nn._views(nets.critic, nets.critic.params).items()}
    actor_before = {k: v.copy() for k, v in nn._views(nets.actor, nets.actor.params).items()}
    train(env_cfg, scenarios, quick_cfg(), nets=nets,
          critic_freeze_updates=10 ** 9)
    after = nn._views(nets.critic, nets.critic.params)
    for k in before:
        assert np.array_equal(before[k], after[k])
    # the actor still learns while the critic is frozen
    assert any(not np.array_equal(actor_before[k], v)
               for k, v in nn._views(nets.actor, nets.actor.params).items())


def test_train_error_carries_aborting_episode(train_setup, monkeypatch):
    env_cfg, scenarios = train_setup
    calls = {"td_loss": 0, "episodes": 0}
    real_td_loss, real_idle_step = ddpg.td_loss, ddpg.idle_step

    def exploding(nets, batch, gamma):
        calls["td_loss"] += 1
        if calls["td_loss"] >= 4:
            raise NumericalError("TD loss diverged to nan")
        return real_td_loss(nets, batch, gamma)

    def counting(*args, **kwargs):
        calls["episodes"] += 1  # one idle start per episode
        return real_idle_step(*args, **kwargs)

    monkeypatch.setattr(ddpg, "td_loss", exploding)
    monkeypatch.setattr(ddpg, "idle_step", counting)
    with pytest.raises(TrainingError, match="aborted in episode") as exc_info:
        train(env_cfg, scenarios, quick_cfg(episodes=6))
    aborting = calls["episodes"] - 1
    assert aborting > 0  # not the first episode, so the index is not a default
    assert exc_info.value.epoch == aborting
    assert f"aborted in episode {aborting}:" in str(exc_info.value)
    assert isinstance(exc_info.value.__cause__, NumericalError)


# --- checkpointing ------------------------------------------------------------

def test_agent_checkpoint_round_trip(tmp_path, train_setup):
    env_cfg, scenarios = train_setup
    cfg = quick_cfg()
    nets, _ = train(env_cfg, scenarios, cfg)

    p = tmp_path / "agent.gpck"
    save_agent(p, nets, cfg, feeder_fingerprint="abc123")
    nets2, cfg2, meta = load_agent(p)

    assert cfg2 == cfg
    assert meta["feeder_fingerprint"] == "abc123"
    for name in ("actor", "critic", "actor_target", "critic_target"):
        src, dst = getattr(nets, name), getattr(nets2, name)
        a, b = nn._views(src, src.params), nn._views(dst, dst.params)
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k])
    # saving the loaded agent again gives the same bytes
    p2 = tmp_path / "again.gpck"
    save_agent(p2, nets2, cfg2, feeder_fingerprint="abc123")
    assert p2.read_bytes() == p.read_bytes()


def test_loaded_agent_trains_like_the_saved_one(tmp_path, train_setup):
    # loading packs each net's arrays into a fresh parameter vector; training
    # on from it must follow the in-memory agent bit for bit
    env_cfg, scenarios = train_setup
    cfg = quick_cfg()
    nets, _ = train(env_cfg, scenarios, cfg)
    p = tmp_path / "agent.gpck"
    save_agent(p, nets, cfg)
    loaded, _, _ = load_agent(p)
    tuned_a, traj_a = train(env_cfg, scenarios, cfg, nets=ddpg.clone_agent(nets))
    tuned_b, traj_b = train(env_cfg, scenarios, cfg, nets=loaded)
    assert traj_a == traj_b
    pa, pb = tmp_path / "a.gpck", tmp_path / "b.gpck"
    save_agent(pa, tuned_a, cfg)
    save_agent(pb, tuned_b, cfg)
    assert pa.read_bytes() == pb.read_bytes()
    assert pa.read_bytes() != p.read_bytes()


def test_agent_checkpoint_without_buffer(tmp_path):
    # a checkpoint holds only the nets and the config: no replay buffer or
    # generator state, and the fingerprint is optional
    nets = small_nets()
    p = tmp_path / "bare.gpck"
    save_agent(p, nets, TrainConfig())
    arrays, raw_meta = nn.load_checkpoint(p)
    assert all(k.split(".", 1)[0] in ("actor", "critic", "actor_target", "critic_target")
               for k in arrays)
    assert set(raw_meta) == {"kind", "nets", "config", "feeder_fingerprint"}
    nets2, cfg2, meta = load_agent(p)
    assert "rng_state" not in meta
    assert meta["feeder_fingerprint"] == ""
    assert cfg2 == TrainConfig()
    assert nets2.state_dim == nets.state_dim and nets2.action_dim == nets.action_dim


def test_load_agent_rejects_nets_that_do_not_fit(tmp_path):
    nets, wide = small_nets(), small_nets(state_dim=5)
    p = tmp_path / "agent.gpck"
    for bad in (replace(nets, critic=wide.critic),
                replace(nets, actor_target=wide.actor_target)):
        save_agent(p, bad, TrainConfig())
        with pytest.raises(CheckpointError, match="disagree"):
            load_agent(p)


def test_load_agent_rejects_arrays_no_net_reads(tmp_path):
    p = tmp_path / "agent.gpck"
    save_agent(p, small_nets(), TrainConfig())
    arrays, meta = nn.load_checkpoint(p)
    for name in ("actor.L9.b", "critic.L0.Wx", "buffer.states"):
        bad = tmp_path / "extra.gpck"
        nn.save_checkpoint(bad, {**arrays, name: np.zeros(4)}, meta)
        with pytest.raises(CheckpointError):
            load_agent(bad)
    nn.save_checkpoint(p, arrays, meta)  # the same arrays, re-saved, still load
    assert load_agent(p)[0].state_dim == small_nets().state_dim


def test_load_agent_rejects_wrong_kind(tmp_path):
    p = tmp_path / "dsse.gpck"
    nn.save_checkpoint(p, {"x": np.zeros(2)}, {"kind": "dsse"})
    with pytest.raises(CheckpointError, match="not an agent"):
        load_agent(p)
