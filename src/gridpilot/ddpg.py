"""Deterministic policy-gradient learner for the inverter coordination task.

Actor maps the voltage-magnitude state vector to one coefficient per zone
through relu/tanh hidden layers and a tanh output (so actions respect
[-1, 1] before any clamping). The critic scores (state, action) with the
action appended to the state vector. Targets are soft-updated copies.
``act`` alone is the deployed policy; ``train`` draws the exploration. It
runs its episodes on an ``env.EnvConfig``: ``env.conditions``, an idle
start, then ``act`` plus noise -> ``env_step`` -> ``observe`` for up to
``TrainConfig.horizon`` steps. It is strictly sequential on one RNG stream
(exploration, measurement noise, replay sampling), so a (seed, config,
scenarios) triple pins the whole trajectory bit-for-bit. A checkpoint
(``save_agent``) holds the four nets and the ``TrainConfig``; the replay
buffer and RNG are not saved, so a run cannot be resumed from one, only
deployed or fine-tuned.

Each update runs critic, actor, then targets (Lillicrap et al., ICLR 2016)
on whole parameter vectors (``nn.MlpModel.params``); the policy gradient
takes only d(Q)/d(input) from the critic (``nn.input_gradient``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .env import EnvConfig, conditions, env_step, idle_step, observe
from .errors import CheckpointError, ModelMismatchError, NumericalError, TrainingError
from .fileio import from_json

ACTOR_HIDDEN = (400, 300)
CRITIC_HIDDEN = (400, 300)
FINAL_INIT = 3e-3
NET_NAMES = ("actor", "critic", "actor_target", "critic_target")


@dataclass
class AgentNets:
    actor: nn.MlpModel
    critic: nn.MlpModel
    actor_target: nn.MlpModel
    critic_target: nn.MlpModel

    @property
    def state_dim(self) -> int:
        return self.actor.input_dim

    @property
    def action_dim(self) -> int:
        return self.actor.output_dim


def build_agent(state_dim: int, action_dim: int, rng: np.random.Generator) -> AgentNets:
    """Fresh actor/critic with target copies equal to the learned nets."""
    actor = nn.build_mlp([state_dim, *ACTOR_HIDDEN, action_dim], ["relu", "tanh", "tanh"],
                         rng, final_init_scale=FINAL_INIT)
    critic = nn.build_mlp([state_dim + action_dim, *CRITIC_HIDDEN, 1],
                          ["relu", "relu", "identity"], rng, final_init_scale=FINAL_INIT)
    return AgentNets(actor=actor, critic=critic,
                     actor_target=nn.clone_model(actor),
                     critic_target=nn.clone_model(critic))


@dataclass
class TrainConfig:
    episodes: int = 100
    horizon: int = 20
    gamma: float = 0.95
    tau: float = 0.001
    batch_size: int = 64
    actor_lr: float = 0.001
    critic_lr: float = 0.001
    noise_sigma_start: float = 0.5
    noise_sigma_end: float = 0.005
    noise_mu: float = 0.1  # OU mean-reversion rate when noise_process = "ou"
    noise_process: str = "gaussian"  # or "ou"
    buffer_capacity: int = 10_000
    updates_start: str = "batch"  # "batch": buffer >= batch_size; "filled": at capacity
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not 1 <= self.batch_size <= self.buffer_capacity:
            raise ValueError("need 1 <= batch_size <= buffer_capacity")
        if not (self.actor_lr > 0.0 and self.critic_lr > 0.0):
            raise ValueError("actor_lr and critic_lr must be > 0")
        if not (self.noise_sigma_start >= 0.0 and self.noise_sigma_end >= 0.0):
            raise ValueError("noise_sigma_start and noise_sigma_end must be >= 0")
        if self.noise_process not in ("gaussian", "ou"):
            raise ValueError("noise_process must be 'gaussian' or 'ou'")
        if self.updates_start not in ("batch", "filled"):
            raise ValueError("updates_start must be 'batch' or 'filled'")


class ReplayBuffer:
    """Fixed-capacity ring of transitions; eviction is oldest-first."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        self.capacity = capacity
        self.s = np.zeros((capacity, state_dim))
        self.a = np.zeros((capacity, action_dim))
        self.r = np.zeros(capacity)
        self.s2 = np.zeros((capacity, state_dim))
        self.terminal = np.zeros(capacity, dtype=bool)
        self.size = 0
        self.head = 0

    def __len__(self) -> int:
        return self.size

    def push(self, s, a, r, s2, terminal: bool) -> None:
        i = self.head
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s2[i] = s2
        self.terminal[i] = terminal
        self.head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict:
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        return {"s": self.s[idx], "a": self.a[idx], "r": self.r[idx],
                "s2": self.s2[idx], "terminal": self.terminal[idx]}


def act(nets: AgentNets, state: np.ndarray) -> np.ndarray:
    """The deployed policy: the actor's zone coefficients in [-1, 1], no exploration."""
    return np.clip(nn.forward(nets.actor, state[None, :])[0][0], -1.0, 1.0)


def td_loss(nets: AgentNets, batch: dict, gamma: float) -> tuple[float, np.ndarray]:
    """Squared TD error against target-network bootstrap values.

    y = r + gamma * Q'(s', pi'(s')) with y = r on terminal transitions;
    returns (mean squared error, its gradient laid out like critic.params).
    """
    a2, _ = nn.forward(nets.actor_target, batch["s2"])
    q2, _ = nn.forward(nets.critic_target, np.hstack([batch["s2"], a2]))
    y = batch["r"][:, None] + gamma * q2 * (~batch["terminal"])[:, None]

    q, cache = nn.forward(nets.critic, np.hstack([batch["s"], batch["a"]]))
    loss, dq = nn.mse_loss(q, y)
    return loss, nn.backward(nets.critic, cache, dq)


def policy_gradient(nets: AgentNets, states: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean Q, gradient of -mean Q(s, pi(s)) laid out like actor.params).

    Descending it is policy ascent. The critic's own parameters are not
    touched, and no gradient of them is formed: the critic only supplies
    dQ/da, chained into the actor.
    """
    states = np.atleast_2d(states)
    a, cache_a = nn.forward(nets.actor, states)
    q, cache_c = nn.forward(nets.critic, np.hstack([states, a]))
    mean_q = float(np.mean(q))
    dq = np.full_like(q, -1.0 / q.shape[0])  # d(-mean Q)/dQ
    # slice the action columns off the whole input gradient: slicing the
    # critic's weights first would change the matmul's last bits
    dx = nn.input_gradient(nets.critic, cache_c, dq)
    return mean_q, nn.backward(nets.actor, cache_a, dx[:, states.shape[1]:])


def soft_update(learned: np.ndarray, target: np.ndarray, tau: float) -> None:
    """theta' <- tau * theta + (1 - tau) * theta', elementwise in place."""
    if target.shape != learned.shape:
        raise ModelMismatchError(
            f"target parameters have shape {target.shape}, learned {learned.shape}")
    for start in range(0, target.size, nn.BLOCK_SIZE):
        block = slice(start, start + nn.BLOCK_SIZE)
        dst = target[block]
        dst *= 1.0 - tau
        dst += tau * learned[block]


def soft_update_nets(nets: AgentNets, tau: float) -> None:
    soft_update(nets.actor.params, nets.actor_target.params, tau)
    soft_update(nets.critic.params, nets.critic_target.params, tau)


def sigma_schedule(cfg: TrainConfig, episode: int) -> float:
    """Exploration sigma of ``episode``: linear from start to end across the run."""
    if cfg.episodes <= 1:
        return cfg.noise_sigma_start
    frac = episode / (cfg.episodes - 1)
    return cfg.noise_sigma_start + (cfg.noise_sigma_end - cfg.noise_sigma_start) * frac


def train(env_cfg: EnvConfig, scenarios, cfg: TrainConfig,
          nets: AgentNets | None = None,
          critic_freeze_updates: int = 0) -> tuple[AgentNets, list[float]]:
    """Offline training loop: explore, replay, update, soft-track targets.

    Each episode draws one scenario and its conditions, fixed: an idle start
    (``env.idle_step``, which raises InfeasibleScenarioError if the scenario
    diverges), then up to ``cfg.horizon`` steps, ending early on a terminal
    (diverged) step. Each action is ``act``'s plus exploration noise, clipped:
    Gaussian, or an Ornstein-Uhlenbeck process restarted each episode, with
    sigma from ``sigma_schedule``. One critic and one actor update per step
    once the buffer holds enough transitions. Returns the nets and the
    cumulative-reward-per-episode series. Raises TrainingError on an empty
    scenario set, or on a NumericalError (non-finite loss or gradient) with
    the episode in ``epoch``.

    ``nets`` starts from an existing agent (fine-tuning);
    ``critic_freeze_updates`` skips the first N critic updates (fine-tune
    stabilization).
    """
    if len(scenarios) == 0:
        raise TrainingError("scenario set is empty")
    rng = np.random.default_rng(cfg.seed)

    if nets is None:
        nets = build_agent(env_cfg.state_dim, env_cfg.n_zones, rng)
    buffer = ReplayBuffer(cfg.buffer_capacity, nets.state_dim, nets.action_dim)
    actor_opt = nn.AdamState(learning_rate=cfg.actor_lr)
    critic_opt = nn.AdamState(learning_rate=cfg.critic_lr)

    threshold = cfg.batch_size if cfg.updates_start == "batch" else cfg.buffer_capacity
    scenario_list = list(scenarios)
    trajectory: list[float] = []
    updates = 0

    for episode in range(cfg.episodes):
        sigma = sigma_schedule(cfg, episode)
        cond = conditions(env_cfg, scenario_list[rng.integers(len(scenario_list))])
        ou = np.zeros(nets.action_dim)  # the OU process's state, restarted each episode
        try:
            true_state, _, info = idle_step(env_cfg, cond, rng)
            state = observe(env_cfg.estimator, true_state, info)
            cum_reward = 0.0
            for _ in range(cfg.horizon):
                action = act(nets, state)
                if cfg.noise_process == "ou":
                    ou += cfg.noise_mu * (0.0 - ou) + sigma * rng.standard_normal(ou.shape)
                    action = np.clip(action + ou, -1.0, 1.0)
                elif sigma > 0.0:
                    action = np.clip(action + rng.normal(0.0, sigma, size=action.shape), -1.0, 1.0)
                true_state, r, info = env_step(env_cfg, cond, action, rng=rng)
                next_state = observe(env_cfg.estimator, true_state, info)
                buffer.push(state, action, r, next_state, info["terminal"])
                cum_reward += r
                state = next_state

                if len(buffer) >= threshold:
                    batch = buffer.sample(cfg.batch_size, rng)
                    if updates >= critic_freeze_updates:
                        loss, grad = td_loss(nets, batch, cfg.gamma)
                        if not math.isfinite(loss):
                            raise NumericalError(f"TD loss diverged to {loss}")
                        nn.adam_step(critic_opt, nets.critic, grad)
                    mean_q, grad = policy_gradient(nets, batch["s"])
                    nn.adam_step(actor_opt, nets.actor, grad)
                    soft_update_nets(nets, cfg.tau)
                    updates += 1
                if info["terminal"]:
                    break
        except NumericalError as exc:
            raise TrainingError(f"aborted in episode {episode}: {exc}", epoch=episode) from exc
        trajectory.append(cum_reward)
    return nets, trajectory


def clone_agent(nets: AgentNets) -> AgentNets:
    """Independent deep copy of all four nets."""
    return AgentNets(*(nn.clone_model(getattr(nets, name)) for name in NET_NAMES))


# --- checkpoint bundle ------------------------------------------------------


def save_agent(path, nets: AgentNets, cfg: TrainConfig,
               feeder_fingerprint: str = "") -> None:
    """Bundle the four nets and the training config into one file."""
    arrays: dict[str, np.ndarray] = {}
    descriptors = {}
    for name in NET_NAMES:
        net_arrays, descriptor = nn.model_to_arrays(getattr(nets, name))
        descriptors[name] = descriptor
        for key, val in net_arrays.items():
            arrays[f"{name}.{key}"] = val
    nn.save_checkpoint(path, arrays, {
        "kind": "agent",
        "nets": descriptors,
        "config": asdict(cfg),
        "feeder_fingerprint": feeder_fingerprint,
    })


def load_agent(path) -> tuple[AgentNets, TrainConfig, dict]:
    """(nets, config, metadata) of an agent checkpoint; CheckpointError when
    the file is not one, its nets or config metadata is missing or bad, or it
    holds an array that no net reads."""
    arrays, meta = nn.load_checkpoint(path)
    if meta.get("kind") != "agent":
        raise CheckpointError(f"{path} is not an agent checkpoint")
    try:
        subs = {name: {} for name in NET_NAMES}
        for key, value in arrays.items():
            name, _, rest = key.partition(".")
            subs[name][rest] = value  # KeyError: an array of no net
        nets = AgentNets(*(nn.model_from_arrays(subs[n], meta["nets"][n]) for n in NET_NAMES))
        cfg = from_json(TrainConfig, meta["config"], "config")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed agent checkpoint {path}: {exc!r}") from exc
    s, a = nets.state_dim, nets.action_dim
    dims = [(m.input_dim, m.output_dim) for m in
            (nets.actor, nets.actor_target, nets.critic, nets.critic_target)]
    if dims != [(s, a), (s, a), (s + a, 1), (s + a, 1)]:
        raise CheckpointError(f"{path}: actor, critic and target dimensions disagree")
    return nets, cfg, meta
