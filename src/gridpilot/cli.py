"""Command-line entry points: scenario generation, training, evaluation.

Every subcommand reads a JSON config (--config), an optional seed override
(--seed), and an output directory (--out). Outputs are plain CSV/JSON plus
binary checkpoints, all byte-stable under a fixed seed; wall-clock latency
goes to a separate latency.json that is excluded from that guarantee.
Verbosity comes from the GRIDPILOT_LOG environment variable
(debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import ddpg, dsse, runtime, scenario
from .env import EnvConfig, RewardConfig
from .errors import GridPilotError
from .feeder import Feeder, resolve_feeder

log = logging.getLogger("gridpilot")

# every top-level key some command reads; one config file may serve several
# commands, so a key only another command reads is not an error
_CONFIG_KEYS = {"feeder", "seed", "slack_voltage", "scenario", "scenario_file", "split",
                "dsse", "dsse_checkpoint", "train", "agent_checkpoint", "env",
                "reward", "apr", "oracle"}
# the ``dsse`` keys train-dsse accepts (its seed comes from the top level)
_DSSE_KEYS = {"noise_pct"} | {f.name for f in fields(dsse.DsseHyperparams) if f.name != "seed"}


def _setup_logging():
    level = os.environ.get("GRIDPILOT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GridPilotError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise GridPilotError(f"config {path} must be a JSON object")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise GridPilotError(f"unknown key(s) {unknown} in config {path}")
    return cfg


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _required(cfg: dict, key: str):
    """``cfg[key]``, or GridPilotError naming the missing entry."""
    if key not in cfg:
        raise GridPilotError(f"config needs {key!r}")
    return cfg[key]


def _object(cfg: dict, section: str, keys=None) -> dict:
    """``cfg[section]`` ({} when absent), or GridPilotError if not an object
    or, when ``keys`` is given, if it holds a key not in ``keys``."""
    raw = cfg.get(section, {})
    if not isinstance(raw, dict):
        raise GridPilotError(f"config section {section!r} must be an object")
    unknown = sorted(set(raw) - set(keys)) if keys is not None else []
    if unknown:
        raise GridPilotError(f"unknown key(s) {unknown} in config section {section!r}")
    return raw


def _number(raw: dict, key: str, default, kind=float):
    """``kind(raw[key])`` (``default`` when absent), or GridPilotError."""
    value = raw.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise GridPilotError(f"config value {key!r} must be a number, got {value!r}") from exc


def _section(cfg: dict, section: str, cls, drop=(), **fixed):
    """Build dataclass ``cls`` from ``cfg[section]``, lists as tuples.

    Keys in ``drop`` are read elsewhere. Missing or unknown keys and
    rejected values raise GridPilotError instead of TypeError/ValueError.
    """
    raw = _object(cfg, section)
    kwargs = {k: tuple(v) if isinstance(v, list) else v
              for k, v in raw.items() if k not in drop}
    try:
        return cls(**fixed, **kwargs)
    except (TypeError, ValueError) as exc:
        raise GridPilotError(f"bad {section!r} config: {exc}") from exc


def _feeder_from(cfg: dict) -> Feeder:
    return resolve_feeder(_required(cfg, "feeder"))


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return _number(cfg, "seed", 0, int)


def _scenarios_from(cfg: dict, feeder: Feeder) -> scenario.ScenarioSet:
    return scenario.read_scenario_set(_required(cfg, "scenario_file"), feeder)


def _write(path, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen_scenarios(args) -> int:
    cfg = _load_config(args.config)
    feeder = _feeder_from(cfg)
    gen_cfg = _section(cfg, "scenario", scenario.GenConfig)
    seed = _seed(cfg, args)
    out = _outdir(args)

    sset = scenario.generate_scenario_set(feeder, gen_cfg, seed)
    csv_path = os.path.join(out, "scenarios.csv")
    scenario.write_scenario_set(sset, feeder, csv_path)
    _write_json(os.path.join(out, "summary.json"), {
        "command": "gen-scenarios", "count": len(sset), "seed": seed,
        "csv": "scenarios.csv", "feeder_fingerprint": feeder.fingerprint})
    print(f"wrote {len(sset)} scenarios to {csv_path}")
    return 0


def cmd_train_dsse(args) -> int:
    cfg = _load_config(args.config)
    feeder = _feeder_from(cfg)
    seed = _seed(cfg, args)
    out = _outdir(args)
    noise_pct = _number(_object(cfg, "dsse"), "noise_pct", 1.0)
    slack = _number(cfg, "slack_voltage", 1.0)

    sset = _scenarios_from(cfg, feeder)
    split_cfg = _object(cfg, "split", ("train_fraction", "seed"))
    train_set, test_set = scenario.split(
        sset, _number(split_cfg, "train_fraction", 0.8),
        _number(split_cfg, "seed", seed, int))

    hp = _section(cfg, "dsse", dsse.DsseHyperparams, drop=("noise_pct",), seed=seed)
    train_pairs = dsse.build_training_pairs(train_set, feeder, noise_pct,
                                            slack_voltage=slack, seed=seed)
    test_pairs = dsse.build_training_pairs(test_set, feeder, noise_pct,
                                           slack_voltage=slack, seed=seed + 1)

    model, losses = dsse.train_dsse(train_pairs, hp, feeder)
    dsse.save_dsse(model, os.path.join(out, "dsse.ckpt"))
    _write(os.path.join(out, "dsse_loss.csv"),
           "epoch, loss\n" + "\n".join(f"{i},{v!r}" for i, v in enumerate(losses)) + "\n")
    metrics = dsse.evaluate_dsse(model, test_pairs)
    _write(os.path.join(out, "dsse_metrics.csv"), dsse.metrics_csv(metrics))
    _write_json(os.path.join(out, "summary.json"), {
        "command": "train-dsse", "seed": seed,
        "train_pairs": len(train_pairs), "test_pairs": len(test_pairs),
        "final_loss": losses[-1],
        "mag_mape_per_phase": metrics.mag_mape_per_phase,
        "angle_mae_per_phase": metrics.angle_mae_per_phase})
    print(f"trained estimator: mape {metrics.mag_mape_per_phase} "
          f"mae {metrics.angle_mae_per_phase}")
    return 0


def cmd_eval_dsse(args) -> int:
    cfg = _load_config(args.config)
    feeder = _feeder_from(cfg)
    seed = _seed(cfg, args)
    out = _outdir(args)
    noise_pct = _number(_object(cfg, "dsse", _DSSE_KEYS), "noise_pct", 1.0)
    slack = _number(cfg, "slack_voltage", 1.0)

    model = dsse.load_dsse(_required(cfg, "dsse_checkpoint"))
    if model.feeder_fingerprint != feeder.fingerprint:
        raise GridPilotError("estimator checkpoint does not match the feeder")
    sset = _scenarios_from(cfg, feeder)
    pairs = dsse.build_training_pairs(sset, feeder, noise_pct,
                                      slack_voltage=slack, seed=seed)
    metrics = dsse.evaluate_dsse(model, pairs)
    _write(os.path.join(out, "dsse_metrics.csv"), dsse.metrics_csv(metrics))
    _write_json(os.path.join(out, "summary.json"), {
        "command": "eval-dsse", "seed": seed, "pairs": len(pairs),
        "mag_mape_per_phase": metrics.mag_mape_per_phase,
        "angle_mae_per_phase": metrics.angle_mae_per_phase})
    print(f"mape {metrics.mag_mape_per_phase} mae {metrics.angle_mae_per_phase}")
    return 0


def _env_config(cfg: dict, feeder: Feeder) -> EnvConfig:
    """The controlled system of train-agent, evaluate and run-online.

    The estimator comes from ``dsse_checkpoint`` (perfect-state mode when
    absent); ``EnvConfig`` checks it against the feeder.
    """
    env_raw = _object(cfg, "env", ("measurement_noise_pct", "zone_map"))
    estimator = dsse.load_dsse(cfg["dsse_checkpoint"]) if cfg.get("dsse_checkpoint") else None
    try:
        return EnvConfig(
            feeder=feeder, estimator=estimator,
            measurement_noise_pct=_number(env_raw, "measurement_noise_pct", 0.0),
            zone_map=np.array(env_raw["zone_map"], dtype=int) if "zone_map" in env_raw else None,
            slack_voltage=_number(cfg, "slack_voltage", 1.0),
            reward=_section(cfg, "reward", RewardConfig))
    except (TypeError, ValueError) as exc:
        raise GridPilotError(f"bad 'env' config: {exc}") from exc


def cmd_train_agent(args) -> int:
    cfg = _load_config(args.config)
    feeder = _feeder_from(cfg)
    seed = _seed(cfg, args)
    out = _outdir(args)

    sset = _scenarios_from(cfg, feeder)
    train_cfg = _section(cfg, "train", ddpg.TrainConfig, seed=seed)
    nets, trajectory = ddpg.train(_env_config(cfg, feeder), list(sset), train_cfg)
    ddpg.save_agent(os.path.join(out, "agent.ckpt"), nets, train_cfg,
                    feeder_fingerprint=feeder.fingerprint)
    _write(os.path.join(out, "reward_trajectory.csv"),
           ddpg.trajectory_csv(trajectory, train_cfg))
    _write_json(os.path.join(out, "summary.json"), {
        "command": "train-agent", "seed": seed, "episodes": train_cfg.episodes,
        "first10_mean": float(np.mean(trajectory[:10])) if len(trajectory) >= 10 else None,
        "last10_mean": float(np.mean(trajectory[-10:])) if len(trajectory) >= 10 else None,
        "final_reward": trajectory[-1]})
    print(f"trained agent over {train_cfg.episodes} episodes; "
          f"final episode reward {trajectory[-1]:.4g}")
    return 0


def _load_agent_for(cfg: dict, feeder: Feeder):
    nets, train_cfg, _, meta = ddpg.load_agent(_required(cfg, "agent_checkpoint"))
    fp = meta.get("feeder_fingerprint", "")
    if fp and fp != feeder.fingerprint:
        raise GridPilotError("agent checkpoint does not match the feeder")
    return nets, train_cfg


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    feeder = _feeder_from(cfg)
    seed = _seed(cfg, args)
    out = _outdir(args)

    nets, _ = _load_agent_for(cfg, feeder)
    env_cfg = _env_config(cfg, feeder)
    sset = _scenarios_from(cfg, feeder)

    report = runtime.evaluate(nets, env_cfg, list(sset), seed=seed)
    _write(os.path.join(out, "eval_profile.csv"), report.profile_csv())
    _write_json(os.path.join(out, "summary.json"),
                {"command": "evaluate", "seed": seed, **report.summary()})
    _write_json(os.path.join(out, "latency.json"),
                {"p99_ms": report.latency_p99_ms, "mean_ms": report.latency_mean_ms})
    s = report.summary()
    print(f"baseline violations {s['scenarios_violating_baseline']}/{s['scenario_count']} "
          f"scenarios; controlled in-band fraction {s['in_band_fraction_controlled']:.4f}")
    return 0


def cmd_run_online(args) -> int:
    cfg = _load_config(args.config)
    feeder = _feeder_from(cfg)
    seed = _seed(cfg, args)
    out = _outdir(args)

    nets, train_cfg = _load_agent_for(cfg, feeder)
    env_cfg = _env_config(cfg, feeder)
    sset = _scenarios_from(cfg, feeder)
    apr = _section(cfg, "apr", runtime.AprConfig)

    run, _ = runtime.run_online(nets, env_cfg, list(sset), apr, seed=seed,
                                train_cfg=train_cfg)
    _write(os.path.join(out, "run_log.csv"), run.to_csv())
    _write_json(os.path.join(out, "summary.json"), {
        "command": "run-online", "seed": seed, "steps": len(run.records),
        "fine_tune_events": run.fine_tune_events,
        "mean_reward": float(np.mean([r.reward for r in run.records]))
        if run.records else None})
    _write_json(os.path.join(out, "latency.json"), run.latency_stats())
    print(f"ran {len(run.records)} online steps, "
          f"{len(run.fine_tune_events)} fine-tune events")
    return 0


def cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    feeder = _feeder_from(cfg)
    seed = _seed(cfg, args)
    out = _outdir(args)
    n_grid = _number(_object(cfg, "oracle", ("n_grid",)), "n_grid", 201, int)
    sset = _scenarios_from(cfg, feeder)
    # perfect state, one zone: the oracle scores true voltages only
    env_cfg = EnvConfig(feeder=feeder, slack_voltage=_number(cfg, "slack_voltage", 1.0),
                        reward=_section(cfg, "reward", RewardConfig))

    lines = ["scenario_id, best_action, best_reward"]
    for sc in sset:
        try:
            best_a, best_r = runtime.oracle_best_action(env_cfg, sc, n_grid)
        except ValueError as exc:
            raise GridPilotError(f"oracle: {exc}") from exc
        lines.append(f"{sc.id},{best_a!r},{best_r!r}")
    _write(os.path.join(out, "oracle.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(out, "summary.json"), {
        "command": "oracle", "seed": seed, "n_grid": n_grid, "scenarios": len(sset)})
    print(f"oracle evaluated {len(sset)} scenarios at {n_grid} grid points")
    return 0


_COMMANDS = {
    "gen-scenarios": cmd_gen_scenarios,
    "train-dsse": cmd_train_dsse,
    "eval-dsse": cmd_eval_dsse,
    "train-agent": cmd_train_agent,
    "evaluate": cmd_evaluate,
    "run-online": cmd_run_online,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="gridpilot",
        description="Feeder voltage control sandbox: power flow, state "
                    "estimation, and reinforcement-learned inverter dispatch.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        return _COMMANDS[args.command](args)
    except GridPilotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
