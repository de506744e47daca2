"""Command-line entry points: scenario generation, training, evaluation.

``main`` is the one driver. It reads the JSON config (--config), resolves
its feeder, takes the seed (--seed, else the config's ``seed``, else 0),
creates the output directory (--out), runs the command, and writes the
command's summary.json, which always carries ``command`` and ``seed``.
Outputs are plain CSV/JSON plus binary checkpoints, all byte-stable under a
fixed seed; wall-clock latency goes to a separate latency.json that is
excluded from that guarantee. Verbosity comes from the GRIDPILOT_LOG
environment variable (debug/info/warning/error).
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
from .fileio import from_json, write_atomic, write_csv

# every top-level key some command reads; one config file may serve several
# commands, so a key only another command reads is not an error
_CONFIG_KEYS = {"feeder", "seed", "slack_voltage", "scenario", "scenario_file", "split",
                "dsse", "dsse_checkpoint", "train", "agent_checkpoint", "env",
                "reward", "apr", "oracle"}
_PATH_KEYS = ("feeder", "scenario_file", "dsse_checkpoint", "agent_checkpoint")
# the ``dsse`` keys train-dsse accepts (its seed comes from the top level)
_DSSE_KEYS = {"noise_pct"} | {f.name for f in fields(dsse.DsseHyperparams) if f.name != "seed"}


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise GridPilotError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise GridPilotError(f"config {path} must be a JSON object")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise GridPilotError(f"unknown key(s) {unknown} in config {path}")
    bad = [key for key in _PATH_KEYS if key in cfg
           and (not isinstance(cfg[key], str) or "\0" in cfg[key])]
    if bad:
        raise GridPilotError(f"config path(s) {bad} must be strings without NUL characters")
    return cfg


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
    """``kind(raw[key])`` (``default`` when absent), or GridPilotError if the
    value does not fit ``kind``."""
    try:
        return kind(from_json(kind, raw.get(key, default), f"config value {key!r}"))
    except ValueError as exc:
        raise GridPilotError(str(exc)) from exc


def _section(cfg: dict, section: str, cls, drop=(), **fixed):
    """Dataclass ``cls`` from ``cfg[section]`` less the keys in ``drop`` (read
    elsewhere) plus ``fixed``; GridPilotError for a missing, unknown or
    ill-typed key or a rejected value."""
    raw = {k: v for k, v in _object(cfg, section).items() if k not in drop}
    try:
        return from_json(cls, raw, section, **fixed)
    except (TypeError, ValueError) as exc:
        raise GridPilotError(f"bad {section!r} config: {exc}") from exc


def _write_json(path, obj):
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_gen_scenarios(cfg: dict, feeder: Feeder, seed: int, out: str) -> dict:
    sset = scenario.generate_scenario_set(feeder, _section(cfg, "scenario", scenario.GenConfig),
                                          seed)
    csv_path = os.path.join(out, "scenarios.csv")
    scenario.write_scenario_set(sset, feeder, csv_path)
    print(f"wrote {len(sset)} scenarios to {csv_path}")
    return {"count": len(sset), "csv": "scenarios.csv", "feeder_fingerprint": feeder.fingerprint}


def _dsse_metrics(model: dsse.DsseModel, pairs, out: str) -> dict:
    """Score ``model`` on ``pairs``, write dsse_metrics.csv, and return the
    summary's two metric entries."""
    metrics = dsse.evaluate_dsse(model, pairs)
    mape, mae = metrics["mag_mape_per_phase"], metrics["angle_mae_per_phase"]
    write_csv(os.path.join(out, "dsse_metrics.csv"), ("phase", "mag_mape_pct", "angle_mae_deg"),
              ((ph, mape[ph], mae[ph]) for ph in sorted(mape)))
    print(f"estimator mape {mape} mae {mae}")
    return metrics


def cmd_train_dsse(cfg: dict, feeder: Feeder, seed: int, out: str) -> dict:
    noise_pct = _number(_object(cfg, "dsse"), "noise_pct", 1.0)
    slack = _number(cfg, "slack_voltage", 1.0)
    sset = scenario.read_scenario_set(_required(cfg, "scenario_file"), feeder)
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
    write_csv(os.path.join(out, "dsse_loss.csv"), ("epoch", "loss"), enumerate(losses))
    return {"train_pairs": len(train_pairs), "test_pairs": len(test_pairs),
            "final_loss": losses[-1], **_dsse_metrics(model, test_pairs, out)}


def cmd_eval_dsse(cfg: dict, feeder: Feeder, seed: int, out: str) -> dict:
    noise_pct = _number(_object(cfg, "dsse", _DSSE_KEYS), "noise_pct", 1.0)
    slack = _number(cfg, "slack_voltage", 1.0)
    model = dsse.load_dsse(_required(cfg, "dsse_checkpoint"))
    if model.feeder_fingerprint != feeder.fingerprint:
        raise GridPilotError("estimator checkpoint does not match the feeder")
    sset = scenario.read_scenario_set(_required(cfg, "scenario_file"), feeder)
    pairs = dsse.build_training_pairs(sset, feeder, noise_pct,
                                      slack_voltage=slack, seed=seed)
    return {"pairs": len(pairs), **_dsse_metrics(model, pairs, out)}


def _env_config(cfg: dict, feeder: Feeder) -> EnvConfig:
    """The controlled system of train-agent, evaluate and run-online, observed
    through the ``dsse_checkpoint`` estimator (perfect state when absent)."""
    env_raw = _object(cfg, "env", ("measurement_noise_pct", "zone_map"))
    estimator = dsse.load_dsse(cfg["dsse_checkpoint"]) if cfg.get("dsse_checkpoint") else None
    try:
        return EnvConfig(
            feeder=feeder, estimator=estimator,
            measurement_noise_pct=_number(env_raw, "measurement_noise_pct", 0.0),
            zone_map=np.array(_number(env_raw, "zone_map", (), tuple[int, ...]), dtype=int)
            if "zone_map" in env_raw else None,
            slack_voltage=_number(cfg, "slack_voltage", 1.0),
            reward=_section(cfg, "reward", RewardConfig))
    except (TypeError, ValueError) as exc:
        raise GridPilotError(f"bad 'env' config: {exc}") from exc


def cmd_train_agent(cfg: dict, feeder: Feeder, seed: int, out: str) -> dict:
    sset = scenario.read_scenario_set(_required(cfg, "scenario_file"), feeder)
    train_cfg = _section(cfg, "train", ddpg.TrainConfig, seed=seed)
    nets, trajectory = ddpg.train(_env_config(cfg, feeder), list(sset), train_cfg)
    ddpg.save_agent(os.path.join(out, "agent.ckpt"), nets, train_cfg,
                    feeder_fingerprint=feeder.fingerprint)
    write_csv(os.path.join(out, "reward_trajectory.csv"),
              ("episode", "cumulative_reward", "sigma"),
              ((ep, cum, ddpg.sigma_schedule(train_cfg, ep)) for ep, cum in enumerate(trajectory)))
    print(f"trained agent over {train_cfg.episodes} episodes; "
          f"final episode reward {trajectory[-1]:.4g}")
    return {"episodes": train_cfg.episodes,
            "first10_mean": float(np.mean(trajectory[:10])) if len(trajectory) >= 10 else None,
            "last10_mean": float(np.mean(trajectory[-10:])) if len(trajectory) >= 10 else None,
            "final_reward": trajectory[-1]}


def _load_agent_for(cfg: dict, feeder: Feeder):
    nets, train_cfg, meta = ddpg.load_agent(_required(cfg, "agent_checkpoint"))
    fp = meta.get("feeder_fingerprint", "")
    if fp and fp != feeder.fingerprint:
        raise GridPilotError("agent checkpoint does not match the feeder")
    return nets, train_cfg


def cmd_evaluate(cfg: dict, feeder: Feeder, seed: int, out: str) -> dict:
    nets, _ = _load_agent_for(cfg, feeder)
    env_cfg = _env_config(cfg, feeder)
    sset = scenario.read_scenario_set(_required(cfg, "scenario_file"), feeder)
    s, profile, latencies_s = runtime.evaluate(nets, env_cfg, list(sset), seed=seed)
    write_csv(os.path.join(out, "eval_profile.csv"),
              ("node_phase", "phase", "v_mean_baseline", "v_std_baseline",
               "v_mean_controlled", "v_std_controlled"), profile)
    _write_json(os.path.join(out, "latency.json"), runtime.latency_stats(latencies_s))
    print(f"baseline violations {s['scenarios_violating_baseline']}/{s['scenario_count']} "
          f"scenarios; controlled in-band fraction {s['in_band_fraction_controlled']:.4f}")
    return s


def cmd_run_online(cfg: dict, feeder: Feeder, seed: int, out: str) -> dict:
    nets, train_cfg = _load_agent_for(cfg, feeder)
    env_cfg = _env_config(cfg, feeder)
    sset = scenario.read_scenario_set(_required(cfg, "scenario_file"), feeder)
    apr = _section(cfg, "apr", runtime.AprConfig)
    run, _ = runtime.run_online(nets, env_cfg, list(sset), apr, seed=seed,
                                train_cfg=train_cfg)
    write_csv(os.path.join(out, "run_log.csv"),
              ("episode", "step", "scenario_id", "action...", "reward", "max_v", "min_v",
               "pf_p", "pf_q", "violation_count"),
              ((0, step, sid, ";".join(map(repr, action.tolist())), *rest)
               for step, sid, action, *rest in run.records))
    _write_json(os.path.join(out, "latency.json"), runtime.latency_stats(run.latencies_s))
    print(f"ran {len(run.records)} online steps, "
          f"{len(run.fine_tune_events)} fine-tune events")
    return {"steps": len(run.records), "fine_tune_events": run.fine_tune_events,
            "mean_reward": float(np.mean([r.reward for r in run.records]))
            if run.records else None}


def cmd_oracle(cfg: dict, feeder: Feeder, seed: int, out: str) -> dict:
    n_grid = _number(_object(cfg, "oracle", ("n_grid",)), "n_grid", 201, int)
    sset = scenario.read_scenario_set(_required(cfg, "scenario_file"), feeder)
    # perfect state, one zone: the oracle scores true voltages only
    env_cfg = EnvConfig(feeder=feeder, slack_voltage=_number(cfg, "slack_voltage", 1.0),
                        reward=_section(cfg, "reward", RewardConfig))

    try:
        rows = [(sc.id, *runtime.oracle_best_action(env_cfg, sc, n_grid)) for sc in sset]
    except ValueError as exc:
        raise GridPilotError(f"oracle: {exc}") from exc
    write_csv(os.path.join(out, "oracle.csv"), ("scenario_id", "best_action", "best_reward"), rows)
    print(f"oracle evaluated {len(sset)} scenarios at {n_grid} grid points")
    return {"n_grid": n_grid, "scenarios": len(sset)}


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
    level = os.environ.get("GRIDPILOT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
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
        cfg = _load_config(args.config)
        feeder = resolve_feeder(_required(cfg, "feeder"))
        seed = args.seed if args.seed is not None else _number(cfg, "seed", 0, int)
        if seed < 0:
            raise GridPilotError(f"seed must be >= 0, got {seed}")
        os.makedirs(args.out, exist_ok=True)
        summary = _COMMANDS[args.command](cfg, feeder, seed, args.out)
        _write_json(os.path.join(args.out, "summary.json"),
                    {"command": args.command, "seed": seed, **summary})
    # OSError: --out or an artifact unwritable; MemoryError: a size numpy cannot allocate
    except (GridPilotError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
