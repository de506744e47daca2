"""Run all seven CLI commands at fixed seeds, mostly on the 4bus fixture.

Run from anywhere:  python3 scripts/artifact_chain.py OUT

Each command writes into its own directory under OUT. The chain is the one
acceptance criterion 9 runs (scenarios, estimator, agent, then evaluate,
run-online and oracle on them), plus four runs that observe through the
trained estimator at 1% measurement noise: train-agent, evaluate, run-online
without fine-tuning, and run-online with a monitor that fine-tunes every ten
steps. Two more gen-scenarios runs write 300 synth34 scenarios each, with
the benchmark's scenario ranges at two and three households per node: a
third of synth34's PV units share no node-phase with a load point and draw
their own households, which 4bus exercises for one unit only. Last, the
oracle runs at the benchmark's 201 grid points on 20 more synth34 scenarios
(written by one more gen-scenarios run), so the feeder, head voltage and
grid that the benchmark's oracle solves are covered too. The configs
go to a temporary directory, so OUT holds nothing but artifacts: to compare
two checkouts, run each one's copy of this script into its own OUT and
``diff -r`` the two trees. Every file except latency.json is byte-stable
under these seeds on a given machine.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from gridpilot.cli import main as cli_main  # noqa: E402

BASE = {"feeder": "4bus", "slack_voltage": 1.04, "seed": 3}
SCENARIOS = {"count": 140, "load_scale_range": [0.1, 0.5],
             "power_factor_range": [0.95, 1.0], "households_per_node": 2}
DEPLOYED = {"env": {"measurement_noise_pct": 1.0}}
SYNTH34 = {"feeder": "synth34", "slack_voltage": 1.045}
SYNTH34_SCENARIOS = {"count": 300, "load_scale_range": [0.008, 0.045],
                     "power_factor_range": [0.97, 1.0]}


def run_chain(out: str, config_dir: str) -> None:
    def run(command, name, **entries):
        cfg = os.path.join(config_dir, f"{name}.json")
        with open(cfg, "w") as fh:
            json.dump({**BASE, **entries}, fh)
        if cli_main([command, "--config", cfg, "--out", os.path.join(out, name)]) != 0:
            sys.exit(f"error: {command} ({name}) failed")

    run("gen-scenarios", "gen-scenarios", scenario=SCENARIOS)
    scen_csv = os.path.join(out, "gen-scenarios", "scenarios.csv")
    run("train-dsse", "train-dsse", scenario_file=scen_csv,
        dsse={"hidden_layers": [16, 16], "epochs": 5, "noise_pct": 1.0})
    dsse_ckpt = os.path.join(out, "train-dsse", "dsse.ckpt")
    run("eval-dsse", "eval-dsse", scenario_file=scen_csv, dsse_checkpoint=dsse_ckpt,
        dsse={"noise_pct": 1.0})
    run("train-agent", "train-agent", scenario_file=scen_csv,
        train={"episodes": 3, "horizon": 2, "batch_size": 8, "buffer_capacity": 64})
    agent = os.path.join(out, "train-agent", "agent.ckpt")
    run("evaluate", "evaluate", scenario_file=scen_csv, agent_checkpoint=agent)
    run("run-online", "run-online", scenario_file=scen_csv, agent_checkpoint=agent,
        apr={"reference_reward": -1.0})
    run("oracle", "oracle", scenario_file=scen_csv, oracle={"n_grid": 11})

    run("train-agent", "train-agent-dsse", scenario_file=scen_csv,
        dsse_checkpoint=dsse_ckpt, **DEPLOYED,
        train={"episodes": 4, "horizon": 5, "batch_size": 8, "buffer_capacity": 64})
    deployed = dict(scenario_file=scen_csv, agent_checkpoint=agent,
                    dsse_checkpoint=dsse_ckpt, **DEPLOYED)
    run("evaluate", "evaluate-dsse", **deployed)
    run("run-online", "run-online-dsse", **deployed, apr={"reference_reward": -1.0})
    # a reference reward no window reaches: a fine-tune every `window` steps
    run("run-online", "run-online-fine-tune", **deployed,
        apr={"reference_reward": 0.0, "degradation_threshold": 1e-9, "window": 10})

    for households in (2, 3):
        run("gen-scenarios", f"gen-scenarios-synth34-h{households}", **SYNTH34,
            scenario={**SYNTH34_SCENARIOS, "households_per_node": households})
    run("gen-scenarios", "gen-scenarios-synth34-oracle", **SYNTH34,
        scenario={**SYNTH34_SCENARIOS, "count": 20, "households_per_node": 2})
    run("oracle", "oracle-synth34", **SYNTH34, oracle={"n_grid": 201},
        scenario_file=os.path.join(out, "gen-scenarios-synth34-oracle", "scenarios.csv"))


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    with tempfile.TemporaryDirectory() as config_dir:
        run_chain(sys.argv[1], config_dir)
    print(f"artifacts in {sys.argv[1]}")


if __name__ == "__main__":
    main()
