"""Alternating parent/change benchmark pairs, written as one BENCH_*.json.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs 10 \\
        --first-seed 21 --out BENCH_n.json

PARENT_TREE and CHANGE_TREE are two checkouts of the repository. Pair k
runs ``perfbench/run.py --workload all --trace 0 --seed S+k`` once from each
tree, the parent first on odd seeds and the change first on even ones, so
slow drift of the machine falls on both sides alike. Then each tree makes
one traced run (``--trace 1 --seed 0``), parent first, for the per-layer
counts and times. Then, for each workload, it times 8 alternated set-up
processes per side (``perfbench/run.py --workload W --seed S --setup-into
DIR``, S the first seed), around the subprocess as perfbench's own
``setup_s`` does: a run's ``setup_s`` is the median of only 3 of them.
Last, each tree runs the tier-1 suite once, parent first, timed around the
subprocess, with its passed and failed counts.

Before every perfbench run, a fresh single-threaded process times a fixed
numpy loop that runs no gridpilot code (CALIBRATION: products of a seeded
135 x 135 complex matrix with a vector, the size of a synth34 solve's
products). No change to the program can move it, so when both sides'
calibration times move with their ``ops_per_s``, the machine moved, not
the code.

For every workload and end-to-end metric of the change tree's
BENCHMARK.json, the output holds each side's runs in seed order, their
median and inclusive quartiles, ``change_wins`` (pairs in which the
change's value is strictly better), the median ratio, and
``median_diff_beats_parent_iqr``: whether the change's median is better
than the parent's by more than the parent's interquartile range. The
``setup_processes`` section holds the same summary of the set-up process
times; ``calibration`` holds each side's calibration times in run order
with their median and quartiles; ``tier1`` holds each side's suite wall
time, exit code, passed and failed counts and pytest's summary line. Each
pair records its calibration times too. Besides ``--out`` and the set-up
processes' inputs, in a temporary directory, the script writes only what
perfbench and pytest leave in the trees (``.perfbench_work/`` and
``.pytest_cache/``, both ignored by git).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

SETUP_PROCESSES = 8
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CALIBRATION = """
import time
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((135, 135)) + 1j * rng.standard_normal((135, 135))
x = rng.standard_normal(135) + 1j * rng.standard_normal(135)
start = time.perf_counter()
for _ in range(50_000):
    a @ x
print(time.perf_counter() - start)
"""
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def calibrate(tree: str) -> float:
    """Seconds the CALIBRATION loop takes in a fresh single-threaded process."""
    proc = subprocess.run([sys.executable, "-c", CALIBRATION], cwd=tree,
                          env={**os.environ, **SINGLE_THREADED},
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: calibration loop failed in {tree}")
    return float(proc.stdout)


def run_tier1(tree: str) -> dict:
    """Wall time, exit code and outcome counts of one tier-1 run in ``tree``."""
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree,
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=7200)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)\b", last)}
    return {"wall_s": elapsed, "exit_code": proc.returncode,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "summary": last}


def run_perfbench(tree: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result, environment) of one ``--workload all`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", str(trace),
         "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, timeout=3600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: no result from perfbench in {tree} at seed {seed}")
    env = next((json.loads(line.split(" ", 2)[2]) for line in lines
                if line.startswith("# environment ")), {})
    result["correct"] = result["correct"] and proc.returncode == 0
    return result, env


def time_setup(tree: str, workload: str, seed: int, directory: str) -> float:
    """Wall time of one set-up process, timed around the subprocess."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--setup-into", directory],
        cwd=tree, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {workload} set-up failed in {tree} at seed {seed}")
    return elapsed


def setup_processes(trees: dict, spec: dict, seed: int) -> dict:
    """Each workload's set-up process times, SETUP_PROCESSES per side, the
    parent first in even rounds and the change first in odd ones."""
    metric = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    section = {"method": (f"{SETUP_PROCESSES} alternated perfbench/run.py --workload W "
                          f"--seed {seed} --setup-into DIR processes per side, each "
                          "timed around the subprocess")}
    with tempfile.TemporaryDirectory() as scratch:
        for workload in (w["name"] for w in spec["workloads"]):
            times = {"parent": [], "change": []}
            for k in range(SETUP_PROCESSES):
                for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                    directory = os.path.join(scratch, side, workload)
                    times[side].append(time_setup(trees[side], workload, seed, directory))
            section[workload] = compare(metric, times["parent"], times["change"])
            print(f"{workload} set-up: {section[workload]['parent']['median']:.3f} s -> "
                  f"{section[workload]['change']['median']:.3f} s", file=sys.stderr)
    return section


def commit_of(tree: str):
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = summary(parent), summary(change)
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": p, "change": c,
        "change_wins": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
        "pairs": len(parent),
        "median_ratio_change_over_parent": c["median"] / p["median"],
        "median_diff_beats_parent_iqr": sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    results = {"parent": [], "change": []}
    calibration = {"parent": [], "change": []}
    machine = {}
    pairs = []
    for seed in range(args.first_seed, args.first_seed + args.pairs):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pairs.append({"seed": seed, "first": order[0], "calibration_s": {}})
        for side in order:
            calibration[side].append(calibrate(trees[side]))
            pairs[-1]["calibration_s"][side] = calibration[side][-1]
            result, machine = run_perfbench(trees[side], seed, trace=0)
            results[side].append(result)
            print(f"seed {seed} {side}: correct {result['correct']}, "
                  f"failed {result['failed']}, calibration "
                  f"{calibration[side][-1]:.3f} s", file=sys.stderr)

    end_to_end = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        end_to_end[name] = {
            m["name"]: compare(m, *([r["metrics"][f"{name}.{m['name']}"]["value"]
                                     for r in results[side]]
                                    for side in ("parent", "change")))
            for m in spec["end_to_end"]}

    traced, traced_calibration = {}, {}
    for side in ("parent", "change"):
        traced_calibration[side] = calibrate(trees[side])
        traced[side] = run_perfbench(trees[side], 0, trace=1)[0]
    traced_metrics = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        traced_metrics[name] = {
            m["name"]: {"unit": m["unit"],
                        **{side: traced[side]["metrics"].get(f"{name}.{m['name']}", {})
                           .get("value") for side in ("parent", "change")}}
            for m in spec["per_layer"]}

    setup = setup_processes(trees, spec, args.first_seed)
    tier1 = {}
    for side in ("parent", "change"):
        tier1[side] = run_tier1(trees[side])
        print(f"tier-1 {side}: {tier1[side]['summary']}", file=sys.stderr)
    report = {
        "commits": {side: commit_of(tree) for side, tree in trees.items()},
        "machine": machine,
        "method": (f"perfbench/run.py --workload all --trace 0 --seed N, run from a "
                   f"checkout of the parent and of the change; seeds {args.first_seed}-"
                   f"{args.first_seed + args.pairs - 1}, the parent first on odd seeds; "
                   "medians and quartiles (inclusive method) over each side's runs; "
                   "a win is a pair where the change's value is strictly better"),
        "all_correct_no_failed_ops": {
            side: all(r["correct"] and r["failed"] == 0 for r in runs)
            for side, runs in results.items()},
        "pairs": pairs,
        "end_to_end": end_to_end,
        "traced": {
            "method": "perfbench/run.py --workload all --trace 1 --seed 0, parent then change",
            "correct": {side: traced[side]["correct"] for side in traced},
            "calibration_s": traced_calibration,
            "metrics": traced_metrics,
        },
        "setup_processes": setup,
        "calibration": {
            "method": ("before each perfbench run, the seconds a fresh single-threaded "
                       "process takes for 50,000 products of a seeded 135 x 135 complex128 "
                       "matrix with a vector; numpy only, no gridpilot code"),
            **{side: summary(calibration[side]) for side in ("parent", "change")},
        },
        "tier1": {
            "method": (f"{' '.join(['python', *TIER1])} with PYTHONPATH=src, once per "
                       "side after the set-up processes, parent first, timed around the "
                       "subprocess"),
            **tier1,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
