"""Alternating parent/change benchmark pairs, written as one BENCH_*.json.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs 10 \\
        --first-seed 21 --out BENCH_n.json

PARENT_TREE and CHANGE_TREE are two checkouts of the repository. Pair k
runs ``perfbench/run.py --workload all --trace 0 --seed S+k`` once from each
tree, the parent first on odd seeds and the change first on even ones, so
slow drift of the machine falls on both sides alike. Then each tree makes
one traced run (``--trace 1 --seed 0``), parent first, for the per-layer
counts and times.

For every workload and end-to-end metric of the change tree's
BENCHMARK.json, the output holds each side's runs in seed order, their
median and inclusive quartiles, ``change_wins`` (pairs in which the
change's value is strictly better), the median ratio, and
``median_diff_beats_parent_iqr``: whether the change's median is better
than the parent's by more than the parent's interquartile range. The
script only reads the two trees; it writes nothing but ``--out``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


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
    machine = {}
    pairs = []
    for seed in range(args.first_seed, args.first_seed + args.pairs):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pairs.append({"seed": seed, "first": order[0]})
        for side in order:
            result, machine = run_perfbench(trees[side], seed, trace=0)
            results[side].append(result)
            print(f"seed {seed} {side}: correct {result['correct']}, "
                  f"failed {result['failed']}", file=sys.stderr)

    end_to_end = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        end_to_end[name] = {
            m["name"]: compare(m, *([r["metrics"][f"{name}.{m['name']}"]["value"]
                                     for r in results[side]]
                                    for side in ("parent", "change")))
            for m in spec["end_to_end"]}

    traced = {side: run_perfbench(trees[side], 0, trace=1)[0] for side in ("parent", "change")}
    traced_metrics = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        traced_metrics[name] = {
            m["name"]: {"unit": m["unit"],
                        **{side: traced[side]["metrics"].get(f"{name}.{m['name']}", {})
                           .get("value") for side in ("parent", "change")}}
            for m in spec["per_layer"]}

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
            "metrics": traced_metrics,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
