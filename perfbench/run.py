"""Benchmark for gridpilot: four CLI workloads on the synth34 feeder.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all

Each run generates its inputs from --seed, calls one ``gridpilot`` CLI
command in-process through ``gridpilot.cli.main`` once untimed and then
repeatedly for about --seconds, checks every call's outputs, and prints one
JSON object as its last line of output. With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates untraced
and traced calls and reports the per-layer metrics. The metric names and
units are read from BENCHMARK.json. Any failed check makes the result
``"correct": false`` and the exit code 1. See perfbench/NOTES.md.
"""

import os
import sys

# Pinned before numpy is imported: single-threaded BLAS keeps solve-time
# tails short, and the log level keeps the estimator's clamp warnings (one
# per evaluated scenario) off stderr; the clamps are counted instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["GRIDPILOT_LOG"] = "error"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
MISMATCH_TOL = 1e-8  # p.u., the solver's own convergence tolerance
MISMATCH_SAMPLE_EVERY = 25  # check one solve in this many, plus the first
TRACED_MODULES = ("feeder", "scenario", "powerflow", "nn", "dsse", "env", "ddpg",
                  "runtime", "cli")


def import_gridpilot():
    """Import gridpilot from the checkout's own src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gridpilot", "__init__.py")):
        sys.exit(f"error: no gridpilot sources under {SRC}; "
                 "run the benchmark from the repository root")
    sys.path.insert(0, SRC)
    import gridpilot
    if not os.path.abspath(gridpilot.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported gridpilot from {gridpilot.__file__}, not {SRC}")


def load_metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- set-up ------------------------------------------------------------------

def write_inputs(workload_name: str, seed: int, directory: str) -> None:
    """Body of a set-up process: import, generate inputs, write the config."""
    from workloads import WORKLOADS
    os.makedirs(directory, exist_ok=True)
    config = WORKLOADS[workload_name].make_inputs(directory, seed)
    with open(os.path.join(directory, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def measure_setup(workload_name: str, seed: int, directory: str) -> float:
    """Median wall time of fresh processes that import gridpilot and build
    the run's inputs. The last one leaves the inputs in ``directory``."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
             "--seed", str(seed), "--setup-into", directory],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: input set-up for {workload_name} failed")
    return statistics.median(times)


# --- checks on solver outputs -----------------------------------------------

def max_power_mismatch(solve_signature, args, kwargs, solution) -> float:
    """Largest nodal P/Q mismatch over non-slack node-phases, recomputed
    from the admittance's G and B without gridpilot's own mismatch code."""
    import numpy as np
    bound = solve_signature.bind(*args, **kwargs)
    feeder = bound.arguments["feeder"]
    admittance = bound.arguments["admittance"]
    injections = bound.arguments["injections"]
    source = feeder.bus(feeder.source_bus_id)
    free = np.ones(admittance.size, dtype=bool)
    free[[admittance.index_map[(source.id, ph)] for ph in source.phases]] = False
    v = solution.v_re + 1j * solution.v_im
    current = admittance.g @ v + 1j * (admittance.b @ v)
    s = v * np.conj(current) + injections.p + 1j * injections.q
    return float(max(np.abs(s.real[free]).max(), np.abs(s.imag[free]).max()))


# --- one workload run --------------------------------------------------------

class Runner:
    """Calls one workload's CLI command and checks what each call wrote."""

    def __init__(self, workload, workdir: str):
        from gridpilot import cli
        self.cli = cli
        self.wl = workload
        self.workdir = workdir
        self.config = os.path.join(workdir, "inputs", "config.json")
        self.digests = None
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, tracing=None, extra_checks=None) -> float:
        """One in-process CLI call, optionally inside the ``tracing``
        context; returns its wall time. Failures are recorded, and checks
        run after ``tracing`` has been left."""
        self.calls += 1
        self.attempted += self.wl.ops_per_call
        out = os.path.join(self.workdir, f"out{self.calls}")
        argv = [self.wl.command, "--config", self.config, "--out", out]
        problem = None
        start = time.perf_counter()
        try:
            with tracing or contextlib.nullcontext(), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead run
            code = None
            problem = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if problem is None and code != 0:
            problem = f"exit code {code}"
        if problem is None:
            problem = self._check(out, extra_checks)
        shutil.rmtree(out, ignore_errors=True)
        if problem is not None:
            self.failed += self.wl.ops_per_call
            self.errors.append(f"call {self.calls}: {problem}")
        return elapsed

    def _check(self, out: str, extra_checks):
        from workloads import CheckFailed
        try:
            digests = {}
            for name in self.wl.artifacts:
                with open(os.path.join(out, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                changed = [n for n in digests if digests[n] != self.digests[n]]
                raise CheckFailed(f"artifacts differ from the first call: {changed}")
            self.wl.check_outputs(out)
            if extra_checks is not None:
                extra_checks()
        except (OSError, ValueError, IndexError, KeyError, CheckFailed) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


def timed_loop(runner: Runner, seconds: float, traced_call=None):
    """Call repeatedly until about ``seconds`` have passed.

    A call is not started when the mean call time so far says it would end
    past the deadline. With ``traced_call``, calls alternate untraced and
    traced, starting untraced, and at least one of each is made.
    Returns (untraced durations, traced durations).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if traced_call is not None and len(plain) > len(traced):
            traced.append(traced_call())
        else:
            plain.append(runner.call())
        done = plain + traced
        elapsed = time.perf_counter() - start
        enough = traced_call is None or traced
        if enough and elapsed + statistics.mean(done) > seconds:
            return plain, traced


class LayerTrace:
    """Installs the tracer around single calls and checks what it saw."""

    def __init__(self, runner: Runner):
        import importlib
        from tracer import Tracer
        self.runner = runner
        self.tracer = Tracer()
        modules = [importlib.import_module(f"gridpilot.{m}") for m in TRACED_MODULES]
        self.targets = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    # cli's cmd_* are reached through a dict of commands, so
                    # their time stays in cli.main's self-time
                    if short != "cli" or name == "main":
                        self.targets[f"{short}.{name}"] = fn
        self.namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                           if name == "gridpilot" or name.startswith("gridpilot.")]
        self.solve_signature = inspect.signature(self.targets["powerflow.solve_power_flow"])
        self.samples = []
        self.per_call = []  # span -> (calls, counters) of each traced call
        # the benchmark's own modules may keep originals: they call gridpilot
        # only while setting up and checking, never inside a traced call
        with self._installed():
            missed = self.tracer.unpatched_references(
                self.targets, ignore=[vars(sys.modules[m]) for m in ("__main__", "workloads")])
        if missed:
            sys.exit("error: tracer cannot reach every binding: " + "; ".join(missed))

    def _observe_solve(self, counters, args, kwargs, result):
        counters["iterations"] = counters.get("iterations", 0) + result.iterations
        self.solve_seen += 1
        if self.solve_seen % MISMATCH_SAMPLE_EVERY == 1:
            self.samples.append((args, kwargs, result))

    @staticmethod
    def _observe_estimate(counters, args, kwargs, result):
        counters["clamps"] = counters.get("clamps", 0) + result.clamp_count

    @contextlib.contextmanager
    def _installed(self):
        self.tracer.install(
            self.targets, self.namespaces,
            observers={"powerflow.solve_power_flow": self._observe_solve,
                       "dsse.estimate_states": self._observe_estimate},
            count_errors={"powerflow.solve_power_flow":
                          {"PowerFlowDivergedError": "diverged"}})
        try:
            yield
        finally:
            self.tracer.uninstall()

    def call(self) -> float:
        self.solve_seen = 0
        self.samples.clear()
        before = {k: (s.calls, dict(s.counters)) for k, s in self.tracer.stats.items()}
        return self.runner.call(tracing=self._installed(),
                                extra_checks=lambda: self._check(before))

    def _check(self, before):
        from workloads import CheckFailed
        counts = {}
        for name, st in self.tracer.stats.items():
            calls0, counters0 = before.get(name, (0, {}))
            counts[name] = (st.calls - calls0,
                            {k: v - counters0.get(k, 0) for k, v in st.counters.items()})
        self.per_call.append(counts)
        for name, want in self.runner.wl.expected_calls.items():
            got = counts.get(name, (0, {}))[0]
            if got != want:
                raise CheckFailed(f"{name} ran {got} times, want {want}")
        diverged = counts["powerflow.solve_power_flow"][1].get("diverged", 0)
        if diverged:
            raise CheckFailed(f"{diverged} power-flow solves diverged")
        if counts != self.per_call[0]:
            raise CheckFailed("traced counts differ between identical calls")
        if not self.samples:
            raise CheckFailed("no power-flow solve was sampled")
        for args, kwargs, solution in self.samples:
            worst = max_power_mismatch(self.solve_signature, args, kwargs, solution)
            if not worst <= MISMATCH_TOL:
                raise CheckFailed(f"power mismatch {worst:.3e} p.u. exceeds {MISMATCH_TOL}")

    def metric(self, name: str) -> float:
        import numpy as np
        span, stat = name.rsplit(".", 1)
        if span not in self.targets:
            raise KeyError(f"per-layer metric {name}: {span} is not a traced function")
        st = self.tracer.stats[span]
        n = len(self.per_call)
        first_calls, first_counters = self.per_call[0].get(span, (0, {}))
        if stat == "calls":
            return first_calls
        if stat in ("self_s", "total_s"):
            return getattr(st, stat) / n
        if stat in ("p50_ms", "p99_ms"):
            if not st.durations:
                return 0.0
            return float(np.percentile(st.durations, float(stat[1:3]))) * 1000.0
        if stat in ("iterations", "clamps", "diverged"):
            return first_counters.get(stat, 0)
        raise KeyError(f"per-layer metric {name}: unknown statistic {stat}")


def peak_rss_mib() -> float:
    """Largest peak resident set so far of this process and of its finished
    children, the set-up processes.

    Read right after the warm-up call, it covers set-up and one CLI call.
    Later calls are left out: how far they raise the high-water mark
    depends on how many fit in the run and on allocator fragmentation."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS
    spec = load_metric_spec()
    workload = WORKLOADS[workload_name]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload_name}-{seed}-{os.getpid()}")
    try:
        setup_s = measure_setup(workload_name, seed, os.path.join(workdir, "inputs"))
        runner = Runner(workload, workdir)
        runner.call()  # untimed warm-up; its outputs still join the checks
        peak_rss_mb = peak_rss_mib()
        if trace:
            from tracer import selftest
            selftest()
            layers = LayerTrace(runner)
            plain, traced = timed_loop(runner, seconds, traced_call=layers.call)
        else:
            plain, _ = timed_loop(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = {"trace.overhead": statistics.median(traced) / statistics.median(plain) - 1.0}
        if layers.per_call:
            for m in spec["per_layer"]:
                if m["name"] != "trace.overhead":
                    values[m["name"]] = layers.metric(m["name"])
        wanted = spec["per_layer"]
    else:
        values = {"ops_per_s": workload.ops_per_call * len(plain) / sum(plain),
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]

    correct = runner.failed == 0 and all(m["name"] in values for m in wanted)
    for err in runner.errors:
        print(f"FAILED {workload_name} {err}", file=sys.stderr)
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# {workload_name}: seed {seed}, {runner.calls} calls of "
          f"{workload.ops_per_call} ops ({workload.op}), one untimed")
    print("# call seconds: untraced " + " ".join(f"{d:.3f}" for d in plain)
          + (" traced " + " ".join(f"{d:.3f}" for d in traced) if trace else ""))
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] &= proc.returncode == 0 and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="train-agent, oracle, evaluate, train-dsse or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_gridpilot()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_into:
        write_inputs(args.workload, args.seed, args.setup_into)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
