"""In-memory call tracer for the benchmark's traced runs.

The tracer replaces a function with a timing wrapper in every namespace
that binds it, because gridpilot imports functions by name into several
modules (``env.solve_power_flow``, ``runtime.env_step``, ...) and patching
only the defining module would silently miss those calls. After patching,
``unpatched_references`` asks the garbage collector for anything else that
still holds an original, so a binding the patcher cannot reach shows up as
an error instead of as missing time.

Per wrapped function it keeps the call count, inclusive time, self-time
(inclusive time minus the inclusive time of the wrapped calls made inside
it), every call's duration, and named counters fed by optional hooks.

Run ``python3 perfbench/tracer.py`` to execute the self-test.
"""

from __future__ import annotations

import gc
import time
import types
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


# observe(counters, args, kwargs, result) runs after a call returns; it must
# be cheap, because its time is charged to the caller's span
Observer = Callable[[dict, tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple[dict, str, object]] = []
        self._wrappers: list[Callable] = []

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None,
             count_errors: dict[str, str] | None = None) -> Callable:
        """Timing wrapper for ``fn`` recorded under ``name``.

        ``count_errors`` maps an exception class name to the counter that
        is incremented, before re-raising, when the call raises it.
        """
        stats = self.stats.setdefault(name, SpanStats())
        for counter in (count_errors or {}).values():
            stats.counters.setdefault(counter, 0)
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counter = count_errors.get(type(exc).__name__) if count_errors else None
                if counter is not None:
                    stats.counters[counter] += 1
                raise
            finally:
                duration = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - child[0]
                stats.durations.append(duration)
            if observe is not None:
                observe(stats.counters, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        self._wrappers.append(traced)
        return traced

    def install(self, targets: dict[str, Callable], namespaces: list[dict],
                observers: dict[str, Observer] | None = None,
                count_errors: dict[str, dict[str, str]] | None = None) -> None:
        """Wrap each target function in every namespace that binds it."""
        observers = observers or {}
        count_errors = count_errors or {}
        by_id = {id(fn): (fn, self.wrap(name, fn, observers.get(name),
                                        count_errors.get(name)))
                 for name, fn in targets.items()}
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[key] = hit[1]
                    self._patched.append((ns, key, value))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()
        self._wrappers.clear()

    def unpatched_references(self, targets: dict[str, Callable],
                             ignore: list[dict] = ()) -> list[str]:
        """Describe every live reference to a target that the patch missed.

        Allowed holders are the wrappers' own closure cells, the tracer's
        bookkeeping, the ``targets`` mapping itself, stack frames and the
        namespaces in ``ignore``.
        """
        own_cells = {id(c) for w in self._wrappers for c in (w.__closure__ or ())}
        own = {id(targets), id(self._patched)} | {id(entry) for entry in self._patched}
        own |= {id(ns) for ns in ignore}
        found = []
        for name in targets:  # items() would hold each target in a live tuple
            for holder in gc.get_referrers(targets[name]):
                if id(holder) in own_cells or id(holder) in own:
                    continue
                if isinstance(holder, types.FrameType):
                    continue
                if isinstance(holder, dict) and "__name__" in holder:
                    where = f"module {holder['__name__']}"
                else:
                    where = type(holder).__name__
                found.append(f"{name} is still bound in {where}")
        return found


def selftest() -> None:
    """Check counts, self-time and binding coverage on a nested toy call.

    Raises RuntimeError rather than using assert, so that it also runs
    under ``python -O``.
    """
    toy = types.ModuleType("toy")
    alias = types.ModuleType("toy_alias")  # a second import site

    def inner(seconds):
        time.sleep(seconds)

    def outer():
        time.sleep(0.01)
        toy.inner(0.02)
        alias.inner(0.02)

    def failing():
        toy.inner(0.005)
        raise ValueError("expected")

    toy.inner, toy.outer, toy.failing = inner, outer, failing
    alias.inner = inner
    targets = {"toy.inner": inner, "toy.outer": outer, "toy.failing": failing}

    def check(cond, message):
        if not cond:
            raise RuntimeError(f"tracer self-test: {message}")

    tracer = Tracer()
    tracer.install(targets, [vars(toy), vars(alias)],
                   count_errors={"toy.failing": {"ValueError": "errors"}})
    check(tracer.unpatched_references(targets) == [], "patch missed a binding")
    toy.outer()
    try:
        toy.failing()
    except ValueError:
        pass
    else:
        check(False, "exception was swallowed")
    tracer.uninstall()

    st = tracer.stats
    check(toy.inner is inner and alias.inner is inner, "uninstall left a wrapper")
    check((st["toy.outer"].calls, st["toy.inner"].calls, st["toy.failing"].calls)
          == (1, 3, 1), "wrong call counts")
    check(st["toy.failing"].counters["errors"] == 1, "raised error not counted")
    check(not tracer._open, "span stack not empty after an exception")
    children = sum(st["toy.inner"].durations[:2])
    outer_stats = st["toy.outer"]
    check(abs(outer_stats.total_s - outer_stats.self_s - children) < 1e-9,
          "self-time is not total minus child time")
    check(outer_stats.self_s >= 0.01, "self-time lost the outer sleep")
    check(outer_stats.self_s < outer_stats.total_s - 0.04 + 1e-9,
          "child time was not subtracted")
    check(st["toy.failing"].self_s < st["toy.failing"].total_s - 0.005 + 1e-9,
          "child time of a raising span was not subtracted")

    holder = [inner]  # a binding the patcher cannot see
    tracer = Tracer()
    tracer.install(targets, [vars(toy), vars(alias)])
    missed = tracer.unpatched_references(targets)
    tracer.uninstall()
    check(any("toy.inner" in m and "list" in m for m in missed),
          f"hidden binding not reported: {missed}")
    del holder


if __name__ == "__main__":
    selftest()
    print("tracer self-test passed")
