"""Per-layer tracing from outside the program.

A Tracer wraps functions so that every call becomes a span.  Spans nest: a
span's self time is its duration minus the durations of the spans it
directly caused, so the self times of all spans add up to the time spent
inside the outermost spans.  Totals are kept per span name as the calls
happen, not as a list of spans, because one family sweep makes several
hundred thousand calls.

install() rebinds each traced name where its caller looks it up.  solver
calls moments through the module (mo.residual), so rebinding the module
attribute reaches it; solver and cli import verify_layout, solve_multistart,
the verifiers and the parsers by name, so each of those bindings is wrapped
too.  The binding decides the span name: verify_layout called by the solver
is "solver.verify_layout", called by the CLI or the benchmark it is
"verify.verify_layout".
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

# (module, attribute, span name): one row per place a caller looks a name up.
BINDINGS = (
    ("moments", "residual", "moments.residual"),
    ("moments", "jacobian", "moments.jacobian"),
    ("solver", "solve_single", "solver.solve_single"),
    ("solver", "snap_layout", "solver.snap_layout"),
    ("solver", "verify_layout", "solver.verify_layout"),
    ("solver", "solve_multistart", "solver.solve_multistart"),
    ("cli", "solve_multistart", "solver.solve_multistart"),
    ("verify", "verify_layout", "verify.verify_layout"),
    ("cli", "verify_layout", "verify.verify_layout"),
    ("verify", "verify_exact", "verify.verify_exact"),
    ("cli", "verify_exact", "verify.verify_exact"),
    ("verify", "corner_cancellation", "verify.corner_cancellation"),
    ("cli", "corner_cancellation", "verify.corner_cancellation"),
    ("verify", "moment_residual_of_layout", "verify.moment_residual_of_layout"),
    ("cli", "moment_residual_of_layout", "verify.moment_residual_of_layout"),
    ("oracle", "oracle_feasible", "oracle.oracle_feasible"),
    ("instances", "parse_instance", "instances.parse_instance"),
    ("cli", "parse_instance", "instances.parse_instance"),
    ("instances", "parse_layout", "instances.parse_layout"),
    ("cli", "parse_layout", "instances.parse_layout"),
    ("instances", "serialize_layout", "instances.serialize_layout"),
    ("cli", "serialize_layout", "instances.serialize_layout"),
    ("cli", "main", "cli.main"),
)

# Spans whose self time is also split by layout size (".n10", ".n1000", ...).
SIZED = (
    "verify.verify_layout",
    "verify.verify_exact",
    "verify.corner_cancellation",
    "verify.moment_residual_of_layout",
)

# Counters read off a span's return value.
TALLIES: dict[str, Callable[[object], dict[str, int]]] = {
    "solver.solve_single": lambda result: {"solver.lm_iterations": len(result[1]) - 1},
    "solver.verify_layout": lambda result: {"solver.verify_layout.passed": int(result.passed)},
}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._open: list[float] = []  # child time of each open span, innermost last
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sized_self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.outermost_s = 0.0

    def wrap(
        self,
        name: str,
        fn: Callable,
        size: Callable[..., int] | None = None,
        tally: Callable[[object], dict[str, int]] | None = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._clock() - start
                own = elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.outermost_s += elapsed
                self.calls[name] += 1
                self.self_s[name] += own
                if size is not None:
                    self.sized_self_s[f"{name}.self_s.n{size(*args, **kwargs)}"] += own
            if tally is not None:
                for key, amount in tally(result).items():
                    self.counts[key] += amount
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, calls in sorted(self.calls.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.us_per_call"] = 1e6 * self.self_s[name] / calls
        out.update(sorted(self.sized_self_s.items()))
        out.update(sorted(self.counts.items()))
        return out


def _layout_size(*args, **kwargs) -> int:
    from momentpack.instances import Layout

    return next(len(a) for a in (*args, *kwargs.values()) if isinstance(a, Layout))


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every binding in BINDINGS for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(f"momentpack.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            size = _layout_size if span in SIZED else None
            setattr(module, attr, tracer.wrap(span, original, size, TALLIES.get(span)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
