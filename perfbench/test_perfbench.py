"""Tests of the benchmark's own helpers: the tail rule, span self times and
the rebinding of traced names."""

from __future__ import annotations

import pytest

from spans import Tracer, install
from summary import TAIL_BEYOND, digest, tail


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 367)]
    value, percentile, count = tail(list(reversed(samples)))
    assert count == 366
    assert value == 356.0
    assert sum(s > value for s in samples) == TAIL_BEYOND
    assert percentile == pytest.approx(100 * 356 / 366)


def test_tail_with_the_fewest_samples_allowed():
    value, percentile, count = tail([5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
    assert (value, count) == (1.0, 11)
    assert percentile == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_is_none():
    assert tail([1.0] * TAIL_BEYOND) is None
    assert tail([]) is None


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        clock.now += 3.0
        traced_middle()
        traced_leaf(4.0)

    tracer.wrap("outer", outer)()
    assert tracer.calls == {"outer": 1, "middle": 1, "leaf": 2}
    assert tracer.self_s["leaf"] == 6.0
    assert tracer.self_s["middle"] == 1.5
    assert tracer.self_s["outer"] == 3.0
    assert tracer.outermost_s == 10.5
    assert sum(tracer.self_s.values()) == tracer.outermost_s
    metrics = tracer.metrics()
    assert metrics["leaf.us_per_call"] == 3e6


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def failing():
        clock.now += 2.0
        raise ValueError("boom")

    traced_failing = tracer.wrap("failing", failing)

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            traced_failing()

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"failing": 2.0, "outer": 1.0}
    assert tracer.outermost_s == 3.0


def test_sized_spans_and_tallies():
    clock = FakeClock()
    tracer = Tracer(clock)

    def check(items):
        clock.now += len(items)
        return len(items) % 2 == 0

    traced = tracer.wrap("check", check, size=len, tally=lambda ok: {"passed": int(ok)})
    for items in ([1] * 10, [1] * 10, [1] * 3):
        traced(items)
    metrics = tracer.metrics()
    assert metrics["check.self_s"] == 23.0
    assert metrics["check.self_s.n10"] == 20.0
    assert metrics["check.self_s.n3"] == 3.0
    assert metrics["passed"] == 2


def test_install_rebinds_where_callers_look_and_restores():
    from momentpack import cli, moments, solver, squared_rectangle_32x33, verify

    bindings = (moments.residual, solver.verify_layout, cli.verify_layout, cli.solve_multistart)
    tracer = Tracer()
    with install(tracer):
        assert solver.verify_layout is not bindings[1]
        assert cli.verify_layout is not bindings[2]
        assert cli.solve_multistart is not bindings[3]
        assert verify.moment_residual_of_layout(*squared_rectangle_32x33()) < 1e-9
    after = (moments.residual, solver.verify_layout, cli.verify_layout, cli.solve_multistart)
    assert after == bindings
    # moments.residual ran nested inside moment_residual_of_layout.
    assert tracer.calls["moments.residual"] == 1
    assert tracer.calls["verify.moment_residual_of_layout"] == 1
    assert "verify.moment_residual_of_layout.self_s.n9" in tracer.metrics()


def test_digest_ignores_key_order_but_not_values():
    assert digest([{"a": 1, "b": 2}]) == digest([{"b": 2, "a": 1}])
    assert digest([{"a": 1}]) != digest([{"a": 2}])
