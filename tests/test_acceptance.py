"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line with the
measured numbers before asserting, so a verbose run reads as a checklist:

1. Harmonic identity constants derived within 1e-6 of closed forms, < 10 s.
2. Consistency relations between the closed forms hold to 1e-15.
3. Perfect packings zero the moment system: 200 guillotine fixtures plus the
   9-square 32x33 dissection, residual <= 1e-9 for Smax 2..8, corner
   cancellation everywhere, < 30 s.
4. Sensitivity: a 1e-3 * scale nudge of any single coordinate lifts the
   residual above 1e-5 at Smax >= 3 on >= 99% of perturbations.
5. Analytic Jacobian matches central differences to 1e-6 relative error on
   100 random points across 20 fixtures, in both modes: upright rows, and
   rows that turn rectangles at random.
6. Solver reaches verified convergence on the named small instances within
   200 restarts and < 60 s each, and on >= 90% of a random guillotine corpus
   with at most five rectangles.
7. Oracle soundness over the full enumerated family (boxes <= 4x4, sides
   <= 4), rotatable and with rotation forbidden in fixed mode: the solver
   never verifies an instance the oracle rejects, and every oracle witness
   passes exact verification.
8. Determinism: regenerating fixtures and re-solving yields bitwise
   identical serialized output.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from momentpack import (
    BoxSpec,
    Instance,
    IdentityId,
    SolveConfig,
    corner_cancellation,
    enumerate_small_family,
    gen_guillotine,
    moment_residual_of_layout,
    oracle_feasible,
    rhs_consistency,
    rhs_constant,
    serialize_instance,
    serialize_layout,
    solve_multistart,
    squared_rectangle_32x33,
    verify_exact,
)
from momentpack import moments as mo
from momentpack.cli import main

from conftest import row_sides, turned_back

BOXES = (BoxSpec(1.0, 1.0), BoxSpec(10.0, 7.0), BoxSpec(3.0, 8.0), BoxSpec(5.0, 5.0))


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def fixture_corpus():
    """The criterion-3 corpus: 200 random guillotine dissections (up to 20
    rectangles each) plus the 9-square 32x33 fixture."""
    fixtures = [
        gen_guillotine(seed, seed % 20, BOXES[seed % len(BOXES)])
        for seed in range(200)
    ]
    fixtures.append(squared_rectangle_32x33())
    return fixtures


def test_criterion_1_harmonic_constants(capsys):
    t0 = time.perf_counter()
    code = main(["identities", "--n-trunc", "1000000"])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    pi2_36 = math.pi * math.pi / 36
    closed = {
        "X_FIRST": 0.5,
        "Y_FIRST": 0.5,
        "XY_CROSS": 0.25,
        "SUM_SQUARES": 1 / 3 + pi2_36,
        "SUM_OF_SUM_SQ": 5 / 6 + pi2_36,
        "DIFF_SQ": pi2_36 - 1 / 6,
    }
    rows = {row["id"]: row for row in doc["identities"]}
    forms_ok = all(
        abs(rows[name]["closed_form"] - value) <= 1e-15
        for name, value in closed.items()
    )
    worst = max(abs(row["derived"] - row["closed_form"]) for row in doc["identities"])
    ok = code == 0 and forms_ok and worst <= 1e-6 and elapsed < 10
    report(
        1,
        ok,
        f"six identities at n_trunc=1e6, worst |derived-closed|={worst:.3e} "
        f"(tol 1e-6), {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_2_consistency_relations():
    sq = rhs_constant(IdentityId.SUM_SQUARES)
    cross = rhs_constant(IdentityId.XY_CROSS)
    plus_gap = abs(rhs_constant(IdentityId.SUM_OF_SUM_SQ) - (sq + 2 * cross))
    minus_gap = abs(rhs_constant(IdentityId.DIFF_SQ) - (sq - 2 * cross))
    ok = rhs_consistency() and plus_gap <= 1e-15 and minus_gap <= 1e-15
    report(
        2,
        ok,
        f"sum/difference-of-squares relations, gaps {plus_gap:.1e} / "
        f"{minus_gap:.1e} (tol 1e-15)",
    )


def test_criterion_3_perfect_packings_zero_the_moments(fixture_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    corners_ok = True
    for inst, layout in fixture_corpus:
        for smax in range(2, 9):
            worst = max(worst, moment_residual_of_layout(inst, layout, smax))
        corners_ok = corners_ok and corner_cancellation(layout, inst.box)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and corners_ok and elapsed < 30
    report(
        3,
        ok,
        f"{len(fixture_corpus)} fixtures x Smax 2..8, worst residual "
        f"{worst:.3e} (tol 1e-9), corner cancellation {corners_ok}, "
        f"{elapsed:.1f}s (< 30 s)",
    )


def test_criterion_4_single_coordinate_sensitivity(fixture_corpus):
    # In rotatable mode each fixture has rectangles given turned at random,
    # which the tiling places turned back.
    rng = np.random.default_rng(4)
    rates = {}
    for mode in (mo.ROTATABLE, mo.FIXED):
        above = total = 0
        for inst, layout in fixture_corpus:
            n = inst.n_rects
            turn = rng.integers(0, 2, n) == 1 if mode == mo.ROTATABLE else np.zeros(n, bool)
            sys, sides = turned_back(inst, turn, 3)
            x = mo.layout_to_vars(sys, layout)
            for i in range(x.size):
                nudged = x.copy()
                nudged[i] += 1e-3  # 1e-3 * scale in raw coordinates
                total += 1
                if np.max(np.abs(mo.residual(sys, nudged, sides))) > 1e-5:
                    above += 1
        rates[mode] = above / total
    # the bound must keep holding at higher truncation orders
    inst, layout = fixture_corpus[1]
    sys5 = mo.build_system(inst, 5)
    x5 = mo.layout_to_vars(sys5, layout)
    higher_ok = all(
        np.max(np.abs(mo.residual(sys5, x5 + 1e-3 * np.eye(x5.size)[i]))) > 1e-5
        for i in range(x5.size)
    )
    ok = all(rate >= 0.99 for rate in rates.values()) and higher_ok
    report(
        4,
        ok,
        "perturbation detection at Smax=3: "
        + ", ".join(f"{mode} {rate:.4%}" for mode, rate in rates.items())
        + " (>= 99%), holds at Smax=5",
    )


def test_criterion_5_jacobian_vs_central_differences(fd_jac):
    rng = np.random.default_rng(77)
    worst = 0.0
    points = 0
    for seed in range(500, 520):
        inst, _ = gen_guillotine(seed, 3 + seed % 6, BoxSpec(6.0, 4.0))
        for _ in range(5):
            for mode in (mo.FIXED, mo.ROTATABLE):
                sys = mo.build_system(inst, max_order=4)
                x = rng.uniform(0.05, 0.95, sys.var_count)
                sides = row_sides(sys, mode, rng)
                jac = mo.jacobian(sys, x, sides)
                ref = fd_jac(sys, x, step=1e-6, sides=sides)
                denom = max(1.0, float(np.max(np.abs(jac))))
                worst = max(worst, float(np.max(np.abs(jac - ref))) / denom)
            points += 1
    ok = points == 100 and worst <= 1e-6
    report(
        5,
        ok,
        f"{points} random points x 20 fixtures x both modes (rows turned at "
        f"random in rotatable), worst relative "
        f"error {worst:.3e} (tol 1e-6)",
    )


def test_criterion_6_solver_success_at_desk_scale():
    cfg = SolveConfig(restarts=200)
    named = [
        ("two 1x2 dominoes in 2x2", Instance.from_sides([(1, 2)] * 2, BoxSpec(2, 2)), mo.FIXED),
        # three dominoes cannot tile 2x3 in one orientation; solve rotatable
        ("three 1x2 in 2x3", Instance.from_sides([(1, 2)] * 3, BoxSpec(2, 3)), mo.ROTATABLE),
        ("four 2x2 in 4x4", Instance.from_sides([(2, 2)] * 4, BoxSpec(4, 4)), mo.FIXED),
    ]
    named_ok = True
    details = []
    for label, inst, mode in named:
        t0 = time.perf_counter()
        rep = solve_multistart(inst, cfg, mode=mode)
        dt = time.perf_counter() - t0
        good = rep.status == "converged_verified" and dt < 60
        named_ok = named_ok and good
        details.append(f"{label}: {rep.status} in {dt:.1f}s")
    wins = 0
    slowest = 0.0
    corpus = [gen_guillotine(seed, seed % 5, BoxSpec(6.0, 4.0)) for seed in range(1000, 1020)]
    for inst, _ in corpus:
        t0 = time.perf_counter()
        rep = solve_multistart(inst, cfg, mode=mo.FIXED)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        if rep.status == "converged_verified":
            wins += 1
    rate = wins / len(corpus)
    ok = named_ok and rate >= 0.90 and slowest < 60
    report(
        6,
        ok,
        "; ".join(details)
        + f"; guillotine N<=5 corpus {wins}/{len(corpus)} verified "
        f"(>= 90%), slowest {slowest:.1f}s (< 60 s)",
    )


def test_criterion_7_oracle_soundness_end_to_end():
    # Both modes: the family as enumerated, solved rotatable, and the same
    # instances with rotation forbidden, solved in fixed mode (the command
    # line's default).  A win after 0 LM steps is a start that tiled as drawn.
    cfg = SolveConfig(restarts=6, max_iters=80)
    family = list(enumerate_small_family(4, 4))
    counts = {}
    bad_witnesses = 0
    for mode in (mo.ROTATABLE, mo.FIXED):
        feasible = solver_verified = as_drawn = false_positives = 0
        for inst in family:
            inst = Instance(inst.rects, inst.box, rotation_allowed=mode == mo.ROTATABLE)
            ok, witness = oracle_feasible(inst)
            if ok:
                feasible += 1
                if not verify_exact(inst, witness):
                    bad_witnesses += 1
            rep = solve_multistart(inst, cfg, mode=mode)
            if rep.status == "converged_verified":
                solver_verified += 1
                as_drawn += rep.iterations_total == 0
                if not ok:
                    false_positives += 1
        counts[mode] = (feasible, solver_verified, as_drawn, false_positives)
    ok_all = (
        len(family) == 366
        and counts[mo.ROTATABLE][0] == 333
        and counts[mo.ROTATABLE][1] >= 195
        and counts[mo.FIXED][0] == 267
        and all(c[3] == 0 for c in counts.values())
        and bad_witnesses == 0
    )
    report(
        7,
        ok_all,
        f"family of {len(family)} instances; "
        + "; ".join(
            f"{mode}: {feasible} oracle-feasible, solver verified {verified}"
            f"{' (>= 195)' if mode == mo.ROTATABLE else ''}, {drawn} of them as drawn, "
            f"false positives {fp}"
            for mode, (feasible, verified, drawn, fp) in counts.items()
        )
        + f"; witness exact-verification failures {bad_witnesses}",
    )


def test_criterion_8_bitwise_determinism(fixture_corpus):
    regenerated = [
        gen_guillotine(seed, seed % 20, BOXES[seed % len(BOXES)])
        for seed in range(200)
    ]
    gen_same = all(
        serialize_instance(i1) == serialize_instance(i2)
        and serialize_layout(l1) == serialize_layout(l2)
        for (i1, l1), (i2, l2) in zip(fixture_corpus, regenerated)
    )
    inst = Instance.from_sides([(1, 2)] * 3, BoxSpec(2, 3))
    cfg = SolveConfig(restarts=200)
    rep1 = solve_multistart(inst, cfg, mode=mo.ROTATABLE)
    rep2 = solve_multistart(inst, cfg, mode=mo.ROTATABLE)
    d1, d2 = rep1.to_dict(), rep2.to_dict()
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    solve_same = (
        rep1.status == "converged_verified"
        and serialize_layout(rep1.best_layout) == serialize_layout(rep2.best_layout)
        and d1 == d2
    )
    ok = gen_same and solve_same
    report(
        8,
        ok,
        f"200 regenerated fixtures bitwise-identical: {gen_same}; repeated "
        f"solve bitwise-identical: {solve_same}",
    )
