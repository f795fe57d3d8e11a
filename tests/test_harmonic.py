"""Weighted centroid identities of the harmonic rectangle family.

The closed forms and the derived values come from genuinely different
routes: rhs_constant hardcodes pi-based expressions, rhs_derive integrates
the generating polynomial over the box and subtracts a truncated correction
series.  Their agreement is the test.  On the layout side, each identity
integrates a polynomial of degree <= 2, so its defect on any layout is a
fixed combination of the moment rows (k, l) <= (2, 2) of moments.residual.
"""

from __future__ import annotations

import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpack import (
    BoxSpec,
    IdentityId,
    Instance,
    Layout,
    Placement,
    gen_guillotine,
    harmonic_prefix,
    rhs_consistency,
    rhs_constant,
    rhs_derive,
)
from momentpack import moments as mo

PI2_36 = math.pi * math.pi / 36

CLOSED_FORMS = {
    IdentityId.X_FIRST: 0.5,
    IdentityId.Y_FIRST: 0.5,
    IdentityId.XY_CROSS: 0.25,
    IdentityId.SUM_SQUARES: 1 / 3 + PI2_36,
    IdentityId.SUM_OF_SUM_SQ: 5 / 6 + PI2_36,
    IdentityId.DIFF_SQ: PI2_36 - 1 / 6,
}


# -- Closed forms -------------------------------------------------------------


def test_constants_frozen():
    for ident, value in CLOSED_FORMS.items():
        assert rhs_constant(ident) == value
    assert rhs_constant(IdentityId.SUM_SQUARES) == pytest.approx(
        0.6074890111413711, abs=1e-15
    )
    assert rhs_constant(IdentityId.SUM_OF_SUM_SQ) == pytest.approx(
        1.1074890111413712, abs=1e-15
    )
    assert rhs_constant(IdentityId.DIFF_SQ) == pytest.approx(
        0.1074890111413711, abs=1e-15
    )


# float.hex of rhs_constant and rhs_derive(., 1000): the table must keep
# each constant's arithmetic, so every bit.
PINNED_HEX = {
    IdentityId.X_FIRST: ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    IdentityId.Y_FIRST: ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    IdentityId.XY_CROSS: ("0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    IdentityId.SUM_SQUARES: ("0x1.3708ccb71029cp-1", "0x1.3708ccb71029bp-1"),
    IdentityId.SUM_OF_SUM_SQ: ("0x1.1b84665b8814ep+0", "0x1.1b84665b8814ep+0"),
    IdentityId.DIFF_SQ: ("0x1.b84665b8814dep-4", "0x1.b84665b8814dcp-4"),
}


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.name)
def test_constants_keep_their_bits(ident):
    assert (rhs_constant(ident).hex(), rhs_derive(ident, 1000).hex()) == PINNED_HEX[ident]


def test_consistency_relations():
    assert rhs_consistency()
    sq = rhs_constant(IdentityId.SUM_SQUARES)
    cross = rhs_constant(IdentityId.XY_CROSS)
    assert rhs_constant(IdentityId.SUM_OF_SUM_SQ) == pytest.approx(
        sq + 2 * cross, abs=1e-15
    )
    assert rhs_constant(IdentityId.DIFF_SQ) == pytest.approx(
        sq - 2 * cross, abs=1e-15
    )


# -- Derivation from first principles -----------------------------------------


def test_derived_values_match_closed_forms():
    for ident in IdentityId:
        derived = rhs_derive(ident, 1000)
        assert derived == pytest.approx(rhs_constant(ident), abs=1e-9)


def test_linear_identities_are_exact_at_any_truncation():
    for ident in (IdentityId.X_FIRST, IdentityId.Y_FIRST, IdentityId.XY_CROSS):
        assert rhs_derive(ident, 1) == rhs_constant(ident)


def test_derive_is_deterministic():
    a = rhs_derive(IdentityId.SUM_SQUARES, 5000)
    b = rhs_derive(IdentityId.SUM_SQUARES, 5000)
    assert a == b


def test_derive_rejects_bad_truncation():
    with pytest.raises(ValueError):
        rhs_derive(IdentityId.X_FIRST, 0)


def test_correction_series_limit_from_zeta_values():
    # The quadratic identities embed sum 1/(n^3 (n+1)) + 1/(n (n+1)^3),
    # whose closed form is 4 - pi^2/3; the derived SUM_SQUARES value at a
    # large truncation must equal 2/3 - (4 - pi^2/3)/12 to tight tolerance.
    expected = 2 / 3 - (4 - math.pi**2 / 3) / 12
    assert rhs_derive(IdentityId.SUM_SQUARES, 10_000) == pytest.approx(
        expected, abs=1e-14
    )


# -- The identities are moment rows -------------------------------------------

# The term x^i y^j of an identity's polynomial f.  Over a rectangle it
# integrates to _along(i, cx, dx) * _along(j, cy, dy), over the A x B box to
# A^(i+1) B^(j+1) / ((i + 1)(j + 1)).  With u = x / A and T_k = T_k(2u - 1),
# u = (T_0 + T_1) / 2 and u^2 = (3 T_0 + 4 T_1 + T_2) / 8, so the term's
# defect (rectangles minus box) is a scale times these rows (k, l).
ROWS = {
    (1, 0): (lambda a, b: a * a * b / 2, {(1, 0): 1, (0, 0): 1}),
    (0, 1): (lambda a, b: a * b * b / 2, {(0, 1): 1, (0, 0): 1}),
    (1, 1): (lambda a, b: a * a * b * b / 4, {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}),
    (2, 0): (lambda a, b: a**3 * b, {(2, 0): 1 / 8, (1, 0): 1 / 2, (0, 0): 3 / 8}),
    (0, 2): (lambda a, b: a * b**3, {(0, 2): 1 / 8, (0, 1): 1 / 2, (0, 0): 3 / 8}),
}

# Each identity's f as a sum of terms.
IDENTITY_TERMS = {
    IdentityId.X_FIRST: {(1, 0): 1},
    IdentityId.Y_FIRST: {(0, 1): 1},
    IdentityId.XY_CROSS: {(1, 1): 1},
    IdentityId.SUM_SQUARES: {(2, 0): 1, (0, 2): 1},
    IdentityId.SUM_OF_SUM_SQ: {(2, 0): 1, (0, 2): 1, (1, 1): 2},
    IdentityId.DIFF_SQ: {(2, 0): 1, (0, 2): 1, (1, 1): -2},
}


def _along(i, c, d):
    """Integral of x^i over an extent of length d centred at c."""
    return (d, d * c, d * (c * c + d * d / 12))[i]


def test_identity_terms_integrate_to_the_constants():
    # Over the unit box the terms integrate to f's box integral; a quadratic
    # f's rectangles add the family's series (4 - pi^2/3) / 12 on top.
    series = (4 - math.pi**2 / 3) / 12
    for ident, terms in IDENTITY_TERMS.items():
        box = sum(coef / ((i + 1) * (j + 1)) for (i, j), coef in terms.items())
        quadratic = (2, 0) in terms
        assert box - quadratic * series == pytest.approx(rhs_constant(ident), abs=1e-15)


def moved(rng, inst, turn):
    """Each rectangle of inst at a random spot in the box, sides kept, and
    turned at random when turn is set."""
    a, b = float(inst.box.width), float(inst.box.height)
    placements = []
    for r in inst.rects:
        w, h = float(r.width), float(r.height)
        if turn and rng.random() < 0.5:
            w, h = h, w
        x, y = rng.uniform(0, max(a - w, 0)), rng.uniform(0, max(b - h, 0))
        placements.append(Placement(x, y, x + w, y + h))
    return Layout(tuple(placements))


def assert_identities_are_rows(inst, layout):
    # The rows of the layout as placed: each rectangle with its placed
    # extents as its sides, turned or not.
    sys = mo.build_system(inst)
    m = sys.max_order
    a, b = float(inst.box.width), float(inst.box.height)
    corners = np.array([[float(v) for v in p.as_tuple()] for p in layout.placements])
    c = (corners[:, :2] + corners[:, 2:]) / 2
    d = corners[:, 2:] - corners[:, :2]
    rows = mo.residual(sys, mo.layout_to_vars(sys, layout), d / sys.scale).reshape(m, m)
    for ident, terms in IDENTITY_TERMS.items():
        defect = combination = magnitude = 0.0
        for (i, j), coef in terms.items():
            parts = _along(i, c[:, 0], d[:, 0]) * _along(j, c[:, 1], d[:, 1])
            box = a ** (i + 1) * b ** (j + 1) / ((i + 1) * (j + 1))
            scale, row_coefs = ROWS[i, j]
            defect += coef * (parts.sum() - box)
            combination += coef * scale(a, b) * sum(w * rows[kl] for kl, w in row_coefs.items())
            magnitude += abs(coef) * (np.abs(parts).sum() + box)
        assert defect == pytest.approx(combination, abs=1e-12 * magnitude), ident


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cuts=st.integers(1, 15),
    box=st.sampled_from([BoxSpec(1, 1), BoxSpec(10, 8), BoxSpec(3, 0.25)]),
    n_harmonic=st.integers(1, 30),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
)
def test_identities_are_moment_rows(seed, cuts, box, n_harmonic, mode):
    # Tilings, where every row vanishes, and layouts that leave rows
    # nonzero: moved rectangles, a dropped one (the area row is off too), and
    # a harmonic prefix, whose area row is -1 / (n + 1).
    rng = np.random.default_rng(seed)
    turn = mode == mo.ROTATABLE
    inst, tiling = gen_guillotine(seed, cuts, box)
    layout = moved(rng, inst, turn)
    drop = int(rng.integers(inst.n_rects))
    rest = Instance(inst.rects[:drop] + inst.rects[drop + 1 :], box, inst.rotation_allowed)
    fewer = Layout(layout.placements[:drop] + layout.placements[drop + 1 :])
    harmonic = harmonic_prefix(n_harmonic)
    scattered = moved(rng, harmonic, turn)
    for case in ((inst, tiling), (inst, layout), (rest, fewer), (harmonic, scattered)):
        assert_identities_are_rows(*case)
