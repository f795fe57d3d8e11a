"""Weighted centroid identities of the harmonic rectangle family.

The closed forms and the derived values come from genuinely different
routes: rhs_constant hardcodes pi-based expressions, rhs_derive integrates
the generating polynomial over the box and subtracts a truncated correction
series.  Their agreement is the test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from momentpack import (
    IdentityId,
    Layout,
    Placement,
    identity_partial,
    rhs_consistency,
    rhs_constant,
    rhs_derive,
)

PI2_36 = math.pi * math.pi / 36

CLOSED_FORMS = {
    IdentityId.X_FIRST: 0.5,
    IdentityId.Y_FIRST: 0.5,
    IdentityId.XY_CROSS: 0.25,
    IdentityId.SUM_SQUARES: 1 / 3 + PI2_36,
    IdentityId.SUM_OF_SUM_SQ: 5 / 6 + PI2_36,
    IdentityId.DIFF_SQ: PI2_36 - 1 / 6,
}


def harmonic_layout(n_rects: int, rotate_odd: bool = False) -> Layout:
    """Stack of harmonic rectangles with lower-left corners at the origin.
    Containment and overlap are irrelevant to identity_partial; only the
    side lengths and centroids matter."""
    placements = []
    for n in range(1, n_rects + 1):
        w, h = 1.0 / n, 1.0 / (n + 1)
        if rotate_odd and n % 2:
            w, h = h, w
        placements.append(Placement(0.0, 0.0, w, h))
    return Layout(tuple(placements))


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


# -- Partial sums over layouts ------------------------------------------------


def test_identity_partial_matches_exact_fraction_sum():
    n = 12
    layout = harmonic_layout(n)
    got = identity_partial(layout, IdentityId.X_FIRST)
    exact = sum(
        Fraction(1, k * (k + 1)) * Fraction(1, 2 * k) for k in range(1, n + 1)
    )
    assert got.lhs_partial == pytest.approx(float(exact), abs=1e-12)
    assert got.rhs == 0.5
    assert got.n_rects == n
    assert got.gap == pytest.approx(0.5 - float(exact), abs=1e-12)


def test_identity_partial_cross_term():
    n = 6
    layout = harmonic_layout(n)
    got = identity_partial(layout, IdentityId.XY_CROSS)
    exact = sum(
        Fraction(1, k * (k + 1)) * Fraction(1, 2 * k) * Fraction(1, 2 * (k + 1))
        for k in range(1, n + 1)
    )
    assert got.lhs_partial == pytest.approx(float(exact), abs=1e-12)


def test_identity_partial_accepts_rotated_placements():
    plain = identity_partial(harmonic_layout(8), IdentityId.SUM_OF_SUM_SQ)
    rotated = identity_partial(
        harmonic_layout(8, rotate_odd=True), IdentityId.SUM_OF_SUM_SQ
    )
    # (cx + cy)^2 with both corners at the origin is symmetric under the swap
    assert rotated.lhs_partial == pytest.approx(plain.lhs_partial, abs=1e-12)


def test_identity_partial_rejects_wrong_sides():
    bad = Layout((Placement(0, 0, 1, 0.5), Placement(0, 0, 0.5, 0.5)))
    with pytest.raises(ValueError, match="sides"):
        identity_partial(bad, IdentityId.X_FIRST)


def test_identity_partial_judges_each_side():
    # Placement 1000's sides have the right sum, and their product is off
    # by about 1e-10, yet each side is 1e-5 away from the harmonic one.
    placements = list(harmonic_layout(1000).placements)
    placements[-1] = Placement(0.0, 0.0, 1 / 1000 + 1e-5, 1 / 1001 - 1e-5)
    with pytest.raises(ValueError, match="placement 1000 has sides"):
        identity_partial(Layout(tuple(placements)), IdentityId.X_FIRST)
    placements[-1] = Placement(0.0, 0.0, 1 / 1001 + 5e-10, 1 / 1000 - 5e-10)  # turned
    assert identity_partial(Layout(tuple(placements)), IdentityId.X_FIRST)


@pytest.mark.parametrize("off, ok", [(5e-8, True), (2e-7, False)])
def test_identity_partial_judges_sides_at_the_verifier_tolerance(off, ok):
    # The harmonic box is the unit square, so the verifier's side test
    # allows each side DEFAULT_TOL = 1e-7 of error.
    placements = list(harmonic_layout(3).placements)
    placements[1] = Placement(0.0, 0.0, 1 / 2 + off, 1 / 3)
    layout = Layout(tuple(placements))
    if ok:
        assert identity_partial(layout, IdentityId.X_FIRST).n_rects == 3
    else:
        with pytest.raises(ValueError, match="placement 2 has sides"):
            identity_partial(layout, IdentityId.X_FIRST)


def test_identity_partial_empty_layout():
    got = identity_partial(Layout(()), IdentityId.DIFF_SQ)
    assert got.lhs_partial == 0.0
    assert got.n_rects == 0
    assert got.gap == got.rhs
