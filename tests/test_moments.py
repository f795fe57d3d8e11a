"""Moment system construction, residual/Jacobian evaluation, and the
layout <-> variable vector maps.

The core oracle here is `naive_residual`, a nested-loop transcription of the
defining equations in raw (unnormalized) coordinates, with numpy's own
Chebyshev series standing in for the kernel's recurrence.  The
implementation evaluates the same quantities in normalized coordinates; the
two must agree to floating-point roundoff on arbitrary inputs, not just near
solutions.  `naive_monomial_residual` transcribes the paper's monomial
equations, which the Chebyshev rows combine exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev

from momentpack import BoxSpec, Instance, Layout, Placement, gen_guillotine
from momentpack import moments as mo

from conftest import row_sides, turned_back


def naive_residual(inst, x_lo, y_lo, x_hi, y_hi, max_order):
    """Independent evaluation straight from the definition: row (k, l) is
    the integral of T_k(2x/A - 1) * T_l(2y/B - 1) over the rectangles, in
    units of the box area, less the same integral over the box."""
    a = float(inst.box.width)
    b = float(inst.box.height)
    fx = [Chebyshev.basis(k, domain=[0, a]).integ() for k in range(max_order)]
    fy = [Chebyshev.basis(k, domain=[0, b]).integ() for k in range(max_order)]
    rows = []
    for p in fx:
        for q in fy:
            total = 0.0
            for i in range(inst.n_rects):
                total += (p(x_hi[i]) - p(x_lo[i])) * (q(y_hi[i]) - q(y_lo[i]))
            rows.append((total - (p(a) - p(0)) * (q(b) - q(0))) / (a * b))
    return np.array(rows)


def naive_monomial_residual(inst, x_lo, y_lo, x_hi, y_hi, max_order):
    """The paper's equations: row (s1, s2), 1 <= s1, s2 <= max_order, is
    sum_n (x_hi^s1 - x_lo^s1)(y_hi^s2 - y_lo^s2) / (A^s1 B^s2) - 1."""
    a = float(inst.box.width)
    b = float(inst.box.height)
    rows = []
    for s1 in range(1, max_order + 1):
        for s2 in range(1, max_order + 1):
            total = 0.0
            for i in range(inst.n_rects):
                total += (x_hi[i] ** s1 - x_lo[i] ** s1) * (
                    y_hi[i] ** s2 - y_lo[i] ** s2
                )
            rows.append(total / (a**s1 * b**s2) - 1.0)
    return np.array(rows)


def random_corners(sys, sides, rng):
    """Random lower corners in the box, the rectangles placed with sides:
    the raw corners x_lo, y_lo, x_hi, y_hi and the system's unknowns."""
    n = sys.n_rects
    x_lo = rng.uniform(0, float(sys.instance.box.width), n)
    y_lo = rng.uniform(0, float(sys.instance.box.height), n)
    x_hi, y_hi = x_lo + sides[:, 0] * sys.scale, y_lo + sides[:, 1] * sys.scale
    return (x_lo, y_lo, x_hi, y_hi), np.stack([x_lo, y_lo], axis=1).ravel() / sys.scale


# -- Truncation default -------------------------------------------------------


def test_default_max_order_matches_ceil_sqrt_formula():
    for var_count in range(1, 240):
        expected = max(3, math.ceil(math.sqrt(var_count)) + 1)
        assert mo.default_max_order(var_count) == expected


def test_default_max_order_spot_values():
    assert mo.default_max_order(0) == 3
    assert mo.default_max_order(2) == 3
    assert mo.default_max_order(10) == 5
    assert mo.default_max_order(20) == 6
    assert mo.default_max_order(48) == 8


def test_default_keeps_equations_at_or_above_unknowns():
    for n in range(1, 40):
        for rotation_allowed in (False, True):
            inst = Instance.from_sides([(1, 2)] * n, BoxSpec(2, n), rotation_allowed)
            sys = mo.build_system(inst)
            assert sys.var_count == 2 * n
            assert sys.max_order == mo.default_max_order(sys.var_count)
            assert sys.max_order**2 >= sys.var_count


# -- System construction ------------------------------------------------------


def test_build_system_shapes_and_exponents():
    inst = Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 3))
    sys = mo.build_system(inst, max_order=2)
    # Moment rows run over the index pairs (k, l) in row-major order.  Row
    # (k, l) integrates T_k(2u - 1) * T_l(2v - 1) over the rectangles, with
    # u = x / 2 and v = y / 3, less its integral over the box.  T_0 = 1 and
    # T_1(t) = t have the antiderivatives u and u^2 - u in u.
    rects = [(0, 0, 1, 2), (1, 0, 2, 2)]
    antider = (lambda u: u, lambda u: u * u - u)
    want = [
        sum((p(xh / 2) - p(xl / 2)) * (q(yh / 3) - q(yl / 3)) for xl, yl, xh, yh in rects)
        - (p(1) - p(0)) * (q(1) - q(0))
        for p in antider
        for q in antider
    ]
    layout = Layout(tuple(Placement(*r) for r in rects))
    np.testing.assert_allclose(mo.residual(sys, mo.layout_to_vars(sys, layout)), want, atol=1e-12)
    assert sys.var_count == 4
    assert sys.equation_count == 4
    assert sys.scale == 3.0
    np.testing.assert_allclose(sys.sides[:, 0], [1 / 3, 1 / 3])
    np.testing.assert_allclose(sys.box_moments, [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(sys.to_cheb, [3.0, 2.0] * 4)


def test_build_system_rotatable_counts():
    # A rectangle that may turn has two unknowns like any other, and the
    # system has no rows beyond the moment rows: rotation is the start's.
    inst = Instance.from_sides([(1, 2)] * 3, BoxSpec(2, 3), rotation_allowed=True)
    sys = mo.build_system(inst, max_order=4)
    assert sys.var_count == 6
    assert sys.equation_count == 16
    assert mo.residual(sys, np.zeros(6), sys.sides[:, ::-1]).shape == (16,)


def test_build_system_validation():
    inst = Instance.from_sides([(1, 1)], BoxSpec(1, 1), rotation_allowed=False)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_order"):
            mo.build_system(inst, max_order=bad)


def test_residual_rejects_bad_vectors():
    inst = Instance.from_sides([(1, 1)], BoxSpec(2, 2))
    sys = mo.build_system(inst, max_order=3)
    with pytest.raises(ValueError, match="expected 2 variables"):
        mo.residual(sys, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        mo.residual(sys, np.array([np.nan, 0.0]))


# -- Residual correctness -----------------------------------------------------


@pytest.mark.parametrize("mode", [mo.FIXED, mo.ROTATABLE])
def test_residual_matches_naive_evaluation(mode):
    # In rotatable mode each rectangle is placed turned or not at random.
    rng = np.random.default_rng(11)
    for seed in range(5):
        inst, _ = gen_guillotine(seed, 4, BoxSpec(5.0, 3.0))
        sys = mo.build_system(inst, max_order=4)
        sides = row_sides(sys, mode, rng)
        corners, vars = random_corners(sys, sides, rng)
        got = mo.residual(sys, vars, sides)
        want = naive_residual(inst, *corners, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_residual_zero_on_perfect_layouts(squared32, small_corpus):
    pairs = [squared32, *small_corpus]
    for inst, layout in pairs:
        for smax in range(2, 9):
            sys = mo.build_system(inst, smax)
            r = mo.residual(sys, mo.layout_to_vars(sys, layout))
            assert np.max(np.abs(r)) <= 1e-9


@pytest.mark.parametrize("mode", [mo.FIXED, mo.ROTATABLE])
def test_residual_floor_at_exact_guillotine_tilings(mode):
    # The recurrence keeps every row at roundoff on a tiling.  Building the
    # rows from monomial extents and the monomial-to-Chebyshev coefficient
    # matrix cancels: that build's floor passes 1e-10 from max_order 7.  In
    # rotatable mode some rectangles are given turned, and the tiling
    # places them turned back.
    rng = np.random.default_rng(5)
    for n in range(6, 21):
        for seed in range(3):
            inst, layout = gen_guillotine(seed, n - 1, BoxSpec(10.0, 8.0))
            turn = rng.integers(0, 2, n) == 1 if mode == mo.ROTATABLE else np.zeros(n, bool)
            sys, sides = turned_back(inst, turn)
            r = mo.residual(sys, mo.layout_to_vars(sys, layout), sides)
            assert np.max(np.abs(r)) <= 1e-12, (n, seed)


def shifted_chebyshev_integrals(m):
    """(m, m) exact matrix C with Q_k = sum_j C[k, j] * (u_hi^(j+1) -
    u_lo^(j+1)): the integer coefficients of T_k(2u - 1) in powers of u,
    from T_(k+1) = 2(2u - 1) T_k - T_(k-1) over Python ints, each divided
    by j + 1."""
    coeffs = [[1], [-1, 2]]
    while len(coeffs) < m:
        prev, cur = coeffs[-2], coeffs[-1]
        nxt = [0] * (len(cur) + 1)
        for j, c in enumerate(cur):
            nxt[j] -= 2 * c
            nxt[j + 1] += 4 * c
        for j, c in enumerate(prev):
            nxt[j] -= c
        coeffs.append(nxt)
    return [[Fraction(row[j], j + 1) if j < len(row) else Fraction(0) for j in range(m)]
            for row in coeffs[:m]]


@pytest.mark.parametrize("max_order", [1, 2, 3, 4])
def test_rows_are_the_monomial_rows_in_the_chebyshev_basis(max_order):
    # Row (k, l) is sum_(j, i) C[k, j] C[l, i] (monomial row (j+1, i+1) + 1)
    # less g_k g_l, and sum_j C[k, j] = g_k, so the rows are C r C^T with r
    # the paper's monomial rows: an invertible triangular combination, with
    # the same roots.
    c = np.array(shifted_chebyshev_integrals(max_order), dtype=float)
    assert np.all(np.diag(c) != 0)
    rng = np.random.default_rng(max_order)
    for seed in range(4):
        inst, _ = gen_guillotine(seed, 4, BoxSpec(5.0, 3.0))
        sys = mo.build_system(inst, max_order=max_order)
        sides = row_sides(sys, mo.ROTATABLE, rng)
        corners, vars = random_corners(sys, sides, rng)
        got = mo.residual(sys, vars, sides)
        mono = naive_monomial_residual(inst, *corners, max_order)
        want = c @ mono.reshape(max_order, max_order) @ c.T
        np.testing.assert_allclose(got, want.ravel(), rtol=0, atol=1e-11)


def test_residual_nonzero_off_solution():
    inst = Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2))
    sys = mo.build_system(inst, max_order=3)
    bad = Layout((Placement(0, 0, 1, 2), Placement(0, 0, 1, 2)))  # stacked copies
    r = mo.residual(sys, mo.layout_to_vars(sys, bad))
    assert np.max(np.abs(r)) > 0.1


@settings(max_examples=25, deadline=None)
@given(perm_seed=st.integers(0, 2**31), point_seed=st.integers(0, 2**31))
def test_residual_invariant_under_rect_permutation(perm_seed, point_seed):
    # The moment rows sum over rectangles, so permuting rectangles together
    # with their placements and sides leaves the residual unchanged.
    inst, _ = gen_guillotine(9, 5, BoxSpec(4.0, 4.0))
    rng = np.random.default_rng(point_seed)
    perm = np.random.default_rng(perm_seed).permutation(inst.n_rects)
    sides = [(inst.rects[i].width, inst.rects[i].height) for i in perm]
    inst_p = Instance.from_sides(sides, inst.box)
    sys = mo.build_system(inst, max_order=4)
    sys_p = mo.build_system(inst_p, max_order=4)
    placed = row_sides(sys, mo.ROTATABLE, rng)
    _, vars = random_corners(sys, placed, rng)
    r = mo.residual(sys, vars, placed)
    r_p = mo.residual(sys_p, vars.reshape(-1, 2)[perm].ravel(), placed[perm])
    np.testing.assert_allclose(r_p, r, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(-2, 6), seed=st.integers(0, 1000))
def test_residual_invariant_under_power_of_two_scaling(k, seed):
    # Rescaling box, sides, and coordinates by 2^k changes nothing after
    # normalization, bit for bit (binary floats scale exactly).
    c = 2.0**k
    inst, layout = gen_guillotine(seed, 4, BoxSpec(5.0, 3.0))
    sides = [(float(r.width) * c, float(r.height) * c) for r in inst.rects]
    inst_s = Instance.from_sides(
        sides, BoxSpec(float(inst.box.width) * c, float(inst.box.height) * c)
    )
    layout_s = Layout(
        tuple(
            Placement(*(float(v) * c for v in p.as_tuple()))
            for p in layout.placements
        )
    )
    sys = mo.build_system(inst, 4)
    sys_s = mo.build_system(inst_s, 4)
    turn = np.random.default_rng(seed).integers(0, 2, (inst.n_rects, 1)) == 1
    for t in (np.zeros_like(turn), turn):  # upright, and turned at random
        sides = np.where(t, sys.sides[:, ::-1], sys.sides)
        sides_s = np.where(t, sys_s.sides[:, ::-1], sys_s.sides)
        r = mo.residual(sys, mo.layout_to_vars(sys, layout), sides)
        r_s = mo.residual(sys_s, mo.layout_to_vars(sys_s, layout_s), sides_s)
        assert np.array_equal(r, r_s)


# -- Jacobian correctness -----------------------------------------------------


def test_mixed_system_matches_naive_evaluation_and_central_differences(fd_jac):
    # Some rectangles placed turned, the rest upright, squares among them:
    # the rows must still be the defining equations, and the layout the
    # one the sides draw.
    inst = Instance.from_sides([(1, 1), (2, 1), (1, 3), (2, 2), (1, 2)], BoxSpec(5, 3))
    sys = mo.build_system(inst, max_order=4)
    rng = np.random.default_rng(31)
    for _ in range(5):
        sides = row_sides(sys, mo.ROTATABLE, rng)
        corners, vars = random_corners(sys, sides, rng)
        placed = [p.as_tuple() for p in mo.vars_to_layout(sys, vars, sides).placements]
        np.testing.assert_allclose(placed, np.stack(corners, axis=1), rtol=0, atol=1e-12)
        want = naive_residual(inst, *corners, 4)
        np.testing.assert_allclose(mo.residual(sys, vars, sides), want, rtol=0, atol=1e-9)
        jac = mo.jacobian(sys, vars, sides)
        ref = fd_jac(sys, vars, sides=sides)
        assert np.max(np.abs(jac - ref)) / max(1.0, np.max(np.abs(jac))) <= 1e-6


@pytest.mark.parametrize("mode", [mo.FIXED, mo.ROTATABLE])
def test_jacobian_matches_central_differences(mode, fd_jac):
    rng = np.random.default_rng(23)
    for seed in range(4):
        inst, _ = gen_guillotine(seed + 100, 3, BoxSpec(4.0, 3.0))
        sys = mo.build_system(inst, max_order=4)
        for _ in range(3):
            x = rng.uniform(0.05, 0.95, sys.var_count)
            sides = row_sides(sys, mode, rng)
            jac = mo.jacobian(sys, x, sides)
            ref = fd_jac(sys, x, sides=sides)
            scale = max(1.0, float(np.max(np.abs(jac))))
            assert float(np.max(np.abs(jac - ref))) / scale <= 1e-6


def reference_corners(sys, vars, sides):
    """The corner build the table was first written with: one (K, n, 4)
    array, lower corners, then lower corners plus sides."""
    k, n = len(vars), sys.n_rects
    corners = np.empty((k, n, 4))
    corners[:, :, :2] = vars.reshape(k, n, 2)
    corners[:, :, 2:] = corners[:, :, :2] + sides
    return corners.reshape(k, 4 * n)


def reference_table(sys, vars, sides):
    """The recurrence as first written: level-major into one preallocated
    array through out= ufuncs, then a transposing copy."""
    corners = reference_corners(sys, vars, sides)
    levels = np.empty((sys.max_order + 1, *corners.shape))
    levels[0] = 1.0
    t = levels[1]
    np.multiply(corners, sys.to_cheb, out=t)
    np.subtract(t, 1.0, out=t)
    two_t = t + t
    for j in range(1, sys.max_order):
        np.multiply(two_t, levels[j], out=levels[j + 1])
        np.subtract(levels[j + 1], levels[j - 1], out=levels[j + 1])
    return np.ascontiguousarray(levels.transpose(1, 0, 2))


def reference_residual(sys, table):
    """The residual as first written: the moment rows of each point."""
    qx = sys.integrate @ (table[:, :, 2::4] - table[:, :, 0::4])
    ry = sys.integrate @ (table[:, :, 3::4] - table[:, :, 1::4])
    return (qx @ ry.transpose(0, 2, 1) - sys.box_moments).reshape(len(table), -1)


def reference_jacobian(sys, table):
    """The Jacobian as first written: one (equation_count, var_count) block
    per point, the factors dQ_k * R_l and Q_k * dR_l multiplied into one
    preallocated array."""
    k, m, n = len(table), sys.max_order, sys.n_rects
    cheb = table.reshape(k, m + 1, n, 4)
    delta = cheb[..., 2:] - cheb[..., :2]
    integrals = (sys.integrate @ delta.reshape(k, m + 1, 2 * n)).reshape(k, m, n, 2)
    first = delta[:, :m] * (0.5 * sys.to_cheb[:2])
    second = first.copy()
    first[..., 1] = integrals[..., 0]
    second[..., 0] = integrals[..., 1]
    out = np.empty((k, m, m, 2 * n))
    np.multiply(first.reshape(k, m, 1, 2 * n), second.reshape(k, 1, m, 2 * n), out=out)
    return out.reshape(k, m * m, 2 * n)


# Upright rows, and rows that turn each rectangle as drawn (squares too).
TABLE_SYSTEMS = [
    ([(1, 2), (3, 1), (2, 2)], mo.FIXED),
    ([(1, 2), (3, 1), (2, 5)], mo.ROTATABLE),
    ([(1, 2), (2, 2), (3, 1), (1, 1)], mo.ROTATABLE),
    ([(2, 2)], mo.ROTATABLE),
]
# Far candidates overflow: huge, infinite and NaN entries must keep their bits.
TABLE_ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([1e300, -1e300, 1e154, math.inf, -math.inf, math.nan, 0.0, -0.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    which=st.integers(0, len(TABLE_SYSTEMS) - 1),
    rows=st.integers(1, 8),
    max_order=st.one_of(st.none(), st.integers(1, 9)),
)
def test_table_and_residual_match_the_reference_build_bytewise(data, which, rows, max_order):
    # Pins the kernel's bits to an independent copy of the build: each
    # drawn point's corners, table, residual and Jacobian are the
    # reference's, byte for byte.  The reference runs on a batch of that one
    # point, as the solver ran it: in a batch of several points the
    # reference Jacobian's NaN entries can take another sign bit.
    given, mode = TABLE_SYSTEMS[which]
    sys = mo.build_system(Instance.from_sides(given, BoxSpec(5, 3)), max_order)
    flat = data.draw(st.lists(TABLE_ENTRIES, min_size=rows * sys.var_count,
                              max_size=rows * sys.var_count))
    points = np.array(flat).reshape(rows, sys.var_count)
    cells = rows * sys.n_rects
    turns = st.lists(st.booleans(), min_size=cells, max_size=cells)
    turn = data.draw(turns if mode == mo.ROTATABLE else st.just([False] * cells))
    turn = np.array(turn).reshape(rows, sys.n_rects, 1)
    sides = np.where(turn, sys.sides[:, ::-1], sys.sides)
    with np.errstate(over="ignore", invalid="ignore"):
        for x, placed in zip(points, sides):
            corners = mo._corners(sys, x, placed)
            table = mo.chebyshev_table(sys, x, placed)
            residual = mo.table_residual(sys, table)
            jacobian = mo.table_jacobian(sys, table)
            want_corners = reference_corners(sys, x[None], placed)[0]
            want_table = reference_table(sys, x[None], placed)
            want_residual = reference_residual(sys, want_table)[0]
            want_jacobian = reference_jacobian(sys, want_table)[0]
            assert corners.shape == want_corners.shape
            assert corners.tobytes() == want_corners.tobytes()
            assert table.shape == (sys.max_order + 1, 4 * sys.n_rects)
            assert table.flags.c_contiguous
            assert table.tobytes() == want_table[0].tobytes()
            assert residual.shape == (sys.equation_count,)
            assert residual.tobytes() == want_residual.tobytes()
            assert jacobian.shape == (sys.equation_count, sys.var_count)
            assert jacobian.tobytes() == want_jacobian.tobytes()


def test_views_reject_sides_of_any_other_shape():
    # Sides that only broadcast to (n, 2) would place rectangles alike.
    sys = mo.build_system(Instance.from_sides([(1, 2)] * 3, BoxSpec(3, 2)), 3)
    x = np.full(sys.var_count, 0.3)
    for bad in (np.array([0.5, 1.0]), sys.sides[:1], sys.sides[None], sys.sides[:, :1]):
        for view in (mo.residual, mo.jacobian, mo.vars_to_layout):
            with pytest.raises(ValueError, match=r"expected sides of shape \(3, 2\)"):
                view(sys, x, bad)
    assert mo.residual(sys, x, sys.sides.tolist()).shape == (9,)


def test_jacobian_shape():
    inst = Instance.from_sides([(1, 2)] * 2, BoxSpec(2, 2))
    sys = mo.build_system(inst, 3)
    assert mo.jacobian(sys, np.full(4, 0.3)).shape == (9, 4)
    assert mo.jacobian(sys, np.full(4, 0.3), sys.sides[:, ::-1]).shape == (9, 4)


# -- Layout <-> variable maps -------------------------------------------------


def test_layout_vars_roundtrip_fixed(small_corpus):
    inst, layout = small_corpus[0]
    sys = mo.build_system(inst, 3)
    again = mo.vars_to_layout(sys, mo.layout_to_vars(sys, layout))
    for p, q in zip(layout.placements, again.placements):
        assert float(p.x_lo) == pytest.approx(float(q.x_lo), abs=1e-12)
        assert float(p.y_hi) == pytest.approx(float(q.y_hi), abs=1e-12)


def test_layout_vars_roundtrip_rotatable(small_corpus):
    # Every rectangle given turned: the layout places it with its given
    # sides swapped.
    inst, layout = small_corpus[1]
    turned = Instance.from_sides([(r.height, r.width) for r in inst.rects], inst.box)
    sys = mo.build_system(turned, 3)
    again = mo.vars_to_layout(sys, mo.layout_to_vars(sys, layout), sys.sides[:, ::-1])
    for p, q in zip(layout.placements, again.placements):
        assert [float(v) for v in p.as_tuple()] == pytest.approx(
            [float(v) for v in q.as_tuple()], abs=1e-12
        )


def test_layout_to_vars_count_mismatch():
    inst = Instance.from_sides([(1, 1)], BoxSpec(2, 2))
    sys = mo.build_system(inst, 3)
    with pytest.raises(ValueError, match="placements"):
        mo.layout_to_vars(sys, Layout((Placement(0, 0, 1, 1),) * 2))
