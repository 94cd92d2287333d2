import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import contactflow as cf
from contactflow import charts
from contactflow.charts import Chart, PolyField, brentq, dot, libm_pow, scan_roots


def test_chart_validation():
    with pytest.raises(cf.ContractViolation):
        Chart([], [])
    with pytest.raises(cf.ContractViolation):
        Chart(["x"], [(0.0, np.inf)])
    with pytest.raises(cf.ContractViolation):
        Chart(["x", "y"], [(0, 1), (1, 0)])
    ch = Chart(["t", "x"], [(-2, 2), (-3, 3)])
    assert ch.dim == 2
    assert ch.axis_index("x") == 1
    assert ch.contains([0.0, 0.0])
    assert not ch.contains([0.0, 5.0])


def test_chart_multi_index_from_axis_powers():
    ch = Chart(["t", "x", "s"], [(-1, 1)] * 3)
    assert ch.multi_index({"x": 2, "t": 1}) == (1, 2, 0)
    assert ch.multi_index({}) == (0, 0, 0)
    with pytest.raises(cf.ContractViolation, match="no axis named 'y'"):
        ch.multi_index({"y": 1})


def test_boundary_clearance():
    ch = Chart(["x"], [(0.0, 10.0)])
    assert ch.boundary_clearance([3.0]) == pytest.approx(3.0)
    assert ch.boundary_clearance([9.0]) == pytest.approx(1.0)
    assert ch.boundary_clearance([-1.0]) < 0


finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_polyfield_exact_derivatives():
    ch = Chart(["x", "y"], [(-9, 9), (-9, 9)])
    # f = 3 x^2 y - y + 2
    f = PolyField(ch, {(2, 1): 3.0, (0, 1): -1.0, (0, 0): 2.0})
    pt = np.array([1.5, -0.5])
    assert f.value(pt) == pytest.approx(3 * 1.5**2 * -0.5 + 0.5 + 2)
    assert np.allclose(f.gradient(pt), [6 * 1.5 * -0.5, 3 * 1.5**2 - 1])
    fxx = f.derivative((2, 0))
    assert fxx.value(pt) == pytest.approx(6 * -0.5)
    assert f.deriv_value((1, 1), pt) == pytest.approx(6 * 1.5)


@given(st.integers(min_value=0, max_value=3), finite)
@settings(max_examples=40, deadline=None)
def test_random_polynomial_gradient_consistency(deg, x0):
    ch = Chart(["x", "y"], [(-20, 20), (-20, 20)])
    rng = np.random.default_rng(deg + 17)
    f = cf.random_polynomial(ch, rng, max_degree=max(deg, 1), scale=0.5)
    pt = np.array([x0, -x0 / 2])
    fd = charts.fd_gradient(f.value, pt, 1e-5 * np.maximum(1.0, np.abs(pt)))
    assert np.allclose(f.gradient(pt), fd, rtol=0.0, atol=1e-8)


@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
       shape=st.sampled_from([(), (1,), (7,), (3, 4)]))
@settings(max_examples=60, deadline=None)
def test_a_linear_polynomial_gradient_has_the_bits_of_its_partials(seed, dim, shape):
    # degree <= 1: the gradient is the stored constant of each partial, with
    # the bits of evaluating the partials; a zero partial (an empty dict) too
    rng = np.random.default_rng(seed)
    ch = Chart([f"x{i}" for i in range(dim)], [(-9, 9)] * dim)
    coeffs = {k: rng.standard_normal() for k in [(0,) * dim] + [
        tuple(int(i == a) for i in range(dim)) for a in range(dim)] if rng.random() < 0.7}
    f = PolyField(ch, coeffs)
    x = rng.uniform(-9.0, 9.0, shape + (dim,))
    got = f.gradient(x)
    want = charts.stack_last([d.value(x) for d in f.partials])
    assert got.shape == shape + (dim,) and got.tobytes() == np.asarray(want, float).tobytes()
    got[...] = 0.0   # a new array: writing it leaves the next call alone
    assert f.gradient(x).tobytes() == np.asarray(want, float).tobytes()
    # a quadratic term sends the gradient through the monomials
    g = PolyField(ch, {**coeffs, (2,) + (0,) * (dim - 1): 1.0})
    assert g._constant_gradient is None
    assert np.array_equal(g.gradient(x)[..., 0], 2.0 * x[..., 0] + coeffs.get(
        (1,) + (0,) * (dim - 1), 0.0))


# ------------------------------------------------------------------ libm_pow

_POW_BASES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, -2.0, 1e300,
                     -1e300, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False))
_POW_EXPONENTS = st.one_of(
    st.integers(0, 7), st.integers(-7, 7).map(float),
    st.sampled_from([0.5, -0.5, 1.5, -1.5, 1 / 3, -0.2, 2.5, 400.5, -400.5, -1e300, 1e300,
                     2.0 ** 70]),
    st.floats(-60.0, 60.0))


def _same(x, y) -> bool:
    """Bit for bit, or both NaN."""
    return (math.isnan(x) and math.isnan(y)) or np.float64(x).tobytes() == np.float64(y).tobytes()


@given(a=_POW_BASES, b=_POW_EXPONENTS)
@example(a=2.0, b=1e300)   # integral exponents too large to multiply out
@example(a=1.5, b=2.0 ** 70)
@settings(max_examples=400, deadline=None)
def test_libm_pow_has_one_value_for_a_float_an_np_float64_and_an_array_element(a, b):
    # at a domain edge or on overflow math.pow raises, a float's ** raises or
    # is complex and an np.float64's warns; every form gives numpy's value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one, scalar = libm_pow(a, b), libm_pow(np.float64(a), b)
        element = libm_pow(np.array([1.0, a]), b)[1]
        both = libm_pow(np.array([1.0, a]), np.array([1.0, b]))[1]
        with np.errstate(all="ignore"):
            edge = float(np.power(a, b))
    assert type(one) is float and type(scalar) is np.float64
    assert _same(one, scalar) and _same(one, element)
    if 0 <= b <= cf.charts.POW_CHAIN_MAX and float(b).is_integer():   # the product chain
        chain = 1.0
        for _ in range(int(b)):
            chain = chain * a
        assert _same(one, chain)
    else:   # an array of exponents goes through math.pow for every element
        assert _same(one, both)
        try:
            want = math.pow(a, b)
        except (ValueError, OverflowError):
            want = edge
        assert _same(one, want)


# ------------------------------------------------------------------ root scan

def test_scan_roots_of_cubic_come_back_ascending():
    roots, = scan_roots(lambda t, i: (t - 2.9) * (t + 0.4) * (t - 1.3),
                        np.linspace(-5.0, 5.0, 77))
    assert len(roots) == 3
    assert np.allclose(roots, [-0.4, 1.3, 2.9], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("f,grid,root", [
    (lambda t, i: (t - 1.0) ** 3, [-3.0, 3.0], 1.0),
    (lambda t, i: (t - 0.3) ** 5, [-20.0, 20.0], 0.3),
], ids=["triple", "quintuple"])
def test_scan_roots_polishes_a_multiple_root(f, grid, root):
    # brentq's 100 default iterations ran out here (RuntimeError)
    (got,), = scan_roots(f, grid)
    assert got == pytest.approx(root, rel=0.0, abs=1e-12)


def test_scan_roots_counts_exact_grid_roots_once():
    grid = np.linspace(-2.0, 2.0, 5)   # -2, -1, 0, 1, 2
    assert scan_roots(lambda t, i: t, grid) == [[0.0]]
    assert scan_roots(lambda t, i: t - 2.0, grid) == [[2.0]]   # the last grid point
    assert scan_roots(lambda t, i: (t + 1.0) * (t - 2.0), grid) == [[-1.0, 2.0]]
    assert scan_roots(lambda t, i: t * t + 1.0, grid) == [[]]
    # the same rows, and one with two polished roots, from one grid call:
    # f(t, i) = a_i t^2 + b_i t + c_i
    a, b, c = (np.array(v) for v in ([0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 0.0, 0.0],
                                      [0.0, -2.0, -2.0, 1.0, -0.5]))
    calls = []

    def f(t, i):
        calls.append(np.ndim(t))
        return a[i] * t * t + b[i] * t + c[i]

    roots = scan_roots(f, grid, 5)
    assert roots[:4] == [[0.0], [2.0], [-1.0, 2.0], []]
    assert np.allclose(roots[4], [-0.5 ** 0.5, 0.5 ** 0.5], rtol=0.0, atol=1e-14)
    assert calls.count(2) == 1


@given(scale=st.sampled_from([1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e200, 1e300]),
       root=st.floats(-1.9, 1.9), sign=st.sampled_from([1.0, -1.0]))
@example(scale=1e-200, root=0.3, sign=1.0)
@settings(max_examples=100, deadline=None)
def test_scan_roots_sees_sign_changes_of_tiny_and_huge_values(scale, root, sign):
    # neighbours of +-1e-200 have a product that underflows to -0.0, which
    # the scan read as no sign change: f = 1e-200 (t - 0.3) had no root
    grid = np.linspace(-2.0, 2.0, 9)
    (got,), = scan_roots(lambda t, i: sign * scale * (t - root) + 0.0 * i, grid)
    assert got == pytest.approx(root, rel=0.0, abs=1e-12)
    # values +-1 and +-1e-200 on a 5-point grid, scanned as one stack
    size = np.array([1.0, 1e-200])
    roots = scan_roots(lambda t, i: size[i] * np.where(t < 0.1, -1.0, 1.0),
                       np.linspace(-1.0, 1.0, 5), 2)
    assert roots[0] == roots[1] and roots[1][0] == pytest.approx(0.1, abs=1e-12)


def test_scan_roots_evaluates_the_grid_in_one_call():
    grid = np.linspace(-5.0, 5.0, 77)
    calls = []
    shift = np.array([0.0, 0.25, 7.0])   # the last function has no root on the grid

    def f(t, i):
        calls.append((np.shape(t), np.shape(i)))
        return (t - 2.9 - shift[i]) * (t + 0.4) * (t - 1.3)

    assert [len(r) for r in scan_roots(f, grid, 3)] == [3, 3, 2]
    assert calls[0] == ((1, 77), (3, 1))   # the grid, every function in one call
    # the polish: one brentq call over all 8 sign changes, 1-D arrays each time
    assert calls[1] == calls[2] == ((8,), (8,))
    assert all(len(ts) == 1 and ts == ix for ts, ix in calls[1:])
    assert len(calls) < 20


def _scan_roots_in_one_call(f, grid, n):
    """The scan without blocks or early exits: every function on the whole
    grid in one call, every bracket polished, every root kept."""
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(f(grid[None, :], np.arange(n)[:, None]), dtype=float)
    hit = vals == 0.0
    hit[:, :-1] |= vals[:, :-1] * vals[:, 1:] < 0
    fi, j = np.nonzero(hit)
    roots = grid[j]
    bracket = vals[fi, j] != 0.0
    if bracket.any():
        jb = j[bracket]
        roots[bracket] = brentq(f, grid[jb], grid[jb + 1], fi[bracket], xtol=1e-14)
    return [sorted(roots[fi == i].tolist()) for i in range(n)]


@st.composite
def _polynomial_families(draw):
    """A grid, n polynomials a_i prod_j (t - r_ij) (some roots on the grid,
    so exact zeros; a_i = 0 is zero everywhere), need and a block size.
    The roots are apart, since brentq need not converge at a multiple one."""
    k = draw(st.integers(2, 40))
    grid = np.linspace(-3.0, 3.0, k)
    n, degree = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    root = st.one_of(st.sampled_from(grid.tolist()), st.floats(-4.0, 4.0))
    R = np.array(draw(st.lists(st.lists(root, min_size=degree, max_size=degree),
                               min_size=n, max_size=n)))
    assume((np.diff(np.sort(R), axis=1) > 0.01).all())   # brentq needs simple roots
    a = np.array(draw(st.lists(st.sampled_from([1.0, -0.5, 2.0, 0.0]), min_size=n,
                               max_size=n)))
    need = draw(st.one_of(st.none(), st.integers(1, degree + 1)))
    return grid, R, a, need, draw(st.integers(1, n * k + 3))


@given(_polynomial_families())
@example((np.linspace(-2.0, 2.0, 5), np.array([[0.0], [-1.0], [-0.5], [1.5]]), np.ones(4),
          None, 8))
@example((np.linspace(-2.0, 2.0, 5), np.array([[0.0, -1.0]]), np.ones(1), 1, 2))
@settings(max_examples=300, deadline=None)
def test_blocked_scan_equals_one_call(family):
    # in the first example blocks of 8 values over 4 functions end after the
    # grid values -1 and 1: exact zeros on either side of the first edge, and
    # a sign change across each edge; the second stops at its first root,
    # the zero at -1 that ends a block of 2
    grid, R, a, need, block = family
    n = len(R)
    calls = []

    def f(t, i):
        calls.append(np.ndim(t))
        return a[i] * np.prod(np.asarray(t)[..., None] - R[i], axis=-1)

    want = [r[:need] for r in _scan_roots_in_one_call(f, grid, n)]
    calls.clear()
    with mock.patch.object(charts, "SCAN_BLOCK", block):
        assert scan_roots(f, grid, n, need=need) == want
    if need is None:   # every function scans the whole grid
        assert calls.count(2) == -(-len(grid) // max(1, block // n))


# ------------------------------------------------------------------ brentq

EPS = np.finfo(float).eps
#: the settings of the root scan's polish and of the integrator's event location
BRENTQ_TOLS = (dict(xtol=1e-14), dict(xtol=4 * EPS, rtol=4 * EPS))
#: increasing functions of t with their sign change at r; w scales the slope
INCREASING = (lambda t, r, w: math.atan(w * (t - r)),
              lambda t, r, w: (t - r) ** 3 + 1e-3 * w * (t - r),
              lambda t, r, w: math.exp(t) - math.exp(r),
              lambda t, r, w: w * math.sinh(t - r) - 1e-12,
              lambda t, r, w: t ** 5 - r ** 5)


def scalar_brentq(f, a, b, args=(), xtol=2e-12, rtol=4 * EPS, maxiter=100):
    """The one-bracket port of scipy.optimize.brentq that the array brentq
    replaced, kept as its reference: float operations in the C routine's
    order, a zero divisor bisecting as its inf or NaN does there."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * EPS:g})")
    xtol, rtol = float(xtol), float(rtol)

    def call(t):
        ft = float(f(t, *args))
        if math.isnan(ft):
            raise ValueError(f"The function value at x={t} is NaN; solver cannot continue.")
        return ft

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _root_or_refusal(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:   # say, rounding left no sign change
        return str(exc)


def _one_bracket(f, a, b, args=(), **kwargs):
    """The array brentq on the one bracket [a, b] of t -> f(t, *args)."""
    root, = brentq(lambda t, i: np.array([f(float(v), *args) for v in t]), [a], [b], [0],
                   **kwargs)
    return float(root)


@pytest.mark.parametrize("rows", [1, 400])   # one accumulate call / one slab sum per index
def test_dot_adds_the_products_in_index_order(rows):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7):
        a = rng.standard_normal((rows, 3, n)) * 10.0 ** rng.integers(-8, 9, (rows, 3, n))
        b = rng.standard_normal(n)
        got = dot(a, b)
        assert got.shape == (rows, 3)
        for r in range(min(rows, 20)):
            for c in range(3):
                want = float(a[r, c, 0]) * float(b[0])
                for i in range(1, n):   # Python floats: each * and + rounded once, in order
                    want = want + float(a[r, c, i]) * float(b[i])
                assert got[r, c] == want
                assert dot(a[r, c], b) == want   # a row alone, through the other path
    # the order shows in the bits: summed backwards, many sums differ
    back = (a * b)[..., ::-1]
    total = back[..., 0]
    for i in range(1, n):
        total = total + back[..., i]
    assert (total != got).any()


@given(a=st.floats(-3.0, 0.0), b=st.floats(1e-3, 3.0), u=st.floats(0.0, 1.0),
       w=st.floats(1e-2, 1e2), k=st.integers(0, len(INCREASING) - 1))
@settings(max_examples=200, deadline=None)
def test_brentq_gives_scipys_bits(a, b, u, w, k):
    r = a + u * (b - a)   # an endpoint included
    for tols in BRENTQ_TOLS:
        ours, ref, theirs = (_root_or_refusal(fn, INCREASING[k], a, b, args=(r, w), **tols)
                             for fn in (_one_bracket, scalar_brentq, scipy_brentq))
        assert type(ours) is type(ref) is type(theirs)
        assert np.array_equal(ours, theirs) and np.array_equal(ref, theirs)


@given(roots=st.lists(st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
                      min_size=1, max_size=6),
       scale=st.lists(st.floats(1e-3, 1e3), min_size=6, max_size=6),
       ends=st.lists(st.tuples(st.integers(0, 5), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                     min_size=1, max_size=24))
@settings(max_examples=200, deadline=None)
def test_array_brentq_equals_the_scalar_port_and_scipy(roots, scale, ends):
    """Random brackets of random cubics, all polished in one call: every root
    has the bits the one-bracket port and scipy give it."""
    n = len(roots)
    # c (t - r0)(t - r1)(t - r2) in Horner form, the same operations on floats and arrays
    c = np.array([[w, -w * (r0 + r1 + r2), w * (r0 * r1 + r0 * r2 + r1 * r2), -w * r0 * r1 * r2]
                  for (r0, r1, r2), w in zip(roots, scale)])

    def cubic(t, i):
        return ((c[i, 0] * t + c[i, 1]) * t + c[i, 2]) * t + c[i, 3]

    brackets = [(i % n, min(x, y), max(x, y)) for i, x, y in ends]
    for tols in BRENTQ_TOLS:
        want = [_root_or_refusal(fn, lambda t, i: float(cubic(t, i)), a, b, args=(i,), **tols)
                for fn in (scalar_brentq, scipy_brentq) for i, a, b in brackets]
        ref, theirs = want[:len(brackets)], want[len(brackets):]
        assert all(type(x) is type(y) and np.array_equal(x, y) for x, y in zip(ref, theirs))
        ok = [k for k, x in enumerate(ref) if isinstance(x, float)]   # scipy refused the rest
        if ok:
            i, a, b = (np.array(v) for v in zip(*(brackets[k] for k in ok)))
            got = brentq(cubic, a, b, i, **tols)
            assert np.array_equal(got, [ref[k] for k in ok])


def test_brentq_returns_an_exact_zero_at_either_end():
    fs = (lambda t: t - 1.0, lambda t: t - 2.0, lambda t: 0.0 * t, lambda t: t - 0.3)
    a, b = np.array([1.0, 1.0, -1.0, 0.0]), np.array([2.0, 2.0, 1.0, 1.0])
    got = brentq(lambda t, i: np.array([fs[k](v) for v, k in zip(t, i)]), a, b, np.arange(4))
    want = [scipy_brentq(f, lo, hi) for f, lo, hi in zip(fs, a, b)]
    assert np.array_equal(got, want) and np.array_equal(got[:3], [1.0, 2.0, -1.0])


def test_brentq_keeps_scipys_refusals():
    def nan_inside(t):
        return math.nan if 0.1 < t < 0.9 else t - 0.5

    for fn in (_one_bracket, scipy_brentq):
        with pytest.raises(ValueError, match="different signs"):
            fn(lambda t: t * t + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            fn(nan_inside, 0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            fn(lambda t: math.nan, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="converge"):
            fn(lambda t: math.cos(t) - t, 0.0, 1.0, xtol=1e-14, maxiter=2)
        with pytest.raises(ValueError, match="xtol"):
            fn(lambda t: t, -1.0, 1.0, xtol=0.0)
        with pytest.raises(ValueError, match="rtol"):
            fn(lambda t: t, -1.0, 1.0, rtol=EPS)
    assert _one_bracket(lambda t: math.cos(t) - t, 0.0, 1.0, xtol=1e-14, maxiter=20) == \
        scipy_brentq(lambda t: math.cos(t) - t, 0.0, 1.0, xtol=1e-14, maxiter=20)
    # one refused bracket refuses the whole call
    shift = np.array([0.5, -2.0])
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda t, i: t - shift[i], [0.0, 0.0], [1.0, 1.0], [0, 1])
    with pytest.raises(RuntimeError, match="converge"):   # the first bracket converges
        brentq(lambda t, i: np.where(i == 1, np.cos(t), 0.5) - t, [0.0, 0.0], [1.0, 1.0], [0, 1],
               xtol=1e-14, maxiter=3)
