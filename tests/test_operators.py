"""Differential operators, principal symbols, oscillatory scaling checks."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactflow as cf
from contactflow import operators


def _tx_s_chart():
    return cf.Chart(["t", "x", "s"], [(-10.0, 10.0)] * 3)


# ----------------------------------------------------------- basic contracts

def test_operator_rejects_fiber_dependent_coefficients():
    ch = _tx_s_chart()
    bad = cf.PolyField(ch, {(0, 0, 1): 1.0})    # coefficient ~ s
    with pytest.raises(cf.ContractViolation):
        cf.LinearDiffOperator(ch, {(0, 2, 0): bad})


def test_operator_needs_terms():
    with pytest.raises(cf.ContractViolation):
        cf.LinearDiffOperator(_tx_s_chart(), {})


def test_schrodinger_principal_symbol_values():
    ch = _tx_s_chart()
    V = cf.PolyField(ch, {(0, 2, 0): 0.5})      # V = x^2 / 2
    D = cf.schrodinger_operator(ch, mass=1.0, V=V)
    sym = cf.PrincipalSymbol(D)
    assert D.degree == 2
    x = np.array([0.0, 2.0, 0.0])               # t, x, s
    xi = np.array([0.3, 0.7, 1.0])              # xi_t, xi_x, xi_s
    # s_D = xi_x^2/2 + V(x) xi_s^2 + xi_s xi_t
    assert sym.value(x, xi) == pytest.approx(0.5 * 0.49 + 2.0 * 1.0 + 0.3, rel=1e-14)
    gx, g = np.split(sym.poly.gradient(np.concatenate([x, xi])), 2)   # over (x, xi)
    assert np.allclose(g, [1.0, 0.7, 2.0 * 2.0 + 0.3], atol=1e-14)
    assert np.allclose(gx, [0.0, 2.0 * 1.0, 0.0], atol=1e-14)


# ------------------------------------------------------ oscillatory expansion

def test_oscillatory_expansion_against_symbolic_oracle():
    # independent oracle: e^{-i lam g}(d^2/dx^2 + x d/dx)e^{i lam g} for
    # g = x^2/2 + 3x/10 at x = 0.7 evaluates (symbolically) to
    # -lam^2 + 1.7i lam; at lam = 3.7 that is -13.69 + 6.29i
    ch = cf.Chart(["x"], [(-5.0, 5.0)])
    D = cf.LinearDiffOperator(ch, {(2,): 1.0, (1,): cf.PolyField(ch, {(1,): 1.0})},
                              s_axis=None)
    g = cf.PolyField(ch, {(2,): 0.5, (1,): 0.3})
    A = cf.oscillatory_coefficients(D, g, [0.7])
    assert np.allclose(A, [0.0, 1.7j, -1.0], atol=1e-14)
    v = np.polyval(A[::-1], 3.7)
    assert v == pytest.approx(-13.689999999999998 + 6.29j, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_leading_coefficient_equals_principal_symbol(seed):
    rng = np.random.default_rng(seed)
    ch = cf.Chart(["t", "x"], [(-5.0, 5.0)] * 2)
    terms = {}
    for m in [(2, 0), (1, 1), (0, 2), (1, 0), (0, 0)]:
        c = rng.uniform(-2, 2)
        if abs(c) > 0.1:
            terms[m] = c
    if not any(sum(m) == 2 for m in terms):
        terms[(2, 0)] = 1.0
    D = cf.LinearDiffOperator(ch, terms, s_axis=None)
    g = cf.PolyField(ch, {(2, 0): rng.uniform(-1, 1), (0, 2): rng.uniform(-1, 1),
                          (1, 1): rng.uniform(-1, 1), (1, 0): rng.uniform(-1, 1),
                          (0, 1): rng.uniform(-1, 1)})
    x = rng.uniform(-2, 2, size=2)
    A = cf.oscillatory_coefficients(D, g, x)
    dg = np.array([g.deriv_value((1, 0), x), g.deriv_value((0, 1), x)])
    sval = cf.PrincipalSymbol(D).value(x, dg)
    assert abs(A[D.degree] / (1j ** D.degree) - sval) < 1e-10 * max(1.0, abs(sval))


def test_lower_order_terms_leave_leading_coefficient_alone():
    ch = cf.Chart(["t", "x"], [(-5.0, 5.0)] * 2)
    g = cf.PolyField(ch, {(2, 0): 0.4, (0, 2): -0.7, (1, 1): 0.25})
    x = np.array([0.6, -1.1])
    top = {(2, 0): 1.0, (0, 2): -2.0}
    A_bare = cf.oscillatory_coefficients(cf.LinearDiffOperator(ch, top, s_axis=None), g, x)
    low = dict(top)
    low[(1, 0)] = 3.0
    low[(0, 0)] = -0.5
    A_full = cf.oscillatory_coefficients(cf.LinearDiffOperator(ch, low, s_axis=None), g, x)
    assert A_full[2] == A_bare[2]   # bitwise: lower-order terms never reach A_n


# ------------------------------------------------------- equivariant reduction

def test_reduction_of_harmonic_schrodinger_gives_newton():
    ch = _tx_s_chart()
    V = cf.PolyField(ch, {(0, 2, 0): 0.5})
    D = cf.schrodinger_operator(ch, mass=1.0, V=V)
    E = cf.equivariant_reduce(cf.PrincipalSymbol(D), 1.0)
    assert E.chart.axis_names == ("t", "x")
    # on shell p_t = -(p_x^2/2 + x^2/2); flow is t' = 1, x'' = -x
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.5, 1.0], 1.0)
    strip = cf.propagate(E, st0, (0.0, 2 * np.pi))
    assert np.max(np.abs(strip.x[:, 0] - strip.taus)) < 1e-9
    assert np.max(np.abs(strip.x[:, 1] - np.sin(strip.taus))) < 1e-8
    energy = 0.5 * strip.p[:, 1] ** 2 + 0.5 * strip.x[:, 1] ** 2
    assert np.max(np.abs(energy - 0.5)) < 1e-9


def test_reduction_without_fiber_axis_is_identity():
    ch = cf.Chart(["t", "x"], [(-5.0, 5.0)] * 2)
    D = cf.LinearDiffOperator(ch, {(1, 0): 1.0, (0, 2): 0.5}, s_axis=None)
    E = cf.equivariant_reduce(cf.PrincipalSymbol(D), 1.0)
    assert E.chart.axis_names == ("t", "x")
    assert E.value([0.0, 0.0], [0.3, 0.4], 1.0) == pytest.approx(0.08, rel=1e-14)


# ------------------------------------ symbols against the hand-rolled reference
#
# The principal symbol and its reduction as they were computed before both
# became one PolyField: coefficient values times numpy monomials, the
# xi-derivatives by hand, and the reduction through padded full-chart points.

def _ref_monomial(xi, m):
    return np.prod(xi ** np.array(m), axis=-1)


def _ref_symbol(D, x, xi):
    """(s_D, ds_D/dx, ds_D/dxi) at x and xi of one stack shape."""
    value, gx, gxi = 0.0, np.zeros(x.shape), np.zeros(x.shape)
    for m, c in D.terms.items():
        if sum(m) != D.degree:
            continue
        value = value + c.value(x) * _ref_monomial(xi, m)
        gx = gx + c.gradient(x) * _ref_monomial(xi, m)[..., None]
        for j, mj in enumerate(m):
            if mj:
                mono = list(m)
                mono[j] -= 1
                gxi[..., j] += c.value(x) * mj * _ref_monomial(xi, mono)
    return value, gx, gxi


def _ref_reduced(D, weight, x, p, p_s):
    """(G, dG/dx, dG/dp, dG/dp_s) of the reduced symbol, xi_s = weight * p_s."""
    keep = [i for i in range(D.dim) if i != D.s_index]
    xf, xif = np.zeros(x.shape[:-1] + (D.dim,)), np.zeros(x.shape[:-1] + (D.dim,))
    xf[..., keep], xif[..., keep] = x, p
    if D.s_index is not None:
        xif[..., D.s_index] = weight * p_s
    value, gx, gxi = _ref_symbol(D, xf, xif)
    gps = weight * gxi[..., D.s_index] if D.s_index is not None else np.zeros(value.shape)
    return value, gx[..., keep], gxi[..., keep], gps


def _random_operator(rng, dim, fiber):
    """A random operator on dim axes, the last one a fiber axis "s" if asked,
    with float and polynomial coefficients (free of s) up to degree 3; and
    the same operator with every coefficient made non-negative."""
    names = ["t", "x", "y"][:dim - fiber] + ["s"] * fiber
    ch = cf.Chart(names, [(-3.0, 3.0)] * dim)
    degree = int(rng.integers(1, 4))
    terms, magnitude = {}, {}
    for _ in range(int(rng.integers(1, 6))):
        m = tuple(int(k) for k in rng.multinomial(degree, np.ones(dim) / dim))
        if rng.uniform() < 0.5:
            coeffs = {tuple(int(k) for k in rng.integers(0, 3, dim - fiber)) + (0,) * fiber:
                      rng.uniform(-2.0, 2.0) for _ in range(int(rng.integers(1, 4)))}
            terms[m] = cf.PolyField(ch, coeffs)
            magnitude[m] = cf.PolyField(ch, {k: abs(c) for k, c in coeffs.items()})
        else:
            terms[m] = rng.uniform(-2.0, 2.0)
            magnitude[m] = abs(terms[m])
        low = tuple(int(k) for k in rng.multinomial(degree - 1, np.ones(dim) / dim))
        terms.setdefault(low, 1.0)   # lower order: the symbol must ignore it
        magnitude.setdefault(low, 1.0)
    s_axis = "s" if fiber else None
    return (cf.LinearDiffOperator(ch, terms, s_axis=s_axis),
            cf.LinearDiffOperator(ch, magnitude, s_axis=s_axis))


def _x_and_xi_gradients(sym, x, xi):
    """The symbol's gradient over (x, xi), split into its x and xi parts."""
    return np.split(sym.poly.gradient(np.concatenate([x, xi], axis=-1)), 2, axis=-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.booleans(),
       st.floats(-3.0, 3.0).filter(lambda w: abs(w) > 0.1))
def test_symbols_match_the_hand_rolled_reference(seed, dim, fiber, weight):
    """The PolyField symbol and reduced symbol agree with the reference within
    1e-13 of the sum of the terms' magnitudes, and a stack gets the bits of
    its rows evaluated one at a time."""
    rng = np.random.default_rng(seed)
    D, D_abs = _random_operator(rng, dim, fiber)
    sym = cf.PrincipalSymbol(D)
    E = cf.equivariant_reduce(sym, weight)
    assert sym.poly.chart.dim == 2 * dim and E.chart.dim == dim - fiber
    x, xi = rng.uniform(-2.0, 2.0, (2, 5, dim))
    got = (sym.value(x, xi), *_x_and_xi_gradients(sym, x, xi))
    for g, r, bound in zip(got, _ref_symbol(D, x, xi), _ref_symbol(D_abs, abs(x), abs(xi))):
        assert np.all(np.abs(g - r) <= 1e-13 * bound + 1e-300)
    for i in range(len(x)):
        one = (sym.value(x[i], xi[i]), *_x_and_xi_gradients(sym, x[i], xi[i]))
        assert all(np.array_equal(a[i], b) for a, b in zip(got, one))

    m = E.chart.dim
    xb, p, p_s = x[:, :m], xi[:, :m], xi[:, -1]
    got = (E.value(xb, p, p_s), *E.gradient(xb, p, p_s))
    ref = _ref_reduced(D, weight, xb, p, p_s)
    bound = _ref_reduced(D_abs, abs(weight), abs(xb), abs(p), abs(p_s))
    for g, r, b in zip(got, ref, bound):
        assert np.all(np.abs(g - r) <= 1e-13 * np.abs(b) + 1e-300)
    for i in range(len(x)):
        one = (E.value(xb[i], p[i], p_s[i]), *E.gradient(xb[i], p[i], p_s[i]))
        assert all(np.array_equal(a[i], b) for a, b in zip(got, one))


# -------------------------------------------------------------- scaling checks

def test_symbol_scaling_check_quadratic_phase():
    ch = _tx_s_chart()
    D = cf.schrodinger_operator(ch, mass=1.0, V=0.0)
    g = cf.poly_phase(ch, {(2, 0, 0): 0.1, (0, 2, 0): 0.25, (1, 1, 0): 0.2},
                      s_weight=1.0)
    lams = np.logspace(0.0, 2.5, 12)
    rep = cf.symbol_scaling_check(D, g, lams, [0.4, -0.3, 0.0])
    assert rep.degree == 2
    assert rep.leading_rel_error < 1e-12
    # residual is exactly |A_1| lam here, so the fitted slope is 1
    assert rep.fitted_exponent == pytest.approx(1.0, abs=1e-6)


def test_scaling_check_requires_two_decades():
    ch = _tx_s_chart()
    D = cf.schrodinger_operator(ch)
    g = cf.poly_phase(ch, {(0, 2, 0): 0.25}, s_weight=1.0)
    with pytest.raises(cf.FitQualityError):
        cf.symbol_scaling_check(D, g, [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0])


# ------------------------------------------------------------ eikonal residual

def _point_source_action_samples():
    # S(t, x) = x^2 / (2 t): the action of free rays from the origin, an exact
    # characteristic solution of S_t + S_x^2/2 = 0
    ts = np.linspace(0.95, 1.05, 9)
    xs = np.linspace(0.45, 0.55, 9)
    pts, vals = [], []
    for t in ts:
        for x in xs:
            pts.append([t, x])
            vals.append(x * x / (2.0 * t))
    return np.array(pts), np.array(vals)


def test_eikonal_residual_distinguishes_solutions():
    ch = _tx_s_chart()
    D = cf.schrodinger_operator(ch, mass=1.0, V=0.0)
    pts, vals = _point_source_action_samples()
    phase = cf.fit_quadratic_phase(ch, pts, vals, center=[1.0, 0.5], radius=0.05)
    probes = [[1.0, 0.5, 0.0], [1.01, 0.49, 0.1], [0.99, 0.51, -0.2]]
    lams = np.logspace(np.log10(2.0), np.log10(200.0), 12)
    order_hj = cf.eikonal_residual(D, phase, lams, probes)
    assert order_hj < 1.3            # characteristic phase: one order down

    generic = cf.poly_phase(ch, {(0, 2, 0): 0.3, (1, 0, 0): 0.2}, s_weight=1.0)
    order_gen = cf.eikonal_residual(D, generic, lams, probes)
    assert order_gen > 1.8


def test_eikonal_residual_exact_annihilation_reports_minus_inf():
    # plane phase on the null cone of the wave operator: D e^{i lam g} = 0
    ch = cf.Chart(["t", "x"], [(-5.0, 5.0)] * 2)
    c = 2.0
    D = cf.LinearDiffOperator(ch, {(2, 0): 1.0, (0, 2): -c * c}, s_axis=None)
    g = cf.PolyField(ch, {(1, 0): c, (0, 1): 1.0})    # g = c t + x
    lams = np.logspace(0.0, 2.5, 8)
    assert cf.eikonal_residual(D, g, lams, [[0.3, 0.4]]) == float("-inf")


_FIT_CHILD = """
import json
import numpy as np
import contactflow as cf
ch = cf.Chart(["t", "x", "s"], [(-10.0, 10.0)] * 3)
pts = np.array([[t, x] for t in np.linspace(0.95, 1.05, 9) for x in np.linspace(0.45, 0.55, 9)])
phase = cf.fit_quadratic_phase(ch, pts, pts[:, 1] ** 2 / (2.0 * pts[:, 0]), center=[1.0, 0.5],
                               radius=0.05)
print(json.dumps(sorted([str(k), float(c).hex()] for k, c in phase.coeffs.items())))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the forced OpenBLAS core is an x86-64 kernel")
def test_fit_quadratic_phase_keeps_its_bits_under_another_blas_kernel():
    # criterion 7's fit of the point-source action: the same coefficients,
    # bit for bit, with OpenBLAS forced to its Nehalem kernels (np.linalg.lstsq
    # moved the constant coefficient from 0x1.6837106dc2a00p-11 to ...db7400p-11)
    def child(**env):
        src = os.path.dirname(os.path.dirname(cf.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _FIT_CHILD], capture_output=True, text=True,
                              env=dict(os.environ, **env, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    default = child()
    assert len(default) == 7 and child(OPENBLAS_CORETYPE="Nehalem") == default


def test_fit_quadratic_phase_data_contracts(monkeypatch):
    ch = _tx_s_chart()
    pts, vals = _point_source_action_samples()
    with pytest.raises(cf.DataQualityError):
        cf.fit_quadratic_phase(ch, pts[:4], vals[:4], center=[1.0, 0.5], radius=0.05)
    # cubic data inside a large radius breaks the quadratic model tolerance
    bad_vals = vals + 50.0 * (pts[:, 1] - 0.5) ** 3
    monkeypatch.setattr(operators, "PHASE_FIT_MAX_RESIDUAL", 1e-9)
    with pytest.raises(cf.DataQualityError):
        cf.fit_quadratic_phase(ch, pts, bad_vals, center=[1.0, 0.5], radius=0.1)
