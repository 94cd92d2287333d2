import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactflow as cf
from contactflow.charts import Chart, PolyField, ScalarField, scan_roots


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


def test_boundary_clearance():
    ch = Chart(["x"], [(0.0, 10.0)])
    assert ch.boundary_clearance([3.0]) == pytest.approx(3.0)
    assert ch.boundary_clearance([9.0]) == pytest.approx(1.0)
    assert ch.boundary_clearance([-1.0]) < 0


finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_scalar_field_fd_gradient_matches_analytic():
    ch = Chart(["x", "y"], [(-4, 4), (-4, 4)])
    f = ScalarField(ch, lambda x: math.sin(x[0]) * x[1])
    g = ScalarField(ch, lambda x: math.sin(x[0]) * x[1],
                    grad=lambda x: np.array([math.cos(x[0]) * x[1], math.sin(x[0])]))
    pt = np.array([0.7, -1.2])
    assert np.allclose(f.gradient(pt), g.gradient(pt), atol=1e-9)


def test_fd_gradient_at_boundary_raises():
    ch = Chart(["x"], [(0.0, 1.0)])
    f = ScalarField(ch, lambda x: x[0] ** 2)
    with pytest.raises(cf.BoundaryError):
        f.gradient([1.0 - 1e-12])


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
    fd = ScalarField(ch, f.value)   # no grad: central differences
    assert np.allclose(f.gradient(pt), fd.gradient(pt), rtol=0.0, atol=1e-8)


# ------------------------------------------------------------------ root scan

def test_scan_roots_of_cubic_come_back_ascending():
    roots = scan_roots(lambda t: (t - 2.9) * (t + 0.4) * (t - 1.3), np.linspace(-5.0, 5.0, 77))
    assert len(roots) == 3
    assert np.allclose(roots, [-0.4, 1.3, 2.9], rtol=0.0, atol=1e-12)


def test_scan_roots_counts_exact_grid_roots_once():
    grid = np.linspace(-2.0, 2.0, 5)   # -2, -1, 0, 1, 2
    assert scan_roots(lambda t: t, grid) == [0.0]
    assert scan_roots(lambda t: t - 2.0, grid) == [2.0]   # the last grid point
    assert scan_roots(lambda t: (t + 1.0) * (t - 2.0), grid) == [-1.0, 2.0]
    assert scan_roots(lambda t: t * t + 1.0, grid) == []


def test_scan_roots_evaluates_the_grid_in_one_call():
    grid = np.linspace(-5.0, 5.0, 77)
    arrays, scalars = [], []

    def f(t):
        (arrays if np.ndim(t) else scalars).append(t)
        return (t - 2.9) * (t + 0.4) * (t - 1.3)

    assert len(scan_roots(f, grid)) == 3
    assert len(arrays) == 1 and np.array_equal(arrays[0], grid)
    assert scalars and all(isinstance(t, float) for t in scalars)   # brentq's polish
