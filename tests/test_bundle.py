"""Connection data, wave diagrams, duality, gauge changes, classification."""

import math

import numpy as np
import pytest

import contactflow as cf
from contactflow import bundle


def _plane_chart():
    return cf.Chart(["x", "y"], [(-5.0, 5.0), (-5.0, 5.0)])


# ---------------------------------------------------------------- connections

def test_connection_jacobian_and_curvature_polynomial():
    ch = _plane_chart()
    # A = (x*y, x^2): J[i,j] = dA_j/dx_i, F = J - J^T
    A0 = cf.PolyField(ch, {(1, 1): 1.0})
    A1 = cf.PolyField(ch, {(2, 0): 1.0})
    conn = cf.ConnectionData(ch, [A0, A1])
    pt = np.array([0.7, -0.3])
    J = conn.jacobian(pt)
    assert np.allclose(J, [[-0.3, 1.4], [0.7, 0.0]], atol=1e-12)
    F = conn.curvature(pt)
    assert np.allclose(F, [[0.0, 0.7], [-0.7, 0.0]], atol=1e-12)
    assert np.allclose(F, -F.T, atol=0)


def test_connection_callable_matches_polynomial():
    ch = _plane_chart()
    conn_poly = cf.ConnectionData(ch, [cf.PolyField(ch, {(1, 1): 1.0}),
                                       cf.PolyField(ch, {(2, 0): 1.0})])
    conn_fn = cf.ConnectionData(ch, lambda x: np.array([x[0] * x[1], x[0] ** 2]))
    pt = np.array([1.2, 0.4])
    assert np.allclose(conn_poly.A(pt), conn_fn.A(pt), atol=1e-12)
    assert np.allclose(conn_poly.jacobian(pt), conn_fn.jacobian(pt), atol=1e-8)


def test_shifted_connection_keeps_curvature():
    ch = _plane_chart()
    conn = cf.ConnectionData(ch, [cf.PolyField(ch, {(0, 1): 2.0}),
                                  cf.PolyField.from_const(ch, 0.0)])
    chi = cf.PolyField(ch, {(2, 1): 0.5})   # A -> A + d(x^2 y / 2)
    shifted = conn.shifted(chi)
    pt = np.array([0.9, -1.1])
    assert np.allclose(shifted.A(pt), conn.A(pt) + chi.gradient(pt), atol=1e-12)
    assert np.allclose(shifted.curvature(pt), conn.curvature(pt), atol=1e-7)


def test_bianchi_residual_vanishes_in_two_dims():
    ch = _plane_chart()
    conn = cf.ConnectionData(ch, [cf.PolyField(ch, {(1, 1): 1.0}),
                                  cf.PolyField.from_const(ch, 0.0)])
    assert conn.bianchi_residual([0.3, 0.2]) == 0.0


def test_bianchi_residual_vanishes_for_polynomial_connection():
    ch = cf.Chart(["a", "b", "c"], [(-5.0, 5.0)] * 3)
    conn = cf.ConnectionData(ch, [cf.PolyField(ch, {(0, 2, 1): 1.0}),
                                  cf.PolyField(ch, {(1, 0, 2): -0.5, (3, 0, 0): 0.2}),
                                  cf.PolyField(ch, {(1, 1, 1): 0.7})])
    pt = [0.3, -0.4, 1.1]
    assert np.max(np.abs(conn.curvature(pt))) > 0.1
    assert conn.bianchi_residual(pt) < 1e-7
    # a curvature that is not closed (d_c F_ab = 1) must be caught
    bad = cf.ConnectionData(ch, lambda x: np.zeros(3),
                            dA=lambda x: np.array([[0.0, x[2], 0.0], [0.0] * 3, [0.0] * 3]))
    assert bad.bianchi_residual(pt) == pytest.approx(1.0, abs=1e-7)


def test_hessian_of_gradless_field_matches_analytic():
    ch = _plane_chart()
    chi = cf.ScalarField(ch, lambda x: math.sin(x[0]) * x[1] ** 2)
    x, y = 0.7, -1.2
    exact = [[-math.sin(x) * y ** 2, 2 * math.cos(x) * y],
             [2 * math.cos(x) * y, 2 * math.sin(x)]]
    assert np.allclose(bundle._hessian_of(chi, [x, y]), exact, rtol=0.0, atol=1e-7)


def test_connection_component_count_checked():
    ch = _plane_chart()
    with pytest.raises(cf.ContractViolation):
        cf.ConnectionData(ch, [cf.PolyField.from_const(ch, 1.0)])


# --------------------------------------------------------------- wave diagram

def test_wave_diagram_relativistic_is_unit_pseudosphere():
    # free particle, c = 1, m = 1: the plus branch of the diagram satisfies
    # g(v, v) = 1 / (m c)^2 = 1 exactly (unit pseudosphere)
    sc = cf.relativistic_scenario(1.0, 0.0, lambda x: np.zeros(2),
                                  cf.lorentzian_metric(1.0))
    diag = cf.wave_diagram(sc.surface, sc.connection, [0.0, 0.0], n_samples=64)
    plus = diag.branch("plus")
    assert len(plus) >= 20
    for v in plus:
        assert abs(v @ sc.metric @ v - 1.0) < 1e-10
    # with zero potential the p_s < 0 shell has alpha < 0: unreachable bucket
    assert len(diag.branch("minus")) == 0
    assert len(diag.unreachable) > 0
    # null momenta (p_s = 0) give rays inside the diagram plane
    assert len(diag.lightlike) > 0


def test_wave_diagram_free_symbol_parabola():
    # G = p_t p_s + p_x^2 / 2: v = (1, p_x) / 1 after scaling by alpha = -g_ps,
    # tracing the parabola v_x^2 = 2 v_t * (energy relation)
    sc = cf.builtin("free")
    diag = cf.wave_diagram(sc.surface, sc.connection, [0.0, 0.0], n_samples=64)
    for q in diag.points:
        p = q.covector
        if q.p_s_sign == 0:
            continue
        v = q.v
        # diagram point of (p_t, p_x, p_s): v = (p_s, p_x)/(-p_t) and on shell
        # p_t p_s = -p_x^2/2, so v_x^2 = 2 v_t^2 * (p_x^2 / (2 p_s p_t)) ...
        # direct check: the generating covector pairs to 1 with (v, s_dot)
        pair = float(p[:2] @ v)
        s_dot = q.s_dot
        assert abs(pair - p[2] * s_dot) < 1e-9  # contact pairing <p, v> = p_s s_dot


def test_wave_diagram_empty_raises():
    ch = _plane_chart()

    def val(x, p, p_s):
        return p[..., 0] ** 2 + p[..., 1] ** 2 + p_s ** 2   # elliptic: no nonzero real zeros

    E = cf.SymbolSurface(ch, val, 2)
    conn = cf.ConnectionData(ch, lambda x: np.zeros(2))
    with pytest.raises(cf.EmptyDiagramError):
        cf.wave_diagram(E, conn, [0.0, 0.0])


def test_ray_alpha_signs_for_mass_shell():
    sc = cf.relativistic_scenario(1.0, 0.0, lambda x: np.zeros(2),
                                  cf.lorentzian_metric(2.0))
    x = np.array([0.0, 0.0])
    p_rest = np.array([sc.mass * 4.0, 0.0])     # m c^2 with c = 2
    a_plus = cf.ray_alpha(sc.surface, sc.connection, x, p_rest, 1.0)
    a_minus = cf.ray_alpha(sc.surface, sc.connection, x, p_rest, -1.0)
    assert a_plus == pytest.approx(2.0 * sc.fiber_coeff, rel=1e-12)
    assert a_minus == pytest.approx(-2.0 * sc.fiber_coeff, rel=1e-12)


# ------------------------------------------------------------ legendre duality

def test_legendre_dual_of_ellipse():
    # supporting-plane dual of the ellipse (a cos t, b sin t) is the ellipse
    # with semiaxes (1/a, 1/b)
    a, b = 2.0, 0.5
    ts = np.linspace(0.0, 2 * math.pi, 400, endpoint=False)
    samples = np.stack([a * np.cos(ts), b * np.sin(ts)], axis=1)
    dual = cf.legendre_dual(samples)
    r = np.hypot(dual[:, 0] * a, dual[:, 1] * b)
    assert np.max(np.abs(r - 1.0)) < 5e-4      # chord tangents: O(h^2) error


def test_legendre_biduality_circle():
    ts = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    samples = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    dd = cf.legendre_dual(cf.legendre_dual(samples))
    assert cf.hausdorff_distance(samples, dd) < 1e-10


def test_legendre_dual_of_sphere_uses_nearest_neighbour_planes():
    # 3D samples carry no ring order: the tangent planes are least-squares
    # fits over the nearest samples, and the unit sphere is its own dual
    n = 600
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z**2)
    samples = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    dual = cf.legendre_dual(samples)
    assert len(dual) == n
    assert np.max(np.abs(np.linalg.norm(dual, axis=1) - 1.0)) < 1e-2


def test_legendre_dual_needs_enough_samples():
    with pytest.raises(cf.ContractViolation):
        cf.legendre_dual(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_hausdorff_distance_basics():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.5]])
    assert cf.hausdorff_distance(a, a) == 0.0
    assert cf.hausdorff_distance(a, b) == pytest.approx(0.5)


# -------------------------------------------------------------- gauge changes

def test_strip_in_gauge_transforms_s_and_p():
    sc = cf.builtin("free")
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.125, 0.5], 1.0)
    strip = cf.propagate(sc.surface, st0, (0.0, 1.0))
    chart = sc.surface.chart
    chi = cf.PolyField(chart, {(1, 0): 0.3, (0, 2): -0.2})
    gauged = cf.strip_in_gauge(strip, chi)
    for i in range(0, len(strip), 40):
        x = strip.x[i]
        assert gauged.s[i] == pytest.approx(strip.s[i] + chi.value(x), abs=1e-12)
        assert np.allclose(gauged.p[i],
                           strip.p[i] + strip.p_s[i] * chi.gradient(x), atol=1e-12)
    # round trip with -chi restores the original
    back = cf.strip_in_gauge(gauged, cf.PolyField(chart, {(1, 0): -0.3, (0, 2): 0.2}))
    assert np.allclose(back.s, strip.s, atol=1e-12)
    assert np.allclose(back.p, strip.p, atol=1e-12)


def test_gauge_shift_adds_dchi_to_connection():
    sc = cf.builtin("free")
    chi = cf.PolyField(sc.surface.chart, {(2, 0): 1.0})   # d(chi) = (2 t, 0)
    conn2 = sc.connection.shifted(chi)
    pt = np.array([0.4, -0.2])
    assert np.allclose(conn2.A(pt), sc.connection.A(pt) + chi.gradient(pt), atol=1e-12)
    assert np.allclose(conn2.jacobian(pt), sc.connection.jacobian(pt) + [[2.0, 0.0], [0.0, 0.0]],
                       atol=1e-12)


# ------------------------------------------------------------- classification

def test_classify_particle_antiparticle_lightlike():
    sc = cf.relativistic_scenario(1.0, 0.0, lambda x: np.zeros(2),
                                  cf.lorentzian_metric(1.0))
    p_rest = np.array([1.0, 0.0])
    plus = cf.propagate(sc.surface, cf.CharacteristicState([0.0, 0.0], 0.0, p_rest, 1.0),
                        (0.0, 0.5))
    minus = cf.propagate(sc.surface, cf.CharacteristicState([0.0, 0.0], 0.0, p_rest, -1.0),
                         (0.0, 0.5))
    null = cf.propagate(sc.surface, cf.CharacteristicState([0.0, 0.0], 0.0, [1.0, 1.0], 0.0),
                        (0.0, 0.5))
    assert cf.classify_characteristic(plus) == "particle"
    assert cf.classify_characteristic(minus) == "antiparticle"
    assert cf.classify_characteristic(null) == "lightlike"
    # reversing the time orientation swaps the massive classes
    assert cf.classify_characteristic(plus, time_orientation=-1) == "antiparticle"
    assert cf.null_norm(sc, null) < 1e-10


def test_classify_detects_corrupted_p_s():
    sc = cf.builtin("free")
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.125, 0.5], 1.0)
    strip = cf.propagate(sc.surface, st0, (0.0, 0.5))
    strip.p_s[-1] = -strip.p_s[-1]
    with pytest.raises(cf.InternalConsistencyError):
        cf.classify_characteristic(strip)


def test_relativistic_scenario_rejects_bad_metric():
    with pytest.raises(cf.ContractViolation):
        cf.relativistic_scenario(1.0, 0.0, lambda x: np.zeros(2), np.eye(2))


def test_null_class_scan_closes_the_angle_grid():
    # G(x, p, 0) = sin(theta - a) on unit momenta: roots at a + pi and at
    # 2 pi + a, which lies between the last grid angle and 2 pi
    a = -0.01
    E = cf.SymbolSurface(_plane_chart(),
                         lambda x, p, ps: p[..., 1] * math.cos(a) - p[..., 0] * math.sin(a) - ps, 1)
    dirs = bundle._null_class_momenta(E, np.zeros(2), 16)
    angles = sorted(math.atan2(d[1], d[0]) % (2 * math.pi) for d in dirs)
    assert np.allclose(angles, [math.pi + a, 2 * math.pi + a], rtol=0.0, atol=1e-12)
    # free particle: G(x, p, 0) = p_x^2 / 2 is exactly 0 at theta = 0, the
    # seam of the closed grid, and that root is reported once
    free = cf.builtin("free").surface
    dirs = bundle._null_class_momenta(free, np.zeros(2), 64)
    assert len(dirs) == 1 and np.array_equal(dirs[0], [1.0, 0.0])
