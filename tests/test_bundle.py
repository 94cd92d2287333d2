"""Connection data, wave diagrams, duality, gauge changes, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactflow as cf
from contactflow import bundle
from contactflow.charts import scan_roots
from contactflow.strips import _degeneracy_gap


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
    # at stacked points, the values of each point, also for parsed components
    # and for a connection shifted by d(chi)
    pts = np.array([[0.7, -0.3], [1.5, 2.0], [-0.4, 0.9]])
    parsed = cf.ConnectionData(ch, [cf.scalar_field("x*y", ch), cf.scalar_field("x**2", ch)])
    chi = cf.PolyField(ch, {(2, 1): 0.5, (0, 3): -0.2, (1, 0): 0.3})
    for c in (conn, parsed, conn.shifted(chi), parsed.shifted(chi)):
        for f in (c.A, c.jacobian, c.curvature):
            assert np.array_equal(f(pts), [f(p) for p in pts])


def test_connection_parsed_matches_polynomial():
    # parsed components give the polynomial's potential and Jacobian, and a
    # shift by d(chi) adds chi's gradient and Hessian to each, on stacks too
    ch = _plane_chart()
    conn_poly = cf.ConnectionData(ch, [cf.PolyField(ch, {(1, 1): 1.0}),
                                       cf.PolyField(ch, {(2, 0): 1.0})])
    conn_parsed = cf.ConnectionData(ch, [cf.scalar_field("x*y", ch), cf.scalar_field("x**2", ch)])
    pt = np.array([1.2, 0.4])
    assert np.allclose(conn_poly.A(pt), conn_parsed.A(pt), atol=1e-12)
    assert np.allclose(conn_poly.jacobian(pt), conn_parsed.jacobian(pt), atol=1e-12)
    chi = cf.PolyField(ch, {(2, 1): 0.5, (0, 3): -0.2, (1, 0): 0.3})
    pts = np.array([[0.7, -0.3], [1.5, 2.0], [-0.4, 0.9]])
    hess = np.stack([d.gradient(pts) for d in chi.partials], axis=-2)
    for conn in (conn_poly, conn_parsed):
        shifted = conn.shifted(chi)
        assert np.array_equal(shifted.A(pts), conn.A(pts) + chi.gradient(pts))
        assert np.array_equal(shifted.jacobian(pts), conn.jacobian(pts) + hess)


def test_shifted_connection_keeps_curvature():
    ch = _plane_chart()
    conn = cf.ConnectionData(ch, [cf.PolyField(ch, {(0, 1): 2.0}),
                                  cf.PolyField.from_const(ch, 0.0)])
    chi = cf.PolyField(ch, {(2, 1): 0.5})   # A -> A + d(x^2 y / 2)
    shifted = conn.shifted(chi)
    pt = np.array([0.9, -1.1])
    assert np.allclose(shifted.A(pt), conn.A(pt) + chi.gradient(pt), atol=1e-12)
    assert np.allclose(shifted.curvature(pt), conn.curvature(pt), atol=1e-7)


def test_connection_component_count_checked():
    ch = _plane_chart()
    with pytest.raises(cf.ContractViolation):
        cf.ConnectionData(ch, [cf.PolyField.from_const(ch, 1.0)])


def test_callable_connection_potential_is_a_contract_violation():
    # a potential is one component per axis; the callable form with its
    # Jacobian dA is gone
    with pytest.raises(cf.ContractViolation, match="one component per axis"):
        cf.ConnectionData(_plane_chart(), lambda x: np.array([x[0] * x[1], x[0] ** 2]))
    with pytest.raises(TypeError, match="dA"):
        cf.ConnectionData(_plane_chart(), [0.0, 0.0], dA=lambda x: np.zeros((2, 2)))


# --------------------------------------------------------------- wave diagram

def test_wave_diagram_relativistic_is_unit_pseudosphere():
    # free particle, c = 1, m = 1: the plus branch of the diagram satisfies
    # g(v, v) = 1 / (m c)^2 = 1 exactly (unit pseudosphere)
    sc = cf.relativistic_scenario(1.0, 0.0, [0.0, 0.0],
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


def _touches(E, x, p, p_s):
    # the one-point degeneracy test of the per-ray construction
    _, gp, gps = E.gradient(x, p, p_s)
    return _degeneracy_gap(E, np.append(p, p_s)[None], np.append(gp, gps)[None])[0] < 0


def test_wave_diagram_equals_a_per_ray_reference():
    # the ray-by-ray construction that the stacked scan and gradient replaced
    sc = cf.builtin("relativistic", field_strength=0.7)
    E, x, n = sc.surface, np.array([0.3, 0.0]), 24   # A(x) = 0: null rays are lightlike
    diag = cf.wave_diagram(E, sc.connection, x, n_samples=n)
    rays = []
    for p_s in (1.0, -1.0):
        for t in np.linspace(0.0, 2 * math.pi, n, endpoint=False):
            d = np.array([math.cos(t), math.sin(t)])
            roots, = scan_roots(lambda r, i: E.value(x, np.multiply.outer(r, d), p_s),
                                bundle._RADII)
            rays += [(r * d, p_s) for r in roots if not _touches(E, x, r * d, p_s)]
    rays += [(p, 0.0) for p in bundle._null_class_momenta(E, x, n)]
    points, light, below = [], [], []
    for p, p_s in rays:
        _, gp, gps = E.gradient(x, p, p_s)
        w = np.append(gp, -gps)
        a = -gps + float(np.dot(sc.connection.A(x), gp))
        if abs(a) <= bundle.LIGHTLIKE_RTOL * np.linalg.norm(w):
            light.append(w)
        elif a < 0:
            below.append(w)
        else:
            points.append(w / a)
    assert points and light and below
    assert np.array_equal([np.append(q.v, q.s_dot) for q in diag.points], points)
    assert np.array_equal(diag.lightlike, light)
    assert np.array_equal(diag.unreachable, below)

def test_wave_diagram_empty_raises():
    ch = _plane_chart()

    def val(x, p, p_s):
        return p[..., 0] ** 2 + p[..., 1] ** 2 + p_s ** 2   # elliptic: no nonzero real zeros

    E = cf.SymbolSurface(ch, val, 2)
    conn = cf.ConnectionData(ch, [0.0, 0.0])
    with pytest.raises(cf.EmptyDiagramError):
        cf.wave_diagram(E, conn, [0.0, 0.0])



def test_wave_diagram_needs_a_2d_chart():
    ch = cf.Chart(["t", "x", "y"], [(-5.0, 5.0)] * 3)
    E = cf.SymbolSurface(ch, lambda x, p, p_s: p[..., 0] * p_s + 0.5 * p[..., 1] ** 2, 2)
    conn = cf.ConnectionData(ch, [0.0, 0.0, 0.0])
    with pytest.raises(cf.ContractViolation, match="2D"):
        cf.wave_diagram(E, conn, [0.0, 0.0, 0.0])

def test_ray_alpha_signs_for_mass_shell():
    sc = cf.relativistic_scenario(1.0, 0.0, [0.0, 0.0],
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


def test_legendre_dual_refuses_samples_off_the_plane():
    # wave diagrams are 2D: samples of a sphere have no ring order to dualize
    n = 600
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z**2)
    samples = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    with pytest.raises(cf.ContractViolation, match=r"in 2D, not shape \(600, 3\)"):
        cf.legendre_dual(samples)


def test_legendre_dual_needs_enough_samples():
    with pytest.raises(cf.ContractViolation):
        cf.legendre_dual(np.array([[1.0, 0.0], [0.0, 1.0]]))


def _dot(a, b):
    """sum_i a[i] b[i] over Python floats, added in index order."""
    return sum(float(x) * float(y) for x, y in zip(a, b))


def _dual_by_loop(s):
    """legendre_dual one sample at a time, as a reference."""
    n = len(s)
    out = []
    for i in range(n):
        t = s[(i + 1) % n] - s[(i - 1) % n]
        nrm = np.array([-t[1], t[0]])
        tol = 1e-14 * math.sqrt(_dot(nrm, nrm)) * max(math.sqrt(_dot(s[i], s[i])), 1.0)
        denom = _dot(nrm, s[i])
        if abs(denom) >= tol:
            out.append(nrm / denom)
    return np.array(out)


def test_legendre_dual_and_hausdorff_equal_loop_references():
    rng = np.random.default_rng(3)
    th = np.sort(rng.uniform(0.0, 2 * math.pi, 40))
    ring = np.stack([(2.0 + np.cos(3 * th)) * np.cos(th), 1.5 * np.sin(th)], axis=1)
    ring[5] = 0.0   # p(v) = 0 at the origin: that sample has no dual
    dual = cf.legendre_dual(ring)
    assert np.array_equal(dual, _dual_by_loop(ring))
    assert len(dual) == len(ring) - 1

    def nearest(p, q):
        return max(min(math.sqrt(_dot(w - v, w - v)) for w in q) for v in p)

    cloud = rng.standard_normal((60, 3)) * [1.0, 2.0, 0.5]
    for a, b in ((ring, dual), (cloud, cloud[::2] + 0.25)):
        assert cf.hausdorff_distance(a, b) == max(nearest(a, b), nearest(b, a))

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


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_strips_are_gauge_covariant_under_random_gauges(seed):
    """A charged strip integrated under the connection shifted by d(chi)
    equals the strip under the connection re-expressed in the gauge e chi,
    started at the transformed state: x, s and p agree."""
    e = 0.8
    chart = cf.Chart(["t", "x"], [(-50.0, 50.0), (-50.0, 50.0)])
    em = cf.constant_field_potential(chart, 0.3)
    chi = cf.random_polynomial(chart, np.random.default_rng(seed), max_degree=3, scale=0.3)
    e_chi = cf.PolyField(chart, {k: e * c for k, c in chi.coeffs.items()})
    metric = cf.lorentzian_metric(1.0)
    E = cf.relativistic_scenario(1.0, e, em, metric, chart=chart).surface
    E_chi = cf.relativistic_scenario(1.0, e, em.shifted(chi), metric, chart=chart).surface
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [1.0, 0.0], 1.0)
    st_chi = cf.CharacteristicState(st0.x, st0.s + e_chi.value(st0.x),
                                    st0.p + st0.p_s * e_chi.gradient(st0.x), st0.p_s)
    taus = np.linspace(0.0, 2.0, 81)
    want = cf.strip_in_gauge(cf.propagate(E, st0, (0.0, 2.0), tau_eval=taus), e_chi)
    got = cf.propagate(E_chi, st_chi, (0.0, 2.0), tau_eval=taus)
    assert len(got) == len(want) == len(taus)
    for name in ("x", "s", "p"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-7, name


# ------------------------------------------------------------- classification

def test_classify_particle_antiparticle_lightlike():
    sc = cf.relativistic_scenario(1.0, 0.0, [0.0, 0.0],
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
        cf.relativistic_scenario(1.0, 0.0, [0.0, 0.0], np.eye(2))


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
