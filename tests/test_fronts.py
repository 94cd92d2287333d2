"""Front lifting, propagation, caustics, and the front action function."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactflow as cf
from contactflow import fronts
from contactflow.charts import scan_roots


def _eik():
    return cf.builtin("eikonal")


# -------------------------------------------------------------------- fronts

def test_flat_front_geometry():
    ch = cf.Chart(["x", "y"], [(-5, 5), (-5, 5)])
    front = cf.flat_front(ch, "x", 1.5, (-2.0, 2.0), 11)
    assert front.x(0.7)[0] == 1.5
    assert front.x(0.7)[1] == 0.7
    t = front.tangent(0.3)
    assert np.allclose(t, [0.0, 1.0], atol=1e-8)
    assert front.s0_du(0.1) == 0.0


def test_circle_front_geometry():
    ch = cf.Chart(["x", "y"], [(-5, 5), (-5, 5)])
    front = cf.circle_front(ch, 2.0, 32, center=(0.5, -0.5))
    assert front.closed
    for u in (0.0, 1.0, 4.0):
        x = front.x(u)
        assert np.hypot(x[0] - 0.5, x[1] + 0.5) == pytest.approx(2.0)
        # tangent orthogonal to the radius
        assert abs(np.dot(front.tangent(u), x - [0.5, -0.5])) < 1e-6


# ---------------------------------------------------------------------- lift

def test_legendre_lift_is_conormal_and_onshell():
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 24)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    assert len(lift) == 24
    for ls in lift:
        st = ls.state
        assert abs(sc.surface.value(st.x, st.p, st.p_s)) < 1e-12
        # Legendre condition with S0 = 0: p annihilates the front tangent
        assert abs(np.dot(st.p, front.tangent(ls.u))) < 1e-10
        assert st.p_s == 1.0


def test_legendre_lift_branches_point_in_and_out():
    # for G = |p| - p_s on a unit circle, root index 0 is the outward
    # conormal and root index 1 the inward one
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 8)
    out = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    inw = cf.legendre_lift(sc.surface, front, branch=(1, 1))
    for ls in out:
        assert np.dot(ls.state.p, ls.state.x) > 0
    for ls in inw:
        assert np.dot(ls.state.p, ls.state.x) < 0
    # rays move along dG/dp = p/|p|: the outward branch leaves the circle
    h_out = cf.propagate_front(sc.surface, out, np.linspace(0, 0.1, 3), closed=True)
    r = np.linalg.norm(h_out.x[:, -1, :], axis=1)
    assert np.all(r > 1.0)


def test_legendre_lift_with_initial_action():
    # tilted action S0(u) = 0.3 u on a flat front forces an oblique conormal
    sc = _eik()
    front = cf.flat_front(sc.chart, "x", 0.0, (-1.0, 1.0), 9, s0=lambda u: 0.3 * u)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    for ls in lift:
        st = ls.state
        t = front.tangent(ls.u)
        assert abs(np.dot(st.p, t) - st.p_s * 0.3) < 1e-9
        assert abs(np.linalg.norm(st.p) - 1.0) < 1e-12  # eikonal shell |p| = p_s


def test_legendre_lift_no_root_raises():
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 8)
    with pytest.raises(cf.NoLiftError):
        cf.legendre_lift(sc.surface, front, branch=(1, 5))



@pytest.mark.parametrize("front,branch", [
    (cf.circle_front(_eik().chart, 1.0, 48), (1, 1)),
    (cf.flat_front(_eik().chart, "x", 0.2, (-1.0, 1.0), 21, s0=lambda u: 0.5 * math.sin(u)),
     (1, 0)),
], ids=["circle", "flat-with-action"])
def test_legendre_lift_equals_a_per_sample_scan(front, branch):
    # the stacked scan gives each sample the bits of a scan of its own ray
    E, (ps, idx) = _eik().surface, branch
    lift = cf.legendre_lift(E, front, branch=branch)
    assert len(lift) == len(front.params)
    for ls, u in zip(lift, front.params):
        x, t = front.x(u), front.tangent(u)
        p_part = (ps * front.s0_du(u) / np.linalg.norm(t) ** 2) * t
        nrm = np.array([-t[1], t[0]]) / np.linalg.norm([-t[1], t[0]])
        roots, = scan_roots(lambda lam, i: E.value(x, p_part + np.multiply.outer(lam, nrm),
                                                   float(ps)), fronts._LIFT_GRID)
        assert np.array_equal(ls.state.x, x)
        assert np.array_equal(ls.state.p, p_part + roots[idx] * nrm)

def test_legendre_lift_skips_a_sample_with_zero_tangent():
    # the front y = 0.5 stands still for |u| < 0.05, so the tangent at u = 0
    # is exactly 0 there; every other sample lifts to the unit conormal
    sc = _eik()

    def pos(u):
        return np.array([math.copysign(max(abs(u) - 0.05, 0.0), u), 0.5])

    front = cf.FrontSpec(sc.chart, pos, np.linspace(-1.0, 1.0, 21))
    assert np.array_equal(front.tangent(0.0), [0.0, 0.0])
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    assert [ls.u for ls in lift] == [u for u in front.params.tolist() if u != 0.0]
    for ls in lift:
        assert np.array_equal(ls.state.x, front.x(ls.u))
        assert np.allclose(ls.state.p, [0.0, -1.0], rtol=0.0, atol=1e-12)
    # a front that never moves has no sample to lift
    still = cf.FrontSpec(sc.chart, lambda u: np.array([0.1, 0.2]), np.linspace(0.0, 1.0, 5))
    with pytest.raises(cf.NoLiftError, match="zero tangent"):
        cf.legendre_lift(sc.surface, still, branch=(1, 0))


# --------------------------------------------------------------- propagation

def test_outward_circle_front_radius_grows_linearly():
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 48)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    taus = np.linspace(0.0, 2.0, 21)
    hist = cf.propagate_front(sc.surface, lift, taus, closed=True)
    # outward branch: unit-speed rays, radius 1 + tau, action = tau
    for j, tau in enumerate(taus):
        r = np.linalg.norm(hist.x[:, j, :], axis=1)
        assert np.max(np.abs(r - (1.0 + tau))) < 1e-9
        assert np.max(np.abs(hist.s[:, j] - tau)) < 1e-9
    assert hist.first_caustic_tau() is None
    assert hist.contact_residual() < 1e-6


def test_inward_circle_front_focuses_at_unit_time():
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 48)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 1))
    taus = np.linspace(0.0, 1.3, 53)
    hist = cf.propagate_front(sc.surface, lift, taus, closed=True)
    t0 = hist.first_caustic_tau()
    assert t0 is not None
    assert abs(t0 - 1.0) < 0.03
    # every ray passes through the focus: all 48 samples flip
    assert len(hist.caustics) == 48
    for ev in hist.caustics:
        assert 0.95 <= ev.tau_lo <= 1.0 <= ev.tau_hi <= 1.05


def test_front_action_function_branch_tags():
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 32)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 1))
    taus = np.linspace(0.0, 1.3, 27)
    hist = cf.propagate_front(sc.surface, lift, taus, closed=True)
    slices = cf.front_action_function(hist)
    assert len(slices) == len(taus)
    pre = slices[0]
    assert np.all(pre.branch == pre.branch[0])   # single branch before focusing
    post = slices[-1]
    assert post.s.shape == (32,)
    # after the focus the action equals tau - 1 (distance past the focus)
    r = np.linalg.norm(post.x, axis=1)
    assert np.max(np.abs(r - 0.3)) < 1e-6
    assert np.max(np.abs(post.s - 1.3)) < 1e-6


def test_front_action_function_scales_tolerance_per_sample():
    # |det| = 1e-12 everywhere: below the absolute CAUSTIC_DET_TOL, but each
    # u sample's largest |det| sets its scale, so the sign flip is a new branch
    det = 1e-12 * np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [-1.0, -1.0]])
    nu, nt = det.shape
    hist = cf.FrontHistory(_eik().surface, np.arange(nu, dtype=float), np.array([0.0, 1.0]),
                           np.zeros((nu, nt, 2)), np.zeros((nu, nt)), np.zeros((nu, nt, 2)),
                           np.ones((nu, nt)), det, [])
    for sl in cf.front_action_function(hist):
        assert sl.branch.tolist() == [0, 0, 1, 1]


def test_propagate_front_rejects_empty_lift():
    sc = _eik()
    with pytest.raises(cf.ContractViolation):
        cf.propagate_front(sc.surface, [], [0.0, 1.0])


def test_flat_front_open_ends_have_nan_jacobian():
    sc = _eik()
    front = cf.flat_front(sc.chart, "x", 0.0, (-1.0, 1.0), 9)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    hist = cf.propagate_front(sc.surface, lift, np.linspace(0.0, 0.5, 6))
    assert np.all(np.isnan(hist.jacobian_det[0]))
    assert np.all(np.isnan(hist.jacobian_det[-1]))
    assert np.all(np.isfinite(hist.jacobian_det[1:-1]))
    assert hist.first_caustic_tau() is None


def test_open_front_with_nonuniform_params():
    # tilted action S0 = 0.3 u on the line x = 0: every ray moves along
    # p = (sqrt(0.91), 0.3), so x_u = (0, 1), dG/dp = p and det = -sqrt(0.91)
    sc = _eik()
    params = np.array([-1.0, -0.7, -0.55, -0.1, 0.0, 0.35, 0.4, 0.9])
    front = cf.FrontSpec(sc.chart, lambda u: np.array([0.0, u]), params,
                         s0=lambda u: 0.3 * u)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    hist = cf.propagate_front(sc.surface, lift, np.linspace(0.0, 0.5, 6))
    assert np.all(np.isnan(hist.jacobian_det[[0, -1]]))
    assert np.max(np.abs(hist.jacobian_det[1:-1] + math.sqrt(0.91))) < 1e-9
    assert hist.contact_residual() < 1e-9


def test_closed_front_with_nonuniform_params_is_refused():
    # a closed front's u-derivative assumes equal gaps; random params on the
    # unit circle used to give |jacobian_det| from 0.25 to 2.36 (exact: 1)
    sc = _eik()
    params = np.sort(np.random.default_rng(3).uniform(0.0, 2 * math.pi, 64))
    front = cf.FrontSpec(sc.chart, lambda u: np.array([math.cos(u), math.sin(u)]),
                         params, closed=True)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    with pytest.raises(cf.ContractViolation, match="uniformly spaced params: gap 0"):
        cf.propagate_front(sc.surface, lift, np.linspace(0.0, 0.5, 6), closed=True)


def test_closed_lift_that_dropped_a_sample_is_refused(tmp_path, monkeypatch):
    sc = _eik()
    lift = cf.legendre_lift(sc.surface, cf.circle_front(sc.chart, 1.0, 48), branch=(1, 1))
    del lift[20]
    with pytest.raises(cf.ContractViolation, match="gap 19"):
        cf.propagate_front(sc.surface, lift, np.linspace(0.0, 1.3, 53), closed=True)
    # the wavefront command reports it as a numerical failure
    from contactflow import cli

    real_lift = cli.legendre_lift
    monkeypatch.setattr(cli, "legendre_lift",
                        lambda *a, **k: [ls for i, ls in enumerate(real_lift(*a, **k)) if i != 20])
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "eikonal_front.yaml")
    assert cli.main(["wavefront", "--config", config, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("drop", [0, -1], ids=["first", "last"])
def test_closed_lift_that_lost_an_end_sample_is_refused(drop):
    # the 47 remaining gaps are equal, but the wrap-around gap over the
    # circle's period is twice as wide; run anyway, the lift made 47 caustics,
    # |jacobian_det| up to 1.49 (exact: 1) and a contact residual of 0.065
    sc = _eik()
    lift = cf.legendre_lift(sc.surface, cf.circle_front(sc.chart, 1.0, 48), branch=(1, 1))
    assert lift[0].period == 2 * math.pi
    del lift[drop]
    with pytest.raises(cf.ContractViolation, match=r"gap 46 \(u = .*\) is 0\.261799, "
                                                   r"the median gap is 0\.1309"):
        cf.propagate_front(sc.surface, lift, np.linspace(0.0, 1.3, 53), closed=True)


def test_front_samples_that_leave_the_chart_are_counted():
    # a unit circle 0.5 inside the chart edge x = 40: the 7 outward rays with
    # cos(u) > 1/8 reach the edge before tau = 3 and stop there
    sc = _eik()
    lift = cf.legendre_lift(sc.surface, cf.circle_front(sc.chart, 1.0, 16, center=(39.5, 0.0)))
    with pytest.raises(cf.ContractViolation, match=r"^7 front samples failed to propagate "
                                                   r"over the full grid \(first failure at u "
                                                   r"index 0\)$"):
        cf.propagate_front(sc.surface, lift, np.linspace(0.0, 3.0, 11), closed=True)


def test_a_symbol_error_reaches_only_the_front_samples_that_raise_it():
    # the symbol raises on x > 1.2, which the outward rays at u = 0 and
    # u = +-2pi/16 reach before tau = 0.5; the stacked run raises, each ray
    # is rerun on its own and the other 13 propagate
    E = _eik().surface

    def guarded(f):
        def g(x, p, p_s):
            if np.any(x[..., 0] > 1.2):
                raise ValueError("outside the model")
            return f(x, p, p_s)
        return g

    F = cf.SymbolSurface(E.chart, guarded(E.value), E.degree, grad=guarded(E.gradient))
    lift = cf.legendre_lift(F, cf.circle_front(E.chart, 1.0, 16))
    with pytest.raises(cf.ContractViolation, match=r"^3 front samples failed .* u index 0\)$"):
        cf.propagate_front(F, lift, np.linspace(0.0, 0.5, 6), closed=True)


# ------------------------------------------ caustic scan and branch tags, one pass

def _caustics_by_loop(det, taus):
    """The per-row scan the one-pass caustic scan replaced."""
    signs = fronts._det_signs(det)
    events = []
    for i in range(len(det)):
        last_sign, last_j = 0, -1
        for j in np.flatnonzero(signs[i]):
            if last_sign and signs[i, j] != last_sign:
                events.append(cf.CausticEvent(i, float(taus[last_j]), float(taus[j])))
            last_sign, last_j = signs[i, j], j
    return events


def _branches_by_loop(det):
    """The per-tau tagging the one-pass tags replaced, one array per tau."""
    signs = fronts._det_signs(det)
    out = []
    for j in range(det.shape[1]):
        nz = np.flatnonzero(signs[:, j])
        flips = np.zeros(len(signs), dtype=int)
        flips[nz[1:]] = signs[nz[1:], j] != signs[nz[:-1], j]
        out.append(np.cumsum(flips))
    return out


_DET_VALUES = st.sampled_from([math.nan, 0.0, 1.0, -1.0, 2.5, -0.3, 1e-10, -1e-10, 1e-300])


@st.composite
def _det_arrays(draw):
    nu, nt = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    rows = [[draw(st.one_of(_DET_VALUES, st.floats(-5.0, 5.0))) for _ in range(nt)]
            for _ in range(nu)]
    # per row: as drawn, tiny-scale, all zero (insignificant) or all NaN
    scales = draw(st.lists(st.sampled_from([1.0, 1.0, 1e-12, 0.0, math.nan]),
                           min_size=nu, max_size=nu))
    return np.array(rows) * np.array(scales)[:, None]


@given(det=_det_arrays())
@settings(max_examples=300, deadline=None)
def test_one_pass_scans_equal_the_loops(det):
    nu, nt = det.shape
    taus = np.cumsum(np.linspace(0.5, 1.5, nt))
    assert repr(fronts._caustic_events(det, taus)) == repr(_caustics_by_loop(det, taus))
    hist = cf.FrontHistory(_eik().surface, np.arange(nu, dtype=float), taus,
                           np.zeros((nu, nt, 2)), np.zeros((nu, nt)), np.zeros((nu, nt, 2)),
                           np.ones((nu, nt)), det, [])
    slices = cf.front_action_function(hist)
    assert len(slices) == nt
    for sl, ref in zip(slices, _branches_by_loop(det)):
        assert sl.branch.dtype == ref.dtype and np.array_equal(sl.branch, ref)
