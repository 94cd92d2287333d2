"""Front lifting, propagation, caustics, and the front action function."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactflow as cf
from contactflow import charts, fronts
from contactflow.charts import scan_roots


def _eik():
    return cf.builtin("eikonal")


# -------------------------------------------------------------------- fronts

def test_flat_front_geometry():
    ch = cf.Chart(["x", "y"], [(-5, 5), (-5, 5)])
    front = cf.flat_front(ch, "x", 1.5, (-2.0, 2.0), 11)
    x = front.x(np.array([0.7, -1.2]))
    assert x.shape == (2, 2)
    assert np.all(x[:, 0] == 1.5)
    assert x[:, 1].tolist() == [0.7, -1.2]
    t = front.tangent(np.array([0.3, 1.9]))
    assert np.allclose(t, [0.0, 1.0], atol=1e-8)
    assert front.s0_du(np.array([0.1, 0.4])).tolist() == [0.0, 0.0]


def test_circle_front_geometry():
    ch = cf.Chart(["x", "y"], [(-5, 5), (-5, 5)])
    front = cf.circle_front(ch, 2.0, 32, center=(0.5, -0.5))
    assert front.closed
    u = np.array([0.0, 1.0, 4.0])
    x = front.x(u)
    assert np.hypot(x[:, 0] - 0.5, x[:, 1] + 0.5) == pytest.approx(2.0)
    # tangent orthogonal to the radius
    assert np.all(np.abs(np.sum(front.tangent(u) * (x - [0.5, -0.5]), axis=1)) < 1e-6)


@pytest.mark.parametrize("front,ref", [
    (cf.circle_front(_eik().chart, 1.5, 256, center=(0.25, -0.5)),
     lambda u: [0.25 + 1.5 * math.cos(u), -0.5 + 1.5 * math.sin(u)]),
    (cf.flat_front(_eik().chart, "y", 0.3, (-2.0, 2.0), 256), lambda u: [u, 0.3]),
], ids=["circle", "flat"])
def test_front_arrays_have_the_bits_of_per_sample_glibc_evaluation(front, ref):
    # one array call per stack keeps the bits of glibc's cos and sin at
    # every sample (numpy's cos and sin need not match them)
    U, h = front.params, fronts.FRONT_FD_STEP
    x = np.array([ref(u) for u in U.tolist()])
    t = np.array([(np.array(ref(u + h)) - np.array(ref(u - h))) / (2.0 * h) for u in U.tolist()])
    assert np.array_equal(front.x(U), x)
    assert np.array_equal(front.tangent(U), t)


@pytest.mark.parametrize("position,s0,shape", [
    (lambda u: np.array([0.1, 0.2]), None, r"\(n, 2\), not \(21,\) to \(2,\)"),
    (lambda u: np.array([np.cos(u), np.sin(u)]), None, r"\(n, 2\), not \(21,\) to \(2, 21\)"),
    (lambda u: np.column_stack([u, u]), lambda u: 0.0, r"\(n,\), not \(21,\) to \(\)"),
], ids=["constant", "transposed", "scalar-action"])
def test_a_front_callable_written_per_point_is_refused(position, s0, shape):
    # position and s0 take a stack of parameters; a callable written for one
    # parameter returns another shape, and the lift names the one it wants
    front = cf.FrontSpec(_eik().chart, position, np.linspace(-1.0, 1.0, 21), s0=s0)
    with pytest.raises(cf.ContractViolation, match=shape):
        cf.legendre_lift(_eik().surface, front, branch=(1, 0))


def _counted(f, calls):
    def call(u):
        calls.append(np.shape(u))
        return f(u)
    return call


@pytest.mark.parametrize("front", [
    cf.circle_front(_eik().chart, 1.0, 256),
    cf.flat_front(_eik().chart, "x", 0.0, (-1.0, 1.0), 256, s0=lambda u: 0.3 * u),
], ids=["circle", "flat-with-action"])
def test_legendre_lift_calls_each_front_callable_three_times(front):
    # x, and the two sides of the central differences of x and of S0, and
    # S0 at the lifted samples: three calls each, whatever the sample count
    positions, actions = [], []
    counted = cf.FrontSpec(front.chart, _counted(front.x, positions), front.params,
                           s0=_counted(front.s0, actions), closed=front.closed,
                           period=front.period)
    lift = cf.legendre_lift(_eik().surface, counted, branch=(1, 0))
    assert len(lift) == 256
    assert positions == actions == [(256,)] * 3


# ---------------------------------------------------------------------- lift

def test_legendre_lift_is_conormal_and_onshell():
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 24)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    assert len(lift) == 24 and lift.failures == []
    assert np.max(np.abs(sc.surface.value(lift.x, lift.p, lift.p_s))) < 1e-12
    # Legendre condition with S0 = 0: p annihilates the front tangent
    assert np.max(np.abs(np.sum(lift.p * front.tangent(lift.u), axis=1))) < 1e-10
    assert np.all(lift.p_s == 1.0)


def test_legendre_lift_branches_point_in_and_out():
    # for G = |p| - p_s on a unit circle, root index 0 is the outward
    # conormal and root index 1 the inward one
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 8)
    out = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    inw = cf.legendre_lift(sc.surface, front, branch=(1, 1))
    assert np.all(np.sum(out.p * out.x, axis=1) > 0)
    assert np.all(np.sum(inw.p * inw.x, axis=1) < 0)
    # rays move along dG/dp = p/|p|: the outward branch leaves the circle
    h_out = cf.propagate_front(sc.surface, out, np.linspace(0, 0.1, 3), closed=True)
    r = np.linalg.norm(h_out.x[:, -1, :], axis=1)
    assert np.all(r > 1.0)


def test_legendre_lift_with_initial_action():
    # tilted action S0(u) = 0.3 u on a flat front forces an oblique conormal
    sc = _eik()
    front = cf.flat_front(sc.chart, "x", 0.0, (-1.0, 1.0), 9, s0=lambda u: 0.3 * u)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    t = front.tangent(lift.u)
    assert np.max(np.abs(np.sum(lift.p * t, axis=1) - lift.p_s * 0.3)) < 1e-9
    assert np.max(np.abs(np.linalg.norm(lift.p, axis=1) - 1.0)) < 1e-12  # |p| = p_s
    assert np.array_equal(lift.s, 0.3 * lift.u)


def test_legendre_lift_no_root_raises():
    sc = _eik()
    front = cf.circle_front(sc.chart, 1.0, 8)
    with pytest.raises(cf.NoLiftError):
        cf.legendre_lift(sc.surface, front, branch=(1, 5))
    # the scan stops each sample after root index + 1 roots, so an index below
    # 0 is refused; -1 used to pick the largest root, or raise IndexError on a
    # sample with none
    for idx in (-1, 0.0):
        with pytest.raises(cf.ContractViolation, match="branch root index must be an integer"):
            cf.legendre_lift(sc.surface, front, branch=(1, idx))



@pytest.mark.parametrize("front,branch", [
    (cf.circle_front(_eik().chart, 1.0, 48), (1, 1)),
    (cf.flat_front(_eik().chart, "x", 0.2, (-1.0, 1.0), 21, s0=lambda u: 0.5 * np.sin(u)),
     (1, 0)),
], ids=["circle", "flat-with-action"])
def test_legendre_lift_equals_a_per_sample_scan(front, branch):
    # the stacked scan gives each sample the bits of a scan of its own ray
    E, (ps, idx) = _eik().surface, branch
    lift = cf.legendre_lift(E, front, branch=branch)
    assert np.array_equal(lift.u, front.params) and lift.failures == []
    for k, u in enumerate(front.params):
        x, t = front.x([u])[0], front.tangent([u])[0]
        p_part = (ps * front.s0_du([u])[0] / np.linalg.norm(t) ** 2) * t
        nrm = np.array([-t[1], t[0]]) / np.linalg.norm([-t[1], t[0]])
        roots, = scan_roots(lambda lam, i: E.value(x, p_part + np.multiply.outer(lam, nrm),
                                                   float(ps)), fronts._LIFT_GRID)
        assert np.array_equal(lift.x[k], x)
        assert lift.s[k] == front.s0([u])[0]
        assert np.array_equal(lift.p[k], p_part + roots[idx] * nrm)
        assert lift.p_s[k] == ps

def test_legendre_lift_skips_a_sample_with_zero_tangent():
    # the front y = 0.5 stands still for |u| < 0.05, so the tangent at u = 0
    # is exactly 0 there; every other sample lifts to the unit conormal
    sc = _eik()

    def pos(u):
        return np.column_stack([np.copysign(np.maximum(np.abs(u) - 0.05, 0.0), u),
                                np.full(len(u), 0.5)])

    front = cf.FrontSpec(sc.chart, pos, np.linspace(-1.0, 1.0, 21))
    assert np.array_equal(front.tangent([0.0]), [[0.0, 0.0]])
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    assert lift.u.tolist() == [u for u in front.params.tolist() if u != 0.0]
    assert lift.failures == [(0.0, "degenerate parametrization (zero tangent)")]
    assert np.array_equal(lift.x, front.x(lift.u))
    assert np.allclose(lift.p, [0.0, -1.0], rtol=0.0, atol=1e-12)
    # a front that never moves has no sample to lift
    still = cf.FrontSpec(sc.chart, lambda u: np.tile([0.1, 0.2], (len(u), 1)),
                         np.linspace(0.0, 1.0, 5))
    with pytest.raises(cf.NoLiftError, match="zero tangent"):
        cf.legendre_lift(sc.surface, still, branch=(1, 0))


def _dropping_front():
    # |p0| = |dS0/du| = 2 |cos u| > 1 leaves no on-shell root on the eikonal
    # conormal ray for |cos u| > 1/2, and the front stands still at u = 0
    def pos(u):
        return np.column_stack([np.copysign(np.maximum(np.abs(u) - 0.05, 0.0), u),
                                np.full(len(u), 0.5)])

    return cf.FrontSpec(_eik().chart, pos, np.linspace(-3.0, 3.0, 61),
                        s0=lambda u: 2.0 * np.sin(u))


@pytest.mark.parametrize("front,branch,dropped", [
    (cf.circle_front(_eik().chart, 1.0, 256), (1, 1), 0),
    (_dropping_front(), (1, 0), 41),
    (_dropping_front(), (1, 1), 41),
    (cf.circle_front(_eik().chart, 1.0, 256), (1, 2), 256),   # no sample has a third root
], ids=["circle", "dropping-first-root", "dropping-second-root", "no-third-root"])
@pytest.mark.parametrize("block", [1, 997, 2 ** 15])
def test_legendre_lift_in_blocks_equals_the_one_block_lift(front, branch, dropped, block,
                                                           monkeypatch):
    E = _eik().surface

    def lift():
        try:
            return cf.legendre_lift(E, front, branch=branch)
        except cf.NoLiftError as e:
            return str(e)

    monkeypatch.setattr(charts, "SCAN_BLOCK", 2 ** 30)
    want = lift()
    monkeypatch.setattr(charts, "SCAN_BLOCK", block)
    got = lift()
    if isinstance(want, str):
        assert got == want and "found 2, wanted index 2" in want
        return
    assert len(want.failures) == dropped and len(want) + dropped == len(front.params)
    assert got.failures == want.failures and got.period == want.period
    for a, b in zip((got.u, got.x, got.s, got.p, got.p_s), (want.u, want.x, want.s, want.p,
                                                            want.p_s)):
        assert a.tobytes() == b.tobytes()


def test_legendre_lift_scans_only_up_to_its_branch_root(monkeypatch):
    # each inward sample's roots sit at -1 and 1, inside the first window of
    # 101 grid values (+-2.5): the scan is one (256, 101) call (it was four
    # blocks, 131,072 values, ascending from -20), and the rest are the
    # polish's 1-D calls, at most both roots of every ray
    E = _eik().surface
    scan, polish = [], []
    real = E.value

    def value(*a):
        (scan if np.ndim(a[1]) == 3 else polish).append(np.size(r := real(*a)))
        return r

    monkeypatch.setattr(E, "value", value)
    lift = cf.legendre_lift(E, cf.circle_front(_eik().chart, 1.0, 256), branch=(1, 1))
    assert len(lift) == 256
    assert scan == [256 * 101]
    assert max(polish) <= 2 * 256


def test_legendre_lift_widens_to_the_chart_bound():
    # the oscillator's flat front t = 0 has one root per sample, at
    # p_t = -(0.245 + x^2 / 2), -50.245 at |x| = 10, on a +-60 chart: the
    # scan up to +-20 dropped the 16 samples with |x| > 6
    sc = cf.builtin("oscillator")
    front = cf.flat_front(sc.chart, "t", 0.0, (-10.0, 10.0), 41, s0=lambda u: 0.7 * u)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    assert len(lift) == 41 and lift.failures == []
    x, (p_t, p_x) = lift.x[:, 1], lift.p.T
    # the finite-difference tangent leaves p_x within 4e-10 of 0.7
    assert np.allclose(p_t, -(0.245 + x * x / 2), rtol=1e-9, atol=0.0)
    assert np.allclose(p_t, -(p_x * p_x + x * x) / 2, rtol=1e-12, atol=0.0)


def test_a_sample_without_its_root_within_the_cap_says_so():
    # the unit circle's rays have two roots each; the eikonal chart's bound
    # is 40, so a third root is sought up to |t| <= 40 before a sample drops
    sc = _eik()
    with pytest.raises(cf.NoLiftError) as e:
        cf.legendre_lift(sc.surface, cf.circle_front(sc.chart, 1.0, 256), branch=(1, 2))
    assert str(e.value).count("no on-shell root with |t| <= 40 (found 2, wanted index 2)") == 3


def test_a_chart_bound_past_the_cap_scans_up_to_the_cap(monkeypatch):
    # the cap is max(20, the largest |bound|) but at most +-320: a chart bound
    # of 1e12 lifts as the bound-40 chart does, and a ray short of its root
    # scans the windows +-2.5, +-5, ..., +-320, each whole, 25,508 values
    big, sc = cf.builtin("eikonal", bound=1e12), _eik()
    lift = cf.legendre_lift(big.surface, cf.circle_front(big.chart, 1.0, 16), branch=(1, 1))
    want = cf.legendre_lift(sc.surface, cf.circle_front(sc.chart, 1.0, 16), branch=(1, 1))
    assert lift.p.tobytes() == want.p.tobytes() and len(lift) == 16
    scan = []
    real = big.surface.value

    def value(*a):
        r = real(*a)
        if np.ndim(a[1]) == 3:   # a scan block, not a polish call
            scan.append(np.size(r))
        return r

    monkeypatch.setattr(big.surface, "value", value)
    with pytest.raises(cf.NoLiftError) as e:
        cf.legendre_lift(big.surface, cf.circle_front(big.chart, 1.0, 16), branch=(1, 2))
    assert str(e.value).count("no on-shell root with |t| <= 320 (found 2, wanted index 2)") == 3
    assert sum(scan) == 16 * 25508


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
                           np.ones((nu, nt)), det, [], *np.zeros((2, nu, nt)))
    for sl in cf.front_action_function(hist):
        assert sl.branch.tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("case", ["eikonal-circle", "oscillator-flat"])
def test_front_rows_equal_per_ray_strips_bit_for_bit(case, monkeypatch):
    # the circle's rays are alike, so every row takes every step and the dense
    # output goes straight into the buffer; the oscillator's rays swing with
    # amplitudes that differ by row, so rows take steps of their own sizes,
    # some retry, and the dense output is copied under a mask
    from contactflow import strips
    if case == "eikonal-circle":
        sc = _eik()
        sigma, branch, taus = cf.circle_front(sc.chart, 1.0, 24, (0.3, -0.2)), (1, 1), 1.3
    else:
        sc = cf.builtin("oscillator")
        sigma, branch, taus = cf.flat_front(sc.chart, "t", 0.0, (-2.0, 2.0), 16), (1, 0), 3.0
    E, taus = sc.surface, np.linspace(0.0, taus, 41)
    lift = cf.legendre_lift(E, sigma, branch=branch)
    in_place, retries = [], []
    step_control, interpolate = strips._step_control, strips._interpolate

    def control(*args):   # its third result: per row, whether the last try was rejected
        out = step_control(*args)
        retries.append(out[2].any() and not out[2].all())
        return out

    def dense(*args, out=None):
        in_place.append(out is not None)
        return interpolate(*args, out=out)

    monkeypatch.setattr(strips, "_step_control", control)
    monkeypatch.setattr(strips, "_interpolate", dense)
    hist = cf.propagate_front(E, lift, taus, closed=sigma.closed)
    if case == "eikonal-circle":
        assert in_place and all(in_place) and not any(retries)
    else:
        assert any(retries) and not all(in_place)
    for i in range(len(lift)):
        one = cf.propagate(E, cf.CharacteristicState(lift.x[i], lift.s[i], lift.p[i],
                                                     lift.p_s[i]), taus[[0, -1]], tau_eval=taus)
        assert list(one.taus) == list(taus)
        for key in ("x", "s", "p", "p_s", "g_raw"):
            assert getattr(hist, key)[i].tobytes() == getattr(one, key).tobytes(), (i, key)


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
    front = cf.FrontSpec(sc.chart, lambda u: np.column_stack([np.zeros_like(u), u]), params,
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
    front = cf.FrontSpec(sc.chart, lambda u: np.column_stack([np.cos(u), np.sin(u)]),
                         params, closed=True)
    lift = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    with pytest.raises(cf.ContractViolation, match="uniformly spaced params: gap 0"):
        cf.propagate_front(sc.surface, lift, np.linspace(0.0, 0.5, 6), closed=True)


def _without(lift, k):
    """The lift less its sample k, built from its arrays."""
    return cf.Lift(*(np.delete(a, k, axis=0) for a in (lift.u, lift.x, lift.s, lift.p, lift.p_s)),
                   lift.period, lift.failures)


def test_closed_lift_that_dropped_a_sample_is_refused(tmp_path, monkeypatch):
    sc = _eik()
    lift = cf.legendre_lift(sc.surface, cf.circle_front(sc.chart, 1.0, 48), branch=(1, 1))
    with pytest.raises(cf.ContractViolation, match="gap 19"):
        cf.propagate_front(sc.surface, _without(lift, 20), np.linspace(0.0, 1.3, 53),
                           closed=True)
    # the wavefront command reports it as a numerical failure
    from contactflow import cli

    real_lift = cli.legendre_lift
    monkeypatch.setattr(cli, "legendre_lift", lambda *a, **k: _without(real_lift(*a, **k), 20))
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "eikonal_front.yaml")
    assert cli.main(["wavefront", "--config", config, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("drop", [0, -1], ids=["first", "last"])
def test_closed_lift_that_lost_an_end_sample_is_refused(drop):
    # the 47 remaining gaps are equal, but the wrap-around gap over the
    # circle's period is twice as wide; run anyway, the lift made 47 caustics,
    # |jacobian_det| up to 1.49 (exact: 1) and a contact residual of 0.065
    sc = _eik()
    lift = cf.legendre_lift(sc.surface, cf.circle_front(sc.chart, 1.0, 48), branch=(1, 1))
    assert lift.period == 2 * math.pi
    with pytest.raises(cf.ContractViolation, match=r"gap 46 \(u = .*\) is 0\.261799, "
                                                   r"the median gap is 0\.1309"):
        cf.propagate_front(sc.surface, _without(lift, drop), np.linspace(0.0, 1.3, 53),
                           closed=True)


def test_front_samples_that_leave_the_chart_are_counted():
    # a unit circle 0.5 inside the chart edge x = 40: the 7 outward rays with
    # cos(u) > 1/8 reach the edge before tau = 3 and stop there
    sc = _eik()
    lift = cf.legendre_lift(sc.surface, cf.circle_front(sc.chart, 1.0, 16, center=(39.5, 0.0)))
    with pytest.raises(cf.ContractViolation, match=r"^7 front samples failed to propagate "
                                                   r"over the full grid \(first failure at u "
                                                   r"index 0\)$"):
        cf.propagate_front(sc.surface, lift, np.linspace(0.0, 3.0, 11), closed=True)


def test_a_symbol_error_reaches_the_caller_of_a_front_or_a_batch():
    # the symbol raises on x > 1.2, which the outward rays at u = 0 and
    # u = +-2pi/16 reach before tau = 0.5: the stacked run ends there, and
    # the error reaches the caller unchanged (not a ContractViolation, and
    # not an item's error); the 13 other rays alone propagate
    E = _eik().surface

    def guarded(f):
        def g(x, p, p_s):
            if np.any(x[..., 0] > 1.2):
                raise ValueError("outside the model")
            return f(x, p, p_s)
        return g

    F = cf.SymbolSurface(E.chart, guarded(E.value), E.degree, grad=guarded(E.gradient))
    lift = cf.legendre_lift(F, cf.circle_front(E.chart, 1.0, 16))
    states = [cf.CharacteristicState(*row) for row in zip(lift.x, lift.s, lift.p, lift.p_s)]
    for call in (lambda: cf.propagate_front(F, lift, np.linspace(0.0, 0.5, 6), closed=True),
                 lambda: cf.batch_propagate(F, states, (0.0, 0.5))):
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError and str(err.value) == "outside the model"
    items = cf.batch_propagate(F, states[2:-1], (0.0, 0.5))
    assert len(items) == 13 and all(item.ok for item in items)


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
    assert (repr(fronts._caustic_events(fronts._det_signs(det), taus))
            == repr(_caustics_by_loop(det, taus)))
    hist = cf.FrontHistory(_eik().surface, np.arange(nu, dtype=float), taus,
                           np.zeros((nu, nt, 2)), np.zeros((nu, nt)), np.zeros((nu, nt, 2)),
                           np.ones((nu, nt)), det, [], *np.zeros((2, nu, nt)))
    slices = cf.front_action_function(hist)
    assert len(slices) == nt
    for sl, ref in zip(slices, _branches_by_loop(det)):
        assert sl.branch.dtype == ref.dtype and np.array_equal(sl.branch, ref)


def _det_signs_as_floats(det):
    """_det_signs as it was before it returned int8 signs."""
    absJ = np.where(np.isnan(det), 0.0, np.abs(det))
    significant = absJ > fronts.CAUSTIC_DET_TOL * absJ.max(axis=1, keepdims=True)
    return np.where(significant, np.sign(det), 0.0)


@given(det=_det_arrays())
@settings(max_examples=300, deadline=None)
def test_int8_det_signs_equal_the_float_signs(det):
    signs = fronts._det_signs(det)
    assert signs.dtype == np.int8 and np.array_equal(signs, _det_signs_as_floats(det))


# ------------------------------------ what propagate_front keeps on the history

def _contact_residual_afresh(h):
    """contact_residual as it was before the history kept dx/du."""
    dx = fronts._u_derivative(h.x, h.params, h.closed)
    ds = fronts._u_derivative(h.s, h.params, h.closed)
    res = np.abs(charts.dot(h.p, dx) - h.p_s * ds)
    scale = np.maximum(np.sqrt(charts.dot(h.p, h.p)) * np.sqrt(charts.dot(dx, dx)), 1.0)
    r = res / scale
    return float(np.max(r, where=~np.isnan(r), initial=0.0))


@pytest.mark.parametrize("case", ["eikonal-circle-closed", "eikonal-circle-open",
                                  "oscillator-flat-open"])
def test_a_front_history_keeps_what_a_fresh_computation_gives(case):
    # propagate_front hands its dx/du and determinant signs to the history;
    # the residual, the caustics and the action tags equal those computed
    # afresh from the history's arrays
    if case.startswith("eikonal"):
        sc, closed = _eik(), case.endswith("closed")
        sigma = cf.circle_front(sc.chart, 0.8, 48, (0.3, -0.2))
        lift, taus = cf.legendre_lift(sc.surface, sigma, (1, 1)), np.linspace(0.0, 1.1, 23)
    else:
        sc, closed = cf.builtin("oscillator"), False
        sigma = cf.flat_front(sc.chart, "t", 0.0, (-1.0, 1.0), 21)
        lift, taus = cf.legendre_lift(sc.surface, sigma), np.linspace(0.0, 2 * math.pi, 61)
    hist = cf.propagate_front(sc.surface, lift, taus, closed=closed)
    fresh = cf.FrontHistory(hist.surface, hist.params, hist.taus, hist.x, hist.s, hist.p,
                            hist.p_s, hist.jacobian_det, [], hist.g_raw, hist.p_correction,
                            closed=closed)
    assert "x_u" not in vars(fresh) and "det_signs" not in vars(fresh)   # none cached yet
    assert np.array_equal(hist.x_u, fresh.x_u, equal_nan=True)
    assert np.array_equal(hist.x_u, fronts._u_derivative(hist.x, hist.params, closed),
                          equal_nan=True)
    assert np.array_equal(hist.det_signs, _det_signs_as_floats(hist.jacobian_det))
    residual = hist.contact_residual()
    assert residual == fresh.contact_residual() == _contact_residual_afresh(hist)
    assert 0.0 < residual < 1e-6
    assert hist.caustics and repr(hist.caustics) == repr(_caustics_by_loop(hist.jacobian_det,
                                                                            taus))
    slices, tags = cf.front_action_function(hist), _branches_by_loop(hist.jacobian_det)
    for sl, fresh_sl, ref in zip(slices, cf.front_action_function(fresh), tags):
        assert np.array_equal(sl.branch, ref) and np.array_equal(fresh_sl.branch, ref)
    # an open front's end samples have no dx/du: NaN determinants, no sign
    assert np.isnan(hist.jacobian_det[[0, -1]]).all() != closed
