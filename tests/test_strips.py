import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import contactflow as cf
from contactflow import strips
from contactflow.charts import dot, lead_dot, scan_roots
from contactflow.strips import (_degeneracy_gap, _onshell_scale, _pack, _project_strip,
                               _step_control, flow_to_event)


def test_state_validation():
    with pytest.raises(cf.ContractViolation):
        cf.CharacteristicState([0.0], 0.0, [0.0, 0.0], 1.0)  # shape mismatch
    with pytest.raises(cf.ContractViolation):
        cf.CharacteristicState([0.0, 0.0], 0.0, [0.0, 0.0], 0.0)  # zero covector
    st0 = cf.CharacteristicState([1.0, 2.0], 0.5, [0.3, -0.4], 1.0)
    assert np.allclose(st0.covector(), [0.3, -0.4, 1.0])


def test_free_particle_straight_lines(free):
    strip = cf.propagate(free.surface, free.initial_states[0], (0.0, 10.0))
    # x(tau) = (tau, 0.7 tau); momenta constant
    assert np.allclose(strip.x[:, 0], strip.taus, atol=1e-10)
    assert np.allclose(strip.x[:, 1], 0.7 * strip.taus, atol=1e-10)
    assert np.max(np.abs(strip.p - strip.p[0])) < 1e-11
    assert np.max(np.abs(strip.g_residual)) < 1e-12
    assert not strip.boundary_exit


def test_oscillator_closed_form(oscillator):
    strip = cf.propagate(oscillator.surface, oscillator.initial_states[0], (0.0, 10.0))
    assert np.max(np.abs(strip.x[:, 1] - np.sin(strip.taus))) < 1e-8
    assert np.max(np.abs(strip.p[:, 1] - np.cos(strip.taus))) < 1e-8
    # action for x = sin: integral of cos(2 tau)/2
    s_exact = np.sin(2 * strip.taus) / 4.0
    assert np.max(np.abs(strip.s - s_exact)) < 1e-8


def test_ps_exactly_conserved(oscillator):
    strip = cf.propagate(oscillator.surface, oscillator.initial_states[0], (0.0, 10.0))
    assert np.max(np.abs(strip.p_s - strip.p_s[0])) < 1e-14


def test_offshell_init_rejected(free):
    bad = cf.CharacteristicState([0.0, 0.0], 0.0, [1.0, 1.0], 1.0)  # G = 1.5
    with pytest.raises(cf.ContractViolation):
        cf.propagate(free.surface, bad, (0.0, 1.0))


def test_zero_span_is_identity(free):
    st0 = free.initial_states[0]
    strip = cf.propagate(free.surface, st0, (0.0, 0.0))
    assert len(strip) == 1
    assert np.allclose(strip.x[0], st0.x)
    assert strip.s[0] == st0.s


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
def test_boundary_exit_terminates(free, method):
    small = cf.Chart(["t", "x"], [(-2.0, 2.0), (-2.0, 2.0)])
    E = cf.SymbolSurface(small, free.surface._value, 2, grad=free.surface._grad)
    # x_t = tau reaches the boundary at tau = 2, between two fixed steps
    strip = cf.propagate(E, free.initial_states[0], (0.0, 10.0),
                         cf.IntegratorConfig(method=method, dt=0.03))
    assert strip.boundary_exit
    assert strip.taus[-1] < 10.0
    assert abs(small.boundary_clearance(strip.x[-1])) < 1e-7


@pytest.mark.parametrize("settings", [dict(method="rk2"), dict(dt=0.0), dict(dt=-0.01),
                                      dict(dt=math.nan), dict(dt=math.inf), dict(abs_tol=-1e-9),
                                      dict(n_out=1), dict(n_out=2.0), dict(rel_tol=math.nan),
                                      dict(rel_tol=-1e-9), dict(tol_onshell=0.0),
                                      dict(tol_onshell=math.inf)])
def test_integrator_config_refuses_bad_settings(settings):
    with pytest.raises(cf.ContractViolation):
        cf.IntegratorConfig(**settings)


@pytest.mark.parametrize("at,expect", [(0.9, 0.9), (1.1, None)])
def test_flow_to_event_returns_the_earlier_crossing_in_one_step(at, expect):
    # a unit-speed ray from the centre of the box |x_i| <= 1 meets the chart
    # boundary at tau = 1; one RK4 step of size 5 covers both crossings
    E = cf.builtin("eikonal", bound=1.0).surface
    init = cf.CharacteristicState([0.0, 0.0], 0.0, [1.0, 0.0], 1.0)
    hit = flow_to_event(E, init, 5.0, lambda tau, y: y[:, 0] - at,
                        cf.IntegratorConfig(method="fixed", dt=5.0))
    if expect is None:
        assert hit is None
    else:
        assert hit.tau == pytest.approx(expect, abs=1e-12)
        assert hit.x[0] == pytest.approx(at, abs=1e-12)


def test_degenerate_state_rejected_by_field():
    # G = p_x^2 has vanishing momentum gradient on its own zero set
    ch = cf.Chart(["x", "y"], [(-10, 10), (-10, 10)])
    E = cf.SymbolSurface(ch, lambda x, p, p_s: p[..., 0] ** 2, 2)
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [0.0, 1.0], 1.0)
    with pytest.raises(cf.DegeneracyError):
        cf.to_phase(E, st0, cf.SectionSpec("x", 1.0))


def test_degenerate_initial_state_rejected_by_propagate():
    # G = (p^2 - x^2 p_s^2)/2: at x = 0, p = 0 the momentum gradient vanishes
    # on shell, so no characteristic direction exists there
    ch = cf.Chart(["x"], [(-10.0, 10.0)])

    def val(x, p, p_s):
        return 0.5 * (p[..., 0] ** 2 - x[..., 0] ** 2 * p_s ** 2)

    E = cf.SymbolSurface(ch, val, 2)
    st0 = cf.CharacteristicState([0.0], 0.0, [0.0], 1.0)
    with pytest.raises(cf.DegeneracyError) as err:
        cf.propagate(E, st0, (0.0, 1.0))
    assert err.value.state is not None


def test_projection_restores_shell(free):
    y = _pack(cf.CharacteristicState([0.0, 0.0], 0.0, [-0.245, 0.7], 1.0))
    y[3] += 1e-6  # perturb p_t
    # a one-sample stack: (x, p, p_s) rows of shapes (1, 2), (1, 2), (1,)
    X, P0, PS = y[None, :2], y[None, 3:5], y[None, 5]
    G0 = free.surface.value(X, P0, PS)
    P, G = _project_strip(free.surface, X, P0, PS, G0, 1e-10)
    assert G0[0] == free.surface.value(y[:2], y[3:5], y[5])   # the argument is not written
    assert abs(G[0]) < 5e-11
    assert abs(P[0, 0] - y[3]) < 1e-5  # small correction
    assert P.shape == (1, 2)  # only the M-momenta come back: p_s untouched


@given(lam=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_symbol_homogeneity(lam):
    E = cf.builtin("oscillator").surface
    p = np.array([-0.5, 1.0])
    v0 = E.value([0.3, 0.1], p, 1.0)
    v1 = E.value([0.3, 0.1], lam * p, lam)
    assert v1 == pytest.approx(lam ** 2 * v0, rel=1e-10, abs=1e-12)
    assert abs(E.euler_residual([0.3, 0.1], p, 1.0)) < 1e-9


def _random_potential_symbol(seed):
    """G = p_t p_s + p_x^2 / 2 + V(t, x) p_s^2 with a random quadratic V, its
    gradient given, and V."""
    chart = cf.Chart(["t", "x"], [(-5.0, 5.0), (-5.0, 5.0)])
    V = cf.random_polynomial(chart, np.random.default_rng(seed), max_degree=2, scale=0.5)

    def value(x, p, p_s):
        return p[..., 0] * p_s + p[..., 1] * p[..., 1] / 2 + V.value(x) * p_s * p_s

    def grad(x, p, p_s):
        dp = np.stack([np.broadcast_to(p_s, p[..., 0].shape), p[..., 1]], axis=-1)
        return V.gradient(x) * (p_s * p_s)[..., None], dp, p[..., 0] + 2.0 * V.value(x) * p_s

    return cf.SymbolSurface(chart, value, 2, grad=grad), V


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_potential_symbols_are_homogeneous(seed):
    # Euler's identity <q, dG/dq> = 2 G on (p, p_s), with the hand gradient
    # and with the finite-difference one of the same values
    E, V = _random_potential_symbol(seed)
    E_fd = cf.SymbolSurface(E.chart, E._value, 2)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        x, p, p_s = rng.uniform(-5.0, 5.0, 2), rng.uniform(-3.0, 3.0, 2), rng.uniform(-2.0, 2.0)
        scale = 1.0 + p @ p + p_s * p_s * (1.0 + abs(V.value(x)))
        assert abs(E.euler_residual(x, p, p_s)) <= 1e-14 * scale
        assert abs(E_fd.euler_residual(x, p, p_s)) <= 1e-8 * scale
        lam = rng.uniform(0.1, 10.0)
        assert E.value(x, lam * p, lam * p_s) == pytest.approx(lam ** 2 * E.value(x, p, p_s),
                                                               rel=1e-12, abs=1e-14 * scale)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_p_s_is_bitwise_constant_along_random_potential_strips(seed):
    # G never depends on s, so p_s is an exact constant of motion: every
    # sample of an on-shell strip carries its start's p_s, bit for bit
    E, V = _random_potential_symbol(seed)
    rng = np.random.default_rng(seed)
    inits = []
    for _ in range(4):
        x, p_x = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0)
        p_s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        p_t = -(p_x * p_x / 2 + V.value(x) * p_s * p_s) / p_s   # on shell
        inits.append(cf.CharacteristicState(x, 0.0, [p_t, p_x], p_s))
    for method in ("adaptive", "fixed"):
        integ = cf.IntegratorConfig(method=method, dt=0.05, n_out=21)
        items = cf.batch_propagate(E, inits, (0.0, 1.0), integ)
        assert any(item.ok for item in items)
        for init, item in zip(inits, items):
            if item.ok:
                assert (item.strip.p_s == init.p_s).all() and len(item.strip) > 1
                one = cf.propagate(E, init, (0.0, 1.0), integ)
                assert (one.p_s == init.p_s).all()


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_random_potential_fronts_keep_the_legendre_condition(seed):
    # a flat front t = t0 with a quadratic initial action, lifted and
    # propagated: <p, dx/du> = p_s ds/du holds along it to the front-caustic
    # oracle's tolerance (V and the action are quadratic, so the rays are
    # linear and the action quadratic in u, and centred differences in u
    # are exact up to rounding)
    E, V = _random_potential_symbol(seed)
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-1.0, 1.0, 3)
    lo = rng.uniform(-1.0, 0.0)
    front = cf.flat_front(E.chart, "t", rng.uniform(-1.0, 1.0), (lo, lo + 1.0), 21,
                          s0=lambda u: a + b * u + c * u * u)
    lift = cf.legendre_lift(E, front)
    assume(not lift.failures)   # every root inside the lift's scan
    for method in ("adaptive", "fixed"):
        hist = cf.propagate_front(E, lift, np.linspace(0.0, rng.uniform(0.2, 1.0), 11),
                                  cf.IntegratorConfig(method=method, dt=0.01))
        assert hist.contact_residual() <= 1e-6


def test_fixed_step_matches_adaptive(oscillator):
    st0 = oscillator.initial_states[0]
    a = cf.propagate(oscillator.surface, st0, (0.0, 5.0))
    cfg = cf.IntegratorConfig(method="fixed", dt=1e-3)
    b = cf.propagate(oscillator.surface, st0, (0.0, 5.0), cfg)
    assert abs(a.x[-1, 1] - b.x[-1, 1]) < 1e-8
    # a requested grid on a span that is not a whole number of steps comes
    # back exactly, end point included
    grid = np.linspace(0.0, 0.8211, 37)
    c = cf.propagate(oscillator.surface, st0, (0.0, 0.8211),
                     cf.IntegratorConfig(method="fixed", dt=1e-2), tau_eval=grid)
    assert np.array_equal(c.taus, grid)
    assert np.max(np.abs(c.x[:, 1] - np.sin(grid))) < 1e-8


def test_fixed_step_deterministic(oscillator):
    st0 = oscillator.initial_states[0]
    cfg = cf.IntegratorConfig(method="fixed", dt=1e-2)
    a = cf.propagate(oscillator.surface, st0, (0.0, 5.0), cfg)
    b = cf.propagate(oscillator.surface, st0, (0.0, 5.0), cfg)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.s, b.s)


def test_batch_propagate_carries_failures(free):
    good = free.initial_states[0]
    # off-shell state cannot even be constructed into a batch failure via
    # propagate's precondition, which is the contract being exercised
    bad = cf.CharacteristicState([0.0, 0.0], 0.0, [5.0, 0.7], 1.0)
    items = cf.batch_propagate(free.surface, [good, bad], (0.0, 1.0))
    assert items[0].ok and not items[1].ok
    assert isinstance(items[1].error, cf.ContractViolation)


def test_a_sample_the_projection_leaves_off_shell_ends_its_strip(oscillator):
    # at these tolerances propagate returned a strip with |G| up to 64.6 and
    # 102 of its 201 samples above the start check's bound
    E, init = oscillator.surface, oscillator.initial_states[0]
    loose = cf.IntegratorConfig(rel_tol=0.1, abs_tol=1.0)
    with pytest.raises(cf.DegeneracyError, match=r"projection failed: \|G\| = .* exceeds the "
                                                 r"on-shell bound .* at tau = 4\.55$") as err:
        cf.propagate(E, init, (0.0, 10.0), loose)
    state = err.value.state
    assert state.tau == 4.55 and abs(E.value(state.x, state.p, state.p_s)) > 1e-8
    # a batch keeps its other strips; a front refuses as for a ray that stops early
    rest = cf.CharacteristicState([0.0, 0.0], 0.0, [0.0, 0.0], 1.0)   # x stays 0
    bad, good = cf.batch_propagate(E, [init, rest], (0.0, 10.0), loose)
    assert isinstance(bad.error, cf.DegeneracyError) and bad.strip is None
    alone = cf.propagate(E, rest, (0.0, 10.0), loose)
    assert good.ok and np.array_equal(good.strip.p, alone.p)
    front = cf.flat_front(E.chart, "t", 0.0, (-1.0, 1.0), 5, s0=lambda u: np.asarray(u, float))
    with pytest.raises(cf.ContractViolation, match="5 front samples failed to propagate"):
        cf.propagate_front(E, cf.legendre_lift(E, front), np.linspace(0.0, 10.0, 201), loose)


def test_fixed_step_strip_takes_four_gradients_a_step(free, monkeypatch):
    # the degeneracy check at a step point reuses the gradient the next step
    # starts from; counting points, not calls, means the same on a stack
    points = []
    gradient = cf.SymbolSurface.gradient

    def counted(self, x, p, p_s):
        points.append(np.size(p_s))
        return gradient(self, x, p, p_s)

    monkeypatch.setattr(cf.SymbolSurface, "gradient", counted)
    n = 200
    strip = cf.propagate(free.surface, free.initial_states[0], (0.0, 2.0),
                         cf.IntegratorConfig(method="fixed", dt=0.01))
    assert len(strip) == n + 1
    assert sum(points) <= 4 * n + 8


@pytest.mark.parametrize("name,method,one_by_one,calls", [
    ("oscillator", "adaptive", False, 2294), ("oscillator", "fixed", False, 4001),
    ("free", "fixed", False, 4001), ("free", "fixed", True, 8002)],
    ids=["oscillator-adaptive", "oscillator-fixed", "free-stack", "free-one-by-one"])
def test_strips_take_their_pinned_gradient_calls(name, method, one_by_one, calls, monkeypatch):
    # the counts of the integrator before its step was made cheaper: a cheaper
    # step adds no right-hand side and takes the same steps; a stack takes one
    # gradient call a stage for all its rows
    scen, count = cf.builtin(name), []
    gradient = cf.SymbolSurface.gradient

    def counted(self, x, p, p_s):
        count.append(1)
        return gradient(self, x, p, p_s)

    monkeypatch.setattr(cf.SymbolSurface, "gradient", counted)
    integ = cf.IntegratorConfig(method=method, dt=0.01)   # adaptive: 201 samples
    for inits in [[s] for s in scen.initial_states] if one_by_one else [scen.initial_states]:
        assert all(item.ok for item in cf.batch_propagate(scen.surface, inits, (0.0, 10.0),
                                                          integ))
    assert len(count) == calls


def test_fd_symbol_gradient_matches_analytic(oscillator):
    E = oscillator.surface
    fd = cf.SymbolSurface(E.chart, E.value, E.degree)   # no grad: central differences
    for x, p, p_s in (([0.3, -0.7], [0.2, 0.9], 1.3), ([1.5, 2.0], [-1.0, 0.4], -0.6)):
        for got, want in zip(fd.gradient(x, p, p_s), E.gradient(x, p, p_s)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-7)


def test_sample_onshell_lands_on_shell(free, rng):
    states = cf.sample_onshell(free.surface, rng, 20, margin=5.0)
    assert len(states) == 20
    for s in states:
        g = free.surface.value(s.x, s.p, s.p_s)
        assert abs(g) < 1e-9 * max(1.0, _onshell_scale(free.surface, s.p, s.p_s))


def _sample_onshell_one_draw_at_a_time(E, rng, n, p_s=1.0, margin=0.0):
    # the sampler's former loop: one candidate scanned, polished and tested at a time
    out, tries = [], 0
    while len(out) < n and tries < strips.SAMPLE_MAX_TRIES * n:
        tries += 1
        x = E.chart.interior_sample(rng, margin)
        p0 = rng.standard_normal(E.dim)
        d = rng.standard_normal(E.dim)
        d /= np.linalg.norm(d)
        roots, = scan_roots(lambda t, i: E.value(x, p0 + np.multiply.outer(t, d), p_s),
                            strips._SAMPLE_GRID)
        if not roots:
            continue
        p = p0 + roots[0] * d
        _, gp, gps = E.gradient(x, p, p_s)
        if not _degeneracy_gap(E, np.append(p, p_s)[None], np.append(gp, gps)[None])[0] < 0:
            out.append(cf.CharacteristicState(x, 0.0, p, p_s))
    return out


@pytest.mark.parametrize("name,margin", [("free", 1.0), ("oscillator", 55.0),
                                         ("relativistic", 1.0)])
def test_sample_onshell_equals_one_draw_at_a_time(name, margin):
    E = cf.builtin(name).surface
    rngs = np.random.default_rng(11), np.random.default_rng(11)
    got = cf.sample_onshell(E, rngs[0], 30, margin=margin)
    want = _sample_onshell_one_draw_at_a_time(E, rngs[1], 30, margin=margin)
    assert len(got) == len(want) == 30
    for a in ("x", "p"):
        assert np.array_equal([getattr(s, a) for s in got], [getattr(s, a) for s in want])
    assert [s.p_s for s in got] == [s.p_s for s in want]
    assert rngs[0].random() == rngs[1].random()


def test_action_increment(free):
    strip = cf.propagate(free.surface, free.initial_states[0], (0.0, 10.0))
    assert cf.action_increment(strip) == pytest.approx(0.5 * 0.7 ** 2 * 10.0, rel=1e-10)


# ------------------------------------------------------- stacked evaluation

_PARSED = "p_t * p_s + p_x**2 / 2 + (p_x + sin(x) * p_s)**2 / 3 + x**2 * p_s**2 / 2"


def _contract_symbols():
    osc = cf.builtin("oscillator")
    return {
        "free": cf.builtin("free").surface,
        "oscillator": osc.surface,
        "eikonal": cf.builtin("eikonal").surface,
        "relativistic": cf.builtin("relativistic", charge=0.0).surface,
        "relativistic-charged": cf.builtin("relativistic", field_strength=0.3).surface,
        "relativistic-parsed-potential": cf.relativistic_scenario(
            1.0, 1.0, cf.connection_components(["-0.3 * x", "0.1 * t**2"], osc.chart),
            cf.lorentzian_metric(1.0), chart=osc.chart).surface,
        "schrodinger": cf.builtin("schrodinger", V={2: 0.5}).surface,
        "parsed": cf.symbol_surface(_PARSED, osc.chart, 2),
        "no-gradient": cf.SymbolSurface(osc.chart, osc.surface._value, 2),
    }


_SYMBOLS = _contract_symbols()


@pytest.mark.parametrize("name", sorted(_SYMBOLS))
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(1,), (7,), (3, 4), (2, 1, 3)]))
@settings(max_examples=15, deadline=None)
def test_stacked_evaluation_equals_per_point(name, seed, shape):
    E = _SYMBOLS[name]
    rng = np.random.default_rng(seed)
    m = E.dim
    X = rng.uniform(-2.0, 2.0, shape + (m,))
    P = rng.uniform(-2.0, 2.0, shape + (m,))
    PS = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    G = E.value(X, P, PS)
    gx, gp, gps = E.gradient(X, P, PS)
    assert G.shape == gps.shape == shape and gx.shape == gp.shape == shape + (m,)
    for i in np.ndindex(shape):
        assert np.array_equal(G[i], E.value(X[i], P[i], PS[i]))
        one = E.gradient(X[i], P[i], PS[i])
        assert isinstance(one[2], float)
        for got, want in zip((gx[i], gp[i], gps[i]), one):
            assert np.array_equal(got, want)
    # a single base point and p_s against a stack of momenta (the lift's scan)
    G1 = E.value(X[(0,) * len(shape)], P, 1.0)
    for i in np.ndindex(shape):
        assert np.array_equal(G1[i], E.value(X[(0,) * len(shape)], P[i], 1.0))


@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]))
@settings(max_examples=20, deadline=None)
def test_eikonal_norm_is_within_an_ulp_of_hypot(seed, scale):
    # |p| is sqrt(p_x^2 + p_y^2), not np.hypot: at p_s = 0, G is |p|, within
    # 1 ulp of hypot's; dG/dp = p / |p| divides by it, so within 2 ulps
    E = _SYMBOLS["eikonal"]
    rng = np.random.default_rng(seed)
    P = scale * rng.standard_normal((2000, 2))
    X, PS = rng.uniform(-2.0, 2.0, P.shape), rng.uniform(0.5, 2.0, len(P))
    norm = np.hypot(P[:, 0], P[:, 1])
    G = E.value(X, P, np.zeros(len(P)))
    assert np.all(np.abs(G - norm) <= np.spacing(norm))
    gx, gp, gps = E.gradient(X, P, PS)
    unit = P / norm[:, None]
    assert np.all(np.abs(gp - unit) <= 2 * np.abs(np.spacing(unit)))
    assert not gx.any() and np.all(gps == -1.0)
    assert np.array_equal(E.value(X, P, PS), G - PS)


def test_libm_pow_rounds_like_float_power():
    from contactflow.charts import libm_pow

    a = np.random.default_rng(0).uniform(-30.0, 30.0, 5000)
    for k in (2, 3, -1, 1.5):
        base = np.abs(a) if k == 1.5 else a
        assert np.array_equal(libm_pow(base, k), [libm_pow(v, k) for v in base.tolist()])
    # a non-negative integer exponent is the product chain, on floats and arrays
    for k in range(6):
        chain = np.ones_like(a)
        for _ in range(k):
            chain = chain * a   # 1 * a is exact: this is a * a * ... * a
        assert np.array_equal(libm_pow(a, k), chain)
        assert [libm_pow(v, k) for v in a.tolist()] == chain.tolist()


def _step_tries_by_row(T, H, retry, t1, sign):
    """The per-row loop of the step to try next, kept as _step_control's reference."""
    t_new, h = [], []
    for t, step, again in zip(T.tolist(), H.tolist(), retry.tolist()):
        min_step = 10 * abs(math.nextafter(t, sign * math.inf) - t)
        if not again and step < min_step:
            step = min_step
        end = t + step * sign if step >= min_step else math.nan
        end = t1 if sign * (end - t1) > 0 else end
        t_new.append(end)
        h.append(end - t)
    return np.array(t_new), np.array(h)


def _step_factors_by_row(err, retry):
    """The per-row loop of the step-size factor, kept as _step_control's reference."""
    out = []
    for e, again in zip(err.tolist(), retry.tolist()):
        if e < 1:
            f = 10.0 if e == 0 else min(10.0, 0.9 * e ** -0.2)
            out.append(min(1, f) if again else f)
        else:
            out.append(max(0.2, 0.9 * e ** -0.2))
    return np.array(out)


def test_step_control_has_the_per_row_bits():
    # the fused step control against the two per-row loops: the factor after
    # a try, then the next try from the grown or shrunk step
    rng = np.random.default_rng(3)
    n = 20000
    retry = rng.random(n) < 0.3
    err = np.exp(rng.uniform(-40.0, 10.0, n))
    err[::7] = rng.uniform(0.9, 1.1, len(err[::7]))   # around the accept threshold
    err[::97], err[::101], err[::103] = 0.0, np.nan, np.inf
    for sign in (1.0, -1.0):
        T = rng.uniform(-1e3, 1e3, n) * np.exp(rng.uniform(-30.0, 5.0, n))
        T[::11] = 0.0
        h = sign * np.abs(T) * np.exp(rng.uniform(-60.0, 0.0, n))   # many below 10 ulp
        h[::13] = 0.0
        t1 = 500.0 * sign
        H = np.abs(h) * _step_factors_by_row(err, retry)
        want = _step_tries_by_row(T, H, ~(err < 1), t1, sign) + (~(err < 1),)
        assert np.isnan(want[1]).any() and (want[0] == t1).any()
        for a, b in zip(_step_control(T, h, err, retry, t1, sign), want):
            assert np.array_equal(a, b, equal_nan=True)


def _with_touching_face(E, half_width, reach=None):
    """E times the distance to the face x_0 = -half_width, on the box
    |x_i| <= reach (default: half_width, so the face is the lower one of
    axis 0): inside it has E's characteristics at another speed, and on that
    face every covector is a touching zero."""
    reach = reach or half_width
    chart = cf.Chart(E.chart.axis_names, [(-reach, reach)] * E.dim)

    def value(x, p, p_s):
        return (x[..., 0] + half_width) * E.value(x, p, p_s)

    def grad(x, p, p_s):
        c = x[..., 0] + half_width
        gx, gp, gps = E.gradient(x, p, p_s)
        gx = c[..., None] * gx
        gx[..., 0] += E.value(x, p, p_s)
        return gx, c[..., None] * gp, c * gps

    return cf.SymbolSurface(chart, value, E.degree, grad=grad)


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
@pytest.mark.parametrize("name,tau_end", [("eikonal", 1.0), ("oscillator", 0.3),
                                          ("relativistic-charged", 1.0)])
def test_batch_equals_its_strips_bit_for_bit(name, tau_end, method):
    E = _with_touching_face(_SYMBOLS[name], 2.0)
    integ = cf.IntegratorConfig(method=method, dt=0.01)
    states = cf.sample_onshell(E, np.random.default_rng(1), 5, margin=0.5)
    touching = cf.CharacteristicState([-2.0] + [0.0] * (E.dim - 1), 0.0, [0.3] * E.dim, 1.0)
    inits = states[:2] + [touching] + states[2:]
    items = cf.batch_propagate(E, inits, (0.0, tau_end), integ)
    assert isinstance(items[2].error, cf.DegeneracyError)
    with pytest.raises(cf.DegeneracyError):
        cf.propagate(E, touching, (0.0, tau_end), integ)
    exits = []
    for init, item in zip(states, items[:2] + items[3:]):
        one = cf.propagate(E, init, (0.0, tau_end), integ)
        for key in ("taus", "x", "s", "p", "p_s", "g_residual", "boundary_exit"):
            assert np.array_equal(getattr(item.strip, key), getattr(one, key)), key
        exits.append(one.boundary_exit)
    assert any(exits) and not all(exits)   # a strip leaves the chart mid-span


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
@pytest.mark.parametrize("case", ["grid-ends-before-exits", "empty-grid", "zero-span",
                                  "dense-grid"])
def test_ragged_samples_stack_like_their_rows(case, method):
    # strips reaching t1 next to strips that leave the chart and one that
    # raises at its start, at speeds that differ by row, so the rows of a
    # step sample different grid columns (on the dense grid, a step's block
    # of columns runs past the grid for some rows): per strip, the stack
    # keeps the samples, their count and the stop of that strip run alone
    E = _with_touching_face(_SYMBOLS["eikonal"], 2.0)
    integ = cf.IntegratorConfig(method=method, dt=0.01)
    n = 12 if case == "dense-grid" else 6
    states = cf.sample_onshell(E, np.random.default_rng(1), n, margin=0.5)
    touching = cf.CharacteristicState([-2.0, 0.0], 0.0, [0.3, 0.3], 1.0)
    inits = states[:3] + [touching] + states[3:]
    grid = np.linspace(0.0, 0.45, 10)   # every exit is past tau = 0.5
    span, tau_eval = {"grid-ends-before-exits": ((0.0, 2.5), grid),
                      "empty-grid": ((0.0, 2.5), []), "zero-span": ((0.0, 0.0), []),
                      "dense-grid": ((0.0, 2.5), np.linspace(0.0, 2.5, 201))}[case]
    # the integrator itself
    Y0 = np.array([_pack(s) for s in inits])
    stops, samples, counts = strips._integrate(E, Y0, *span, tau_eval, integ)
    parts = np.split(samples, np.cumsum(counts)[:-1], axis=1)
    for r, (stop, part) in enumerate(zip(stops, parts)):
        (alone,), row, n = strips._integrate(E, Y0[r:r + 1], *span, tau_eval, integ)
        assert str(stop) == str(alone) and type(stop) is type(alone)
        assert list(n) == [counts[r]] and np.array_equal(part, row)
    assert isinstance(stops[3], cf.DegeneracyError) and counts[3] == 0
    # and the strips the public calls return
    items = cf.batch_propagate(E, inits, span, integ, tau_eval)
    assert isinstance(items[3].error, cf.DegeneracyError)
    strips_alone = []
    for init, item in zip(states, items[:3] + items[4:]):
        one = cf.propagate(E, init, span, integ, tau_eval)
        for key in ("taus", "x", "s", "p", "p_s", "g_residual", "boundary_exit"):
            assert np.array_equal(getattr(item.strip, key), getattr(one, key)), key
        strips_alone.append(one)
    exits = [one.boundary_exit for one in strips_alone]
    if case == "zero-span":
        assert not any(exits) and all(list(one.taus) == [0.0] for one in strips_alone)
        return
    assert any(exits) and not all(exits)
    if case == "dense-grid":
        return
    for one in strips_alone:   # the grid, then the exit point, past the grid
        if one.boundary_exit:
            assert list(one.taus[:-1]) == list(tau_eval) and one.taus[-1] > 0.5
            assert abs(E.chart.boundary_clearance(one.x[-1])) < 1e-7
        else:   # with no grid point in its run, a strip is its start point
            assert list(one.taus) == (list(tau_eval) or [0.0])


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("with_event", [False, True])
@given(seed=st.integers(0, 2 ** 32 - 1), n_tau=st.integers(0, 60))
@example(seed=1, n_tau=0)   # with no grid, fixed mode samples its steps
@settings(max_examples=5, deadline=None)
def test_sample_blocks_give_every_row_its_solo_bits(method, backward, with_event, seed, n_tau):
    # rows at speeds from 0 to 4, so a step's rows start on different grid
    # columns; a strip in the middle of the stack that leaves through the
    # chart boundary first, so the working rows are not contiguous; an event
    # that stops some rows within a step; either tau direction, and fixed
    # mode with no grid: each row keeps the bits, stop and count of its solo run
    E = _with_touching_face(_SYMBOLS["eikonal"], 2.0)
    sign = -1.0 if backward else 1.0
    states = cf.sample_onshell(E, np.random.default_rng(seed), 6, margin=0.5)
    Y0 = np.array([_pack(s) for s in states])
    Y0[3] = [1.0, 1.95, 0.0, 0.6 * sign, 0.8 * sign, 1.0]   # on shell, heading out at x_1 = 2
    t1 = 1.5 * sign
    tau_eval = None if method == "fixed" and not n_tau else np.linspace(0.0, t1, n_tau)
    integ = cf.IntegratorConfig(method=method, dt=0.02)
    events = (lambda T, Y: Y[:, 0] - 0.3,) if with_event else ()
    stops, samples, counts = strips._integrate(E, Y0, 0.0, t1, tau_eval, integ, events)
    assert stops[3] == "boundary"
    parts = np.split(samples, np.cumsum(counts)[:-1], axis=1)
    for r, (stop, part) in enumerate(zip(stops, parts)):
        (alone,), row, n = strips._integrate(E, Y0[r:r + 1], 0.0, t1, tau_eval, integ, events)
        assert str(stop) == str(alone) and type(stop) is type(alone)
        assert list(n) == [counts[r]] and np.array_equal(part, row)


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
def test_a_stacked_event_stops_each_row_where_it_stops_alone(method):
    # unit-speed rays from the origin cross y = 0.2 at tau = 0.2 / sin(angle),
    # and the one heading down never does; the event sees the working rows
    # as one stack, in the step and in the root polish alike
    E = cf.builtin("eikonal").surface
    Y0 = np.array([_pack(cf.CharacteristicState([0.0, 0.0], 0.0, [math.cos(a), math.sin(a)], 1.0))
                   for a in (0.3, 1.2, -0.5)])
    calls = []

    def event(T, Y):
        calls.append((T.shape, Y.shape))
        return Y[:, 1] - 0.2

    integ, tau_eval = cf.IntegratorConfig(method=method, dt=0.01), np.linspace(0.0, 1.0, 11)
    stops, samples, counts = strips._integrate(E, Y0, 0.0, 1.0, tau_eval, integ, events=(event,))
    assert stops == ["event", "event", "span_end"]
    assert calls[0] == ((3,), (3, 6)) and all(y == t + (6,) for t, y in calls)
    parts = np.split(samples, np.cumsum(counts)[:-1], axis=1)
    for r, part in enumerate(parts):
        (alone,), row, n = strips._integrate(E, Y0[r:r + 1], 0.0, 1.0, tau_eval, integ,
                                             events=(event,))
        assert alone == stops[r] and list(n) == [counts[r]] and np.array_equal(part, row)
    for r, a in enumerate((0.3, 1.2)):
        assert parts[r][0, -1] == pytest.approx(0.2 / math.sin(a), abs=1e-9)
        assert parts[r][2, -1] == pytest.approx(0.2, abs=1e-12)


_ROOT_SYMBOL = "p_t*p_s + 0.5*p_x**2 + 0.1*(x + 1)**1.5*p_s**2"   # NaN for x < -1


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
def test_a_symbol_that_turns_nan_ends_each_strip_as_it_ends_alone(method):
    # (x + 1)**1.5 is NaN past x = -1 on a stack and at one point alike: a
    # NaN step is rejected (adaptive) or ends the strip (fixed) at its last
    # sample, a NaN start is off shell, and the stack ends each strip as it
    # ends alone
    E = cf.symbol_surface(_ROOT_SYMBOL, cf.Chart(["t", "x"], [(-5, 5), (-5, 5)]), 2)
    integ = cf.IntegratorConfig(method=method, dt=0.01, n_out=21)
    inits = [cf.CharacteristicState([0.0, x], 0.0, [-0.5 * px * px - 0.1 * (x + 1) ** 1.5, px],
                                    1.0)
             for x, px in [(0.0, -3.0), (0.5, 1.0), (-0.5, -2.5), (0.0, 0.5), (2.0, -4.0),
                           (-0.8, 0.3), (1.0, -1.0), (0.2, -3.5)]]
    inits.insert(3, cf.CharacteristicState([0.0, -2.0], 0.0, [-0.5, 1.0], 1.0))   # G = NaN
    Y0 = np.array([_pack(s) for s in inits])
    tau_eval = None if method == "fixed" else np.linspace(0.0, 1.0, 21)
    stops, samples, counts = strips._integrate(E, Y0, 0.0, 1.0, tau_eval, integ)
    parts = np.split(samples, np.cumsum(counts)[:-1], axis=1)
    for r, (stop, part) in enumerate(zip(stops, parts)):
        (alone,), row, n = strips._integrate(E, Y0[r:r + 1], 0.0, 1.0, tau_eval, integ)
        assert str(stop) == str(alone) and type(stop) is type(alone)
        assert list(n) == [counts[r]] and np.array_equal(part, row)
    assert str(stops[3]) == "initial state is off-shell: G = nan"
    crossed = [r for r, stop in enumerate(stops) if isinstance(stop, cf.DegeneracyError)]
    assert len(crossed) >= 3 and len(crossed) < len(inits) - 2
    for r in crossed:   # stopped short of x = -1, where the last sample lies
        assert -1.0 < stops[r].state.x[1] < inits[r].x[1] and np.isfinite(stops[r].state.p).all()
    # and the public calls
    items = cf.batch_propagate(E, inits, (0.0, 1.0), integ)
    for init, stop, item in zip(inits, stops, items):
        if isinstance(stop, Exception):
            with pytest.raises(type(stop), match=re.escape(str(stop))):
                cf.propagate(E, init, (0.0, 1.0), integ)
            assert type(item.error) is type(stop) and str(item.error) == str(stop)
            continue
        one = cf.propagate(E, init, (0.0, 1.0), integ)
        for key in ("taus", "x", "s", "p", "p_s", "g_residual", "boundary_exit"):
            assert np.array_equal(getattr(item.strip, key), getattr(one, key)), key
        assert np.isfinite(one.x).all() and one.taus[-1] == 1.0


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
def test_touching_point_error_carries_where_the_strip_stopped(method):
    # the touching face x_0 = -1 lies inside the chart; flow_to_event samples
    # no grid, so its error carries the touching point it names, and
    # propagate its last sample (with no grid, in fixed mode: the same point)
    E = _with_touching_face(_SYMBOLS["eikonal"], 1.0, reach=3.0)
    st0 = cf.sample_onshell(E, np.random.default_rng(0), 1, margin=2.5)[0]
    st0 = cf.CharacteristicState(st0.x, 0.0, -st0.p, 1.0)   # heading for the face
    integ = cf.IntegratorConfig(method=method, dt=0.01)
    with pytest.raises(cf.DegeneracyError) as err:
        strips.flow_to_event(E, st0, 50.0, lambda t, y: y[:, 0] - 2.9, integ)
    state = err.value.state
    assert f"near tau = {state.tau:.6g}" in str(err.value) and state.tau > 1.0
    assert state.x[0] == pytest.approx(-1.0, abs=1e-6)
    with pytest.raises(cf.DegeneracyError) as err:
        cf.propagate(E, st0, (0.0, 50.0), integ)
    grid = np.linspace(0.0, 50.0, integ.n_out)
    last = state.tau if method == "fixed" else grid[grid < state.tau][-1]
    assert err.value.state.tau == last


def test_adaptive_integration_needs_a_grid(free):
    Y0 = _pack(free.initial_states[0])[None]
    with pytest.raises(cf.ContractViolation, match="tau_eval grid"):
        strips._integrate(free.surface, Y0, 0.0, 1.0, None, cf.IntegratorConfig())


# ------------------------------------- skipped projection and the p_s dense row

def _project_every_run(E, Y0, t0, t1, tau_eval, integ):
    """_propagate_stack as it was before it skipped the projection: the
    projection and the bound check run on every stack."""
    stops, run, counts = strips._integrate(E, Y0, t0, t1, tau_eval, integ)
    m, tol = E.dim, integ.tol_onshell
    taus, X, S, P, PS = run[0], run[1:m + 1].T, run[m + 1], run[m + 2:-1].T, run[-1]
    P0, G_raw = P, E.value(X, P, PS)
    P, G = _project_strip(E, X, P, PS, G_raw, tol)
    dP = P - P0
    dP = np.sqrt(dot(dP, dP))
    off = np.flatnonzero(~(np.abs(G) <= tol))
    if off.size:
        bound = tol * np.maximum(_onshell_scale(E, P[off], PS[off]), 1.0)
        rows = np.searchsorted(np.cumsum(counts), off, side="right")
        for k in np.flatnonzero(~(np.abs(G[off]) <= bound))[::-1]:
            stops[rows[k]] = cf.DegeneracyError("projection failed")
        failed = np.array([isinstance(stop, Exception) for stop in stops])
        counts, keep = np.where(failed, 0, counts), np.repeat(~failed, counts)
        taus, X, S, P, PS, G, G_raw, dP = (a[keep] for a in (taus, X, S, P, PS, G, G_raw, dP))
    return stops, counts, (taus, X, S, P, PS, G, G_raw, dP)


def _nan_past(E, x1):
    """E with G = NaN where x_1 > x1 (its gradient unchanged)."""
    def value(x, p, p_s):
        return np.where(x[..., 1] > x1, np.nan, E.value(x, p, p_s))
    return cf.SymbolSurface(E.chart, value, E.degree, grad=E.gradient)


@pytest.mark.parametrize("case", ["on-shell", "some-off-shell", "nan-sample"])
def test_a_stack_on_shell_skips_the_projection_with_the_same_bits(case, monkeypatch):
    # the projection, P - P0 and its norm ran on every stack; one whose
    # samples are all within tol / 2 of the shell (no NaN) now skips them
    osc = cf.builtin("oscillator").surface
    E, integ, t1 = osc, cf.IntegratorConfig(), 6.0
    if case == "some-off-shell":   # G drifts past tol / 2 late in the strips
        integ = cf.IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9)
    elif case == "nan-sample":
        E = _nan_past(osc, 0.55)   # two of the strips swing past x = 0.55
    inits = [cf.CharacteristicState([0.0, x], 0.0, [-0.5 * px * px - 0.5 * x * x, px], 1.0)
             for x, px in [(0.0, 1.0), (0.3, -0.5), (-0.2, 0.4), (0.5, 0.2)]]
    Y0 = np.array([_pack(s) for s in inits])
    tau_eval = np.linspace(0.0, t1, 41)
    want_stops, want_counts, want = _project_every_run(E, Y0, 0.0, t1, tau_eval, integ)
    projected = []
    monkeypatch.setattr(strips, "_project_strip",
                        lambda *a: projected.append(1) or _project_strip(*a))
    stops, counts, got = strips._propagate_stack(E, Y0, (0.0, t1), integ, tau_eval)
    assert bool(projected) == (case != "on-shell")
    if case == "on-shell":   # G is G_raw's memory: a write into G fails
        assert np.shares_memory(got[5], got[6]) and not got[5].flags.writeable
    g_raw = np.abs(want[6])
    if case == "some-off-shell":
        assert (g_raw > 0.5 * integ.tol_onshell).any() and (g_raw < 1e-12).any()
        assert all(isinstance(stop, str) for stop in stops)
    if case == "nan-sample":
        assert sum(isinstance(stop, cf.DegeneracyError) for stop in stops) == 2
    assert [type(s) for s in stops] == [type(s) for s in want_stops]
    assert np.array_equal(counts, want_counts)
    for name, a, b in zip(("taus", "x", "s", "p", "p_s", "g", "g_raw", "p_correction"),
                          got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _interpolate_every_row(K, y_old, t_old, h, taus, fixed):
    """_interpolate as it was before it wrote the p_s row directly: the
    weighted sums run over every component."""
    Ks = np.ascontiguousarray(K.transpose(0, 2, 1))
    th = (taus - t_old) / h
    sq = th * th
    cu = sq * th
    if fixed:
        c23 = 2.0 * cu / 3.0
        M, W = Ks, (th - 1.5 * sq + c23, sq - c23, sq - c23, -0.5 * sq + c23)
    else:
        M, W = lead_dot(strips._P45[:, :, None, None], Ks), (th, sq, cu, cu * th)
    out = lead_dot(W, M[:, :, None])
    out *= h
    out += y_old.T[:, None]
    return out


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
@pytest.mark.parametrize("h", [0.05, -0.05], ids=["forward", "backward"])
def test_the_p_s_row_of_the_dense_output_has_the_summed_bits(method, h):
    # p_s is 1, -1, 0.0 and -0.0 (a forward step turns -0.0 into 0.0, as the
    # sum did); the other rows and the written-in-place output agree too
    E, fixed = cf.builtin("oscillator").surface, method == "fixed"
    ps = np.array([1.0, -1.0, 0.0, -0.0, 1.0, -0.0])
    rng = np.random.default_rng(7)
    Y = np.column_stack([rng.uniform(-1.0, 1.0, (6, 3)), rng.uniform(0.5, 1.5, (6, 2)), ps])
    F = strips._rhs(E, Y)
    H, T = np.full(len(Y), h), rng.uniform(-1.0, 1.0, len(Y))
    K = strips._rk4_step(E, Y, F, h)[1] if fixed else strips._rk45_step(E, Y, F, H)[1]
    assert not K[..., -1].any() and not np.signbit(K[..., -1]).any()
    taus = T[None, :] + H * np.linspace(0.0, 1.0, 11)[:, None]   # each row's step
    want = _interpolate_every_row(K, Y, T, H, taus, fixed)
    got = strips._interpolate(K, Y, T, H, taus, fixed)
    into = np.full_like(want, np.nan)
    strips._interpolate(K, Y, T, H, taus, fixed, out=into)
    assert got.tobytes() == want.tobytes() and into.tobytes() == want.tobytes()
    assert np.signbit(got[-1]).tolist() == [[bool(np.signbit(v)) and (v != 0.0 or h < 0)
                                             for v in ps]] * 11
    # one row at a time, as an event's root search evaluates it
    for r in range(len(Y)):
        one = strips._interpolate(K[:, [r]], Y[[r]], T[[r]], H[[r]], taus[:, [r]], fixed)
        assert one.tobytes() == want[:, :, [r]].tobytes()


@pytest.mark.parametrize("method", ["adaptive", "fixed"])
@pytest.mark.parametrize("h", [0.05, -0.05], ids=["forward", "backward"])
def test_a_step_keeps_the_sign_rule_of_p_s(method, h):
    # y_new's p_s is p_s + 0.0 h: 1, -1 and 0.0 stay, and -0.0 turns 0.0 on
    # a forward step, whatever way a step forms it from its stage sums
    E, fixed = cf.builtin("oscillator").surface, method == "fixed"
    ps = np.array([1.0, -1.0, 0.0, -0.0, 1.0, -0.0])
    rng = np.random.default_rng(11)
    Y = np.column_stack([rng.uniform(-1.0, 1.0, (6, 3)), rng.uniform(0.5, 1.5, (6, 2)), ps])
    F = strips._rhs(E, Y)
    y = (strips._rk4_step(E, Y, F, h) if fixed
         else strips._rk45_step(E, Y, F, np.full(len(Y), h)))[0]
    want = np.array([1.0, -1.0, 0.0, 0.0 if h > 0 else -0.0, 1.0, 0.0 if h > 0 else -0.0])
    assert y[:, -1].tobytes() == want.tobytes()


# ---------------------------------------------------- infinite symbol values

def test_an_overflowing_start_is_off_shell(free):
    # G and the on-shell scale were both inf, and inf <= tol * inf passed the
    # start check: the strip ran and brentq raised on a NaN event value
    # (pytest's filter makes a numpy overflow warning an error here)
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.245, 1e308], 1.0)
    with pytest.raises(cf.ContractViolation, match="initial state is off-shell: G = inf"):
        cf.propagate(free.surface, st0, (0.0, 1.0))
    item, = cf.batch_propagate(free.surface, [st0], (0.0, 1.0))
    assert isinstance(item.error, cf.ContractViolation)


def test_a_sample_left_infinite_by_the_projection_ends_its_strip():
    # |(p, p_s)| ~ 1e160 overflows the on-shell scale, so past x_0 = 0.5,
    # where G is inf and dG/dp is 0 (the projection cannot move p), the
    # bound was inf too and the strip kept its samples with G = inf
    def value(x, p, p_s):
        return np.hypot(p[..., 0], p[..., 1]) - p_s + np.where(x[..., 0] > 0.5, np.inf, 0.0)

    def grad(x, p, p_s):
        inside = (np.asarray(x)[..., 0] <= 0.5)[..., None]
        return (np.zeros(np.shape(x)), inside * p / np.hypot(p[..., 0], p[..., 1])[..., None],
                -1.0)

    E = cf.SymbolSurface(cf.builtin("eikonal").chart, value, 1, grad=grad, name="big")
    a = 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [a, a], float(np.hypot(a, a)))
        with pytest.raises(cf.DegeneracyError, match=r"projection failed: \|G\| = inf exceeds "
                                                     r"the on-shell bound inf at tau = 0\.7"):
            cf.propagate(E, st0, (0.0, 1.0), tau_eval=np.linspace(0.0, 1.0, 21))
        short = cf.propagate(E, st0, (0.0, 0.7), tau_eval=np.linspace(0.0, 0.7, 15))
    assert np.isfinite(short.g_residual).all() and np.isfinite(short.p).all()
