import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactflow as cf
from contactflow.strips import Fiber, _onshell_scale, _pack, _project_strip


def test_state_validation():
    with pytest.raises(cf.ContractViolation):
        cf.CharacteristicState([0.0], 0.0, [0.0, 0.0], 1.0)  # shape mismatch
    with pytest.raises(cf.ContractViolation):
        cf.CharacteristicState([0.0, 0.0], 0.0, [0.0, 0.0], 0.0)  # zero covector
    st0 = cf.CharacteristicState([1.0, 2.0], 0.5, [0.3, -0.4], 1.0)
    assert np.allclose(st0.covector(), [0.3, -0.4, 1.0])
    with pytest.raises(cf.ContractViolation):
        st0.scaled(-1.0)
    # normalization gauge: p_s -> 1 when nonzero, unit covector otherwise
    assert st0.normalized().p_s == pytest.approx(1.0)
    null = cf.CharacteristicState([0.0, 0.0], 0.0, [3.0, 4.0], 0.0)
    assert np.linalg.norm(null.normalized().covector()) == pytest.approx(1.0)


def test_fiber_circle_reduce():
    fib = Fiber("circle", period=2.0)
    assert fib.reduce(5.3) == pytest.approx(1.3)
    with pytest.raises(cf.ContractViolation):
        Fiber("torus")


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


def test_degenerate_state_rejected_by_field():
    # G = p_x^2 has vanishing momentum gradient on its own zero set
    ch = cf.Chart(["x", "y"], [(-10, 10), (-10, 10)])
    E = cf.SymbolSurface(ch, lambda x, p, p_s: p[..., 0] ** 2, 2)
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [0.0, 1.0], 1.0)
    assert E.is_degenerate(st0.x, st0.p, st0.p_s)
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
    P, G = _project_strip(free.surface, y[None, :2], y[None, 3:5], y[None, 5], 1e-10)
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
    assert E.euler_residual([0.3, 0.1], p, 1.0) < 1e-9


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


def test_libm_pow_rounds_like_float_power():
    from contactflow.charts import libm_pow

    a = np.random.default_rng(0).uniform(-30.0, 30.0, 5000)
    for k in (2, 3, -1, 1.5):
        base = np.abs(a) if k == 1.5 else a
        assert np.array_equal(libm_pow(base, k), [v ** k for v in base.tolist()])
