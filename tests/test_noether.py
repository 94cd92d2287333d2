"""Symmetry fields, conserved quantities, and their failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactflow as cf


def test_free_translations_are_symmetries(free):
    E = free.surface
    for comps in ([1.0, 0.0], [0.0, 1.0]):      # time and space translations
        sym = cf.SymmetryField.build(E.chart, comps)
        assert cf.check_symmetry(E, sym) < 1e-10


def test_free_momentum_conserved_along_strip(free):
    sym = cf.SymmetryField.build(free.chart, [0.0, 1.0])   # Q = p_x
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.245, 0.7], 1.0)
    strip = cf.propagate(free.surface, st0, (0.0, 3.0))
    assert cf.conservation_drift(free.surface, sym, strip) < 1e-12
    assert cf.conservation_series(sym, strip)[0] == pytest.approx(0.7)


def test_eikonal_rotation_symmetry(eikonal):
    chart = eikonal.chart
    rot = cf.SymmetryField.build(chart, [cf.PolyField(chart, {(0, 1): -1.0}),
                                         cf.PolyField(chart, {(1, 0): 1.0})])
    assert cf.check_symmetry(eikonal.surface, rot) < 1e-8
    st0 = cf.CharacteristicState([1.0, 0.0], 0.0, [0.6, 0.8], 1.0)
    strip = cf.propagate(eikonal.surface, st0, (0.0, 2.0))
    assert cf.conservation_drift(eikonal.surface, rot, strip) < 1e-9


def test_oscillator_translation_broken_with_known_drift(oscillator):
    # v = d/dx is not a symmetry of the oscillator: dQ/dtau = -x p_s^2, so
    # along x = sin(tau), p_s = 1 the drift over [0, pi] is
    # max |cos(tau) - 1| = 2, equal to the impulse integral of the force
    sym = cf.SymmetryField.build(oscillator.chart, [0.0, 1.0])
    assert cf.check_symmetry(oscillator.surface, sym, n_samples=25, margin=55.0) > 1e-3

    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.5, 1.0], 1.0)
    strip = cf.propagate(oscillator.surface, st0, (0.0, np.pi),
                         cf.IntegratorConfig(n_out=401))
    drift = cf.conservation_drift(oscillator.surface, sym, strip)
    force_impulse = np.trapezoid(np.abs(strip.x[:, 1]), strip.taus)
    assert drift == pytest.approx(2.0, abs=1e-6)
    assert drift == pytest.approx(force_impulse, abs=1e-4)


def test_constant_field_translation_needs_fiber_completion():
    # charged particle in F = E0 dt^dx: plain x-translation is broken, but
    # adding the fiber component f = e*E0*t restores dQ/dtau = 0 because the
    # potential A_t = -E0 x shifts by an exact differential under translation
    e, E0 = 1.0, 0.5
    chart = cf.Chart(["t", "x"], [(-50.0, 50.0), (-50.0, 50.0)])
    sc = cf.relativistic_scenario(1.0, e, cf.constant_field_potential(chart, E0),
                                  cf.lorentzian_metric(1.0), chart=chart)
    bare = cf.SymmetryField.build(chart, [0.0, 1.0])
    assert cf.check_symmetry(sc.surface, bare, n_samples=25, margin=45.0) > 1e-3

    completed = cf.SymmetryField.build(chart, [0.0, 1.0],
                                       f=cf.PolyField(chart, {(1, 0): e * E0}))
    assert cf.check_symmetry(sc.surface, completed, n_samples=25, margin=45.0) < 1e-9

    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [1.0, 0.0], 1.0)
    strip = cf.propagate(sc.surface, st0, (0.0, 1.5))
    assert cf.conservation_drift(sc.surface, completed, strip) < 1e-8


def test_gauge_shifted_symmetry_preserves_q(free):
    chart = free.chart
    sym = cf.SymmetryField.build(chart, [0.5, 1.0], f=cf.PolyField(chart, {(1, 0): 0.2}))
    chi = cf.PolyField(chart, {(1, 1): 0.7, (0, 2): -0.3})
    st0 = cf.CharacteristicState([0.1, 0.2], 0.0, [-0.245, 0.7], 1.0)
    strip = cf.propagate(free.surface, st0, (0.0, 1.0))
    gauged_strip = cf.strip_in_gauge(strip, chi)
    gauged_sym = cf.gauge_shifted_symmetry(sym, chi)
    q0 = cf.conservation_series(sym, strip)
    q1 = cf.conservation_series(gauged_sym, gauged_strip)
    assert np.max(np.abs(q1 - q0)) < 1e-10


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7),
       scenario=st.sampled_from(["oscillator", "relativistic"]))
@settings(max_examples=40, deadline=None)
def test_stacked_noether_layer_equals_its_rows(seed, n, scenario):
    """On a stack of points, the residual, Q and the gauge-shifted f and its
    gradient have the bits each row gets alone, for random polynomial
    symmetries (one component a ScalarField) and gauge functions."""
    E = cf.builtin(scenario).surface
    chart, rng = E.chart, np.random.default_rng(seed)
    v1, v2, f, chi = (cf.random_polynomial(chart, rng) for _ in range(4))
    sym = cf.SymmetryField(cf.VectorField(chart, [v1, cf.ScalarField(chart, v2.value, v2.gradient)]), f)
    shifted = cf.gauge_shifted_symmetry(sym, chi).f
    x, p = rng.uniform(-3.0, 3.0, (2, n, 2))
    p_s = rng.uniform(0.5, 2.0, n)
    stacked = [cf.symmetry_residual(E, sym, x, p, p_s), shifted.value(x), shifted.gradient(x),
               cf.conservation_series(sym, cf.Strip(E, np.arange(n), x, np.zeros(n), p, p_s,
                                                    *np.zeros((3, n))))]
    for r in range(n):
        v = sym.v.value(x[r])   # Q = <p, v> + p_s f, added in index order
        rows = [cf.symmetry_residual(E, sym, x[r], p[r], p_s[r]), shifted.value(x[r]),
                shifted.gradient(x[r]), p[r, 0] * v[0] + p[r, 1] * v[1] + p_s[r] * f.value(x[r])]
        for got, want in zip(stacked, rows):
            assert np.array_equal(got[r], want)


def test_vector_field_component_count_checked(free):
    with pytest.raises(cf.ContractViolation):
        cf.VectorField(free.chart, [cf.PolyField.from_const(free.chart, 1.0)])


def test_conservation_drift_rejects_empty_strip(free):
    st0 = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.245, 0.7], 1.0)
    strip = cf.propagate(free.surface, st0, (0.0, 0.0))
    sym = cf.SymmetryField.build(free.chart, [0.0, 1.0])
    # a zero-span strip still has one sample; drift over it is zero
    assert cf.conservation_drift(free.surface, sym, strip) == 0.0
