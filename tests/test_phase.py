"""Reduction to the phase cylinder and contact holonomy."""

import numpy as np
import pytest

import contactflow as cf
from contactflow import phase, strips


def _section():
    return cf.SectionSpec("t", 0.0)


# ------------------------------------------------------------------- to_phase

def test_to_phase_free_particle(free):
    # straight lines x(t) = x0 + v t with v = p_x / p_s; reduction to t = 0
    # gives (x0, v)
    st = cf.CharacteristicState([2.0, 3.0], 0.0, [-0.125, 0.5], 1.0)
    pt = cf.to_phase(free.surface, st, _section())
    assert pt.axis_names == ("x",)
    assert pt.branch == "particle"
    x0 = 3.0 - 0.5 * 2.0   # walk back along slope v = 0.5 from t = 2
    assert np.allclose(pt.coords, [x0, 0.5], atol=1e-9)


def test_to_phase_is_well_defined_along_characteristic(free):
    # any state on the same characteristic maps to the same phase point,
    # including states with different s and rescaled momenta
    st = cf.CharacteristicState([0.0, 1.0], 0.0, [-0.125, 0.5], 1.0)
    strip = cf.propagate(free.surface, st, (0.0, 4.0))
    base = cf.to_phase(free.surface, st, _section())
    for i in (50, 120, 200):
        other = cf.CharacteristicState(strip.x[i], strip.s[i], strip.p[i], strip.p_s[i],
                                       strip.taus[i])
        pt = cf.to_phase(free.surface, other, _section())
        assert base.distance(pt) < 1e-8
    scaled = cf.CharacteristicState([0.0, 1.0], 5.0, [-0.25, 1.0], 2.0)
    assert base.distance(cf.to_phase(free.surface, scaled, _section())) < 1e-10


def test_to_phase_antiparticle_branch(free):
    st = cf.CharacteristicState([1.0, 0.0], 0.0, [0.125, 0.5], -1.0)
    pt = cf.to_phase(free.surface, st, _section())
    assert pt.branch == "antiparticle"
    assert pt.coords[1] == pytest.approx(-0.5)   # p_x / p_s flips sign


@pytest.mark.parametrize("x,p_t,section", [
    ([0.0, 0.0], -0.245 + 1e-7, 0.0),   # |G| = 1e-7: off shell for propagate too
    ([70.0, 7.0], -0.245, 65.0),        # t = 70 lies outside the +-60 chart
], ids=["off-shell", "outside-chart"])
def test_to_phase_rejects_start_that_propagate_rejects(free, x, p_t, section):
    st = cf.CharacteristicState(x, 0.0, [p_t, 0.7], 1.0)
    with pytest.raises(cf.ContractViolation):
        cf.propagate(free.surface, st, (0.0, 1.0))
    with pytest.raises(cf.ContractViolation):
        cf.to_phase(free.surface, st, cf.SectionSpec("t", section))


def test_to_phase_no_crossing_raises(oscillator, monkeypatch):
    # oscillator characteristics advance t at unit rate: a section far outside
    # the reachable window is never hit within the budget
    monkeypatch.setattr(phase, "SECTION_TAU_BUDGET", 5.0)
    st = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.5, 1.0], 1.0)
    with pytest.raises(cf.CrossingError, match=r"within \|tau\| <= 5.0"):
        cf.to_phase(oscillator.surface, st, cf.SectionSpec("t", 55.0))


def test_to_phase_flows_back_no_further_than_the_forward_crossing(oscillator, monkeypatch):
    # the default start meets {t = 3} at tau = 3 going forward; the backward
    # flow stops at tau = -3 instead of running the whole budget of 50
    E, st = oscillator.surface, oscillator.initial_states[0]
    section = cf.SectionSpec("t", 3.0)
    ahead = strips.flow_to_event(E, st, 50.0, lambda tau, y: y[:, 0] - 3.0,
                                 phase.SECTION_INTEGRATOR)
    points = []
    gradient = strips.SymbolSurface.gradient

    def counted(self, x, p, p_s):
        points.append(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(p)[:-1],
                                                  np.shape(p_s))))
        return gradient(self, x, p, p_s)

    monkeypatch.setattr(strips.SymbolSurface, "gradient", counted)
    pt = cf.to_phase(E, st, section)
    assert sum(points) <= 2500
    assert pt.branch == "particle"
    assert pt.coords.tolist() == [ahead.x[1], ahead.p[1] / ahead.p_s]
    # a section behind the start is still found by the backward flow
    pt = cf.to_phase(E, st, cf.SectionSpec("t", -2.0))
    assert np.allclose(pt.coords, [np.sin(-2.0), np.cos(-2.0)], rtol=0.0, atol=1e-8)


def test_to_phase_flows_toward_a_section_behind_the_start_first(oscillator, monkeypatch):
    # dt/dtau > 0 at the default start, so {t = -2} lies behind it: the
    # backward flow meets it at tau = -2, and the forward flow stops at
    # tau = 2 instead of running the whole budget of 50 without a crossing
    E, st = oscillator.surface, oscillator.initial_states[0]
    full = [strips.flow_to_event(E, st, tau, lambda tau, y: y[:, 0] + 2.0, phase.SECTION_INTEGRATOR)
            for tau in (50.0, -50.0)]
    assert full[0] is None
    behind = full[1]
    points = []
    gradient = strips.SymbolSurface.gradient

    def counted(self, x, p, p_s):
        points.append(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(p)[:-1],
                                                  np.shape(p_s))))
        return gradient(self, x, p, p_s)

    monkeypatch.setattr(strips.SymbolSurface, "gradient", counted)
    pt = cf.to_phase(E, st, cf.SectionSpec("t", -2.0))
    assert sum(points) <= 2500
    assert pt.branch == "particle"
    assert pt.coords.tolist() == [behind.x[1], behind.p[1] / behind.p_s]


def test_to_phase_tells_particle_from_antiparticle(free):
    particle = cf.CharacteristicState([1.0, 0.0], 0.0, [-0.125, 0.5], 1.0)
    antiparticle = cf.CharacteristicState([1.0, 0.0], 0.0, [0.125, 0.5], -1.0)
    assert cf.to_phase(free.surface, particle, _section()).branch == "particle"
    assert cf.to_phase(free.surface, antiparticle, _section()).branch == "antiparticle"


# ------------------------------------------------------------------- holonomy

def test_holonomy_equals_symplectic_area():
    assert cf.holonomy(cf.square_loop((0.3, -0.7), 0.2)) == pytest.approx(0.04, abs=1e-15)


def test_holonomy_triangle_shoelace():
    # triangle (0,0), (1,0), (0,1) in (x, q): signed area of dq ^ dx
    loop = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert cf.holonomy(loop) == pytest.approx(-0.5, abs=1e-15)


def test_holonomy_orientation_and_degenerate_loop():
    loop = cf.square_loop((0.0, 0.0), 1.0)
    assert cf.holonomy(loop) == pytest.approx(1.0)
    assert cf.holonomy(loop[::-1]) == pytest.approx(-1.0)
    flat = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]   # zero enclosed area
    assert cf.holonomy(flat) == pytest.approx(0.0, abs=1e-15)


def test_holonomy_additivity():
    # two squares sharing an edge compose to the enclosing rectangle
    a = cf.holonomy(cf.square_loop((0.0, 0.0), 1.0))
    b = cf.holonomy(cf.square_loop((1.0, 0.0), 1.0))
    rect = [(-0.5, -0.5), (-0.5, 0.5), (1.5, 0.5), (1.5, -0.5)]
    assert a + b == pytest.approx(cf.holonomy(rect), abs=1e-14)


def test_holonomy_rejects_boundary_and_bad_loops():
    with pytest.raises(cf.ContractViolation):
        cf.holonomy([(0.0, 0.0), (1.0, 1.0)])
    for width in (0, 3):   # k positions and k ratios: an even, non-zero width
        with pytest.raises(cf.ContractViolation):
            cf.holonomy(np.zeros((4, width)))


def _trapezoid_loop(loop):
    """The one-axis lift increment as a loop over the edges, added in order."""
    closed = np.vstack([loop, loop[0]])
    ds = 0.0
    for (x1, q1), (x2, q2) in zip(closed[:-1], closed[1:]):
        ds += 0.5 * (q1 + q2) * (x2 - x1)
    return ds


def test_holonomy_keeps_the_bits_of_the_edge_loop():
    rng = np.random.default_rng(16)
    for n in (3, 4, 17, 250, 5000):
        loop = rng.normal(size=(n, 2))
        assert cf.holonomy(loop) == _trapezoid_loop(loop)


def test_holonomy_adds_the_areas_of_its_axes():
    # positions (x, y), then ratios (q_x, q_y): a square of side 1 in the
    # (x, q_x) plane and a triangle of area 1/2 in the (y, q_y) plane
    sq = cf.square_loop((0.0, 0.5), 1.0)
    tri = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.0)])
    loop = np.column_stack([sq[:, 0], tri[:, 0], sq[:, 1], tri[:, 1]])
    assert cf.holonomy(loop) == pytest.approx(1.0 + 0.5, abs=1e-15)
    assert cf.holonomy(loop[::-1]) == pytest.approx(-1.5, abs=1e-15)
