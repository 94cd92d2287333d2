"""Acceptance gate: one test per criterion, one printed pass line each.

Every test prints ``criterion NN: PASS -- <witness>`` on success; a failed
assertion leaves the criterion red with the measured value in the message.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.integrate import simpson

import contactflow as cf
from contactflow.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(n, msg):
    print(f"criterion {n:02d}: PASS -- {msg}")


# 1 ---------------------------------------------------------------------------

def test_criterion_01_onshell_conservation():
    t0 = time.perf_counter()
    worst_g, worst_dps = 0.0, 0.0
    for name in ("free", "oscillator", "relativistic", "schrodinger"):
        sc = cf.builtin(name)
        for st in sc.initial_states:
            strip = cf.propagate(sc.surface, st, (0.0, 10.0))
            worst_g = max(worst_g, float(np.max(np.abs(strip.g_residual))))
            worst_dps = max(worst_dps, float(np.max(np.abs(strip.p_s - strip.p_s[0]))))
    elapsed = time.perf_counter() - t0
    assert worst_g <= 1e-8, f"max |G| = {worst_g:.3e}"
    assert worst_dps <= 1e-10, f"max |dp_s| = {worst_dps:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f} s"
    _report(1, f"max|G| = {worst_g:.2e}, max|dp_s| = {worst_dps:.2e}, {elapsed:.2f} s")


# 2 ---------------------------------------------------------------------------

def test_criterion_02_action_lagrangian_identity():
    worst = 0.0
    for name in ("free", "oscillator"):
        sc = cf.builtin(name)
        st0 = sc.initial_states[0]
        strip = cf.propagate(sc.surface, st0, (0.0, 5.0),
                             cf.IntegratorConfig(n_out=1001))
        t = strip.x[:, 0]
        px = strip.p[:, 1]
        x = strip.x[:, 1]
        hamil = 0.5 * px ** 2 + (0.5 * x ** 2 if name == "oscillator" else 0.0)
        lagr = px * px - hamil              # p xdot - H with xdot = p_x
        quad = simpson(lagr, x=t)
        ds = cf.action_increment(strip)
        rel = abs(ds - quad) / max(abs(ds), 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-6, f"{name}: rel error {rel:.3e}"
    _report(2, f"action vs Lagrangian quadrature, worst rel error {worst:.2e}")


# 3 ---------------------------------------------------------------------------

def test_criterion_03_noether():
    free = cf.builtin("free")
    tr = cf.SymmetryField.build(free.chart, [0.0, 1.0])
    strip = cf.propagate(free.surface, free.initial_states[0], (0.0, 10.0))
    d1 = cf.conservation_drift(free.surface, tr, strip)
    assert d1 <= 1e-8, f"free translation drift {d1:.3e}"

    e, E0 = 1.0, 0.5
    chart = cf.Chart(["t", "x"], [(-50.0, 50.0), (-50.0, 50.0)])
    rel = cf.relativistic_scenario(1.0, e, cf.constant_field_potential(chart, E0),
                                   cf.lorentzian_metric(1.0), chart=chart)
    comp = cf.SymmetryField.build(chart, [0.0, 1.0],
                                  f=cf.PolyField(chart, {(1, 0): e * E0}))
    st = cf.CharacteristicState([0.0, 0.0], 0.0, [1.0, 0.0], 1.0)
    d2 = cf.conservation_drift(rel.surface, comp, cf.propagate(rel.surface, st, (0.0, 2.0)))
    assert d2 <= 1e-8, f"gauge-completed translation drift {d2:.3e}"

    eik = cf.builtin("eikonal")
    rot = cf.SymmetryField.build(eik.chart, [cf.PolyField(eik.chart, {(0, 1): -1.0}),
                                             cf.PolyField(eik.chart, {(1, 0): 1.0})])
    st = cf.CharacteristicState([1.0, 0.0], 0.0, [0.6, 0.8], 1.0)
    d3 = cf.conservation_drift(eik.surface, rot, cf.propagate(eik.surface, st, (0.0, 10.0)))
    assert d3 <= 1e-8, f"eikonal rotation drift {d3:.3e}"

    osc = cf.builtin("oscillator")
    broken = cf.SymmetryField.build(osc.chart, [0.0, 1.0])
    strip = cf.propagate(osc.surface, osc.initial_states[0], (0.0, np.pi),
                         cf.IntegratorConfig(n_out=801))
    drift = cf.conservation_drift(osc.surface, broken, strip)
    oracle = simpson(np.abs(strip.x[:, 1]), x=strip.taus)   # impulse of the force
    assert abs(drift - oracle) / oracle <= 0.01, f"{drift} vs {oracle}"
    _report(3, f"declared drifts {max(d1, d2, d3):.2e}; broken drift {drift:.4f} "
               f"vs force quadrature {oracle:.4f}")


# 4 ---------------------------------------------------------------------------

def test_criterion_04_gauge_invariance():
    free = cf.builtin("free")
    chart = free.chart
    E = free.surface
    st0 = free.initial_states[0]
    taus = np.linspace(0.0, 4.0, 161)
    base = cf.propagate(E, st0, (0.0, 4.0), tau_eval=taus)
    sym = cf.SymmetryField.build(chart, [0.0, 1.0])
    q_base = cf.conservation_series(sym, base)

    rng = np.random.default_rng(20260826)
    worst_x, worst_q = 0.0, 0.0
    for _ in range(5):
        coeffs = {m: rng.uniform(-0.5, 0.5)
                  for m in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]}
        chi = cf.PolyField(chart, coeffs)

        def val(x, p, p_s, chi=chi):
            return E.value(x, p - p_s[..., None] * chi.gradient(x), p_s)

        E_chi = cf.SymbolSurface(chart, val, E.degree)
        p0 = st0.p + st0.p_s * chi.gradient(st0.x)
        st_chi = cf.CharacteristicState(st0.x, st0.s + chi.value(st0.x), p0, st0.p_s)
        moved = cf.propagate(E_chi, st_chi, (0.0, 4.0), tau_eval=taus)
        worst_x = max(worst_x, float(np.max(np.abs(moved.x - base.x))))
        q_moved = cf.conservation_series(cf.gauge_shifted_symmetry(sym, chi), moved)
        worst_q = max(worst_q, float(np.max(np.abs(q_moved - q_base))))
    assert worst_x <= 1e-6, f"projected extremal mismatch {worst_x:.3e}"
    assert worst_q <= 1e-8, f"Noether Q mismatch {worst_q:.3e}"
    _report(4, f"5 random gauge changes: extremal mismatch {worst_x:.2e}, "
               f"Q mismatch {worst_q:.2e}")


# 5 ---------------------------------------------------------------------------

def test_criterion_05_relativistic_particle():
    # constant-field worldline vs the closed-form hyperbola
    E0, c = 0.3, 1.0
    sc = cf.builtin("relativistic", field_strength=E0, c=c)
    strip = cf.propagate(sc.surface, sc.initial_states[0], (0.0, 2.0),
                         cf.IntegratorConfig(n_out=401))
    a = E0  # e E0 / m
    t = strip.x[:, 0]
    x_exact = (c * c / a) * (np.sqrt(1.0 + (a * t / c) ** 2) - 1.0)
    err_h = float(np.max(np.abs(strip.x[:, 1] - x_exact)))
    assert err_h <= 1e-6, f"hyperbola error {err_h:.3e}"

    # three characteristic classes; lightlike strips have null velocity
    rel = sc.extras["relativistic"]
    free_rel = cf.builtin("relativistic", charge=0.0, c=1.0)
    p_rest = np.array([1.0, 0.0])
    mk = lambda p, ps: cf.propagate(free_rel.surface,
                                    cf.CharacteristicState([0.0, 0.0], 0.0, p, ps),
                                    (0.0, 0.5))
    plus, minus, null = mk(p_rest, 1.0), mk(p_rest, -1.0), mk([1.0, 1.0], 0.0)
    assert cf.classify_characteristic(plus) == "particle"
    assert cf.classify_characteristic(minus) == "antiparticle"
    assert cf.classify_characteristic(null) == "lightlike"
    nn = cf.null_norm(free_rel.extras["relativistic"], null)
    assert nn <= 1e-8, f"null norm {nn:.3e}"

    # nonrelativistic limit: x -> E0 t^2 / 2 with error order 2 in 1/c
    cs = [10.0, 20.0, 40.0]
    errs = []
    for cc in cs:
        scc = cf.builtin("relativistic", field_strength=E0, c=cc)
        s = cf.propagate(scc.surface, scc.initial_states[0], (0.0, 0.6),
                         cf.IntegratorConfig(n_out=601))
        tt, xx = s.x[:, 0], s.x[:, 1]
        mask = tt <= 1.0
        errs.append(float(np.max(np.abs(xx[mask] - 0.5 * E0 * tt[mask] ** 2))))
    order = float(np.polyfit(np.log(cs), np.log(errs), 1)[0] * -1.0)
    assert abs(order - 2.0) <= 0.2, f"observed order {order:.3f}"

    # antiparticle disappearance: in the gauge matched to the nonrelativistic
    # particle (chi = -m c^2 t) the antiparticle's phase-cylinder energy
    # |p_t / p_s| = c^2 (gamma + 1) >= 2 c^2 grows without bound with c, and
    # its cone rays have alpha < 0 (absent from the alpha = 1 wave diagram)
    energies, alphas = [], []
    for cc in cs:
        scc = cf.builtin("relativistic", charge=0.0, c=cc)
        chart = scc.chart
        chi = cf.PolyField(chart, {(1, 0): -cc * cc})       # chi = -m c^2 t
        conn_nr = scc.connection.shifted(chi)
        p_anti = np.array([cc * cc, 0.0])
        p_nr = p_anti + (-1.0) * chi.gradient([0.0, 0.0])   # momentum in NR gauge
        energies.append(abs(p_nr[0] / -1.0))
        alphas.append(cf.ray_alpha(scc.surface, conn_nr, [0.0, 0.0], p_anti, -1.0))
    assert all(e == pytest.approx(2 * cc ** 2) for e, cc in zip(energies, cs))
    assert energies[0] < energies[1] < energies[2]
    assert all(a < -4.0 * cc * cc * 0.99 for a, cc in zip(alphas, cs))
    _report(5, f"hyperbola {err_h:.1e}; 3 classes, null norm {nn:.1e}; NR order "
               f"{order:.2f}; antiparticle energies {[f'{e:.0f}' for e in energies]} "
               f"recede, rays alpha < 0")


# 6 ---------------------------------------------------------------------------

def test_criterion_06_wavefronts():
    sc = cf.builtin("eikonal")
    front = cf.circle_front(sc.chart, 1.0, 48)

    out = cf.legendre_lift(sc.surface, front, branch=(1, 0))
    taus = np.linspace(0.0, 2.0, 21)
    hist = cf.propagate_front(sc.surface, out, taus, closed=True)
    err_r = max(float(np.max(np.abs(np.linalg.norm(hist.x[:, j, :], axis=1)
                                    - (1.0 + tau))))
                for j, tau in enumerate(taus))
    assert err_r <= 1e-6, f"outward radius error {err_r:.3e}"

    dtau = 0.025
    taus_in = np.arange(0.0, 1.3 + dtau / 2, dtau)
    inw = cf.legendre_lift(sc.surface, front, branch=(1, 1))
    hist_in = cf.propagate_front(sc.surface, inw, taus_in, closed=True)
    assert len(hist_in.caustics) == 48, f"{len(hist_in.caustics)} flips"
    lo, hi = 1.0 - 2 * dtau, 1.0 + 2 * dtau
    for ev in hist_in.caustics:
        assert lo <= ev.tau_lo and ev.tau_hi <= hi, (ev.tau_lo, ev.tau_hi)
    _report(6, f"outward radius error {err_r:.1e}; all 48 sign flips inside "
               f"[{lo:.3f}, {hi:.3f}]")


# 7 ---------------------------------------------------------------------------

def test_criterion_07_symbol_scaling():
    ch = cf.Chart(["t", "x", "s"], [(-10.0, 10.0)] * 3)
    D = cf.schrodinger_operator(ch, mass=1.0, V=0.0)
    n = D.degree
    lams = np.logspace(0.0, 2.5, 12)
    phases = [
        cf.poly_phase(ch, {(2, 0, 0): 0.1, (0, 2, 0): 0.25, (1, 1, 0): 0.2}, s_weight=1.0),
        cf.poly_phase(ch, {(0, 2, 0): 0.4, (1, 0, 0): -0.3}, s_weight=1.0),
        cf.poly_phase(ch, {(2, 0, 0): -0.2, (0, 2, 0): 0.15, (0, 1, 0): 0.5}, s_weight=0.7),
    ]
    worst_rel, worst_order = 0.0, -np.inf
    for g in phases:
        rep = cf.symbol_scaling_check(D, g, lams, [0.4, -0.3, 0.0])
        worst_rel = max(worst_rel, rep.leading_rel_error)
        worst_order = max(worst_order, rep.fitted_exponent)
        assert rep.leading_rel_error <= 1e-6
        assert rep.fitted_exponent <= n - 1 + 0.1
    # eikonal residual separates characteristic phases from generic ones
    ts = np.linspace(0.95, 1.05, 9)
    xs = np.linspace(0.45, 0.55, 9)
    pts = np.array([[t, x] for t in ts for x in xs])
    vals = pts[:, 1] ** 2 / (2.0 * pts[:, 0])
    hj = cf.fit_quadratic_phase(ch, pts, vals, center=[1.0, 0.5], radius=0.05)
    probes = [[1.0, 0.5, 0.0], [1.01, 0.49, 0.1], [0.99, 0.51, -0.2]]
    lams_e = np.logspace(np.log10(2.0), np.log10(200.0), 12)
    o_hj = cf.eikonal_residual(D, hj, lams_e, probes)
    generic = cf.poly_phase(ch, {(0, 2, 0): 0.3, (1, 0, 0): 0.2}, s_weight=1.0)
    o_gen = cf.eikonal_residual(D, generic, lams_e, probes)
    assert o_hj <= n - 1 + 0.15, f"characteristic phase order {o_hj:.3f}"
    assert abs(o_gen - n) <= 0.1, f"generic phase order {o_gen:.3f}"
    _report(7, f"leading coeff rel err {worst_rel:.1e}, residual order "
               f"{worst_order:.3f}; eikonal orders {o_hj:.2f} (HJ) vs {o_gen:.2f}")


# 8 ---------------------------------------------------------------------------

N_OUTS = (251, 501, 1001, 2001)


def _cyclotron():
    """A charge in the uniform magnetic field B on (t, x, y), its potential
    B x along y; the orbit from the origin at unit speed is a circle of
    radius 1/B, closed after tau = 2 pi / B."""
    chart = cf.Chart(["t", "x", "y"], [(-100.0, 100.0)] * 3)
    E = cf.symbol_surface("p_t*p_s + (p_x**2 + (p_y - B*x*p_s)**2)/2", chart, 2,
                          constants={"B": 0.7})
    return E, cf.CharacteristicState([0.0, 0.0, 0.0], 0.0, [-0.5, 1.0, 0.0], 1.0)


def _orbit_curvature_errors(E, start, period):
    """Relative errors of holonomy against the fiber increment over one
    period of a closed orbit, at each of N_OUTS samples, and the observed
    orders log2(e_i / e_{i+1}).

    The fiber side is the integrator's Delta s - p_t Delta t, which is the
    action over the loop; the area side is the holonomy of the sampled
    polygon (x, p/p_s) over the spatial axes, taken without the last sample,
    which repeats the first.  Both are positive: dx/dtau = p_x on both
    orbits, so each runs clockwise in the (x, p_x) plane, the positive sense
    of dp ^ dx, and p_y = 0 on the cyclotron orbit.
    """
    errs = []
    for n_out in N_OUTS:
        strip = cf.propagate(E, start, (0.0, period), cf.IntegratorConfig(n_out=n_out))
        fiber = (strip.s[-1] - strip.s[0]) - strip.p[0, 0] * (strip.x[-1, 0] - strip.x[0, 0])
        loop = np.column_stack([strip.x[:-1, 1:], strip.p[:-1, 1:] / strip.p_s[:-1, None]])
        errs.append(abs(cf.holonomy(loop) - fiber) / abs(fiber))
    errs = np.array(errs)
    return errs, np.log2(errs[:-1] / errs[1:])


def _curvature_orbits():
    osc = cf.builtin("oscillator")
    return {"oscillator": (osc.surface, osc.initial_states[0], 2.0 * np.pi),
            "cyclotron": (*_cyclotron(), 2.0 * np.pi / 0.7)}


def test_criterion_08_curvature_is_symplectic_form():
    witness = []
    for name, (E, start, period) in _curvature_orbits().items():
        errs, orders = _orbit_curvature_errors(E, start, period)
        assert errs.max() <= 0.02, f"{name}: holonomy off the fiber increment by {errs}"
        assert orders.min() >= 1.9, f"{name}: convergence orders {orders}"
        witness.append(f"{name} rel err {errs[-1]:.1e}, order {orders.min():.2f}")
    _report(8, "holonomy of flowed closed orbits against Delta s - p_t Delta t: "
               + "; ".join(witness))


def test_criterion_08_fails_on_a_wrong_fiber_equation():
    # dG/dp_s offset by 1e-3 moves ds/dtau only; x and p stay the same, so the
    # polygon's holonomy no longer converges to the fiber increment
    E, start, period = _curvature_orbits()["oscillator"]

    def grad(x, p, p_s):
        gx, gp, gps = E.gradient(x, p, p_s)
        return gx, gp, gps + 1e-3

    mutant = cf.SymbolSurface(E.chart, E.value, E.degree, grad=grad)
    errs, orders = _orbit_curvature_errors(mutant, start, period)
    assert errs.max() <= 0.02        # the error bound alone would pass it
    assert orders.min() < 1.9, f"the mutant passes with orders {orders}"


# 9 ---------------------------------------------------------------------------

def test_criterion_09_duality():
    eik = cf.builtin("eikonal")
    diag = cf.wave_diagram(eik.surface, eik.connection, [0.0, 0.0], n_samples=96)
    pts = diag.branch("plus")
    haus = cf.hausdorff_distance(pts, cf.legendre_dual(cf.legendre_dual(pts)))
    assert haus <= 1e-6, f"biduality Hausdorff {haus:.3e}"

    rel = cf.builtin("relativistic", charge=0.0, c=1.0)
    wd = cf.wave_diagram(rel.surface, rel.connection, [0.0, 0.0], n_samples=64)
    g = rel.extras["relativistic"].metric
    err_ps = max(abs(float(v @ g @ v) - 1.0) for v in wd.branch("plus"))
    assert err_ps <= 1e-6, f"pseudosphere error {err_ps:.3e}"
    _report(9, f"biduality Hausdorff {haus:.1e}; pseudosphere error {err_ps:.1e}")


# 10 --------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["propagate", "--config", os.path.join(CONFIG_DIR, "free.yaml"),
                     "--out", str(out), "--fixed-step", "0.01"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        digests.append(sorted(report["files"].values()))
        csvs = {name: (out / name).read_bytes()
                for name in os.listdir(out) if name.endswith(".csv")}
        digests.append(csvs)
    assert digests[0] == digests[2], "csv digests differ between runs"
    assert digests[1] == digests[3], "csv bytes differ between runs"
    _report(10, "fixed-step CLI reruns byte-identical "
                f"({len(digests[1])} csv files compared)")
