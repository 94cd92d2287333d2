"""The benchmark's four workloads and the oracles that check every op.

A workload is a fixed mix of op kinds.  One cycle runs each entry of ``mix``
once, in an order drawn from the seed, so repeated kinds give the mix its
shares and every whole cycle has the exact mix.  ``op(kind, rng)`` draws its
inputs from ``rng``, runs the op and returns the oracle's complaints; an
empty list means the op passed.

Constructing a workload is its set-up: it builds the scenarios and parsed
symbols the ops use (importing this module imports contactflow).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

import contactflow as cf
from contactflow import cli, exprs

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_work"

#: acceptance-criteria tolerances the oracles apply
TOL_POSITION = 1e-6
TOL_LEGENDRE = 1e-6
TOL_DRIFT = 1e-8
TOL_BIDUALITY = 1e-6

OSCILLATOR_EXPR = "p_t * p_s + p_x**2 / 2 + x**2 * p_s**2 / 2"
FIELD_STRENGTH = 0.3


# --- front-caustic ----------------------------------------------------------

def check_front(hist, n_lifted, slices, residual, radius, centre, n_rays):
    """Oracle for an inward circle front of the unit-speed eikonal.

    Rays run straight to the centre, so every ray has one caustic at
    tau = r, the front is the circle of radius |r - tau| and the action
    equals tau.
    """
    problems = []
    if n_lifted != n_rays:
        problems.append(f"lift dropped {n_rays - n_lifted} of {n_rays} samples")
    if len(hist.caustics) != n_rays:
        problems.append(f"{len(hist.caustics)} caustic events, expected {n_rays}")
    missed = [ev.u_index for ev in hist.caustics if not ev.tau_lo <= radius <= ev.tau_hi]
    if missed:
        problems.append(f"{len(missed)} caustic brackets miss tau = r = {radius:.6g}")
    dist = np.linalg.norm(hist.x - np.asarray(centre), axis=-1)
    err = float(np.max(np.abs(dist - np.abs(radius - hist.taus)[None, :])))
    if not err <= TOL_POSITION:
        problems.append(f"front radius off |r - tau| by {err:.3e}")
    if not residual <= TOL_LEGENDRE:
        problems.append(f"Legendre residual {residual:.3e}")
    if len(slices) != len(hist.taus):
        problems.append(f"{len(slices)} action slices for {len(hist.taus)} taus")
    else:
        err = max(float(np.max(np.abs(sl.s - sl.tau))) for sl in slices)
        if not err <= TOL_POSITION:
            problems.append(f"action off tau by {err:.3e}")
    return problems


class FrontCaustic:
    """Inward circle fronts on the builtin eikonal symbol, 256 rays x 101 taus."""

    name = "front-caustic"
    mix = ("front",)
    trace_cycle_s = 2.9

    def __init__(self, tiny=False, in_process=False):
        self.scenario = cf.builtin("eikonal")
        self.n_rays, self.n_tau = (32, 21) if tiny else (256, 101)

    def front(self, radius, centre):
        """Lift, propagate and post-process one front; returns what the oracle checks."""
        E = self.scenario.surface
        sigma = cf.circle_front(self.scenario.chart, radius, self.n_rays,
                                center=tuple(centre))
        lift = cf.legendre_lift(E, sigma, branch=(1, 1))
        hist = cf.propagate_front(E, lift, np.linspace(0.0, 1.3 * radius, self.n_tau),
                                  closed=True)
        residual = hist.contact_residual()
        return hist, len(lift), cf.front_action_function(hist), residual

    def op(self, kind, rng):
        radius = float(rng.uniform(0.5, 2.0))
        centre = rng.uniform(-5.0, 5.0, 2)
        return check_front(*self.front(radius, centre), radius, centre, self.n_rays)


# --- strip-mix --------------------------------------------------------------

def check_strip(strip, tol_onshell, t1):
    problems = []
    if strip.taus[-1] != t1:
        problems.append(f"strip ended at tau = {strip.taus[-1]:.6g}, not {t1}")
    if not np.all(strip.p_s == strip.p_s[0]):
        problems.append("p_s not exactly constant")
    g = float(np.max(np.abs(strip.g_residual)))
    if not g <= tol_onshell:
        problems.append(f"reported |G| {g:.3e} > tol_onshell {tol_onshell:.1e}")
    return problems


def check_oscillator(strip, tol_onshell, t1, amplitude, drift, phase_coords):
    """x = a sin(tau) with p_t conserved; on {t = 5}: (x, p_x) = a (sin 5, cos 5)."""
    problems = check_strip(strip, tol_onshell, t1)
    err = float(np.max(np.abs(strip.x[:, 1] - amplitude * np.sin(strip.taus))))
    if not err <= TOL_POSITION:
        problems.append(f"x off a sin(tau) by {err:.3e}")
    if not drift <= TOL_DRIFT:
        problems.append(f"Noether drift of p_t {drift:.3e}")
    expected = amplitude * np.array([math.sin(5.0), math.cos(5.0)])
    err = float(np.max(np.abs(np.asarray(phase_coords) - expected)))
    if not err <= TOL_POSITION:
        problems.append(f"phase point off (a sin 5, a cos 5) by {err:.3e}")
    return problems


def check_relativistic(strip, tol_onshell, t1, t0, x0):
    """Hyperbolic motion from rest (m = c = e = 1, field F):
    x - x0 = (cosh(2 F tau) - 1) / F and t - t0 = sinh(2 F tau) / F."""
    problems = check_strip(strip, tol_onshell, t1)
    w = 2.0 * FIELD_STRENGTH * strip.taus
    err = max(float(np.max(np.abs(strip.x[:, 0] - t0 - np.sinh(w) / FIELD_STRENGTH))),
              float(np.max(np.abs(strip.x[:, 1] - x0 - (np.cosh(w) - 1.0) / FIELD_STRENGTH))))
    if not err <= TOL_POSITION:
        problems.append(f"worldline off hyperbolic motion by {err:.3e}")
    return problems


class StripMix:
    """Single characteristic strips: builtin and parsed oscillator symbols,
    adaptive and fixed-step RK4, and the charged relativistic particle."""

    name = "strip-mix"
    mix = ("osc-adaptive", "osc-adaptive", "osc-sympy", "osc-rk4", "relativistic")
    trace_cycle_s = 3.0
    osc_span = (0.0, 20.0)
    rel_span = (0.0, 2.0)

    def __init__(self, tiny=False, in_process=False):
        osc = cf.builtin("oscillator")
        parsed = exprs.symbol_surface(OSCILLATOR_EXPR, osc.chart, 2)
        adaptive = cf.IntegratorConfig()
        self.oscillators = {
            "osc-adaptive": (osc.surface, adaptive),
            "osc-sympy": (parsed, adaptive),
            "osc-rk4": (osc.surface, cf.IntegratorConfig(method="fixed", dt=0.01)),
        }
        self.relativistic = cf.builtin("relativistic", field_strength=FIELD_STRENGTH)
        # time translation: its Noether charge is p_t
        self.time_shift = cf.SymmetryField.build(osc.chart, [1.0, 0.0])
        self.section = cf.SectionSpec("t", 5.0)

    def op(self, kind, rng):
        if kind == "relativistic":
            t0, x0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
            # at rest: the kinetic momentum p_t + F x p_s is m c^2 = 1
            init = cf.CharacteristicState([t0, x0], 0.0, [1.0 - FIELD_STRENGTH * x0, 0.0], 1.0)
            integ = cf.IntegratorConfig()
            strip = cf.propagate(self.relativistic.surface, init, self.rel_span, integ)
            return check_relativistic(strip, integ.tol_onshell, self.rel_span[1], t0, x0)
        E, integ = self.oscillators[kind]
        a = float(rng.uniform(0.3, 1.5))
        init = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.5 * a * a, a], 1.0)
        strip = cf.propagate(E, init, self.osc_span, integ)
        drift = cf.conservation_drift(E, self.time_shift, strip)
        point = cf.to_phase(E, init, self.section)
        return check_oscillator(strip, integ.tol_onshell, self.osc_span[1], a, drift,
                                point.coords)


# --- wave-diagram -----------------------------------------------------------

def check_eikonal_diagram(diag, n, hausdorff):
    """Unit-speed eikonal: the diagram is the unit circle, all on the plus branch."""
    problems = []
    if len(diag.points) != n or any(q.branch != "plus" for q in diag.points):
        problems.append(f"{len(diag.points)} points, expected {n} on the plus branch")
    err = float(np.max(np.abs(np.linalg.norm(diag.samples(), axis=1) - 1.0)))
    if not err <= TOL_POSITION:
        problems.append(f"points off the unit circle by {err:.3e}")
    if not hausdorff <= TOL_BIDUALITY:
        problems.append(f"biduality Hausdorff distance {hausdorff:.3e}")
    return problems


def check_pseudosphere(diag):
    """Uncharged particle (c = 1): every diagram vector has v.g.v = 1."""
    v = diag.samples()
    err = float(np.max(np.abs(v[:, 0] ** 2 - v[:, 1] ** 2 - 1.0)))
    return [] if err <= TOL_POSITION else [f"v.g.v off 1 by {err:.3e}"]


def check_charged_diagram(diag, x):
    """Charged particle in the field F: every generating covector is on the
    mass shell and every point lies on the plane s_dot + A.v = 1."""
    A = np.array([-FIELD_STRENGTH * x[1], 0.0])
    problems = []
    shell = plane = 0.0
    for q in diag.points:
        p, p_s = q.covector[:2], q.covector[2]
        k = p - p_s * A
        G = k[0] ** 2 - k[1] ** 2 - p_s ** 2
        shell = max(shell, abs(G) / max(1.0, float(q.covector @ q.covector)))
        plane = max(plane, abs(q.s_dot + float(A @ q.v) - 1.0))
    if not shell <= 1e-8:
        problems.append(f"generating covector off shell by {shell:.3e}")
    if not plane <= 1e-9:
        problems.append(f"point off the plane alpha = 1 by {plane:.3e}")
    return problems


class WaveDiagrams:
    """Wave diagrams at seeded base points: eikonal, uncharged and charged
    relativistic particles."""

    name = "wave-diagram"
    mix = ("eikonal", "eikonal", "relativistic", "relativistic-charged")
    trace_cycle_s = 2.4

    def __init__(self, tiny=False, in_process=False):
        self.scenarios = {
            "eikonal": cf.builtin("eikonal"),
            "relativistic": cf.builtin("relativistic", charge=0.0),
            "relativistic-charged": cf.builtin("relativistic", field_strength=FIELD_STRENGTH),
        }
        self.n = 16 if tiny else 64

    def op(self, kind, rng):
        scen = self.scenarios[kind]
        x = rng.uniform(-2.0, 2.0, 2)
        diag = cf.wave_diagram(scen.surface, scen.connection, x, n_samples=self.n)
        if kind == "eikonal":
            pts = diag.branch("plus")
            bidual = cf.legendre_dual(cf.legendre_dual(pts))
            return check_eikonal_diagram(diag, self.n, cf.hausdorff_distance(pts, bidual))
        if kind == "relativistic":
            return check_pseudosphere(diag)
        return check_charged_diagram(diag, x)


# --- cli-configs ------------------------------------------------------------

SUBCOMMAND_OF = {
    "eikonal_front.yaml": "wavefront",
    "free.yaml": "propagate",
    "holonomy.yaml": "holonomy",
    "noether_free.yaml": "noether-check",
    "oscillator.yaml": "propagate",
    "relativistic.yaml": "propagate",
    "schrodinger_symbol.yaml": "symbol",
    "wave_diagram_eikonal.yaml": "wave-diagram",
    "wave_diagram_rel.yaml": "wave-diagram",
}
FIXED_STEP = ("--fixed-step", "0.01")
#: ``wavefront --fixed-step`` exits 2 for every dt (ROADMAP open item 4b); it
#: runs once per run as a known-defect probe, outside the timed ops
KNOWN_DEFECT = "wavefront eikonal_front.yaml --fixed-step 0.01"


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_cli(code, stderr, out_dir, fixed_digests, key):
    """Exit 0, report digests that match the CSVs on disk, a biduality
    distance within tolerance where the run reports one and, for a
    fixed-step run, CSVs byte-identical to every earlier repeat."""
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    report = json.loads((out_dir / "report.json").read_text())
    problems = []
    digests = {}
    for path, digest in report["files"].items():
        digests[os.path.basename(path)] = sha256_of(path)
        if digests[os.path.basename(path)] != digest:
            problems.append(f"report digest of {path} does not match the file")
    haus = report.get("biduality_hausdorff")
    if haus is not None and not haus <= TOL_BIDUALITY:
        problems.append(f"biduality Hausdorff distance {haus:.3e}")
    if key in fixed_digests and fixed_digests[key] != digests:
        problems.append("fixed-step CSV digests differ from an earlier repeat")
    if key is not None:
        fixed_digests.setdefault(key, digests)
    return problems


class CliConfigs:
    """One ``contactflow`` CLI run per op on a bundled config.

    The cycle is every bundled config as shipped plus ``--fixed-step 0.01``
    for the propagate and noether-check configs.  Ops run as child processes
    one at a time, import included; with ``in_process`` (the traced run)
    they call ``contactflow.cli.main`` instead.  Fixed-step digests persist
    in the work directory, so repeats are compared across runs as well.
    """

    name = "cli-configs"
    trace_cycle_s = 3.5

    def __init__(self, tiny=False, in_process=False):
        self.in_process = in_process
        kinds = [f"{sub} {cfg}" for cfg, sub in SUBCOMMAND_OF.items()]
        kinds += [f"{sub} {cfg} {' '.join(FIXED_STEP)}" for cfg, sub in SUBCOMMAND_OF.items()
                  if sub in ("propagate", "noether-check")]
        if tiny:
            kinds = ["propagate oscillator.yaml", "holonomy holonomy.yaml",
                     f"propagate oscillator.yaml {' '.join(FIXED_STEP)}"]
        self.mix = tuple(kinds)
        # the set-up each CLI run repeats: parse the config, build its scenario
        for cfg in SUBCOMMAND_OF:
            spec = yaml.safe_load((CONFIGS / cfg).read_text()).get("scenario") or {}
            if "builtin" in spec:
                cf.builtin(spec["builtin"], **(spec.get("builtin_args") or {}))
        WORK.mkdir(exist_ok=True)
        self.digest_file = WORK / "fixed_step_digests.json"
        self.fixed_digests = (json.loads(self.digest_file.read_text())
                              if self.digest_file.exists() else {})

    def _run(self, kind, seed):
        sub, cfg, *extra = kind.split()
        out_dir = WORK / "cli" / kind.replace(" ", "_")
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [sub, "--config", str(CONFIGS / cfg), "--out", str(out_dir),
                "--seed", str(seed), *extra]
        if self.in_process:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, err.getvalue(), out_dir
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "contactflow.cli", *argv],
                              cwd=WORK, env=env, capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stderr, out_dir

    def op(self, kind, rng):
        code, stderr, out_dir = self._run(kind, int(rng.integers(2 ** 31)))
        fixed = FIXED_STEP[0] in kind
        known = len(self.fixed_digests)
        problems = check_cli(code, stderr, out_dir, self.fixed_digests,
                             kind if fixed else None)
        if len(self.fixed_digests) != known:
            tmp = self.digest_file.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.fixed_digests, sort_keys=True))
            tmp.replace(self.digest_file)
        return problems

    def known_defects(self, rng):
        """Run the known-defect probe; report its exit code and complaints."""
        code, stderr, out_dir = self._run(KNOWN_DEFECT, int(rng.integers(2 ** 31)))
        return [{"op": KNOWN_DEFECT, "exit": code, "roadmap": "4b",
                 "problems": check_cli(code, stderr, out_dir, {}, None)}]


WORKLOADS = {w.name: w for w in (FrontCaustic, StripMix, WaveDiagrams, CliConfigs)}
