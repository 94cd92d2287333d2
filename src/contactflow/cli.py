"""Scenario runner: parse a YAML scenario file, run one analysis, emit files.

Exit codes: 0 success, 1 configuration error, 2 numerical failure, 3 I/O
error.  All sampling seeds and output digests land in the JSON report so a
run can be reproduced and checked byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import yaml

from . import io as out_io
from .bundle import ConnectionData, hausdorff_distance, legendre_dual, wave_diagram
from .charts import Chart, PolyField
from .errors import ConfigError, ContactFlowError
from .fronts import circle_front, flat_front, legendre_lift, propagate_front
from .noether import SymmetryField, check_symmetry, conservation_drift
from .operators import (LinearDiffOperator, eikonal_residual, poly_phase,
                        symbol_scaling_check)
from .phase import holonomy, square_loop
from .scenarios import Scenario, _zero_connection, builtin
from .strips import CharacteristicState, Fiber, IntegratorConfig, propagate

SCHEMA_VERSION = 1
SUBCOMMANDS = ("propagate", "wavefront", "noether-check", "symbol",
               "holonomy", "wave-diagram")
STRIP_SUBCOMMANDS = SUBCOMMANDS[:3]   # the runs that integrate strips
SCENARIO_KEYS = {"builtin", "builtin_args", "symbol", "name"}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"YAML parse error in {path}{loc}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a mapping")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return cfg


def _chart_from(cfg: dict) -> Chart:
    spec = cfg.get("chart")
    if spec is None:
        raise ConfigError("key 'chart' is required when no builtin scenario is used")
    try:
        return Chart(spec["axes"], spec["bounds"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad 'chart' block: {exc}") from exc


def _fiber_from(cfg: dict) -> Fiber:
    spec = cfg.get("fiber") or {"group": "line"}
    return Fiber(group=spec.get("group", "line"),
                 period=float(spec.get("period", 2 * np.pi)))


def _scenario_from(cfg: dict) -> Scenario:
    spec = cfg.get("scenario")
    if not isinstance(spec, dict):
        raise ConfigError("key 'scenario' (mapping) is required")
    unknown = sorted(set(spec) - SCENARIO_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys under 'scenario': {unknown}; allowed: "
                          f"{sorted(SCENARIO_KEYS)} (constants and connection "
                          "are top-level keys)")
    sources = [k for k in ("builtin", "symbol") if k in spec]
    if len(sources) != 1:
        raise ConfigError("scenario needs exactly one of 'builtin' or 'symbol'")
    constants = cfg.get("constants") or {}
    if sources[0] == "builtin":
        scen = builtin(spec["builtin"], **(spec.get("builtin_args") or {}))
    else:
        from .exprs import symbol_surface
        sym = spec["symbol"]
        chart = _chart_from(cfg)
        E = symbol_surface(sym["expression"], chart, int(sym["degree"]),
                           constants=constants, fiber=_fiber_from(cfg),
                           name=spec.get("name", "custom"))
        scen = Scenario(spec.get("name", "custom"), E, _zero_connection(chart))
    conn_exprs = cfg.get("connection")
    if conn_exprs:
        from .exprs import connection_components
        scen.connection = ConnectionData(
            scen.chart, connection_components(conn_exprs, scen.chart, constants))
    return scen


def _integrator_from(cfg: dict, fixed_step: float | None) -> IntegratorConfig:
    spec = dict(cfg.get("integrator") or {})
    if fixed_step is not None:
        spec["method"] = "fixed"
        spec["dt"] = fixed_step
    kinds = {"method": str, "n_out": int}   # every other key is a float
    try:
        return IntegratorConfig(**{k: kinds.get(k, float)(v) for k, v in spec.items()})
    except (TypeError, ValueError) as exc:   # ContractViolation is a ValueError
        raise ConfigError(f"bad 'integrator' block or --fixed-step: {exc}") from exc


def _states_from(cfg: dict, scen: Scenario) -> list[CharacteristicState]:
    blocks = cfg.get("strips")
    if not blocks:
        if scen.initial_states:
            return list(scen.initial_states)
        raise ConfigError("no 'strips' block and the scenario has no default states")
    states = []
    for i, b in enumerate(blocks):
        try:
            states.append(CharacteristicState(b["x"], float(b.get("s", 0.0)),
                                              b["p"], float(b.get("p_s", 1.0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad strip block #{i}: {exc}") from exc
    return states


def _tau_span(cfg: dict):
    span = cfg.get("tau_span", [0.0, 10.0])
    if not (isinstance(span, (list, tuple)) and len(span) == 2):
        raise ConfigError("'tau_span' must be [start, end]")
    return float(span[0]), float(span[1])


def _poly_from_spec(chart: Chart, spec) -> PolyField:
    """spec: list of {powers: {axis: int}, c: number} entries."""
    coeffs = {}
    for ent in spec:
        mono = [0] * chart.dim
        for ax, k in (ent.get("powers") or {}).items():
            mono[chart.axis_index(ax)] = int(k)
        coeffs[tuple(mono)] = coeffs.get(tuple(mono), 0.0) + float(ent["c"])
    return PolyField(chart, coeffs)


# --- subcommands ------------------------------------------------------------

def _run_propagate(cfg, scen, args, report):
    integ = _integrator_from(cfg, args.fixed_step)
    span = _tau_span(cfg)
    files, metrics = {}, []
    for i, st in enumerate(_states_from(cfg, scen)):
        strip = propagate(scen.surface, st, span, integ)
        header, rows = out_io.strip_rows(strip)
        path = os.path.join(args.out, f"strip_{i}.csv")
        out_io.write_csv(path, header, rows)
        files[path] = out_io.sha256_of(path)
        metrics.append({"strip": i,
                        "max_abs_g": float(np.max(np.abs(strip.g_residual))),
                        "delta_p_s": float(np.max(np.abs(strip.p_s - strip.p_s[0]))),
                        "delta_s": float(strip.s[-1] - strip.s[0]),
                        "boundary_exit": bool(strip.boundary_exit)})
    report["files"] = files
    report["strips"] = metrics


def _front_from(cfg, scen):
    spec = cfg.get("front")
    if not isinstance(spec, dict):
        raise ConfigError("key 'front' (mapping) is required for the wavefront run")
    kind = spec.get("kind", "circle")
    n = int(spec.get("n", 64))
    if kind == "circle":
        sigma = circle_front(scen.chart, float(spec.get("radius", 1.0)), n,
                             center=tuple(spec.get("center", (0.0, 0.0))))
    elif kind == "flat":
        sigma = flat_front(scen.chart, spec["axis"], float(spec["value"]),
                           spec.get("span", (-1.0, 1.0)), n)
    else:
        raise ConfigError(f"unknown front kind {kind!r}")
    return sigma, tuple(spec.get("branch", (1, 0)))


def _run_wavefront(cfg, scen, args, report):
    integ = _integrator_from(cfg, args.fixed_step)
    span = _tau_span(cfg)
    n_tau = int((cfg.get("front") or {}).get("n_tau", 101))
    sigma, branch = _front_from(cfg, scen)
    lift = legendre_lift(scen.surface, sigma, branch=branch)
    taus = np.linspace(span[0], span[1], n_tau)
    hist = propagate_front(scen.surface, lift, taus, integ, closed=sigma.closed)
    path = os.path.join(args.out, "front.csv")
    axes = scen.chart.axis_names
    header = ["u", "tau"] + [f"x_{a}" for a in axes] + ["s", "jacobian_det"]
    nu, nt = hist.s.shape
    rows = np.column_stack([np.repeat(hist.params, nt), np.tile(hist.taus, nu),
                            hist.x.reshape(nu * nt, -1), hist.s.ravel(),
                            hist.jacobian_det.ravel()])
    out_io.write_csv(path, header, rows.tolist())
    report["files"] = {path: out_io.sha256_of(path)}
    report["caustics"] = [{"u_index": ev.u_index, "tau_lo": ev.tau_lo,
                           "tau_hi": ev.tau_hi} for ev in hist.caustics]
    report["first_caustic_tau"] = hist.first_caustic_tau()
    report["contact_residual"] = hist.contact_residual()


def _run_noether(cfg, scen, args, report):
    integ = _integrator_from(cfg, args.fixed_step)
    span = _tau_span(cfg)
    constants = cfg.get("constants") or {}
    blocks = cfg.get("symmetries")
    if not blocks:
        raise ConfigError("key 'symmetries' is required for the noether-check run")
    from .exprs import scalar_field
    rng = np.random.default_rng(args.seed)
    strips = [propagate(scen.surface, st, span, integ)
              for st in _states_from(cfg, scen)]
    results = []
    for i, b in enumerate(blocks):
        try:
            v = [scalar_field(str(c), scen.chart, constants) for c in b["v"]]
            f = scalar_field(str(b.get("f", "0")), scen.chart, constants)
        except KeyError as exc:
            raise ConfigError(f"bad symmetry block #{i}: missing {exc}") from exc
        sym = SymmetryField.build(scen.chart, v, f)
        results.append({"symmetry": i,
                        "residual": check_symmetry(scen.surface, sym, rng=rng),
                        "drift": [conservation_drift(scen.surface, sym, s) for s in strips]})
    report["symmetries"] = results
    report["files"] = {}


def _operator_from(cfg) -> LinearDiffOperator:
    scen_spec = cfg.get("scenario") or {}
    if scen_spec.get("builtin") == "schrodinger":
        scen = builtin("schrodinger", **(scen_spec.get("builtin_args") or {}))
        return scen.extras["operator"]
    spec = cfg.get("operator")
    if not spec:
        raise ConfigError("the symbol run needs an 'operator' block "
                          "or the schrodinger builtin")
    chart = _chart_from(cfg)
    terms = {}
    for ent in spec.get("terms", []):
        mono = [0] * chart.dim
        for ax, k in (ent.get("multi") or {}).items():
            mono[chart.axis_index(ax)] = int(k)
        c = ent["coeff"]
        coeff = (_poly_from_spec(chart, c)
                 if isinstance(c, list) else float(c))
        terms[tuple(mono)] = coeff
    return LinearDiffOperator(chart, terms, s_axis=spec.get("s_axis", "s"))


def _run_symbol(cfg, scen_unused, args, report):
    D = _operator_from(cfg)
    lams = [float(v) for v in cfg.get("lambdas", np.geomspace(2.0, 500.0, 12))]
    phases = cfg.get("phases")
    if not phases:
        raise ConfigError("key 'phases' is required for the symbol run")
    results = []
    for i, ph in enumerate(phases):
        poly = _poly_from_spec(D.chart, ph.get("poly", []))
        if ph.get("s_weight"):
            poly = poly_phase(D.chart, poly.coeffs, s_weight=float(ph["s_weight"]))
        x0 = np.asarray(ph.get("at", [0.0] * D.dim), float)
        entry = {"phase": i}
        if ph.get("mode", "scaling") == "eikonal":
            pts = [np.asarray(p, float) for p in ph.get("points", [x0])]
            entry["fitted_order"] = eikonal_residual(D, poly, lams, pts)
        else:
            rep = symbol_scaling_check(D, poly, lams, x0)
            entry.update({"fitted_exponent": rep.fitted_exponent,
                          "leading_rel_error": rep.leading_rel_error,
                          "symbol_value": rep.symbol_value})
        results.append(entry)
    report["operator_degree"] = D.degree
    report["phases"] = results
    report["files"] = {}


def _run_holonomy(cfg, scen_unused, args, report):
    blocks = cfg.get("loops")
    if not blocks:
        raise ConfigError("key 'loops' is required for the holonomy run")
    results = []
    for i, b in enumerate(blocks):
        if "points" in b:
            loop = np.asarray(b["points"], float)
        else:
            loop = square_loop(tuple(b.get("center", (0.0, 0.0))),
                               float(b["side"]))
        res = holonomy(loop, p_s=float(b.get("p_s", 1.0)))
        results.append({"loop": i, "delta_s": res.delta_s, "area": res.area})
    report["loops"] = results
    report["files"] = {}


def _run_wave_diagram(cfg, scen, args, report):
    spec = cfg.get("diagram") or {}
    x0 = np.asarray(spec.get("at", [0.0] * scen.chart.dim), float)
    n = int(spec.get("n", 64))
    diag = wave_diagram(scen.surface, scen.connection, x0, n_samples=n)
    path = os.path.join(args.out, "wave_diagram.csv")
    axes = scen.chart.axis_names
    header = ["branch"] + [f"v_{a}" for a in axes]
    rows = [[pt.branch, *pt.v] for pt in diag.points]
    out_io.write_csv(path, header, rows)
    report["files"] = {path: out_io.sha256_of(path)}
    report["n_points"] = len(diag.points)
    report["n_lightlike"] = len(diag.lightlike)
    report["n_unreachable"] = len(diag.unreachable)
    if spec.get("biduality_check") and len(diag.points) >= 8:
        pts = diag.branch("plus")
        dual = legendre_dual(pts)
        bidual = legendre_dual(dual)
        report["biduality_hausdorff"] = hausdorff_distance(pts, bidual)


_RUNNERS = {
    "propagate": _run_propagate,
    "wavefront": _run_wavefront,
    "noether-check": _run_noether,
    "symbol": _run_symbol,
    "holonomy": _run_holonomy,
    "wave-diagram": _run_wave_diagram,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="contactflow",
        description="characteristic-strip engine: scenario runner")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", required=True, help="YAML scenario file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="sampling seed")
    ap.add_argument("--fixed-step", type=float, default=None, metavar="DT",
                    help="use the fixed-step integrator with this step "
                    "(propagate, wavefront and noether-check only)")
    ap.add_argument("--report", default=None, help="report JSON path "
                    "(default: <out>/report.json)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {"subcommand": args.subcommand, "config": args.config,
              "seed": args.seed, "schema_version": SCHEMA_VERSION}
    try:
        if args.fixed_step is not None and args.subcommand not in STRIP_SUBCOMMANDS:
            raise ConfigError(f"--fixed-step does not apply to {args.subcommand}, "
                              "which integrates no strips")
        cfg = _load_config(args.config)
        out_io.ensure_dir(args.out)
        needs_scenario = args.subcommand not in ("symbol", "holonomy")
        scen = _scenario_from(cfg) if needs_scenario else None
        if scen is not None:
            report["scenario"] = scen.name
        _RUNNERS[args.subcommand](cfg, scen, args, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except out_io.OutputError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ContactFlowError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    report_path = args.report or os.path.join(args.out, "report.json")
    try:
        out_io.write_report(report_path, report)
    except out_io.OutputError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(f"ok: report written to {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
