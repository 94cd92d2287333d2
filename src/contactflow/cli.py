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
from .errors import ConfigError, ContactFlowError, ContractViolation
from .fronts import circle_front, flat_front, legendre_lift, propagate_front
from .noether import SymmetryField, check_symmetry, conservation_drift
from .operators import (LinearDiffOperator, eikonal_residual, poly_phase,
                        symbol_scaling_check)
from .phase import holonomy, square_loop
from .scenarios import Scenario, builtin
from .strips import CharacteristicState, IntegratorConfig, batch_propagate

SCHEMA_VERSION = 1
SUBCOMMANDS = ("propagate", "wavefront", "noether-check", "symbol",
               "holonomy", "wave-diagram")
STRIP_SUBCOMMANDS = SUBCOMMANDS[:3]   # the runs that integrate strips
SCENARIO_KEYS = {"builtin", "builtin_args", "symbol", "name"}
CONFIG_KEYS = {"schema_version", "chart", "scenario", "constants", "connection", "strips",
               "tau_span", "integrator", "front", "symmetries", "operator", "lambdas",
               "phases", "loops", "diagram"}   # the top-level keys runs read


class _Block(dict):
    """A config block: a mapping with keys in ``allowed``.  Reading a key it
    lacks is a config error that names the block and the key."""

    def __init__(self, spec, allowed, where: str):
        if not isinstance(spec, dict):
            raise ConfigError(f"the {where} block must be a mapping, got {type(spec).__name__}")
        unknown = sorted(map(str, set(spec) - set(allowed)))
        if unknown:
            raise ConfigError(f"unknown {where} keys {unknown}; allowed: {sorted(allowed)}")
        super().__init__(spec)
        self.where = where

    def __missing__(self, key):
        raise ConfigError(f"missing key {key!r} in the {self.where} block")

    def choice(self, key: str, choices: tuple):
        """The value of ``key``, one of ``choices``; the first is the default."""
        value = self.get(key, choices[0])
        if value not in choices:
            raise ConfigError(f"{self.where} {key} must be one of {list(choices)}, "
                              f"got {value!r}")
        return value


def _integral(value, where: str) -> int:
    """A count from the config: an integral number, never truncated."""
    if isinstance(value, (int, float)) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _finite(value, where: str) -> np.ndarray:
    """A finite number or list of numbers from the config (YAML's string 1e-3 too)."""
    try:
        if np.isfinite(out := np.asarray(value, float)).all():
            return out
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{where} must be a finite number or numbers, got {value!r}")


def _number(value, where: str) -> float:
    """One finite number from the config."""
    if (out := _finite(value, where)).ndim:
        raise ConfigError(f"{where} must be one number, got {value!r}")
    return float(out)


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
    cfg = _Block(cfg, CONFIG_KEYS, "top-level")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return cfg


def _chart_from(cfg: dict) -> Chart:
    spec = _Block(cfg["chart"], {"axes", "bounds"}, "'chart'")   # a symbol scenario's chart
    try:
        return Chart(spec["axes"], _finite(spec["bounds"], "chart bounds"))
    except TypeError as exc:
        raise ConfigError(f"bad 'chart' block: {exc}") from exc


def _scenario_from(cfg: dict) -> Scenario:
    spec = _Block(cfg["scenario"], SCENARIO_KEYS, "'scenario'")
    sources = [k for k in ("builtin", "symbol") if k in spec]
    if len(sources) != 1:
        raise ConfigError("scenario needs exactly one of 'builtin' or 'symbol'")
    constants = _constants(cfg)
    if sources[0] == "builtin":
        scen = _builtin(spec)
    else:
        from .exprs import symbol_surface
        sym = _Block(spec["symbol"], {"expression", "degree"}, "'symbol'")
        chart = _chart_from(cfg)
        E = symbol_surface(sym["expression"], chart, _integral(sym["degree"], "symbol degree"),
                           constants=constants, name=spec.get("name", "custom"))
        scen = Scenario(spec.get("name", "custom"), E, ConnectionData(chart, [0.0] * chart.dim))
    conn_exprs = cfg.get("connection")
    if conn_exprs:
        from .exprs import connection_components
        scen.connection = ConnectionData(
            scen.chart, connection_components(conn_exprs, scen.chart, constants))
    return scen


def _builtin(spec: dict) -> Scenario:
    """The builtin scenario of a 'scenario' block; each of its builtin_args
    is a finite number, or for schrodinger's V a map of powers to them."""
    args = spec.get("builtin_args") or {}
    if not isinstance(args, dict):
        raise ConfigError(f"builtin_args must be a mapping, got {args!r}")
    return builtin(spec["builtin"], **{
        k: {p: _number(c, f"builtin_args {k}[{p!r}]") for p, c in v.items()}
        if k == "V" and isinstance(v, dict) else _number(v, f"builtin_args {k}")
        for k, v in args.items()})


def _constants(cfg: dict) -> dict:
    """The config's named constants, each a finite number."""
    return {k: _number(v, f"constant {k!r}") for k, v in (cfg.get("constants") or {}).items()}


def _integrator_from(cfg: dict, fixed_step: float | None) -> IntegratorConfig:
    spec = dict(cfg.get("integrator") or {})
    if fixed_step is not None:
        spec["method"] = "fixed"
        spec["dt"] = fixed_step
    # every other key is a float; a non-integral n_out reaches IntegratorConfig's check
    kinds = {"method": str, "n_out": lambda v: int(float(v)) if float(v).is_integer() else v}
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
        b = _Block(b, {"x", "s", "p", "p_s"}, f"strip #{i}")
        try:
            states.append(CharacteristicState(b["x"], float(b.get("s", 0.0)),
                                              b["p"], float(b.get("p_s", 1.0))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad strip block #{i}: {exc}") from exc
    return states


def _tau_span(cfg: dict):
    span = cfg.get("tau_span", [0.0, 10.0])
    if not (isinstance(span, (list, tuple)) and len(span) == 2):
        raise ConfigError("'tau_span' must be [start, end]")
    return tuple(_finite(span, "'tau_span'").tolist())


def _multi_index(chart: Chart, powers, key: str) -> tuple[int, ...]:
    """chart.multi_index of a config's {axis: power} block; an unknown axis
    is a config error."""
    try:
        return chart.multi_index(powers or {})
    except ContractViolation as exc:
        raise ConfigError(f"bad {key!r} block: {exc}") from exc


def _poly_from_spec(chart: Chart, spec) -> PolyField:
    """spec: list of {powers: {axis: int}, c: number} entries."""
    coeffs = {}
    for i, ent in enumerate(spec):
        ent = _Block(ent, {"powers", "c"}, f"poly term #{i}")
        mono = _multi_index(chart, ent.get("powers"), "powers")
        coeffs[mono] = coeffs.get(mono, 0.0) + _number(ent["c"], f"poly term #{i} c")
    return PolyField(chart, coeffs)


# --- subcommands ------------------------------------------------------------

def _run_propagate(cfg, scen, args, report):
    files, metrics = {}, []
    for i, strip in enumerate(_strips(cfg, scen, args)):
        header, rows = out_io.strip_rows(strip)
        path = os.path.join(args.out, f"strip_{i}.csv")
        out_io.write_csv(path, header, rows)
        files[path] = out_io.sha256_of(path)
        metrics.append({"strip": i,
                        "max_abs_g": float(np.max(np.abs(strip.g_residual))),
                        **_projection_report(strip),
                        "delta_p_s": float(np.max(np.abs(strip.p_s - strip.p_s[0]))),
                        "delta_s": float(strip.s[-1] - strip.s[0]),
                        "boundary_exit": bool(strip.boundary_exit)})
    report["files"] = files
    report["strips"] = metrics


def _strips(cfg, scen, args) -> list:
    """The config's strips as one stack; the first failed one raises, before any output."""
    integ, span = _integrator_from(cfg, args.fixed_step), _tau_span(cfg)
    items = batch_propagate(scen.surface, _states_from(cfg, scen), span, integ)
    for error in (item.error for item in items if not item.ok):
        raise error
    return [item.strip for item in items]


def _front_from(cfg, scen):
    spec = _Block(cfg["front"], {"kind", "n", "n_tau", "radius", "center", "axis", "value",
                                "span", "branch"}, "'front'")
    n = _integral(spec.get("n", 64), "front n")
    if spec.choice("kind", ("circle", "flat")) == "circle":
        sigma = circle_front(scen.chart, _finite(spec.get("radius", 1.0), "front radius"), n,
                             center=_finite(spec.get("center", (0.0, 0.0)), "front center"))
    else:
        _multi_index(scen.chart, {spec["axis"]: 1}, "front")
        sigma = flat_front(scen.chart, spec["axis"], _finite(spec["value"], "front value"),
                           _finite(spec.get("span", (-1.0, 1.0)), "front span"), n)
    return sigma, tuple(spec.get("branch", (1, 0)))


def _run_wavefront(cfg, scen, args, report):
    integ = _integrator_from(cfg, args.fixed_step)
    span = _tau_span(cfg)
    sigma, branch = _front_from(cfg, scen)
    n_tau = _integral(cfg["front"].get("n_tau", 101), "front n_tau")
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
    report["lift_dropped"] = {"count": len(lift.failures), "u": [u for u, _ in lift.failures]}
    report.update(_projection_report(hist))


def _projection_report(run) -> dict:
    """The integrator's max |G| before the on-shell projection of a Strip
    or FrontHistory, and the largest |delta p| the projection applied."""
    return {"max_abs_g_raw": float(np.max(np.abs(run.g_raw))),
            "max_projection_correction": float(np.max(run.p_correction))}


def _run_noether(cfg, scen, args, report):
    constants = _constants(cfg)
    blocks = cfg.get("symmetries")
    if not blocks:
        raise ConfigError("key 'symmetries' is required for the noether-check run")
    from .exprs import scalar_field
    rng = np.random.default_rng(args.seed)
    strips = _strips(cfg, scen, args)
    results = []
    for i, b in enumerate(blocks):
        b = _Block(b, {"v", "f"}, f"symmetry #{i}")
        v = [scalar_field(str(c), scen.chart, constants) for c in b["v"]]
        f = scalar_field(str(b.get("f", "0")), scen.chart, constants)
        sym = SymmetryField.build(scen.chart, v, f)
        results.append({"symmetry": i,
                        "residual": check_symmetry(scen.surface, sym, rng=rng),
                        "drift": [conservation_drift(scen.surface, sym, s) for s in strips]})
    report["symmetries"] = results
    report["files"] = {}


def _operator_from(cfg) -> LinearDiffOperator:
    scen_spec = _Block(cfg.get("scenario") or {}, SCENARIO_KEYS, "'scenario'")
    if scen_spec.get("builtin") == "schrodinger":
        scen = _builtin(scen_spec)
        return scen.extras["operator"]
    spec = cfg.get("operator")
    if not spec:
        raise ConfigError("the symbol run needs an 'operator' block "
                          "or the schrodinger builtin")
    _Block(spec, {"terms", "s_axis"}, "'operator'")
    chart = _chart_from(cfg)
    terms = {}
    for i, ent in enumerate(spec.get("terms", [])):
        c = _Block(ent, {"multi", "coeff"}, f"operator term #{i}")["coeff"]
        terms[_multi_index(chart, ent.get("multi"), "multi")] = (
            _poly_from_spec(chart, c) if isinstance(c, list)
            else _number(c, f"operator term #{i} coeff"))
    return LinearDiffOperator(chart, terms, s_axis=spec.get("s_axis", "s"))


def _run_symbol(cfg, scen_unused, args, report):
    D = _operator_from(cfg)
    lams = _finite(cfg.get("lambdas", np.geomspace(2.0, 500.0, 12)), "lambdas").tolist()
    phases = cfg.get("phases")
    if not phases:
        raise ConfigError("key 'phases' is required for the symbol run")
    results = []
    for i, ph in enumerate(phases):
        ph = _Block(ph, {"poly", "s_weight", "at", "mode", "points"}, f"phase #{i}")
        poly = _poly_from_spec(D.chart, ph.get("poly", []))
        if ph.get("s_weight"):
            s_weight = _number(ph["s_weight"], f"phase #{i} s_weight")
            poly = poly_phase(D.chart, poly.coeffs, s_weight=s_weight)
        x0 = _finite(ph.get("at", [0.0] * D.dim), f"phase #{i} at")
        entry = {"phase": i}
        if ph.choice("mode", ("scaling", "eikonal")) == "eikonal":
            pts = [_finite(p, f"phase #{i} points") for p in ph.get("points", [x0])]
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
        b = _Block(b, {"points", "center", "side"}, f"loop #{i}")
        loop = (_finite(b["points"], f"loop #{i} points") if "points" in b else
                square_loop(_finite(b.get("center", (0.0, 0.0)), f"loop #{i} center"),
                            _finite(b["side"], f"loop #{i} side")))
        results.append({"loop": i, "delta_s": holonomy(loop)})
    report["loops"] = results
    report["files"] = {}


def _run_wave_diagram(cfg, scen, args, report):
    spec = _Block(cfg.get("diagram") or {}, {"at", "n", "biduality_check"}, "'diagram'")
    x0 = _finite(spec.get("at", [0.0] * scen.chart.dim), "diagram at")
    n = _integral(spec.get("n", 64), "diagram n")
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
    except OSError as exc:   # out_io.OutputError too
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ContactFlowError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
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
