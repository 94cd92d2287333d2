"""Scenario runner: parse a YAML scenario file, run one analysis, emit files.

Exit codes: 0 success, 1 configuration error, 2 numerical failure, 3 I/O
error.  All sampling seeds and output digests land in the JSON report so a
run can be reproduced and checked byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

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
from .scenarios import Scenario, builtin
from .strips import CharacteristicState, IntegratorConfig, batch_propagate

SCHEMA_VERSION = 1
SUBCOMMANDS = ("propagate", "wavefront", "noether-check", "symbol", "holonomy", "wave-diagram")
STRIP_SUBCOMMANDS = SUBCOMMANDS[:3]   # the runs that integrate strips
REQUIRED = object()   # the default of a key that a config must give
DIM = "dim"           # a length that is the chart's dimension


# --- the config table ---------------------------------------------------------
# CONFIG is the table of every key a config may hold.  Its kinds check the value at a
# key path and return it as the runs read it, or raise a ConfigError led by the path.

def _fail(path: str, want: str, value):
    raise ConfigError(f"{path or 'the config'} must be {want}, got {value!r}")


def _kind(want: str, test, convert=lambda value: value):
    """The kind of the values that pass ``test``, read through ``convert``."""
    def check(value, path, dim):
        if not test(value):
            _fail(path, want, value)
        return convert(value)
    return check


def _is_number(value) -> bool:
    """Whether value is a finite number, not a bool (YAML's string 1e-3 counts)."""
    try:
        return not isinstance(value, bool) and math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):   # 10**400 is too large for a float
        return False


def _count(least: int):   # an int or an integral float, not a bool
    return _kind(f"an integer of at least {least}", lambda v: isinstance(v, (int, float))
                 and _is_number(v) and float(v).is_integer() and v >= least, int)


def _choice(*choices):   # a bool matches only a bool
    return _kind(f"one of {list(choices)}", lambda v: any(
        v == c and isinstance(v, bool) == isinstance(c, bool) for c in choices))


_number = _kind("a finite number", _is_number, float)
_name = _kind("a name", lambda v: isinstance(v, str))
# an expression string, or a finite number as the expression of itself
_expression = _kind("an expression", lambda v: isinstance(v, str) or _is_number(v), str)


def _list(item, n=None, least=1):
    """A list of ``n`` items (DIM: the chart's dimension, once known; None: at
    least ``least``), each of kind ``item``, or of the kinds in a tuple ``item``."""
    def check(value, path, dim) -> list:
        size = len(item) if isinstance(item, tuple) else dim if n is DIM else n
        if not isinstance(value, list) or (len(value) != size if size else len(value) < least):
            _fail(path, f"a list of {size} items" if size else
                  "a non-empty list" if least else "a list", value)
        kinds = item if isinstance(item, tuple) else [item] * len(value)
        return [k(v, f"{path}[{i}]", dim) for i, (k, v) in enumerate(zip(kinds, value))]
    return check


def _numbers(*shape):
    """Finite numbers as nested lists whose lengths are ``shape``'s, each as _list's ``n``."""
    return _list(_numbers(*shape[1:]) if shape[1:] else _number, shape[0])


def _map(item, **special):
    """A mapping of names to values of kind ``item``, or ``special``'s for its names."""
    def check(value, path, dim) -> dict:
        if not isinstance(value, dict):
            _fail(path, "a mapping", value)
        return {k: special.get(k, item)(v, f"{path}.{k}", dim) for k, v in value.items()}
    return check


def _number_or(kind, of_type):
    """A finite number, or a value of ``kind`` where the value is an ``of_type``."""
    return lambda value, path, dim: (kind if isinstance(value, of_type) else _number)(
        value, path, dim)


def _block(table: dict):
    """A mapping with no keys but ``table``'s, {key: (kind, default)}.  An absent
    key takes its default, checked as any value; a default of None stays None."""
    def check(value, path, dim) -> dict:
        if not isinstance(value, dict):
            _fail(path, "a mapping", value)
        at = {key: f"{path}.{key}" if path else str(key) for key in [*table, *value]}
        for key in value:
            if key not in table:
                raise ConfigError(f"{at[key]} is an unknown key; "
                                  f"{path or 'the config'} takes {sorted(table)}")
        out = {}
        for key, (kind, default) in table.items():
            if key not in value and default is REQUIRED:
                raise ConfigError(f"{at[key]} is required")
            given = value.get(key, default)
            out[key] = None if given is None and key not in value else kind(given, at[key], dim)
        return out
    return check


_POLY = _list(_block({"powers": (_map(_count(0)), {}), "c": (_number, REQUIRED)}), least=0)
_INTEGRATOR = {f.name: ({"method": _choice("adaptive", "fixed"), "n_out": _count(2)}.get(
    f.name, _number), f.default) for f in fields(IntegratorConfig)}
CONFIG = _block({
    "schema_version": (_choice(SCHEMA_VERSION), REQUIRED),
    "chart": (_block({"axes": (_list(_name), REQUIRED),
                      "bounds": (_numbers(None, 2), REQUIRED)}), None),
    "scenario": (_block({"builtin": (_name, None),
                         "builtin_args": (_map(_number, V=_number_or(_map(_number), dict)), {}),
                         "symbol": (_block({"expression": (_expression, REQUIRED),
                                            "degree": (_count(1), REQUIRED)}), None),
                         "name": (_name, "custom")}), None),
    "constants": (_map(_number), {}),
    "connection": (_list(_expression, DIM), None),
    "strips": (_list(_block({"x": (_numbers(DIM), REQUIRED), "s": (_number, 0.0),
                             "p": (_numbers(DIM), REQUIRED), "p_s": (_number, 1.0)})), None),
    "tau_span": (_numbers(2), [0.0, 10.0]),
    "integrator": (_block(_INTEGRATOR), {}),
    "front": (_block({"kind": (_choice("circle", "flat"), "circle"), "n": (_count(2), 64),
                      "n_tau": (_count(1), 101), "radius": (_number, 1.0),
                      "center": (_numbers(2), [0.0, 0.0]), "axis": (_name, None),
                      "value": (_number, None), "span": (_numbers(2), [-1.0, 1.0]),
                      "branch": (_list((_choice(1, -1), _count(0))), [1, 0])}), None),
    "symmetries": (_list(_block({"v": (_list(_expression, DIM), REQUIRED),
                                 "f": (_expression, "0")})), None),
    "operator": (_block({"s_axis": (_name, "s"), "terms": (_list(_block({
        "multi": (_map(_count(0)), {}), "coeff": (_number_or(_POLY, list), REQUIRED)})),
        REQUIRED)}), None),
    "lambdas": (_numbers(None), np.geomspace(2.0, 500.0, 12).tolist()),
    "phases": (_list(_block({"poly": (_POLY, []), "s_weight": (_number, 0.0),
                             "at": (_numbers(DIM), None), "points": (_numbers(None, DIM), None),
                             "mode": (_choice("scaling", "eikonal"), "scaling")})), None),
    "loops": (_list(_block({"points": (_numbers(None, None), None), "side": (_number, None),
                            "center": (_numbers(2), [0.0, 0.0])})), None),
    "diagram": (_block({"at": (_numbers(DIM), None), "n": (_count(1), 64),
                        "biduality_check": (_choice(False, True), False)}), {}),
})


def _load_config(path: str):
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"YAML parse error in {path}{loc}: {exc}") from exc


def _checked(raw, sub: str, dim: int | None = None) -> dict:
    """The config checked against CONFIG, with its defaults, and ``dim`` as DIM."""
    cfg = CONFIG(raw, "", dim)
    for key in _RUNNERS[sub][1]:
        if cfg[key] is None:
            raise ConfigError(f"{key} is required for the {sub} run")
    return cfg


def _call(path: str, fn, /, *args, **kwargs):
    """fn(*args, **kwargs) on the config values at ``path``; the ValueError
    (ContractViolation) or ConfigError it raises becomes one that names the
    path, and below it the ConfigError's ``key`` if it has one."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ConfigError) as exc:
        at = getattr(exc, "key", None)
        raise ConfigError(f"{path}.{at}: {exc}" if at else f"{path}: {exc}") from exc


def _chart_from(cfg: dict, user: str) -> Chart:
    if cfg["chart"] is None:
        raise ConfigError(f"chart is required with {user}")
    # the table leaves Chart one check: one (lower < upper) row per axis
    return _call("chart.bounds", Chart, cfg["chart"]["axes"], cfg["chart"]["bounds"])


def _scenario_from(cfg: dict) -> Scenario:
    spec = cfg["scenario"]
    if (spec["builtin"] is None) == (spec["symbol"] is None):
        raise ConfigError("scenario needs one of scenario.builtin and scenario.symbol")
    if spec["builtin"] is not None:   # builtin checks the name and the arguments
        return _call("scenario", builtin, spec["builtin"], **spec["builtin_args"])
    from .exprs import symbol_surface
    chart = _chart_from(cfg, "scenario.symbol")
    E = _call("scenario.symbol", symbol_surface, spec["symbol"]["expression"], chart,
              spec["symbol"]["degree"], constants=cfg["constants"], name=spec["name"])
    return Scenario(spec["name"], E, ConnectionData(chart, [0.0] * chart.dim))


def _integrator_from(cfg: dict, fixed_step: float | None) -> IntegratorConfig:
    """The integrator block (IntegratorConfig checks the ranges), or --fixed-step's."""
    fixed = {} if fixed_step is None else {"method": "fixed", "dt": fixed_step}
    return _call("integrator", IntegratorConfig, **{**cfg["integrator"], **fixed})


def _states_from(cfg: dict, scen: Scenario) -> list[CharacteristicState]:
    if cfg["strips"] is None and not scen.initial_states:
        raise ConfigError("strips is required: the scenario has no default states")
    return list(scen.initial_states) if cfg["strips"] is None else [
        _call(f"strips[{i}]", CharacteristicState, b["x"], b["s"], b["p"], b["p_s"])
        for i, b in enumerate(cfg["strips"])]


def _poly_from(chart: Chart, terms: list, path: str) -> PolyField:
    coeffs = {}
    for i, term in enumerate(terms):
        mono = _call(f"{path}[{i}].powers", chart.multi_index, term["powers"])
        coeffs[mono] = coeffs.get(mono, 0.0) + term["c"]
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
    report.update(files=files, strips=metrics)


def _strips(cfg, scen, args) -> list:
    """The config's strips as one stack; the first failed one raises, before any output."""
    items = batch_propagate(scen.surface, _states_from(cfg, scen), cfg["tau_span"],
                            _integrator_from(cfg, args.fixed_step))
    for error in (item.error for item in items if not item.ok):
        raise error
    return [item.strip for item in items]


def _front_from(spec: dict, scen: Scenario):
    if spec["kind"] == "circle":
        sigma = circle_front(scen.chart, spec["radius"], spec["n"], center=spec["center"])
    else:
        if spec["axis"] is None or spec["value"] is None:
            raise ConfigError("front.axis and front.value are required for a flat front")
        _call("front.axis", scen.chart.axis_index, spec["axis"])
        sigma = flat_front(scen.chart, spec["axis"], spec["value"], spec["span"], spec["n"])
    return sigma, tuple(spec["branch"])


def _run_wavefront(cfg, scen, args, report):
    integ = _integrator_from(cfg, args.fixed_step)
    sigma, branch = _front_from(cfg["front"], scen)
    lift = legendre_lift(scen.surface, sigma, branch=branch)
    taus = np.linspace(*cfg["tau_span"], cfg["front"]["n_tau"])
    hist = propagate_front(scen.surface, lift, taus, integ, closed=sigma.closed)
    path = os.path.join(args.out, "front.csv")
    header = ["u", "tau"] + [f"x_{a}" for a in scen.chart.axis_names] + ["s", "jacobian_det"]
    nu, nt = hist.s.shape
    rows = np.column_stack([np.repeat(hist.params, nt), np.tile(hist.taus, nu),
                            hist.x.reshape(nu * nt, -1), hist.s.ravel(),
                            hist.jacobian_det.ravel()])
    out_io.write_csv(path, header, rows.tolist())
    report.update(files={path: out_io.sha256_of(path)}, caustics=[
        {"u_index": ev.u_index, "tau_lo": ev.tau_lo, "tau_hi": ev.tau_hi} for ev in hist.caustics],
        first_caustic_tau=hist.first_caustic_tau(), contact_residual=hist.contact_residual(),
        lift_dropped={"count": len(lift.failures), "u": [u for u, _ in lift.failures]},
        **_projection_report(hist))


def _projection_report(run) -> dict:
    """A Strip's or FrontHistory's max |G| before its projection, and its largest |delta p|."""
    return {"max_abs_g_raw": float(np.max(np.abs(run.g_raw))),
            "max_projection_correction": float(np.max(run.p_correction))}


def _run_noether(cfg, scen, args, report):
    from .exprs import scalar_field
    rng = np.random.default_rng(args.seed)
    strips = _strips(cfg, scen, args)
    results = []
    for i, b in enumerate(cfg["symmetries"]):
        v = [_call(f"symmetries[{i}].v[{j}]", scalar_field, c, scen.chart, cfg["constants"])
             for j, c in enumerate(b["v"])]
        f = _call(f"symmetries[{i}].f", scalar_field, b["f"], scen.chart, cfg["constants"])
        sym = SymmetryField.build(scen.chart, v, f)
        results.append({"symmetry": i,
                        "residual": check_symmetry(scen.surface, sym, rng=rng),
                        "drift": [conservation_drift(scen.surface, sym, s) for s in strips]})
    report.update(symmetries=results, files={})


def _operator_from(cfg) -> LinearDiffOperator:
    if cfg["scenario"] is not None and cfg["scenario"]["builtin"] == "schrodinger":
        return _scenario_from(cfg).extras["operator"]
    spec = cfg["operator"]
    if spec is None:
        raise ConfigError("operator is required for the symbol run "
                          "unless scenario.builtin is schrodinger")
    chart = _chart_from(cfg, "operator")
    terms = {}
    for i, term in enumerate(spec["terms"]):
        c, path = term["coeff"], f"operator.terms[{i}]"
        terms[_call(f"{path}.multi", chart.multi_index, term["multi"])] = (
            _poly_from(chart, c, f"{path}.coeff") if isinstance(c, list) else c)
    return LinearDiffOperator(chart, terms, s_axis=spec["s_axis"])


def _run_symbol(cfg, D, args, report):
    results = []
    for i, ph in enumerate(cfg["phases"]):
        poly = _poly_from(D.chart, ph["poly"], f"phases[{i}].poly")
        if ph["s_weight"]:
            poly = poly_phase(D.chart, poly.coeffs, s_weight=ph["s_weight"])
        x0 = np.zeros(D.dim) if ph["at"] is None else np.array(ph["at"])
        entry = {"phase": i}
        if ph["mode"] == "eikonal":
            pts = [x0] if ph["points"] is None else ph["points"]
            entry["fitted_order"] = eikonal_residual(D, poly, cfg["lambdas"], pts)
        else:
            rep = symbol_scaling_check(D, poly, cfg["lambdas"], x0)
            entry.update(fitted_exponent=rep.fitted_exponent,
                         leading_rel_error=rep.leading_rel_error, symbol_value=rep.symbol_value)
        results.append(entry)
    report.update(operator_degree=D.degree, phases=results, files={})


def _run_holonomy(cfg, subject, args, report):
    results = []
    for i, b in enumerate(cfg["loops"]):
        if b["points"] is None and b["side"] is None:
            raise ConfigError(f"loops[{i}].side is required without loops[{i}].points")
        loop = square_loop(b["center"], b["side"]) if b["points"] is None else b["points"]
        results.append({"loop": i, "delta_s": _call(f"loops[{i}].points", holonomy, loop)})
    report.update(loops=results, files={})


def _run_wave_diagram(cfg, scen, args, report):
    spec = cfg["diagram"]
    x0 = np.zeros(scen.chart.dim) if spec["at"] is None else np.array(spec["at"])
    diag = wave_diagram(scen.surface, scen.connection, x0, n_samples=spec["n"])
    path = os.path.join(args.out, "wave_diagram.csv")
    out_io.write_csv(path, ["branch"] + [f"v_{a}" for a in scen.chart.axis_names],
                     [[pt.branch, *pt.v] for pt in diag.points])
    report.update(files={path: out_io.sha256_of(path)}, n_points=len(diag.points),
                  n_lightlike=len(diag.lightlike), n_unreachable=len(diag.unreachable))
    if spec["biduality_check"] and len(diag.points) >= 8:
        pts = diag.branch("plus")
        report["biduality_hausdorff"] = hausdorff_distance(pts, legendre_dual(legendre_dual(pts)))


# each subcommand's runner and the top-level keys it needs
_RUNNERS = {
    "propagate": (_run_propagate, ("scenario",)),
    "wavefront": (_run_wavefront, ("scenario", "front")),
    "noether-check": (_run_noether, ("scenario", "symmetries")),
    "symbol": (_run_symbol, ("phases",)),
    "holonomy": (_run_holonomy, ("loops",)),
    "wave-diagram": (_run_wave_diagram, ("scenario",)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="contactflow",
                                 description="characteristic-strip engine: scenario runner")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", required=True, help="YAML scenario file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="sampling seed")
    ap.add_argument("--fixed-step", type=float, default=None, metavar="DT",
                    help="use the fixed-step integrator with this step "
                    "(propagate, wavefront and noether-check only)")
    ap.add_argument("--report", default=None, help="report JSON path (default: <out>/report.json)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    sub = args.subcommand
    report = {"subcommand": args.subcommand, "config": args.config,
              "seed": args.seed, "schema_version": SCHEMA_VERSION}
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must not be negative, got {args.seed}")
        if args.fixed_step is not None and sub not in STRIP_SUBCOMMANDS:
            raise ConfigError(f"--fixed-step does not apply to {sub}, which integrates no strips")
        raw = _load_config(args.config)
        cfg = _checked(raw, sub)
        out_io.ensure_dir(args.out)
        # the run's subject, a Scenario or the symbol run's operator, fixes the chart
        subject = (None if sub == "holonomy" else _operator_from(cfg) if sub == "symbol"
                   else _scenario_from(cfg))
        if subject is not None:
            cfg = _checked(raw, sub, subject.chart.dim)
        if isinstance(subject, Scenario):
            report["scenario"] = subject.name
            if cfg["connection"] is not None:
                from .exprs import connection_components as parsed
                subject.connection = ConnectionData(subject.chart, _call(
                    "connection", parsed, cfg["connection"], subject.chart, cfg["constants"]))
        _RUNNERS[sub][0](cfg, subject, args, report)
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
