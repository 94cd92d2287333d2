"""Span tracer for the benchmark's traced run.

The tracer wraps contactflow's public functions from outside: every module
binding of a traced function (for example ``fronts.batch_propagate`` and
``strips.propagate``) is replaced by a wrapper that records a span, so nested
calls nest as spans.  Nothing under ``src/`` changes.  Symbol evaluations
take microseconds each, so ``SymbolSurface.value`` and ``.gradient`` are
counted, not timed; ``brentq`` calls are counted the same way.

A span is ``[name, start, end, parent]``.  All spans stay in memory until the
run ends, when ``per_layer_metrics`` folds them into self times: a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import scipy.optimize

from contactflow import (bundle, cli, exprs, fronts, io, noether, operators,
                         phase, scenarios, strips)

#: counters also attributed to every open span, so a layer's own share shows
INCLUSIVE = ("value", "brentq")

CLI_SUBCOMMANDS = ("propagate", "wavefront", "noether-check", "symbol",
                   "holonomy", "wave-diagram")

#: span names reported as ``<name>.self_s``
SELF_TIMED = (
    "scenarios.builtin", "exprs.symbol_surface", "exprs.scalar_field",
    "ode", "strips.propagate_adaptive", "strips.propagate_fixed",
    "strips.batch_propagate", "strips.sample_onshell",
    "fronts.legendre_lift", "fronts.propagate_front", "fronts.contact_residual",
    "fronts.front_action_function",
    "bundle.wave_diagram", "bundle.legendre_dual", "bundle.hausdorff_distance",
    "noether.conservation_drift", "noether.check_symmetry",
    "phase.to_phase", "phase.holonomy",
    "operators.symbol_scaling_check", "operators.eikonal_residual",
    "io.write_csv", "io.sha256_of", "io.write_report",
) + tuple(f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS)


def _propagate_name(args, kwargs):
    integ = kwargs.get("integ", args[3] if len(args) > 3 else None)
    return f"strips.propagate_{integ.method if integ is not None else 'adaptive'}"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.main.{argv[0]}"


def _note_lift(counts, args, kwargs, result):
    sigma = args[1] if len(args) > 1 else kwargs["sigma"]
    counts["fronts.lift.samples"] += len(sigma.params)
    counts["fronts.lift.dropped"] += len(sigma.params) - len(result)


def _note_front(counts, args, kwargs, result):
    counts["fronts.caustics"] += len(result.caustics)


def _note_diagram(counts, args, kwargs, result):
    n = args[3] if len(args) > 3 else kwargs.get("n_samples", 64)
    # two p_s sections of n directions each, plus the null-class angle scan
    counts["bundle.rays"] += 2 * n + max(n, 16)
    counts["bundle.points"] += len(result.points)


def _note_csv(counts, args, kwargs, result):
    counts["io.csv_bytes"] += os.path.getsize(result)


def _note_ode(counts, args, kwargs, result):
    counts["ode.nfev"] += int(result.nfev)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[tuple[int, tuple]] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn, args, kwargs, note):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append((idx, tuple(self.counts[k] for k in INCLUSIVE)))
        self.counts[f"{name}.calls"] += 1
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counts[f"{name}.raised"] += 1
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            _, before = self._stack.pop()
            for key, b in zip(INCLUSIVE, before):
                self.inclusive[name][key] += self.counts[key] - b
        if note is not None:
            note(self.counts, args, kwargs, result)
        return result

    def _timed(self, fn, name, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return self._span(span, fn, args, kwargs, note)
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_bindings(self, fn, wrapper):
        """Replace every contactflow module binding of ``fn`` by ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "contactflow":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the traced bindings; ``uninstall`` restores them."""
        timed = {
            scenarios.builtin: ("scenarios.builtin", None),
            exprs.symbol_surface: ("exprs.symbol_surface", None),
            exprs.scalar_field: ("exprs.scalar_field", None),
            strips.solve_ivp: ("ode", _note_ode),
            strips.propagate: (_propagate_name, None),
            strips.batch_propagate: ("strips.batch_propagate", None),
            strips.sample_onshell: ("strips.sample_onshell", None),
            fronts.legendre_lift: ("fronts.legendre_lift", _note_lift),
            fronts.propagate_front: ("fronts.propagate_front", _note_front),
            fronts.front_action_function: ("fronts.front_action_function", None),
            bundle.wave_diagram: ("bundle.wave_diagram", _note_diagram),
            bundle.legendre_dual: ("bundle.legendre_dual", None),
            bundle.hausdorff_distance: ("bundle.hausdorff_distance", None),
            noether.conservation_drift: ("noether.conservation_drift", None),
            noether.check_symmetry: ("noether.check_symmetry", None),
            phase.to_phase: ("phase.to_phase", None),
            phase.holonomy: ("phase.holonomy", None),
            operators.symbol_scaling_check: ("operators.symbol_scaling_check", None),
            operators.eikonal_residual: ("operators.eikonal_residual", None),
            io.write_csv: ("io.write_csv", _note_csv),
            io.sha256_of: ("io.sha256_of", None),
            io.write_report: ("io.write_report", None),
            cli.main: (_cli_name, None),
        }
        for fn, (name, note) in timed.items():
            self._replace_bindings(fn, self._timed(fn, name, note))
        self._replace(fronts.FrontHistory, "contact_residual",
                      self._timed(fronts.FrontHistory.contact_residual,
                                  "fronts.contact_residual"))
        for method in ("value", "gradient"):
            self._replace(strips.SymbolSurface, method,
                          self._counted(getattr(strips.SymbolSurface, method), method))
        # fronts binds brentq at import; bundle and strips import it from
        # scipy.optimize inside their functions
        brentq = scipy.optimize.brentq
        counted = self._counted(brentq, "brentq")
        self._replace_bindings(brentq, counted)
        self._replace(scipy.optimize, "brentq", counted)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds, summed over the run."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return totals


def per_layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Layer metrics of a traced pass of ``ops`` operations, per op."""
    selfs = tracer.self_times()
    c = tracer.counts
    incl = tracer.inclusive
    out = {f"{name}.self_s": selfs.get(name, 0.0) / ops for name in SELF_TIMED}
    totals = {
        "symbol.value_calls": c["value"],
        "symbol.grad_calls": c["gradient"],
        "ode.calls": c["ode.calls"],
        "ode.nfev": c["ode.nfev"],
        "strips.propagate.calls": (c["strips.propagate_adaptive.calls"]
                                   + c["strips.propagate_fixed.calls"]),
        "strips.propagate.failed": (c["strips.propagate_adaptive.raised"]
                                    + c["strips.propagate_fixed.raised"]),
        "fronts.lift.brentq_calls": incl["fronts.legendre_lift"]["brentq"],
        "fronts.lift.dropped": c["fronts.lift.dropped"],
        "fronts.caustics": c["fronts.caustics"],
        "bundle.brentq_calls": incl["bundle.wave_diagram"]["brentq"],
        "phase.to_phase.calls": c["phase.to_phase.calls"],
        "io.csv_bytes": c["io.csv_bytes"],
    }
    out.update({name: total / ops for name, total in totals.items()})
    samples, rays = c["fronts.lift.samples"], c["bundle.rays"]
    out["fronts.lift.evals_per_sample"] = (
        incl["fronts.legendre_lift"]["value"] / samples if samples else 0.0)
    out["bundle.wave_diagram.evals_per_ray"] = (
        incl["bundle.wave_diagram"]["value"] / rays if rays else 0.0)
    out["bundle.diagram.useful_ratio"] = c["bundle.points"] / rays if rays else 0.0
    return out
