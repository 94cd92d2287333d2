"""contactflow benchmark: four closed-loop workloads, each op checked by an oracle.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads (one client, one op after another, one thread):

- ``front-caustic``: an inward circle front on the eikonal symbol, 256 rays
  x 101 taus per op; the only workload where the Legendre-lift root scan,
  per-ray integration and the Jacobian/caustic scan all carry real work.
- ``strip-mix``: single characteristic strips (builtin and parsed oscillator
  symbols, adaptive and fixed-step RK4, the charged relativistic particle)
  with Noether-drift and phase-reduction checks; integration and symbol
  evaluation dominate and no root scan runs.
- ``wave-diagram``: ``wave_diagram(n=64)`` for the eikonal and relativistic
  symbols; pure root scanning, no ODE.
- ``cli-configs``: one ``contactflow`` CLI child process per bundled config,
  plus ``--fixed-step 0.01`` runs; the user-facing path, import included.

``BENCHMARK.json`` gates front-caustic and cli-configs only.  On a shared
host the speed of identical work drifts by up to a half over seconds to
minutes, so a steady figure needs long runs, and the time for all runs
allows two workloads of that length.  strip-mix and wave-diagram stay
runnable for diagnosis; the traced cli-configs run still reaches their
layers, since the bundled configs run single strips, parsed symbols,
Noether drift, phase reduction and wave diagrams.

With ``--trace 0`` the run reports the end-to-end metrics ``ops_per_s``,
``setup_s`` (median of several fresh-interpreter set-ups) and ``peak_rss_mb``,
and prints ``op_p50_s``, ``op_tail_s`` and ``fail_frac`` as well.  The two
times are scaled by the host-speed probe of ``probe.py``, timed before every
op and after every set-up, so they read as on a host where the probe takes
0.1 s; the unscaled figures and the mean probe time are printed too.  With
``--trace 1`` it reports per-layer metrics from a traced run instead.  The
last line of stdout is one JSON object; the lines before it are for people.
BLAS and OpenMP threads are pinned to 1.  Run it from anywhere; the source
tree is found next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("front-caustic", "strip-mix", "wave-diagram", "cli-configs")
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_SAMPLES = 5
#: a workload's run must end within 180 s; leave room to report
DEADLINE_S = 170.0
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
PIN = hasattr(os, "sched_setaffinity")
END_TO_END = {"ops_per_s": "op/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def bench_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _stop(proc):
    """End a child.  A worker turns SIGTERM into KeyboardInterrupt, so the
    CLI child it is waiting on is killed and reaped before it exits."""
    proc.terminate()
    try:
        proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def _child(args, deadline, stderr=None):
    """Run a Python child to completion before the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before starting {' '.join(args)}")
    with subprocess.Popen([sys.executable, *args], env=bench_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=stderr, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            _stop(proc)
            raise BenchError(f"timed out: {' '.join(args)}") from None
        except BaseException:  # this process was interrupted: end the child too
            _stop(proc)
            raise
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(args)}")
    return out, err


def worker(name, seed, seconds, mode, size, deadline):
    out, _ = _child([str(HERE / "worker.py"), name, str(seed), str(seconds), mode, size],
                    deadline)
    return json.loads(out.strip().splitlines()[-1])


def import_breakdown(deadline):
    """Per-top-level-package self times of ``import contactflow``."""
    _, err = _child(["-X", "importtime", "-c", "import contactflow"], deadline,
                    stderr=subprocess.PIPE)
    self_us: dict[str, int] = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, _, module = line[len("import time:"):].split("|")
        top = module.strip().split(".")[0]
        self_us[top] = self_us.get(top, 0) + int(own)
    return {
        "import.total_s": sum(self_us.values()) / 1e6,
        "import.sympy_s": self_us.get("sympy", 0) / 1e6,
        "import.scipy_s": self_us.get("scipy", 0) / 1e6,
        "import.numpy_s": self_us.get("numpy", 0) / 1e6,
        "import.contactflow_self_s": self_us.get("contactflow", 0) / 1e6,
    }


def provenance(args, versions):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if PIN else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "threads": {k: os.environ.get(k) for k in PINNED},
    }


def run_workload(name, args, deadline):
    """Run one workload and return (metrics, worker result)."""
    if args.trace:
        imports = import_breakdown(deadline)
        res = worker(name, args.seed, args.seconds, "trace", args.size, deadline)
        metrics = {**imports, **res["per_layer"]}
        return metrics, res
    setups = [worker(name, args.seed, args.seconds, "setup", args.size, deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    res = worker(name, args.seed, args.seconds, "run", args.size, deadline)
    setups.append(res)
    metrics = {"ops_per_s": res["ops_per_s"],
               "setup_s": statistics.median(s["setup_s"] for s in setups),
               "peak_rss_mb": res["peak_rss_mb"]}
    res["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    return metrics, res


def unit_of(metric):
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.startswith("import."):
        return "s"
    if metric.endswith(".self_s"):
        return "s/op"
    return {"fronts.lift.evals_per_sample": "count/sample",
            "bundle.wave_diagram.evals_per_ray": "count/ray",
            "bundle.diagram.useful_ratio": "point/ray",
            "trace.ops_per_s": "op/s", "trace.untraced_ops_per_s": "op/s",
            "trace.overhead_frac": "1", "io.csv_bytes": "B/op"}.get(metric, "count/op")


def report(name, metrics, res):
    """Print the human-readable lines of one workload."""
    print(f"== {name}")
    for metric, value in metrics.items():
        print(f"  {metric:40s} {value:.6g} {unit_of(metric)}")
    print(f"  {'raw_ops_per_s':40s} {res['raw_ops_per_s']:.6g} op/s (unscaled)")
    if "raw_setup_s" in res:
        print(f"  {'raw_setup_s':40s} {res['raw_setup_s']:.6g} s (unscaled)")
    print(f"  {'probe_s':40s} {res['probe_s']:.6g} s (mean; figures scaled to {res['probe_nominal_s']} s)")
    print(f"  {'op_p50_s':40s} {res['op_p50_s']:.6g} s")
    tail = res["op_tail"]
    if tail["value"] is None:
        print(f"  {'op_tail_s':40s} n/a ({tail['samples']} ops; p90 needs 100)")
    else:
        print(f"  {'op_tail_s':40s} {tail['value']:.6g} s "
              f"(p{tail['percentile']} of {tail['samples']} ops)")
    print(f"  {'fail_frac':40s} {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    for problem in res["problems"]:
        print(f"  failed: {problem}")
    for defect in res.get("known_defects", []):
        verdict = "still fails" if defect["problems"] else "now passes"
        print(f"  known defect (ROADMAP {defect['roadmap']}): {defect['op']} "
              f"exit {defect['exit']}, {verdict}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks ops for the benchmark's self-tests")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/contactflow/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"benchmark: source tree incomplete, missing {missing}", file=sys.stderr)
        return 2

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.default_int_handler)
    os.environ.update(PINNED)
    if PIN:
        # one core for every process of the run: a core that has been idle
        # runs the first seconds of work slower, and migrations add noise
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    combined = {}
    for name, (metrics, res) in results.items():
        report(name, metrics, res)
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()})
    attempted = sum(res["attempted"] for _, res in results.values())
    failed = sum(res["failed"] for _, res in results.values())
    versions = next(iter(results.values()))[1]["versions"]
    print("provenance: " + json.dumps(provenance(args, versions), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
