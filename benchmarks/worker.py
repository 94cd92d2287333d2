"""One workload process of the benchmark, started by ``run.py``.

    python benchmarks/worker.py WORKLOAD SEED SECONDS MODE SIZE

MODE ``setup`` times set-up only.  ``run`` times set-up, then runs whole
cycles of the workload's mix, one op after another on one thread, and stops
after the cycle that ends nearest to SECONDS.  ``trace`` runs a fixed
number of cycles twice from the same seed, untraced and then traced, the two
passes together taking about SECONDS, and reports per-layer metrics.
Every op and every set-up is timed next to the host-speed probe of
``probe.py``, and the reported times are scaled by it.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
import sys
import time

#: complaints kept per run for the report
MAX_PROBLEMS = 5
#: untimed ops before timing: on a shared 2-core Xeon host the first seconds
#: of work ran up to 1.8x slower, and first calls fill lazy caches
WARMUP_S = 2.0
#: probes timed after set-up, to scale set-up time
SETUP_PROBES = 3


def one_op(wl, kind, rng):
    """Time the host-speed probe, then run and check one op; a raising op
    counts as failed, the run goes on."""
    import probe

    probe_s = probe.probe()
    t = time.perf_counter()
    try:
        problems = wl.op(kind, rng)
    except Exception as exc:  # noqa: BLE001 - per-op isolation is the contract
        problems = [f"{type(exc).__name__}: {exc}"]
    return kind, time.perf_counter() - t, problems, probe_s


def warm_up(wl, seed):
    """Checked but untimed ops, drawn from their own stream so the timed
    inputs do not depend on how many warm-up ops ran."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    start = time.perf_counter()
    records = []
    while time.perf_counter() - start < WARMUP_S:
        records.append(one_op(wl, wl.mix[rng.integers(len(wl.mix))], rng))
    return records


def run_cycles(wl, seed, done):
    """Run whole cycles of the mix until ``done(cycles, elapsed)``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    records = []
    start = time.perf_counter()
    cycles = 0
    while True:
        records += [one_op(wl, wl.mix[i], rng) for i in rng.permutation(len(wl.mix))]
        cycles += 1
        if done(cycles, time.perf_counter() - start):
            return records, rng


def timing(wl, records):
    """End-to-end timing figures of one timed phase."""
    import probe

    lat = sorted(r[1] for r in records)
    # a plain median of a mix of op kinds lands between the kinds' latency
    # modes; every cycle holds the exact mix, so take the median over cycles
    # of the mean op latency in the cycle (one op per cycle on front-caustic)
    k = len(wl.mix)
    p50 = statistics.median(sum(r[1] for r in records[i:i + k]) / k
                            for i in range(0, len(records), k))
    n = len(lat)
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else 0
    tail = ({"value": lat[math.ceil(pct / 100.0 * n) - 1], "percentile": pct, "samples": n}
            if pct >= 90 else {"value": None, "percentile": None, "samples": n})
    completed = sum(1 for r in records if not r[2])
    # other tenants of a shared host slow every op by up to a half, for
    # seconds to minutes at a time; the probe timed before each op samples
    # the same slowdown, so the scaled throughput keeps only the program's
    raw = completed / sum(r[1] for r in records)
    probes = [r[3] for r in records]
    return {"ops_per_s": raw / probe.scale(probes), "raw_ops_per_s": raw,
            "probe_s": statistics.fmean(probes), "op_p50_s": p50, "op_tail": tail}


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv):
    # a stopped worker raises KeyboardInterrupt, whatever its parent ignored,
    # so subprocess.run kills the CLI child it is waiting on
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.default_int_handler)
    name, seed, seconds, mode, size = argv
    seed, seconds = int(seed), float(seconds)

    t0 = time.perf_counter()
    import workloads  # imports numpy and contactflow: part of set-up
    if mode == "trace":
        import tracer
        tr = tracer.Tracer()
        tr.install()
    wl = workloads.WORKLOADS[name](tiny=size == "tiny", in_process=mode == "trace")
    if mode == "trace":
        tr.uninstall()
    setup_s = time.perf_counter() - t0
    # imported here and in the functions above, never at the top: it imports
    # numpy and scipy, which set-up must pay for
    import probe

    probe.probe()  # its first call pays for lazy imports inside scipy
    probes = [probe.probe() for _ in range(SETUP_PROBES)]
    out = {"setup_s": setup_s * probe.scale(probes), "raw_setup_s": setup_s,
           "probe_nominal_s": probe.NOMINAL_S,
           "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy", "sympy")}}
    if mode == "setup":
        print(json.dumps(out))
        return

    checked = warm_up(wl, seed)
    if mode == "run":
        # stop after the cycle that ends nearest to the requested run length
        records, rng = run_cycles(
            wl, seed, lambda c, elapsed: elapsed * (1.0 + 0.5 / c) >= seconds)
        out.update(timing(wl, records), peak_rss_mb=peak_rss_mb())
    else:
        n_cycles = max(1, round(seconds / (2.0 * wl.trace_cycle_s)))
        untraced, rng = run_cycles(wl, seed, lambda c, elapsed: c >= n_cycles)
        base = timing(wl, untraced)
        checked += untraced
        tr.install()
        records, rng = run_cycles(wl, seed, lambda c, elapsed: c >= n_cycles)
        tr.uninstall()
        out.update(timing(wl, records))
        out["per_layer"] = tracer.per_layer_metrics(tr, len(records))
        out["per_layer"].update({
            "trace.ops_per_s": out["ops_per_s"],
            "trace.untraced_ops_per_s": base["ops_per_s"],
            "trace.overhead_frac": 1.0 - out["ops_per_s"] / base["ops_per_s"],
        })
    # every op went through its oracle: warm-up and untraced ops count too
    checked += records
    failed = [r for r in checked if r[2]]
    out.update(attempted=len(checked), failed=len(failed),
               problems=[f"{k}: {'; '.join(p)}" for k, _, p, _ in failed[:MAX_PROBLEMS]])
    if hasattr(wl, "known_defects"):
        out["known_defects"] = wl.known_defects(rng)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
