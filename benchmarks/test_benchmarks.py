"""Self-tests of the benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest -q benchmarks

They run every workload at tiny size, check that each oracle catches a
corrupted result, and check that traced count metrics repeat exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: per-layer metrics measured in time, which may differ between runs
TIMED_UNITS = {"s", "s/op", "op/s", "1"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_named_metric(workload):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny"]
    text, res = result(*args, "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        assert res["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert res["metrics"][spec["name"]]["value"] > 0
        assert any(line.split()[:1] == [spec["name"]] and line.endswith(spec["unit"])
                   for line in text)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for printed in ("op_p50_s", "op_tail_s", "fail_frac"):
        assert any(line.split()[:1] == [printed] for line in text)
    assert any(line.startswith("provenance: ") for line in text)

    traced = [result(*args, "--trace", "1")[1] for _ in range(2)]
    for res in traced:
        assert res["correct"]
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v for k, v in res["metrics"].items() if v["unit"] not in TIMED_UNITS}
              for res in traced]
    assert counts[0] == counts[1]


def test_result_refused_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "strip-mix", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_front_oracle_catches_corruption():
    wl = workloads.FrontCaustic(tiny=True)
    radius, centre = 1.2, np.array([0.4, -0.3])
    hist, n_lifted, slices, residual = wl.front(radius, centre)
    check = lambda: workloads.check_front(hist, n_lifted, slices, residual,  # noqa: E731
                                          radius, centre, wl.n_rays)
    assert check() == []
    step = hist.taus[1] - hist.taus[0]
    event = hist.caustics[0]
    event.tau_lo, event.tau_hi = event.tau_lo + step, event.tau_hi + step
    assert any("caustic" in p for p in check())
    event.tau_lo, event.tau_hi = event.tau_lo - step, event.tau_hi - step
    hist.x[3, 2] += np.array([1e-3, 0.0])
    assert any("radius" in p for p in check())
    hist.x[3, 2] -= np.array([1e-3, 0.0])
    assert check() == []
    assert any("dropped" in p for p in workloads.check_front(
        hist, n_lifted - 1, slices, residual, radius, centre, wl.n_rays))


def test_strip_oracles_catch_corruption():
    import contactflow as cf

    wl = workloads.StripMix()
    E, integ = wl.oscillators["osc-adaptive"]
    a = 0.7
    init = cf.CharacteristicState([0.0, 0.0], 0.0, [-0.5 * a * a, a], 1.0)
    strip = cf.propagate(E, init, wl.osc_span, integ)
    coords = a * np.array([np.sin(5.0), np.cos(5.0)])
    check = lambda drift=0.0, coords=coords: workloads.check_oscillator(  # noqa: E731
        strip, integ.tol_onshell, wl.osc_span[1], a, drift, coords)
    assert check() == []
    assert check(drift=1e-7)
    assert check(coords=coords + 1e-3)
    strip.x[50, 1] += 1e-3
    assert any("sin" in p for p in check())
    strip.x[50, 1] -= 1e-3
    strip.p_s[7] += 1e-15
    assert any("p_s" in p for p in check())


def test_diagram_oracles_catch_corruption():
    import contactflow as cf

    wl = workloads.WaveDiagrams(tiny=True)
    scen = wl.scenarios["eikonal"]
    diag = cf.wave_diagram(scen.surface, scen.connection, [0.5, 0.5], n_samples=wl.n)
    assert workloads.check_eikonal_diagram(diag, wl.n, 0.0) == []
    assert workloads.check_eikonal_diagram(diag, wl.n, 1e-5)
    diag.points[0].v = diag.points[0].v * 1.001
    assert workloads.check_eikonal_diagram(diag, wl.n, 0.0)

    scen = wl.scenarios["relativistic-charged"]
    x = np.array([0.3, -0.8])
    diag = cf.wave_diagram(scen.surface, scen.connection, x, n_samples=wl.n)
    assert workloads.check_charged_diagram(diag, x) == []
    assert workloads.check_charged_diagram(diag, x + np.array([0.0, 1e-3]))


def test_cli_oracle_catches_corruption(tmp_path):
    csv = tmp_path / "strip_0.csv"
    csv.write_text("tau,x\n0.0,1.0\n")
    report = {"files": {str(csv): workloads.sha256_of(csv)}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    digests = {}
    assert workloads.check_cli(0, "", tmp_path, digests, "fixed") == []
    assert workloads.check_cli(0, "", tmp_path, digests, "fixed") == []
    assert workloads.check_cli(2, "numerical failure", tmp_path, digests, None)
    (tmp_path / "report.json").write_text(json.dumps({**report, "biduality_hausdorff": 1e-3}))
    assert workloads.check_cli(0, "", tmp_path, digests, None)
    (tmp_path / "report.json").write_text(json.dumps(report))
    csv.write_text("tau,x\n0.0,1.5\n")
    problems = workloads.check_cli(0, "", tmp_path, digests, "fixed")
    assert any("report digest" in p for p in problems)
    assert any("earlier repeat" in p for p in problems)
