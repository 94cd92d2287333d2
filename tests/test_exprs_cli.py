"""Expression parsing and the command-line runner, end to end."""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from functools import reduce

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import contactflow as cf
from contactflow import strips
from contactflow.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _cfg(name):
    return os.path.join(CONFIG_DIR, name)


# ------------------------------------------------------------------ exprs

def test_scalar_field_expression_and_gradient():
    ch = cf.Chart(["t", "x"], [(-5, 5), (-5, 5)])
    f = cf.scalar_field("sin(t) * x**2 + k * x", ch, constants={"k": 2.0})
    pt = np.array([0.7, 1.3])
    assert f.value(pt) == pytest.approx(np.sin(0.7) * 1.69 + 2.6, rel=1e-12)
    g = f.gradient(pt)
    assert g[0] == pytest.approx(np.cos(0.7) * 1.69, rel=1e-12)
    assert g[1] == pytest.approx(2 * np.sin(0.7) * 1.3 + 2.0, rel=1e-12)


def test_symbol_surface_expression_matches_builtin(free):
    ch = free.chart
    E = cf.symbol_surface("p_t * p_s + p_x**2 / 2", ch, degree=2)
    x = np.array([0.1, -0.3])
    p = np.array([-0.245, 0.7])
    assert E.value(x, p, 1.0) == pytest.approx(free.surface.value(x, p, 1.0), abs=1e-14)
    gx, gp, gps = E.gradient(x, p, 1.0)
    gx2, gp2, gps2 = free.surface.gradient(x, p, 1.0)
    assert np.allclose(gx, gx2, atol=1e-9)
    assert np.allclose(gp, gp2, atol=1e-9)
    assert gps == pytest.approx(gps2, abs=1e-9)


def test_undeclared_name_is_cited():
    ch = cf.Chart(["t", "x"], [(-5, 5), (-5, 5)])
    with pytest.raises(cf.ConfigError, match="omega"):
        cf.scalar_field("omega * x", ch)


def test_disallowed_function_rejected():
    ch = cf.Chart(["x"], [(-5, 5)])
    with pytest.raises(cf.ConfigError):
        cf.scalar_field("zeta(x)", ch)


def test_an_expression_outside_the_grammar_runs_no_python(tmp_path):
    # sympify evaluates Python, so these used to create the marker file
    ch = cf.Chart(["x"], [(-5, 5)])
    marker = str(tmp_path / "marker")
    for expr in (f"x + 0*len(open({marker!r}, 'w').name)",
                 f"x + 0*len(__import__('os').open({marker!r}, 65))"):
        with pytest.raises(cf.ConfigError, match="which the grammar does not allow"):
            cf.scalar_field(expr, ch)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("expr,construct", [
    ("x ^ 2", "BitXor"), ("x if x else 1", "IfExp"), ("sin(x=1)", "Call 'sin(x=1)'"),
    ("True * x", "Constant 'True'"), ("1j * x", "Constant '1j'"), ("[x][0]", "Subscript"),
    ("x.real", "Attribute 'x.real'"), ("x < 1", "Compare"),
])
def test_constructs_outside_the_grammar_are_named(expr, construct):
    with pytest.raises(cf.ConfigError, match=re.escape(f"uses {construct}")):
        cf.scalar_field(expr, cf.Chart(["x"], [(-5, 5)]))


def test_the_grammar_admits_its_operators_and_functions():
    f = cf.scalar_field("-(x + 2.5e-1) * x / 3 ** +x - sqrt(abs(x)) + Abs(pi * E) + k",
                        cf.Chart(["x"], [(-5, 5)]), constants={"k": 1})
    x = 0.5
    assert f.value(np.array([x])) == pytest.approx(
        -(x + 0.25) * x / 3 ** x - math.sqrt(x) + math.pi * math.e + 1, rel=1e-14)


def test_expression_functions_keep_the_bits_of_lambdifys_numpy_module():
    """The numpy table binds what lambdify's "numpy" module bound: every
    allowed function, its derivatives and the constants give the same bits,
    on a stack and at one point."""
    import sympy as sp

    from contactflow import exprs
    from contactflow.charts import libm_pow
    rng = np.random.default_rng(3)
    cols = [rng.uniform(-0.9, 0.9, 400), rng.uniform(-2.0, 2.0, 400)]
    for name in exprs.ALLOWED_FUNCTIONS:   # both arguments lie in every function's domain
        expr = f"{name}((x + 1.2) / 2.5) * y**3 + pi * E * {name}(x / 3 + 0.5)"
        tree, syms = exprs._parse(expr, ["x", "y"], None)
        for t in [tree] + [sp.diff(tree, v) for v in syms]:
            printer = exprs._LibmPowPrinter({"fully_qualified_modules": False, "inline": True,
                                             "allow_unknown_functions": True,
                                             "user_functions": {}})
            old = sp.lambdify(syms, t, modules=[{"libm_pow": libm_pow}, "numpy"],
                              printer=printer)
            new = exprs._lambdify(syms, t)
            for args in (cols, [c[0] for c in cols]):   # a stack, and one point
                assert np.array_equal(new(*args), old(*args)), (name, t)


def test_a_name_outside_the_numpy_table_is_a_config_error():
    import sympy as sp

    from contactflow import exprs
    x = sp.Symbol("x", real=True)
    with pytest.raises(cf.ConfigError, match="floor"):
        exprs._lambdify([x], sp.floor(x) + sp.sin(x))


def test_connection_components_expressions():
    ch = cf.Chart(["t", "x"], [(-5, 5), (-5, 5)])
    comps = cf.connection_components(["-E0 * x", "0"], ch, constants={"E0": 0.5})
    conn = cf.ConnectionData(ch, comps)
    assert np.allclose(conn.A([0.0, 2.0]), [-1.0, 0.0], atol=1e-12)
    # F_tx = d_t A_x - d_x A_t = E0
    assert conn.curvature([0.0, 2.0])[0, 1] == pytest.approx(0.5, abs=1e-9)


# --------------------------------------------------------------- CLI runs

@pytest.mark.parametrize("sub,config", [
    ("propagate", "free.yaml"),
    ("propagate", "oscillator.yaml"),
    ("propagate", "relativistic.yaml"),
    ("wavefront", "eikonal_front.yaml"),
    ("noether-check", "noether_free.yaml"),
    ("symbol", "schrodinger_symbol.yaml"),
    ("holonomy", "holonomy.yaml"),
    ("wave-diagram", "wave_diagram_rel.yaml"),
    ("wave-diagram", "wave_diagram_eikonal.yaml"),
])
def test_cli_subcommands_run_clean(tmp_path, sub, config):
    out = tmp_path / "run"
    code = main([sub, "--config", _cfg(config), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["subcommand"] == sub


def test_cli_oscillator_report_metrics(tmp_path):
    out = tmp_path / "osc"
    assert main(["propagate", "--config", _cfg("oscillator.yaml"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    runs = report["strips"]
    assert all(r["max_abs_g"] < 1e-8 for r in runs)
    assert all(abs(r["delta_p_s"]) < 1e-12 for r in runs)
    assert not any(r["boundary_exit"] for r in runs)


def _raw_residual_and_correction(E, Y0, span, tau_eval, integ, P):
    """max |G| of the integrator's samples before the projection, and the
    largest distance from their p to the projected P."""
    _, run, _ = strips._integrate(E, Y0, *span, tau_eval, integ)
    m = E.dim
    X, P_raw = run[1:m + 1].T, run[m + 2:-1].T
    G = E.value(X, P_raw, run[-1])
    return float(np.max(np.abs(G))), float(np.max(np.linalg.norm(P - P_raw, axis=-1)))


def test_cli_reports_the_raw_residual_and_the_projection_correction(tmp_path):
    # the RK4 steps of 0.05 drift off shell by more than tol_onshell / 2, so
    # the projection acts: max_abs_g_raw is the |G| of the samples as
    # integrated and max_projection_correction the largest |delta p|, and
    # neither is the projected max_abs_g
    out = tmp_path / "osc"
    assert main(["propagate", "--config", _cfg("oscillator.yaml"), "--out", str(out),
                 "--fixed-step", "0.05"]) == 0
    (run,) = json.loads((out / "report.json").read_text())["strips"]
    E, integ = cf.builtin("oscillator").surface, cf.IntegratorConfig(method="fixed", dt=0.05)
    init = cf.builtin("oscillator").initial_states[0]
    strip = cf.propagate(E, init, (0.0, 10.0), integ)
    raw, dp = _raw_residual_and_correction(E, strips._pack(init)[None], (0.0, 10.0), None,
                                           integ, strip.p)
    assert run["max_abs_g_raw"] == raw and raw > 2 * run["max_abs_g"]
    assert run["max_projection_correction"] == pytest.approx(dp, rel=1e-12) and dp > 0
    # the same fields of a front: an oscillator flat front, whose cubic RK4
    # continuous extension drifts off shell between steps of 0.1
    cfg = tmp_path / "front.yaml"
    cfg.write_text("schema_version: 1\nscenario: {builtin: oscillator}\ntau_span: [0.0, 2.0]\n"
                   "front: {kind: flat, axis: t, value: 0.0, span: [-1.0, 1.0], n: 21, "
                   "n_tau: 41, branch: [1, 0]}\n")
    out = tmp_path / "front"
    assert main(["wavefront", "--config", str(cfg), "--out", str(out),
                 "--fixed-step", "0.1"]) == 0
    report = json.loads((out / "report.json").read_text())
    sigma = cf.flat_front(E.chart, "t", 0.0, (-1.0, 1.0), 21)
    lift = cf.legendre_lift(E, sigma, branch=(1, 0))
    taus, integ = np.linspace(0.0, 2.0, 41), cf.IntegratorConfig(method="fixed", dt=0.1)
    hist = cf.propagate_front(E, lift, taus, integ)
    Y0 = np.column_stack([lift.x, lift.s, lift.p, lift.p_s])
    raw, dp = _raw_residual_and_correction(E, Y0, (0.0, 2.0), taus, integ,
                                           hist.p.reshape(-1, 2))
    assert report["max_abs_g_raw"] == raw and raw > 2 * float(np.max(np.abs(
        E.value(hist.x, hist.p, hist.p_s))))
    assert report["max_projection_correction"] == pytest.approx(dp, rel=1e-12) and dp > 0


def test_cli_wavefront_reports_caustic(tmp_path):
    out = tmp_path / "wf"
    assert main(["wavefront", "--config", _cfg("eikonal_front.yaml"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    t0 = report["first_caustic_tau"]
    assert t0 is not None and abs(t0 - 1.0) < 0.05
    assert (out / "front.csv").exists()


@pytest.mark.parametrize("sub,config", [
    ("propagate", "free.yaml"),
    ("propagate", "oscillator.yaml"),
    ("propagate", "relativistic.yaml"),
    ("wavefront", "eikonal_front.yaml"),
    ("noether-check", "noether_free.yaml"),
])
def test_cli_fixed_step_runs_are_byte_identical(tmp_path, sub, config):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main([sub, "--config", _cfg(config), "--out", str(out),
                     "--fixed-step", "0.01"]) == 0
        outs.append(out)
    reports = [json.loads((out / "report.json").read_text()) for out in outs]
    for report in reports:
        report["files"] = {os.path.basename(k): v for k, v in report["files"].items()}
    assert reports[0] == reports[1]
    for name in os.listdir(outs[0]):
        if name.endswith(".csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    if sub == "wavefront":   # the adaptive run's caustics (0.975 is a grid tau)
        assert len(reports[0]["caustics"]) == 48
        assert reports[0]["first_caustic_tau"] == pytest.approx(0.975, abs=1e-12)
        assert reports[0]["contact_residual"] <= 1e-6


# CSV sha256 prefixes at --seed 7, with --fixed-step 0.01 and as shipped
_FIXED = ("--fixed-step", "0.01")
_PINNED_CSV = [
    ("propagate", "free.yaml", "strip_0.csv", "84efdd56bf0c", _FIXED),
    ("propagate", "oscillator.yaml", "strip_0.csv", "c5ab7482f2db", _FIXED),
    ("propagate", "relativistic.yaml", "strip_0.csv", "41621ce8a53b", _FIXED),
    ("wavefront", "eikonal_front.yaml", "front.csv", "fbdc39d30971", _FIXED),
    ("propagate", "free.yaml", "strip_0.csv", "32f549abb2a5", ()),
    ("propagate", "oscillator.yaml", "strip_0.csv", "954251a7a080", ()),
    ("propagate", "relativistic.yaml", "strip_0.csv", "7b76ee90ce1c", ()),
    ("wavefront", "eikonal_front.yaml", "front.csv", "c539094293b4", ()),
    ("wave-diagram", "wave_diagram_eikonal.yaml", "wave_diagram.csv", "50e0fb4a3966", ()),
    ("wave-diagram", "wave_diagram_rel.yaml", "wave_diagram.csv", "0178a498af45", ()),
]


@pytest.mark.parametrize("sub,config,csv,prefix,extra", [
    pytest.param(*case, id=f"{case[1]}-{case[3]}") for case in _PINNED_CSV])
def test_cli_fixed_step_csv_digests_are_pinned(tmp_path, sub, config, csv, prefix, extra):
    assert main([sub, "--config", _cfg(config), "--out", str(tmp_path),
                 "--seed", "7", *extra]) == 0
    digest = hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest()
    assert digest.startswith(prefix)


# runs the cases of argv[1] through cli.main; writes each (exit code, CSV digest
# or None for a run without one, report fields computed outside the strips) to argv[2]
_DIGEST_CHILD = """
import contextlib, hashlib, io, json, os, sys, tempfile
from contactflow.cli import main
got = []
for sub, config, csv, extra in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        rc = main([sub, "--config", config, "--out", out, "--seed", "7", *extra])
        digest = None
        if csv:
            with open(os.path.join(out, csv), "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
    got.append((rc, digest, {k: report[k] for k in ("biduality_hausdorff", "contact_residual",
                                                    "phases") if k in report}))
with open(sys.argv[2], "w") as f:
    json.dump(got, f)
"""

# the pinned cases, then the symbol run, whose report holds least-squares fits
_KERNEL_CASES = ([(sub, _cfg(config), csv, extra) for sub, config, csv, _, extra in _PINNED_CSV]
                 + [("symbol", _cfg("schrodinger_symbol.yaml"), None, ())])


def _run_digest_child(out, cases, **env):
    """The cases (subcommand, config, CSV name or None, extra arguments) in a
    child process with env added to its environment; its results go through
    the file out."""
    src = os.path.dirname(os.path.dirname(cf.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _DIGEST_CHILD, json.dumps(cases), str(out)],
                          cwd=out.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def _simd_features_off(disable: str) -> str:
    """NPY_DISABLE_CPU_FEATURES for the dispatched features numpy found: the
    AVX512 class, or all of them (numpy refuses a name it did not find)."""
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return ",".join(f for f in found
                    if disable == "all" or f == "X86_V4" or f.startswith("AVX512"))


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the forced OpenBLAS cores are x86-64 kernels")
@pytest.mark.parametrize("core,disable", [("Haswell", "avx512"), ("Nehalem", "all")])
def test_pinned_digests_hold_under_other_kernels(tmp_path, core, disable):
    """The pinned CSVs do not depend on the BLAS kernel or numpy's SIMD
    dispatch: a child process with another OpenBLAS core and with numpy's
    dispatched features turned off (the AVX512 class, or all of them) writes
    the same bytes, and reports the same biduality_hausdorff,
    contact_residual and symbol-run phases (fitted exponent and order,
    symbol value) as a child in the default environment."""
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    if core == "Haswell" and not {"X86_V3", "AVX2"} & set(found):
        pytest.skip("the Haswell core needs AVX2")
    got = _run_digest_child(tmp_path / "forced.json", _KERNEL_CASES, OPENBLAS_CORETYPE=core,
                            NPY_DISABLE_CPU_FEATURES=_simd_features_off(disable))
    wrong = [(config, prefix, rc, digest) for (_, config, _, prefix, _), (rc, digest, _)
             in zip(_PINNED_CSV, got) if rc != 0 or not digest.startswith(prefix)]
    assert not wrong, f"{len(wrong)} of {len(_PINNED_CSV)} digests moved: {wrong}"
    assert got[-1][0] == 0
    fields = [case[2] for case in _run_digest_child(tmp_path / "default.json", _KERNEL_CASES)]
    assert {k for f in fields for k in f} == {"biduality_hausdorff", "contact_residual",
                                              "phases"}
    assert [case[2] for case in got] == fields


def test_schrodinger_strip_bytes_hold_without_avx512(tmp_path):
    """The Schroedinger symbol's powers go through libm_pow, not numpy's
    array **, whose bits follow numpy's SIMD dispatch: a strip with V = x^2/2
    writes the same CSV bytes with numpy's AVX512 features turned off."""
    cfg = tmp_path / "schrodinger.yaml"
    cfg.write_text("schema_version: 1\n"
                   "scenario: {builtin: schrodinger, builtin_args: {V: {2: 0.5}}}\n"
                   "tau_span: [0.0, 10.0]\n")
    cases = [("propagate", str(cfg), "strip_0.csv", ())]
    default = _run_digest_child(tmp_path / "default.json", cases)
    assert default[0][0] == 0
    assert _run_digest_child(tmp_path / "forced.json", cases,
                             NPY_DISABLE_CPU_FEATURES=_simd_features_off("avx512")) == default


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nscenario:\n  builtin: nonsense\n")
    assert main(["propagate", "--config", str(bad), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("block,extra", [("integrator: {method: fixed, dt: 0.0}\n", ()),
                                         ("", ("--fixed-step", "-0.01"))])
def test_cli_refused_step_is_a_config_error(tmp_path, capsys, block, extra):
    cfg = tmp_path / "cfg.yaml"
    with open(_cfg("free.yaml")) as f:
        cfg.write_text(f.read() + block)
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path), *extra]) == 1
    assert "dt must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "strip_0.csv").exists()


@pytest.mark.parametrize("block,message", [
    ("integrator: {n_out: 0}\n", "integrator.n_out must be an integer of at least 2"),
    ("integrator: {n_out: 1}\n", "integrator.n_out must be an integer of at least 2"),
    ("integrator: {n_out: 2.7}\n", "integrator.n_out must be an integer of at least 2, got 2.7"),
    ("integrator: {rel_tol: .nan}\n", "integrator.rel_tol must be a finite number, got nan"),
    ("integrator: {rel_tol: -1.0e-9}\n", "rel_tol must be finite and not negative"),
    ("integrator: {tol_onshell: -1}\n", "tol_onshell must be finite and positive"),
    ("integrator: {tol_onshell: .inf}\n",
     "integrator.tol_onshell must be a finite number, got inf"),
    ("integrator: {abs_tol: .inf}\n", "integrator.abs_tol must be a finite number, got inf"),
], ids=["n_out-0", "n_out-1", "n_out-2.7", "rel_tol-nan", "rel_tol-negative",
        "tol_onshell-negative", "tol_onshell-inf", "abs_tol-inf"])
def test_cli_refused_integrator_setting_is_a_config_error(tmp_path, capsys, block, message):
    cfg = tmp_path / "cfg.yaml"
    with open(_cfg("free.yaml")) as f:
        cfg.write_text(f.read() + block)
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "strip_0.csv").exists()


@pytest.mark.parametrize("key", ["states", "integrater"])
def test_cli_unknown_top_level_key_is_a_config_error(tmp_path, capsys, key):
    # a misspelled key was ignored: `states:` ran the builtin's default strip
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\nscenario: {builtin: free}\n"
                   f"{key}:\n  - {{x: [0, 5], s: 0, p: [-0.245, 0.7], p_s: 1.0}}\n")
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key} is an unknown key; the config takes [" in err
    assert "'strips'" in err
    assert not (tmp_path / "strip_0.csv").exists()


_SYMBOL_RUN = ("chart: {axes: [t, x], bounds: [[-5, 5], [-5, 5]]}\n"
               "strips: [{x: [0.0, 0.0], p: [-0.5, 1.0]}]\ntau_span: [0, 1]\n")


_ROOT_RUN = ("chart: {axes: [t, x], bounds: [[-5, 5], [-5, 5]]}\n"
             "scenario: {symbol: {expression: 'p_t*p_s + 0.5*p_x**2 + 0.1*(x + 1)**1.5*p_s**2',"
             " degree: 2}}\ntau_span: [0, 1]\n")   # NaN for x < -1


@pytest.mark.parametrize("strip,extra,message", [
    ("{x: [0.0, -2.0], p: [-0.5, 1.0]}", [],
     "numerical failure (ContractViolation): initial state is off-shell: G = nan"),
    ("{x: [0.0, 0.0], p: [-4.6, -3.0]}", ["--fixed-step", "0.01"],
     "numerical failure (DegeneracyError): integration failed: a step's stages are not finite"),
    ("{x: [0.0, 0.0], p: [-4.6, -3.0]}", [],
     "numerical failure (DegeneracyError): integration failed: a step's stages are not finite"
     " (the step size underflowed at tau = 0.331138)"),
], ids=["nan-start", "fixed-step-crosses-x=-1", "adaptive-crosses-x=-1"])
def test_cli_symbol_outside_its_domain_is_a_numerical_failure(tmp_path, capsys, strip, extra,
                                                              message):
    # the start ended in a ValueError traceback (exit 1); the fixed-step run
    # wrote NaN rows from tau 0.38 on and reported max_abs_g "nan" at exit 0;
    # the adaptive run said "Required step size is less than spacing between
    # numbers", naming neither the NaN nor where it began
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"schema_version: 1\n{_ROOT_RUN}strips: [{strip}]\n")
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(cfg), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()


def test_cli_projection_failure_is_a_numerical_failure(tmp_path, capsys):
    # it exited 0 with max_abs_g 64.6 in report.json
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\nscenario: {builtin: oscillator}\ntau_span: [0.0, 10.0]\n"
                   "integrator: {rel_tol: 0.1, abs_tol: 1.0}\n")
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure (DegeneracyError): projection failed: |G| = ")
    assert err.strip().endswith("at tau = 4.55")
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()


@pytest.mark.parametrize("sub,block,message", [
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {n: 8, ntau: 5}\n",
     "front.ntau is an unknown key; front takes ['axis', 'branch'"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {n: 8, n_tau: 1.7}\n",
     "front.n_tau must be an integer of at least 1, got 1.7"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {n: 16.9, n_tau: 3}\n",
     "front.n must be an integer of at least 2, got 16.9"),
    ("propagate", "scenario: {builtin: free}\n"
                  "strips: [{x: [0.0, 0.0], p: [-0.245, 0.7], ps: 2.0}]\n",
     "strips[0].ps is an unknown key; strips[0] takes ['p', 'p_s', 's', 'x']"),
    ("propagate", _SYMBOL_RUN + "fiber: {group: circle, perod: 1}\n"
                  "scenario: {symbol: {expression: p_t*p_s + p_x**2/2, degree: 2}}\n",
     "fiber is an unknown key; the config takes ['chart'"),
    ("propagate", _SYMBOL_RUN + "scenario: {symbol: {expression: p_t*p_s + p_x**2/2, "
                                "degree: 2.9}}\n",
     "scenario.symbol.degree must be an integer of at least 1, got 2.9"),
    ("wave-diagram", "scenario: {builtin: eikonal}\ndiagram: {n: 16.9}\n",
     "diagram.n must be an integer of at least 1, got 16.9"),
    ("wave-diagram", "scenario: {builtin: eikonal}\ndiagram: {n: 16, bidualty_check: true}\n",
     "diagram.bidualty_check is an unknown key"),
    ("noether-check", "scenario: {builtin: free}\ntau_span: [0, 1]\n"
                      "symmetries: [{v: ['0', '1'], g: x}]\n",
     "symmetries[0].g is an unknown key"),
    ("holonomy", "loops: [{centre: [1.0, 0.0], side: 1.0}]\n",
     "loops[0].centre is an unknown key"),
    ("holonomy", "loops: [{center: [1.0, 0.0], side: 1.0, p_s: 2.0}]\n",
     "loops[0].p_s is an unknown key; loops[0] takes ['center', 'points', 'side']"),
    ("symbol", "scenario: {builtin: schrodinger}\n"
               "phases: [{poly: [{powers: {x: 2.5}, c: 1.0}]}]\n",
     "phases[0].poly[0].powers.x must be an integer of at least 0, got 2.5"),
    ("symbol", "scenario: {builtin: schrodinger, builtin_arg: {mass: 2.0}}\n"
               "phases: [{poly: [{powers: {x: 2}, c: 1.0}]}]\n",
     "scenario.builtin_arg is an unknown key"),
    ("propagate", "scenario: {builtin: oscillator, builtin_args: {bund: 30}}\n",
     "unexpected keyword argument 'bund'; allowed: ['bound']"),
    ("propagate", "scenario: {builtin: abc}\n",
     "config error: scenario.builtin: unknown builtin scenario 'abc'; known: ['eikonal', "),
    ("propagate", "scenario: {builtin: relativistic, builtin_args: {mass: 2.0, a: 1}}\n",
     "config error: scenario.builtin_args.a: bad arguments for builtin 'relativistic': got an "
     "unexpected keyword argument 'a'; allowed: ['mass', "),
    ("symbol", "scenario: {builtin: schrodinger, builtin_args: {mass: 0}}\n"
               "phases: [{poly: [{powers: {x: 2}, c: 1.0}]}]\n",
     "config error: scenario: mass must not be 0, got 0.0"),
], ids=["front-ntau", "front-n_tau-1.7", "front-n-16.9", "strip-ps", "fiber-perod",
        "symbol-degree-2.9", "diagram-n-16.9", "diagram-bidualty", "symmetry-g",
        "loop-centre", "loop-p_s", "powers-2.5", "symbol-scenario-key", "builtin-args-bund",
        "builtin-unknown", "builtin-args-unknown", "schrodinger-mass-0"])
def test_cli_misspelled_or_truncated_block_is_a_config_error(tmp_path, capsys, sub, block,
                                                              message):
    # each of these ran at exit 0, with the key ignored or the count truncated,
    # except: the unknown builtin argument ended in a TypeError traceback, an
    # unknown builtin and an unknown argument of one were reported under
    # scenario alone, and mass 0 ended in a ZeroDivisionError traceback
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\n" + block)
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()


_SYMBOL = "scenario: {symbol: {expression: p_t*p_s + p_x**2/2, degree: 2}}\n"
_SCHRO = "scenario: {builtin: schrodinger}\n"
_X2 = "[{powers: {x: 2}, c: 1.0}]"


@pytest.mark.parametrize("sub,block,message", [
    ("propagate", "chart: {bounds: [[-5, 5], [-5, 5]]}\n" + _SYMBOL,
     "chart.axes is required"),
    ("propagate", "chart: {axes: [t, x]}\n" + _SYMBOL,
     "chart.bounds is required"),
    ("propagate", _SYMBOL_RUN + "scenario: {symbol: {degree: 2}}\n",
     "scenario.symbol.expression is required"),
    ("propagate", _SYMBOL_RUN + "scenario: {symbol: {expression: p_t*p_s + p_x**2/2}}\n",
     "scenario.symbol.degree is required"),
    ("propagate", "scenario: {builtin: free}\nstrips: [{p: [-0.245, 0.7]}]\n",
     "strips[0].x is required"),
    ("propagate", "scenario: {builtin: free}\nstrips: [{x: [0.0, 0.0]}]\n",
     "strips[0].p is required"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {kind: flat, value: 0.0}\n",
     "front.axis and front.value are required for a flat front"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {kind: flat, axis: x}\n",
     "front.axis and front.value are required for a flat front"),
    ("noether-check", "scenario: {builtin: free}\ntau_span: [0, 1]\nsymmetries: [{f: x}]\n",
     "symmetries[0].v is required"),
    ("symbol", "scenario: {builtin: schrodinger}\nphases: [{poly: [{powers: {x: 2}}]}]\n",
     "phases[0].poly[0].c is required"),
    ("symbol", "chart: {axes: [t, x, s], bounds: [[-5, 5], [-5, 5], [-5, 5]]}\n"
               "operator: {terms: [{multi: {x: 2}}]}\n"
               "phases: [{poly: [{powers: {x: 2}, c: 1.0}]}]\n",
     "operator.terms[0].coeff is required"),
    ("holonomy", "loops: [{center: [0.0, 0.0]}]\n",
     "loops[0].side is required without loops[0].points"),
    ("symbol", "scenario: {builtin: schrodinger}\n"
               "phases: [{poly: [{powers: {x: 2}, c: 1.0}], mode: eikonall}]\n",
     "phases[0].mode must be one of ['scaling', 'eikonal'], got 'eikonall'"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {kind: sqare}\n",
     "front.kind must be one of ['circle', 'flat'], got 'sqare'"),
    ("propagate", _SYMBOL_RUN + "fiber: {group: torus}\n" + _SYMBOL,
     "fiber is an unknown key"),
], ids=["chart-axes", "chart-bounds", "symbol-expression", "symbol-degree",
        "strip-x", "strip-p", "front-axis", "front-value", "symmetry-v", "poly-c",
        "operator-coeff", "loop-side", "phase-mode", "front-kind", "fiber-group"])
def test_cli_missing_key_or_unknown_choice_is_a_config_error(tmp_path, capsys, sub, block,
                                                              message):
    # most of these ended in a KeyError traceback and the phase mode ran the
    # scaling check at exit 0; no run reads a fiber block, so it is unknown
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\n" + block)
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()


@pytest.mark.parametrize("sub,block,message", [
    ("propagate", "scenario: {builtin: free}\ntau_span: [a, 1.0]\n",
     "tau_span[0] must be a finite number, got 'a'"),
    ("propagate", "scenario: {builtin: free}\ntau_span: [null, 1.0]\n",
     "tau_span[0] must be a finite number, got None"),
    ("propagate", "scenario: {builtin: free}\ntau_span: [0.0, .inf]\n",
     "tau_span[1] must be a finite number, got inf"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {radius: r}\n",
     "front.radius must be a finite number, got 'r'"),
    ("holonomy", "loops: [{side: s}]\n", "loops[0].side must be a finite number, got 's'"),
    ("wave-diagram", "scenario: {builtin: eikonal}\ndiagram: {at: [a, 0.0]}\n",
     "diagram.at[0] must be a finite number, got 'a'"),
    ("symbol", _SCHRO + "lambdas: [2.0, x]\nphases: [{poly: " + _X2 + "}]\n",
     "lambdas[1] must be a finite number, got 'x'"),
    ("symbol", _SCHRO + "phases: [{poly: " + _X2 + ", at: [a, 0.7, 0.0]}]\n",
     "phases[0].at[0] must be a finite number, got 'a'"),
    ("symbol", _SCHRO + "phases: [{poly: " + _X2 + ", mode: eikonal, points: [[a, 0.3, 0.0]]}]\n",
     "phases[0].points[0][0] must be a finite number, got 'a'"),
    ("symbol", _SCHRO + "phases: [{poly: " + _X2 + ", s_weight: w}]\n",
     "phases[0].s_weight must be a finite number, got 'w'"),
    ("symbol", _SCHRO + "phases: [{poly: " + _X2 + ", s_weight: [1.0, 2.0]}]\n",
     "phases[0].s_weight must be a finite number, got [1.0, 2.0]"),
    ("symbol", _SCHRO + "phases: [{poly: [{powers: {x: 2}, c: c}]}]\n",
     "phases[0].poly[0].c must be a finite number, got 'c'"),
    ("symbol", "chart: {axes: [t, x, s], bounds: [[-5, 5], [-5, 5], [-5, 5]]}\n"
               "operator: {terms: [{multi: {x: 2}, coeff: k}]}\nphases: [{poly: " + _X2 + "}]\n",
     "operator.terms[0].coeff must be a finite number, got 'k'"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {center: [a, 0.0]}\n",
     "front.center[0] must be a finite number, got 'a'"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {kind: flat, axis: x, value: 0.0, "
                  "span: [0, .inf]}\n",
     "front.span[1] must be a finite number, got inf"),
    ("holonomy", "loops: [{center: [a, 0.0], side: 1.0}]\n",
     "loops[0].center[0] must be a finite number, got 'a'"),
    ("holonomy", "loops: [{points: [[a, 0.0], [1.0, 0.0], [1.0, 1.0]]}]\n",
     "loops[0].points[0][0] must be a finite number, got 'a'"),
    ("propagate", "chart: {axes: [t, x], bounds: [[a, 5], [-5, 5]]}\n" + _SYMBOL,
     "chart.bounds[0][0] must be a finite number, got 'a'"),
    ("propagate", _SYMBOL_RUN + "constants: {k: a}\n"
                  "scenario: {symbol: {expression: p_t*p_s + k*p_x**2, degree: 2}}\n",
     "constants.k must be a finite number, got 'a'"),
    ("propagate", "scenario: {builtin: relativistic, builtin_args: {mass: a}}\n",
     "scenario.builtin_args.mass must be a finite number, got 'a'"),
    ("symbol", "scenario: {builtin: schrodinger, builtin_args: {V: {2: a}}}\n"
               "phases: [{poly: " + _X2 + "}]\n",
     "scenario.builtin_args.V.2 must be a finite number, got 'a'"),
    ("propagate", "scenario: {builtin: free, builtin_args: [60.0]}\n",
     "scenario.builtin_args must be a mapping, got [60.0]"),
    ("symbol", _SCHRO + "lambdas: 2.0\nphases: [{poly: " + _X2 + "}]\n",
     "lambdas must be a non-empty list, got 2.0"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {center: [0.0]}\n",
     "front.center must be a list of 2 items, got [0.0]"),
    ("holonomy", "loops: [{center: [0.0], side: 1.0}]\n",
     "loops[0].center must be a list of 2 items, got [0.0]"),
    ("symbol", _SCHRO + "phases: [{poly: " + _X2 + ", mode: eikonal, points: 2.0}]\n",
     "phases[0].points must be a non-empty list, got 2.0"),
    # these exited 2 as numerical failures, or ran off shell
    ("propagate", "chart: {axes: [t, x], bounds: [[-5, 5]]}\n" + _SYMBOL,
     "chart.bounds: bounds shape (1, 2) does not match 2 axes"),
    ("propagate", "chart: {axes: [t, x], bounds: [[5, -5], [-5, 5]]}\n" + _SYMBOL,
     "chart.bounds: each axis needs lower < upper bound"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {branch: [2, 0]}\n",
     "front.branch[0] must be one of [1, -1], got 2"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {branch: [1, x]}\n",
     "front.branch[1] must be an integer of at least 0, got 'x'"),
    ("propagate", "scenario: {builtin: free}\nstrips: [{x: [0, 0, 0], p: [-0.245, 0.7]}]\n",
     "strips[0].x must be a list of 2 items, got [0, 0, 0]"),
    ("propagate", "scenario: {builtin: free}\nstrips: [{x: [0, 0], p: [-0.245, 0.7, 1.0]}]\n",
     "strips[0].p must be a list of 2 items, got [-0.245, 0.7, 1.0]"),
    ("noether-check", "scenario: {builtin: free}\ntau_span: [0, 1]\nsymmetries: [{v: ['1']}]\n",
     "symmetries[0].v must be a list of 2 items, got ['1']"),
], ids=["tau_span-a", "tau_span-null", "tau_span-inf", "front-radius", "loop-side",
        "diagram-at", "lambdas", "phase-at", "phase-points", "phase-s_weight",
        "phase-s_weight-list", "poly-c", "operator-coeff", "front-center", "front-span-inf",
        "loop-center", "loop-points", "chart-bounds", "constants", "builtin_args",
        "builtin_args-V", "builtin_args-list", "lambdas-one-number", "front-center-short",
        "loop-center-short", "phase-points-one-number", "chart-bounds-shape",
        "chart-bounds-order", "front-branch-sign", "front-branch-index", "strip-x-long",
        "strip-p-long", "symmetry-v-short"])
def test_cli_non_numeric_or_non_finite_number_is_a_config_error(tmp_path, capsys, sub, block,
                                                                 message):
    # the infinite spans, the chart bounds, the front branches and the
    # symmetry exited 2 as numerical failures, a long strip read as off shell
    # (exit 2), and every other case ended in a traceback (ValueError,
    # TypeError or UFuncNoLoopError), those of the wrong shape too
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\n" + block)
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()


@pytest.mark.parametrize("sub,block,message", [
    ("propagate", "chart: {axes: tx, bounds: [[-5, 5], [-5, 5]]}\n" + _SYMBOL,
     "chart.axes must be a non-empty list, got 'tx'"),
    ("wave-diagram", "scenario: {builtin: eikonal}\ndiagram: {biduality_check: maybe}\n",
     "diagram.biduality_check must be one of [False, True], got 'maybe'"),
    ("propagate", "scenario: {builtin: free}\nintegrator: {n_out: true}\n",
     "integrator.n_out must be an integer of at least 2, got True"),
    ("propagate", "scenario: {builtin: free, name: [a]}\n",
     "scenario.name must be a name, got ['a']"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {n: true}\n",
     "front.n must be an integer of at least 2, got True"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {n: 1}\n",
     "front.n must be an integer of at least 2, got 1"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {kind: flat, axis: x, value: 0.0, n: 1}\n",
     "front.n must be an integer of at least 2, got 1"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {n: -3}\n",
     "front.n must be an integer of at least 2, got -3"),
    ("wavefront", "scenario: {builtin: eikonal}\nfront: {n_tau: 0}\n",
     "front.n_tau must be an integer of at least 1, got 0"),
    ("wave-diagram", "scenario: {builtin: eikonal}\ndiagram: {n: -1}\n",
     "diagram.n must be an integer of at least 1, got -1"),
    ("wave-diagram", "scenario: {builtin: eikonal}\ndiagram: {n: 0}\n",
     "diagram.n must be an integer of at least 1, got 0"),
], ids=["chart-axes-string", "diagram-biduality-maybe", "n_out-true", "scenario-name-list",
        "front-n-true", "front-n-1-circle", "front-n-1-flat", "front-n-negative",
        "front-n_tau-0", "diagram-n-negative", "diagram-n-0"])
def test_cli_misread_value_or_count_is_a_config_error(tmp_path, capsys, sub, block, message):
    # tx read as the axes t and x, maybe ran the check, true read as 1 and
    # [a] went into report.json, each at exit 0; a one-sample flat front ran
    # too and is now refused; the other counts ended in an IndexError or
    # ValueError traceback, and diagram n 0 exited 2
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\n" + block)
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()


@pytest.mark.parametrize("sub,config", [("noether-check", "noether_free.yaml"),
                                        ("propagate", "free.yaml")])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, sub, config):
    # noether-check ended in a ValueError traceback from default_rng, and
    # propagate wrote -5 into report.json at exit 0
    out = tmp_path / "out"
    assert main([sub, "--config", _cfg(config), "--out", str(out), "--seed", "-5"]) == 1
    assert capsys.readouterr().err.strip() == "config error: --seed must not be negative, got -5"
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()


def test_cli_a_failed_strip_writes_no_csv(tmp_path, capsys):
    # the strips run as one stack, and the first that fails, in config order,
    # ends the run before any CSV is written (strip_0.csv was written first);
    # the third strip meets x = -1 sooner, but the second is reported
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"schema_version: 1\n{_ROOT_RUN}strips:\n"
                   "  - {x: [0.0, 0.0], p: [-0.6, 1.0]}\n"
                   "  - {x: [0.0, 0.0], p: [-4.6, -3.0]}\n"
                   "  - {x: [0.0, -0.5], p: [-4.535355339059327, -3.0]}\n")
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == (
        "numerical failure (DegeneracyError): integration failed: a step's stages are not finite"
        " (the step size underflowed at tau = 0.331138)")
    assert not list(out.glob("strip_*.csv")) and not (out / "report.json").exists()


@pytest.mark.parametrize("sub,config", [("symbol", "schrodinger_symbol.yaml"),
                                        ("holonomy", "holonomy.yaml"),
                                        ("wave-diagram", "wave_diagram_eikonal.yaml")])
def test_cli_fixed_step_without_strips_is_a_config_error(tmp_path, capsys, sub, config):
    assert main([sub, "--config", _cfg(config), "--out", str(tmp_path),
                 "--fixed-step", "0.01"]) == 1
    assert f"--fixed-step does not apply to {sub}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sub,block", [
    ("symbol", "scenario: {builtin: schrodinger}\n"
               "phases: [{poly: [{powers: {y: 2}, c: 1.0}]}]\n"),
    ("symbol", "chart: {axes: [t, x, s], bounds: [[-5, 5], [-5, 5], [-5, 5]]}\n"
               "operator: {terms: [{multi: {y: 2}, coeff: 1.0}]}\n"
               "phases: [{poly: [{powers: {x: 2}, c: 1.0}]}]\n"),
    ("wavefront", "scenario: {builtin: eikonal}\n"
                  "front: {kind: flat, axis: z, value: 0.0}\n"),
], ids=["powers", "multi", "front-axis"])
def test_cli_unknown_axis_is_a_config_error(tmp_path, capsys, sub, block):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\n" + block)
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "no axis named" in err
    assert not (tmp_path / "report.json").exists()


def test_cli_missing_config_file_exit_code(tmp_path):
    missing = tmp_path / "nope.yaml"
    assert main(["propagate", "--config", str(missing), "--out", str(tmp_path)]) == 1


def test_cli_wavefront_reports_its_lift_drops(tmp_path):
    """G = |p|^2 - y p_s^2 has no on-shell covector conormal to {x = 0}
    where y < 0: those front samples drop out of the lift, and the report
    names them."""
    cfg = tmp_path / "drops.yaml"
    cfg.write_text(
        "schema_version: 1\n"
        "chart: {axes: [x, y], bounds: [[-3, 3], [-3, 3]]}\n"
        "scenario:\n"
        "  symbol: {expression: p_x**2 + p_y**2 - y*p_s**2, degree: 2}\n"
        "front: {kind: flat, axis: x, value: 0.0, span: [-1.0, 1.0], n: 20, n_tau: 11}\n"
        "tau_span: [0.0, 0.5]\n")
    assert main(["wavefront", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    u = np.linspace(-1.0, 1.0, 20)
    assert report["lift_dropped"] == {"count": 10, "u": u[:10].tolist()}
    rows = (tmp_path / "front.csv").read_text().splitlines()[1:]
    assert sorted({float(r.split(",")[0]) for r in rows}) == u[10:].tolist()
    # a lift that keeps every sample reports none
    assert main(["wavefront", "--config", _cfg("eikonal_front.yaml"), "--out",
                 str(tmp_path / "eik")]) == 0
    report = json.loads((tmp_path / "eik" / "report.json").read_text())
    assert report["lift_dropped"] == {"count": 0, "u": []}


def test_cli_undeclared_symbol_name_cited(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "schema_version: 1\n"
        "chart:\n"
        "  axes: [t, x]\n"
        "  bounds: [[-5, 5], [-5, 5]]\n"
        "scenario:\n"
        "  symbol:\n"
        "    expression: p_t * p_s + omega * p_x**2\n"
        "    degree: 2\n"
        "strips:\n"
        "  - {x: [0, 0], s: 0, p: [-0.5, 1.0], p_s: 1.0}\n"
        "tau_span: [0, 1]\n")
    assert main(["propagate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "omega" in capsys.readouterr().err


def _readme_block(heading, lang):
    """The first ``lang`` code block of README's section ``heading``."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index(heading):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```\n", start)]


def test_cli_readme_config_example_runs(tmp_path):
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(_readme_block("## Command line", "yaml"))
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario"] == "custom" and len(report["strips"]) == 1


def test_readme_library_quickstart_runs(capsys):
    scope = {}
    exec(_readme_block("## Library quickstart", "python"), scope)
    assert scope["hist"].first_caustic_tau() == pytest.approx(1.0, abs=0.05)
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_cli_nested_scenario_connection_is_a_config_error(tmp_path, capsys):
    # a connection nested under `scenario:` used to be dropped without a word
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\n"
                   "scenario:\n"
                   "  builtin: free\n"
                   "  connection: ['x', '0']\n"
                   "tau_span: [0, 1]\n")
    assert main(["propagate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "connection" in capsys.readouterr().err



# ------------------------------------------------------------ config fuzz

_BUNDLED = {"eikonal_front.yaml": "wavefront", "free.yaml": "propagate",
            "holonomy.yaml": "holonomy", "noether_free.yaml": "noether-check",
            "oscillator.yaml": "propagate", "relativistic.yaml": "propagate",
            "schrodinger_symbol.yaml": "symbol", "wave_diagram_eikonal.yaml": "wave-diagram",
            "wave_diagram_rel.yaml": "wave-diagram"}
# key paths, with [*] for any list index, where a mutation would be valid: lists
# of any length (a loop's rows need only agree with each other), keys that take
# any string, maps whose keys are names (the builtin or the chart checks those)
# and a flag, which takes true
_ANY_LENGTH = {"strips", "symmetries", "phases", "phases[*].poly", "phases[*].points",
               "lambdas", "loops", "loops[*].points", "loops[*].points[*]"}
_ANY_STRING = {"scenario.builtin", "symmetries[*].v[*]", "symmetries[*].f"}
_NAME_MAPS = {"scenario.builtin_args", "phases[*].poly[*].powers"}
_FLAGS = {"diagram.biduality_check"}
# the keys of the bundled configs that their runs need
_REQUIRED = {"schema_version", "scenario", "scenario.builtin", "front", "strips[*].x",
             "strips[*].p", "symmetries", "symmetries[*].v", "phases", "phases[*].poly[*].c",
             "loops", "loops[*].side", "loops[*].points"}


def _sites(value, keys=()):
    """(keys, value) of value and of every value under it, depth first."""
    yield keys, value
    if isinstance(value, (dict, list)):
        for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _sites(sub, keys + (key,))


def _key_path(keys) -> str:
    """The path of the config error messages: a.b[0].c."""
    path = ""
    for key in keys:
        path += f"[{key}]" if isinstance(key, int) else f".{key}" if path else key
    return path


def _load_bundled(name):
    with open(_cfg(name)) as fh:
        return yaml.safe_load(fh)


def _config_mutants():
    """(config, keys of the mutated site, how, new value, key path the error must
    name) of every mutant that the fuzz draws from: each is invalid."""
    bad = {"string": "abc", "null": None, "inf": math.inf, "nan": math.nan, "true": True,
           "mapping": {"a": 1}}
    out = []
    for name in _BUNDLED:
        for keys, value in _sites(_load_bundled(name)):
            path = _key_path(keys)
            pattern = re.sub(r"\[\d+\]", "[*]", path)
            if isinstance(value, dict) and pattern not in _NAME_MAPS:
                out.append((name, keys, "add", None, _key_path(keys + ("zzz",))))
            if not keys:
                continue
            if pattern in _REQUIRED:
                out.append((name, keys, "drop", None, path))
            longer = value + value[:1] if isinstance(value, list) else [value, value]
            for how, new in [*bad.items(), ("length", longer)]:
                if not ((how == "string" and pattern in _ANY_STRING)
                        or (how == "true" and pattern in _FLAGS)
                        or (how == "length" and pattern in _ANY_LENGTH)
                        or (how == "mapping" and isinstance(value, dict))):
                    out.append((name, keys, how, new, path))
    return out


_CONFIG_MUTANTS = _config_mutants()


@given(st.sampled_from(_CONFIG_MUTANTS))
@settings(derandomize=True, max_examples=len(_CONFIG_MUTANTS), deadline=None)
def test_config_fuzz_every_invalid_mutant_is_a_config_error_naming_its_key(mutant):
    """A bundled config with one key dropped or added, or one value replaced by
    a string, null, .inf, .nan, true, a mapping or a list of the wrong length,
    exits 1 with a config error that names the mutated key path: no traceback,
    no run and no numerical failure."""
    name, keys, how, new, path = mutant
    cfg = _load_bundled(name)
    if how == "add":
        reduce(lambda node, key: node[key], keys, cfg)["zzz"] = 1
    else:
        parent = reduce(lambda node, key: node[key], keys[:-1], cfg)
        if how == "drop":
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = new
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "mutant.yaml")
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([_BUNDLED[name], "--config", cfg_path, "--out", os.path.join(tmp, "out")])
    err = err.getvalue()
    assert code == 1 and err.startswith("config error: ") and path in err, (name, how, path, err)


def test_cli_overflowing_start_is_refused_off_shell(tmp_path, capsys):
    # G and the on-shell scale were both inf, the start check passed, and the
    # run ended in brentq's ValueError on a NaN event value
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\nscenario: {builtin: free}\n"
                   "strips: [{x: [0, 0], p: [-0.245, 1e308]}]\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure (ContractViolation): initial state is off-shell: "
                          "G = inf")
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()
