"""Expression parsing and the command-line runner, end to end."""

import hashlib
import json
import os

import numpy as np
import pytest

import contactflow as cf
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


_PINNED_FIXED_STEP = [
    ("propagate", "free.yaml", "strip_0.csv", "84efdd56bf0c"),
    ("propagate", "oscillator.yaml", "strip_0.csv", "c5ab7482f2db"),
    ("propagate", "relativistic.yaml", "strip_0.csv", "57df2a6446b8"),
    ("wavefront", "eikonal_front.yaml", "front.csv", "36ad2a63b487"),
]


@pytest.mark.parametrize("sub,config,csv,prefix", [
    pytest.param(*case, id=f"{case[1]}-{case[3]}") for case in _PINNED_FIXED_STEP])
def test_cli_fixed_step_csv_digests_are_pinned(tmp_path, sub, config, csv, prefix):
    assert main([sub, "--config", _cfg(config), "--out", str(tmp_path),
                 "--seed", "7", "--fixed-step", "0.01"]) == 0
    digest = hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest()
    assert digest.startswith(prefix)


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nscenario:\n  builtin: nonsense\n")
    assert main(["propagate", "--config", str(bad), "--out", str(tmp_path)]) == 1


def test_cli_missing_config_file_exit_code(tmp_path):
    missing = tmp_path / "nope.yaml"
    assert main(["propagate", "--config", str(missing), "--out", str(tmp_path)]) == 1


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
        "states:\n"
        "  - {x: [0, 0], s: 0, p: [-0.5, 1.0], p_s: 1.0}\n"
        "tau_span: [0, 1]\n")
    assert main(["propagate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "omega" in capsys.readouterr().err


def _readme_config_block():
    """The YAML example of README's "Command line" section."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("## Command line"):]
    return section[section.index("```yaml\n") + 8:section.index("```\n", section.index("```yaml"))]


def test_cli_readme_config_example_runs(tmp_path):
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(_readme_config_block())
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario"] == "custom" and len(report["strips"]) == 1


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
