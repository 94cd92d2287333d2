"""What a fresh interpreter loads: the core and the CLI need neither scipy
nor, until an expression is parsed, sympy; and a parsed expression binds
numpy's functions without importing numpy's optional submodules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contactflow as cf

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
#: numpy submodules that sympy's lambdify imports with its "numpy" module
NUMPY_EXTRAS = ("numpy.f2py", "numpy.testing", "numpy.ma", "numpy.random", "numpy.polynomial")


def _run_fresh(code: str, cwd) -> dict:
    """Run ``code`` in a new interpreter; return the heavy libraries it loaded,
    the NUMPY_EXTRAS it loaded and the ``rc`` it left, if any."""
    report = ("import json, sys\n"
              "print(json.dumps({'loaded': [m for m in ('scipy', 'sympy') if m in sys.modules],"
              f" 'extras': [m for m in {NUMPY_EXTRAS!r} if m in sys.modules],"
              " 'rc': globals().get('rc')}))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + "\n" + report], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(sub: str, cfg: str) -> str:
    return ("from contactflow import cli\n"
            f"rc = cli.main([{sub!r}, '--config', {str(CONFIGS / cfg)!r}, '--out', 'out'])")


@pytest.mark.parametrize("code, loaded, extras", [
    ("import contactflow", [], []),
    (_cli("propagate", "oscillator.yaml"), [], []),
    (_cli("wave-diagram", "wave_diagram_rel.yaml"), [], []),
    (_cli("wavefront", "eikonal_front.yaml"), [], []),
    (_cli("symbol", "schrodinger_symbol.yaml"), [], []),
    (_cli("holonomy", "holonomy.yaml"), [], []),
    # it parses symmetries, and draws its samples from a seeded np.random generator
    (_cli("noether-check", "noether_free.yaml"), ["sympy"], ["numpy.random"]),
], ids=["import", "propagate", "wave-diagram", "wavefront", "symbol", "holonomy",
         "noether-check"])
def test_fresh_run_loads_only_what_it_uses(code, loaded, extras, tmp_path):
    out = _run_fresh(code, tmp_path)
    assert out["loaded"] == loaded
    assert out["extras"] == extras
    assert out["rc"] in (None, 0)


def test_lazy_names_still_resolve(tmp_path):
    code = ("import contactflow\n"
            "from contactflow import symbol_surface, exprs\n"
            "from scipy.integrate import solve_ivp\n"
            "assert symbol_surface is exprs.symbol_surface\n"
            "assert contactflow.scalar_field is exprs.scalar_field\n"
            "assert contactflow.strips.solve_ivp is solve_ivp")
    assert _run_fresh(code, tmp_path)["loaded"] == ["scipy", "sympy"]
    with pytest.raises(AttributeError):
        cf.no_such_name
    with pytest.raises(AttributeError):
        cf.strips.no_such_name
