"""Expression parsing for scenario files.

Expressions are arithmetic over declared axis/momentum names, numeric
constants, and a fixed set of transcendental functions; they are parsed
symbolically so every gradient the engine needs is exact.
"""

from __future__ import annotations

import ast
from typing import Mapping, Sequence

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .charts import Chart, ScalarField, components, libm_pow, stack_last
from .errors import ConfigError
from .strips import SymbolSurface

#: function names the grammar admits (EBNF in the README)
ALLOWED_FUNCTIONS = {
    "sin": sp.sin, "cos": sp.cos, "tan": sp.tan,
    "sinh": sp.sinh, "cosh": sp.cosh, "tanh": sp.tanh,
    "asin": sp.asin, "acos": sp.acos, "atan": sp.atan,
    "exp": sp.exp, "log": sp.log, "sqrt": sp.sqrt, "Abs": sp.Abs, "abs": sp.Abs,
}
ALLOWED_CONSTANTS = {"pi": sp.pi, "E": sp.E}


#: the grammar's Python syntax nodes: numbers, names, calls, + - * / ** and
#: unary + - (ast.Load is the context of every name)
_GRAMMAR_NODES = (ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.BinOp,
                  ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def _check_grammar(expr: str, declared: Sequence[str]) -> None:
    """Refuse an expression outside the README grammar, naming the construct,
    the function or the name, before sympify evaluates it as Python."""
    try:
        nodes = list(ast.walk(ast.parse(str(expr), mode="eval")))
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc
    funcs = {n.func for n in nodes if isinstance(n, ast.Call)}
    for node in nodes:
        if (not isinstance(node, _GRAMMAR_NODES) or node in funcs and type(node) is not ast.Name
                or isinstance(node, ast.Constant) and type(node.value) not in (int, float)
                or isinstance(node, ast.Call) and node.keywords):
            seg = ast.get_source_segment(str(expr), node)
            raise ConfigError(f"expression {expr!r} uses {type(node).__name__}"
                              f"{f' {seg!r}' if seg else ''}, which the grammar does not allow")
    names = {n.id for n in nodes if isinstance(n, ast.Name) and n not in funcs}
    for what, used, known, label in (
            ("unsupported functions", {f.id for f in funcs}, ALLOWED_FUNCTIONS, "allowed"),
            ("undeclared names", names, declared, "declared")):
        if bad := used - set(known):
            raise ConfigError(f"expression {expr!r} uses {what} {sorted(bad)}; "
                              f"{label}: {sorted(known)}")


def _parse(expr: str, names: Sequence[str], constants: Mapping[str, float] | None):
    constants = dict(constants or {})
    bad = set(constants) & set(names)
    if bad:
        raise ConfigError(f"constants shadow axis names: {sorted(bad)}")
    _check_grammar(expr, [*names, *constants, *ALLOWED_CONSTANTS])
    local = dict(ALLOWED_FUNCTIONS)
    local.update(ALLOWED_CONSTANTS)
    syms = {n: sp.Symbol(n, real=True) for n in names}
    local.update(syms)
    local.update({k: sp.Float(v) for k, v in constants.items()})
    try:
        tree = sp.sympify(expr, locals=local, rational=False)
    except (sp.SympifyError, SyntaxError, TypeError) as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc
    return tree, [syms[n] for n in names]


class _LibmPowPrinter(NumPyPrinter):
    """Prints powers other than square roots as ``libm_pow(base, exp)``, so a
    stack rounds them as a single point does (numpy squares arrays by
    multiplication but raises numpy scalars with pow)."""

    def _print_Pow(self, expr, rational=False):
        if expr.exp in (sp.S.Half, -sp.S.Half):
            return super()._print_Pow(expr, rational=rational)
        return f"libm_pow({self._print(expr.base)}, {self._print(expr.exp)})"


#: every name a printed expression may call: the grammar's functions and
#: constants under numpy's names, sign (the derivative of Abs) and libm_pow
NUMPY_NAMES = {"libm_pow": libm_pow, **{name: getattr(np, name) for name in (
    "sin", "cos", "tan", "sinh", "cosh", "tanh", "arcsin", "arccos", "arctan",
    "exp", "log", "sqrt", "abs", "sign", "pi", "e")}}


def _lambdify(syms, tree):
    """A numpy function of syms for tree, bound to NUMPY_NAMES only: lambdify's
    "numpy" module would import numpy.f2py, .testing, .ma, .random and
    .polynomial."""
    printer = _LibmPowPrinter({"fully_qualified_modules": False, "inline": True,
                               "allow_unknown_functions": True, "user_functions": {}})
    f = sp.lambdify(syms, tree, modules=[NUMPY_NAMES], printer=printer)
    unknown = set(f.__code__.co_names) - set(NUMPY_NAMES)
    if unknown:
        raise ConfigError(f"expression {tree} needs {sorted(unknown)}, which are not "
                          f"in the numpy table {sorted(NUMPY_NAMES)}")
    return f


def _columns(a: np.ndarray) -> list:
    """Lambdified-function arguments from the last axis of a: numpy scalars
    at one point (so a zero division gives inf, not ZeroDivisionError, as it
    does on a stack), arrays of shape (...) on a stack."""
    return list(a) if a.ndim == 1 else components(a)


def _stack_partials(vals, shape) -> np.ndarray:
    """Partials on the last axis; a constant partial comes back as a scalar
    and is filled out to the stack shape."""
    return stack_last([np.broadcast_to(v, shape) for v in vals] if shape else vals)


def scalar_field(expr: str, chart: Chart,
                 constants: Mapping[str, float] | None = None) -> ScalarField:
    """Scalar function of the chart axes with an exact gradient."""
    tree, syms = _parse(expr, chart.axis_names, constants)
    f = _lambdify(syms, tree)
    grads = [_lambdify(syms, sp.diff(tree, s)) for s in syms]

    def value(x):
        return f(*_columns(x))

    def grad(x):
        cols = _columns(x)
        return _stack_partials([g(*cols) for g in grads], x.shape[:-1])

    field = ScalarField(chart, value, grad=grad)
    field.expression = expr
    return field


def connection_components(exprs: Sequence[str], chart: Chart,
                          constants: Mapping[str, float] | None = None):
    if len(exprs) != chart.dim:
        raise ConfigError(
            f"connection needs {chart.dim} component expressions, got {len(exprs)}")
    return [scalar_field(e, chart, constants) for e in exprs]


def momentum_names(chart: Chart) -> list[str]:
    return [f"p_{ax}" for ax in chart.axis_names] + ["p_s"]


def symbol_surface(expr: str, chart: Chart, degree: int,
                   constants: Mapping[str, float] | None = None,
                   name: str = "") -> SymbolSurface:
    """Symbol G(x, p, p_s) from an expression over axes and p_<axis>, p_s."""
    names = list(chart.axis_names) + momentum_names(chart)
    tree, syms = _parse(expr, names, constants)
    m = chart.dim
    f = _lambdify(syms, tree)
    partials = [_lambdify(syms, sp.diff(tree, s)) for s in syms]

    def value(x, p, p_s):
        return f(*_columns(x), *_columns(p), p_s)

    def grad(x, p, p_s):
        cols = _columns(x) + _columns(p) + [p_s]
        vals = _stack_partials([g(*cols) for g in partials], p_s.shape)
        return vals[..., :m], vals[..., m:2 * m], vals[..., 2 * m]

    E = SymbolSurface(chart, value, degree, grad=grad, name=name or expr)
    E.expression = expr
    return E
