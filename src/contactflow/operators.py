"""Linear differential operators, principal symbols, and oscillatory checks.

An operator lives on the full bundle chart (base axes plus the fiber axis,
conventionally named "s"); coefficients must not depend on the fiber
coordinate.  The oscillatory expansion e^{-i lam g} D e^{i lam g} is computed
exactly as a polynomial in lam whose coefficients are products of phase
derivatives -- finite differences in lam would be hopeless at large lam.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .charts import Chart, PolyField, dot, libm_pow
from .errors import (ContractViolation, DataQualityError, FitQualityError)
from .strips import SymbolSurface


def _as_multi(multi, dim) -> tuple[int, ...]:
    m = tuple(int(k) for k in multi)
    if len(m) != dim or any(k < 0 for k in m):
        raise ContractViolation(f"bad multi-index {multi} for dim {dim}")
    return m


class LinearDiffOperator:
    """Sum of coeff(x) * d^alpha over a full-bundle chart.

    ``terms`` maps multi-indices (over chart axes) to coefficients: a float
    or a PolyField on the same chart.  ``s_axis`` names the fiber axis if
    present; coefficients must be independent of it.
    """

    def __init__(self, chart: Chart, terms: Mapping, s_axis: str | None = "s",
                 name: str = ""):
        self.chart = chart
        self.name = name
        self.s_axis = s_axis if (s_axis and s_axis in chart.axis_names) else None
        self.s_index = chart.axis_index(self.s_axis) if self.s_axis else None
        clean = {}
        for multi, coeff in terms.items():
            m = _as_multi(multi, chart.dim)
            if not isinstance(coeff, PolyField):
                coeff = PolyField.from_const(chart, float(coeff))
            if coeff.chart is not chart and coeff.chart.axis_names != chart.axis_names:
                raise ContractViolation("coefficient chart mismatch")
            if self.s_index is not None:
                for mono in coeff.coeffs:
                    if mono[self.s_index] != 0:
                        raise ContractViolation(
                            f"coefficient of {m} depends on fiber axis {self.s_axis!r}")
            clean[m] = coeff
        if not clean:
            raise ContractViolation("operator needs at least one term")
        self.terms = clean
        self.degree = max(sum(m) for m in clean)

    @property
    def dim(self) -> int:
        return self.chart.dim


def _cotangent_chart(chart: Chart, prefix: str, extra=()) -> Chart:
    """A chart over positions, momenta named prefix + axis, then the extra
    axes.  PolyField reads only axis names and count off a chart, so the
    momentum and extra axes reuse the position bounds."""
    names = [*chart.axis_names, *(prefix + a for a in chart.axis_names), *extra]
    return Chart(names, np.vstack([chart.bounds, chart.bounds, chart.bounds[:len(extra)]]))


def _joined(*parts) -> np.ndarray:
    """The arguments side by side on the last axis, their stack axes broadcast."""
    parts = [np.asarray(a, float) for a in parts]
    shape = np.broadcast_shapes(*(a.shape[:-1] for a in parts))
    return np.concatenate([np.broadcast_to(a, shape + a.shape[-1:]) for a in parts], axis=-1)


class PrincipalSymbol:
    """s_D(x, xi) = sum over top-order terms of coeff(x) * xi^alpha, held as
    one PolyField ``poly`` over the axes (x, xi): a coefficient monomial
    x^k of the term alpha is the monomial with multi-index k + alpha.

    x and xi have shape (d,), or (..., d) at stacked points.
    """

    def __init__(self, D: LinearDiffOperator):
        self.operator = D
        self.chart = D.chart
        self.degree = D.degree
        self.terms = {m: c for m, c in D.terms.items() if sum(m) == D.degree}
        self.poly = PolyField(_cotangent_chart(D.chart, "xi_"),
                              {k + m: v for m, c in self.terms.items()
                               for k, v in c.coeffs.items()})

    def value(self, x, xi):
        return self.poly.value(_joined(x, xi))


def equivariant_reduce(symbol: PrincipalSymbol, weight: float) -> SymbolSurface:
    """Fold the fiber momentum out: xi_s := weight * p_s on a base-axes chart.

    At p_s = 1 this is the plain substitution xi_s = weight; keeping the p_s
    factor preserves momentum homogeneity so the result drops straight into
    the strip integrator.  The reduced symbol is one PolyField over (x, p,
    p_s): a monomial x^k xi^alpha of the symbol loses k's s power (always 0)
    and moves alpha's to p_s, scaling its coefficient by weight ** alpha_s.
    Operators without a fiber axis pass through unchanged (xi_s never occurs).
    """
    D = symbol.operator
    d, si = D.dim, D.s_index
    keep = [i for i in range(d) if i != si]
    base = Chart([D.chart.axis_names[i] for i in keep], D.chart.bounds[keep])
    coeffs = {}
    for key, c in symbol.poly.coeffs.items():
        k_s = 0 if si is None else key[d + si]
        mono = tuple(key[i] for i in keep) + tuple(key[d + i] for i in keep) + (k_s,)
        coeffs[mono] = c * libm_pow(float(weight), k_s)
    G = PolyField(_cotangent_chart(base, "p_", ["p_s"]), coeffs)
    m = base.dim

    def value(x, p, p_s):
        return G.value(_joined(x, p, p_s[..., None]))

    def grad(x, p, p_s):
        g = G.gradient(_joined(x, p, p_s[..., None]))
        return g[..., :m], g[..., m:2 * m], g[..., 2 * m]

    name = f"reduced({D.name or 'operator'}, w={weight:g})"
    return SymbolSurface(base, value, symbol.degree, grad=grad, name=name)


# --- exact oscillatory expansion -------------------------------------------
#
# e^{-i lam g} d^alpha e^{i lam g} = sum over (k, multiset of derivative
# multi-indices) of coeff * lam^k * prod of the listed g-derivatives.

@functools.lru_cache(maxsize=None)
def _osc_terms(alpha: tuple[int, ...]) -> dict:
    dim = len(alpha)
    terms = {(0, ()): complex(1.0)}
    for j, reps in enumerate(alpha):
        ej = tuple(1 if i == j else 0 for i in range(dim))
        for _ in range(reps):
            nxt: dict = {}
            for (k, ms), c in terms.items():
                # chain-rule factor: i*lam * d_j g
                key = (k + 1, tuple(sorted(ms + (ej,))))
                nxt[key] = nxt.get(key, 0.0) + c * 1j
                # product rule over the existing derivative factors
                for mu in set(ms):
                    cnt = ms.count(mu)
                    lst = list(ms)
                    lst.remove(mu)
                    new_mu = tuple(mu[i] + ej[i] for i in range(dim))
                    key2 = (k, tuple(sorted(lst + [new_mu])))
                    nxt[key2] = nxt.get(key2, 0.0) + c * cnt
            terms = nxt
    return terms


def oscillatory_coefficients(D: LinearDiffOperator, phase, x) -> np.ndarray:
    """Coefficients A_k with e^{-i lam g} D e^{i lam g}(x) = sum A_k lam^k.

    ``phase`` needs deriv_value(multi, x) (PolyField satisfies this).
    """
    x = np.asarray(x, float)
    A = np.zeros(D.degree + 1, dtype=complex)
    deriv_cache: dict = {}

    def dval(multi):
        if multi not in deriv_cache:
            deriv_cache[multi] = phase.deriv_value(multi, x)
        return deriv_cache[multi]

    for alpha, coeff in D.terms.items():
        cv = coeff.value(x)
        if cv == 0.0:
            continue
        for (k, ms), c in _osc_terms(alpha).items():
            prod = 1.0
            for mu in ms:
                prod *= dval(mu)
            A[k] += cv * c * prod
    return A


def _check_span(lams) -> np.ndarray:
    lams = np.asarray(lams, float)
    if len(lams) < 4 or lams.min() <= 0 or lams.max() / lams.min() < 100.0:
        raise FitQualityError("lambda list must span at least two decades")
    return lams


def _loglog_slope(lams, vals) -> float:
    """Least-squares slope of log(vals) against log(lams) over the positive
    vals, in closed form: centred charts.dot sums, which no BLAS kernel or
    SIMD dispatch reaches."""
    logs = [(math.log(lam), math.log(v)) for lam, v in zip(lams, vals) if v > 0]
    if len(logs) < 2:
        return float("-inf")
    x, y = np.array(logs).T
    ones = np.ones(len(x))
    x, y = x - dot(x, ones) / len(x), y - dot(y, ones) / len(y)
    return float(dot(x, y) / dot(x, x))


@dataclass
class ScalingReport:
    degree: int
    fitted_exponent: float       # of |D e^{i lam g} e^{-i lam g} - (i lam)^n s_D(dg)|
    leading_coeff: complex       # A_n / i^n, should equal s_D(x, dg)
    symbol_value: float          # s_D(x, dg) from PrincipalSymbol
    leading_rel_error: float
    residuals: np.ndarray


def symbol_scaling_check(D: LinearDiffOperator, phase, lams, x) -> ScalingReport:
    """Verify D e^{i lam g} = (i lam)^n s_D(dg) e^{i lam g} + O(lam^{n-1})."""
    lams = _check_span(lams)
    x = np.asarray(x, float)
    n = D.degree
    A = oscillatory_coefficients(D, phase, x)
    dg = np.array([phase.deriv_value(tuple(1 if i == j else 0 for i in range(D.dim)), x)
                   for j in range(D.dim)])
    sval = PrincipalSymbol(D).value(x, dg)
    lead = A[n] / (1j ** n)
    rel = abs(lead - sval) / max(abs(sval), 1e-300)
    # the residual is the exact lower-order tail
    res = np.array([abs(np.polyval(A[:n][::-1], lam)) for lam in lams])
    slope = _loglog_slope(lams, res)
    return ScalingReport(n, slope, lead, sval, rel, res)


def eikonal_residual(D: LinearDiffOperator, phase, lams, points) -> float:
    """Fitted lam-order of max_x |e^{-i lam g} D e^{i lam g}| over probe points.

    Order about n-1 certifies that the phase solves the characteristic
    equation s_D(dg) = 0 (the lam^n coefficient vanishes); a generic phase
    fits close to n.
    """
    lams = _check_span(lams)
    points = [np.asarray(x, float) for x in points]
    if not points:
        raise ContractViolation("need at least one probe point")
    coefs = [oscillatory_coefficients(D, phase, x) for x in points]
    vals = np.array([max(abs(np.polyval(A[::-1], lam)) for A in coefs) for lam in lams])
    if vals.max() < 1e-250:
        return float("-inf")
    return _loglog_slope(lams, vals)


# --- phases from sampled data ----------------------------------------------

PHASE_FIT_MAX_RESIDUAL = 1e-4   # the quadratic model's largest residual / max(|values|, 1)

def fit_quadratic_phase(chart: Chart, points, values, center, radius: float,
                        s_axis: str | None = "s", s_weight: float = 1.0) -> PolyField:
    """Local quadratic least-squares model of sampled action data.

    ``points``/``values`` sample S over the base axes of ``chart`` (the fiber
    axis excluded); only samples within ``radius`` of ``center`` enter the
    fit.  The returned phase is the quadratic model plus the fiber monomial
    s_weight * s, i.e. a full-bundle phase g = S_fit + s.
    """
    si = chart.axis_index(s_axis) if (s_axis and s_axis in chart.axis_names) else None
    base_idx = [i for i in range(chart.dim) if i != si]
    base = Chart([chart.axis_names[i] for i in base_idx], chart.bounds[base_idx])
    nb = len(base_idx)
    center = np.asarray(center, float)
    pts = np.asarray(points, float).reshape(-1, nb)
    vals = np.asarray(values, float).ravel()
    keep = np.sqrt(dot(pts - center, pts - center)) <= radius
    pts, vals = pts[keep], vals[keep]
    monos = [m for m in itertools.product(range(3), repeat=nb) if sum(m) <= 2]
    if len(pts) < len(monos) + 2:
        raise DataQualityError(
            f"only {len(pts)} samples within radius {radius}; need {len(monos) + 2}")
    # row j of M is monomial j at every sample, in u = (x - center) / radius: columns
    # scaled by powers of the radius keep the normal equations well conditioned
    u = (pts - center) / radius
    M = np.array([math.prod((libm_pow(u[:, i], e) for i, e in enumerate(k)),
                            start=np.ones(len(u))) for k in monos])
    sol = _solve(dot(M[:, None], M[None]), dot(M, vals))
    resid = np.abs(dot(M.T, sol) - vals).max()
    scale = max(np.abs(vals).max(), 1.0)
    if resid > PHASE_FIT_MAX_RESIDUAL * scale:
        raise DataQualityError(f"quadratic model residual {resid:.3e} exceeds "
                               f"{PHASE_FIT_MAX_RESIDUAL:.1e} * scale")
    # the absolute coefficients are the Taylor coefficients at the origin
    centred = PolyField(base, {k: c / libm_pow(radius, sum(k)) for k, c in zip(monos, sol)})
    coeffs = {chart.multi_index(dict(zip(base.axis_names, k))):
              centred.deriv_value(k, -center) / math.prod(map(math.factorial, k))
              for k in monos}
    if si is not None:
        coeffs[chart.multi_index({s_axis: 1})] = s_weight
    return PolyField(chart, coeffs)


def _solve(A, b) -> list[float]:
    """x with A x = b, for a small symmetric positive definite A, by
    Gauss-Jordan elimination in Python floats in index order (no pivoting);
    a pivot that is not finite and positive is a DataQualityError."""
    n = len(b)
    rows = [[float(v) for v in A[i]] + [float(b[i])] for i in range(n)]
    for k in range(n):
        if not (math.isfinite(rows[k][k]) and rows[k][k] > 0.0):
            raise DataQualityError("the samples do not determine a quadratic model")
        for r in [*range(k), *range(k + 1, n)]:
            f = rows[r][k] / rows[k][k]
            rows[r][k:] = [v - f * w for v, w in zip(rows[r][k:], rows[k][k:])]
    return [row[n] / row[k] for k, row in enumerate(rows)]


def poly_phase(chart: Chart, coeffs: Mapping, s_axis: str | None = "s",
               s_weight: float = 0.0) -> PolyField:
    """Convenience: exact polynomial phase, optionally plus s_weight * s."""
    full = {_as_multi(m, chart.dim): float(c) for m, c in coeffs.items()}
    if s_weight and s_axis and s_axis in chart.axis_names:
        si = chart.axis_index(s_axis)
        mono = tuple(1 if i == si else 0 for i in range(chart.dim))
        full[mono] = full.get(mono, 0.0) + s_weight
    return PolyField(chart, full)


def schrodinger_operator(chart: Chart, mass: float = 1.0,
                         V: "PolyField | float" = 0.0) -> LinearDiffOperator:
    """(1/2m) d^2/dx^2 + V(x) d^2/ds^2 + d^2/(ds dt) on axes (t, x, s)."""
    for ax in ("t", "x", "s"):
        if ax not in chart.axis_names:
            raise ContractViolation(f"chart needs a {ax!r} axis")
    if not isinstance(V, PolyField):
        V = PolyField.from_const(chart, float(V))
    mono = chart.multi_index
    terms = {mono({"x": 2}): 1.0 / (2.0 * mass), mono({"s": 2}): V, mono({"s": 1, "t": 1}): 1.0}
    return LinearDiffOperator(chart, terms, s_axis="s", name="schrodinger")
