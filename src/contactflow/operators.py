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

from .charts import Chart, PolyField
from .errors import (ContractViolation, DataQualityError, FitQualityError)
from .strips import Fiber, SymbolSurface

Coefficient = "float | PolyField"


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

    def top_terms(self) -> dict:
        return {m: c for m, c in self.terms.items() if sum(m) == self.degree}


def principal_symbol(D: LinearDiffOperator) -> "PrincipalSymbol":
    return PrincipalSymbol(D)


class PrincipalSymbol:
    """s_D(x, xi) = sum over top-order terms of coeff(x) * xi^alpha.

    x and xi have shape (d,), or (..., d) at stacked points.
    """

    def __init__(self, D: LinearDiffOperator):
        self.operator = D
        self.chart = D.chart
        self.degree = D.degree
        self.terms = D.top_terms()

    def value(self, x, xi):
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        total = 0.0
        for m, c in self.terms.items():
            total += c.value(x) * _monomial(xi, m)
        return total

    def xi_gradient(self, x, xi) -> np.ndarray:
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        g = np.zeros(np.broadcast_shapes(x.shape, xi.shape))
        for m, c in self.terms.items():
            cv = c.value(x)
            for j, mj in enumerate(m):
                if mj == 0:
                    continue
                mono = list(m)
                mono[j] -= 1
                g[..., j] += cv * mj * _monomial(xi, mono)
        return g

    def x_gradient(self, x, xi) -> np.ndarray:
        x = np.asarray(x, float)
        xi = np.asarray(xi, float)
        g = np.zeros(np.broadcast_shapes(x.shape, xi.shape))
        for m, c in self.terms.items():
            g += c.gradient(x) * _monomial(xi, m)[..., None]
        return g


def _monomial(xi: np.ndarray, m) -> np.ndarray:
    """xi^m, the product over the last axis of xi_j ** m_j."""
    return np.prod(xi ** np.array(m), axis=-1)


def equivariant_reduce(symbol: PrincipalSymbol, weight: float,
                       fiber: Fiber | None = None) -> SymbolSurface:
    """Fold the fiber momentum out: xi_s := weight * p_s on a base-axes chart.

    At p_s = 1 this is the plain substitution xi_s = weight; keeping the p_s
    factor preserves momentum homogeneity so the result drops straight into
    the strip integrator.  Operators without a fiber axis pass through
    unchanged (xi_s never occurs).
    """
    D = symbol.operator
    si = D.s_index
    if si is None:
        base = D.chart
        idx = list(range(base.dim))
    else:
        keep = [i for i in range(D.chart.dim) if i != si]
        base = Chart([D.chart.axis_names[i] for i in keep],
                     [tuple(D.chart.bounds[i]) for i in keep])
        idx = keep

    def pad_x(x):
        if si is None:
            return x
        full = np.zeros(x.shape[:-1] + (D.chart.dim,))
        full[..., idx] = x
        return full

    def full_xi(p, p_s):
        xi = np.zeros(p.shape[:-1] + (D.chart.dim,))
        xi[..., idx] = p
        if si is not None:
            xi[..., si] = weight * p_s
        return xi

    def value(x, p, p_s):
        return symbol.value(pad_x(x), full_xi(p, p_s))

    def grad(x, p, p_s):
        xf, xif = pad_x(x), full_xi(p, p_s)
        gx_full = symbol.x_gradient(xf, xif)
        gxi = symbol.xi_gradient(xf, xif)
        gps = weight * gxi[..., si] if si is not None else 0.0
        return gx_full[..., idx], gxi[..., idx], gps

    name = f"reduced({D.name or 'operator'}, w={weight:g})"
    return SymbolSurface(base, value, symbol.degree, grad=grad,
                         fiber=fiber or Fiber(), name=name)


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


def oscillatory_value(D: LinearDiffOperator, phase, x, lam: float) -> complex:
    A = oscillatory_coefficients(D, phase, x)
    return complex(np.polyval(A[::-1], lam))


def _check_span(lams) -> np.ndarray:
    lams = np.asarray(lams, float)
    if len(lams) < 4 or lams.min() <= 0 or lams.max() / lams.min() < 100.0:
        raise FitQualityError("lambda list must span at least two decades")
    return lams


def _loglog_slope(lams, vals) -> float:
    mask = np.asarray(vals) > 0
    if mask.sum() < 2:
        return float("-inf")
    return float(np.polyfit(np.log(lams[mask]), np.log(np.asarray(vals)[mask]), 1)[0])


@dataclass
class ScalingReport:
    degree: int
    fitted_exponent: float       # of |D e^{i lam g} e^{-i lam g} - (i lam)^n s_D(dg)|
    leading_coeff: complex       # A_n / i^n, should equal s_D(x, dg)
    symbol_value: float          # s_D(x, dg) from principal_symbol
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
    sval = principal_symbol(D).value(x, dg)
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

def fit_quadratic_phase(chart: Chart, points, values, center, radius: float,
                        s_axis: str | None = "s", s_weight: float = 1.0,
                        max_residual: float = 1e-4) -> PolyField:
    """Local quadratic least-squares model of sampled action data.

    ``points``/``values`` sample S over the base axes of ``chart`` (the fiber
    axis excluded); only samples within ``radius`` of ``center`` enter the
    fit.  The returned phase is the quadratic model plus the fiber monomial
    s_weight * s, i.e. a full-bundle phase g = S_fit + s.
    """
    si = chart.axis_index(s_axis) if (s_axis and s_axis in chart.axis_names) else None
    base_idx = [i for i in range(chart.dim) if i != si]
    nb = len(base_idx)
    center = np.asarray(center, float)
    pts = np.asarray(points, float).reshape(-1, nb)
    vals = np.asarray(values, float).ravel()
    keep = np.linalg.norm(pts - center, axis=1) <= radius
    pts, vals = pts[keep], vals[keep]
    monos = [m for m in itertools.product(range(3), repeat=nb) if sum(m) <= 2]
    if len(pts) < len(monos) + 2:
        raise DataQualityError(
            f"only {len(pts)} samples within radius {radius}; need {len(monos) + 2}")
    M = np.array([[float(np.prod((row - center) ** np.array(m))) for m in monos]
                  for row in pts])
    sol, *_ = np.linalg.lstsq(M, vals, rcond=None)
    resid = np.abs(M @ sol - vals).max()
    scale = max(np.abs(vals).max(), 1.0)
    if resid > max_residual * scale:
        raise DataQualityError(
            f"quadratic model residual {resid:.3e} exceeds {max_residual:.1e} * scale")
    # re-expand around the origin of the full chart
    coeffs: dict = {}
    for m, c in zip(monos, sol):
        if c == 0.0:
            continue
        # (x - center)^m expanded binomially into absolute monomials
        expansion = {tuple(0 for _ in range(nb)): c}
        for j, mj in enumerate(m):
            nxt = {}
            for mono, cc in expansion.items():
                for k in range(mj + 1):
                    binom = math.comb(mj, k) * (-center[j]) ** (mj - k)
                    key = tuple(mono[i] + (k if i == j else 0) for i in range(nb))
                    nxt[key] = nxt.get(key, 0.0) + cc * binom
            expansion = nxt
        for mono, cc in expansion.items():
            full = [0] * chart.dim
            for i, bi in enumerate(base_idx):
                full[bi] = mono[i]
            key = tuple(full)
            coeffs[key] = coeffs.get(key, 0.0) + cc
    if si is not None:
        s_mono = tuple(1 if i == si else 0 for i in range(chart.dim))
        coeffs[s_mono] = coeffs.get(s_mono, 0.0) + s_weight
    return PolyField(chart, coeffs)


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
    it, ix = chart.axis_index("t"), chart.axis_index("x")
    i_s = chart.axis_index("s")

    def mono(**kw):
        m = [0] * chart.dim
        for ax, k in kw.items():
            m[chart.axis_index(ax)] = k
        return tuple(m)

    if not isinstance(V, PolyField):
        V = PolyField.from_const(chart, float(V))
    terms = {mono(x=2): 1.0 / (2.0 * mass), mono(s=2): V, mono(s=1, t=1): 1.0}
    return LinearDiffOperator(chart, terms, s_axis="s", name="schrodinger")
