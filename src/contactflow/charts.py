"""Single-chart coordinate numerics: points, scalar fields, finite differences, root scans.

Everything in the engine lives in one global coordinate chart per scenario.
Coordinates are dimensionless; axis names are labels only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BoundaryError, ContractViolation

#: default relative finite-difference step (scaled per axis by max(1, |x_i|))
DEFAULT_FD_STEP = 1e-5

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Chart:
    """A rectangular coordinate chart with named axes."""

    axis_names: tuple[str, ...]
    bounds: np.ndarray  # shape (dim, 2)

    def __init__(self, axis_names: Sequence[str], bounds) -> None:
        names = tuple(axis_names)
        arr = np.asarray(bounds, dtype=float)
        if len(names) < 1:
            raise ContractViolation("chart needs at least one axis")
        if arr.shape != (len(names), 2):
            raise ContractViolation(f"bounds shape {arr.shape} does not match {len(names)} axes")
        if not np.all(np.isfinite(arr)):
            raise ContractViolation("chart bounds must be finite")
        if not np.all(arr[:, 0] < arr[:, 1]):
            raise ContractViolation("each axis needs lower < upper bound")
        object.__setattr__(self, "axis_names", names)
        arr.setflags(write=False)
        object.__setattr__(self, "bounds", arr)

    @property
    def dim(self) -> int:
        return len(self.axis_names)

    def axis_index(self, name: str) -> int:
        try:
            return self.axis_names.index(name)
        except ValueError:
            raise ContractViolation(f"no axis named {name!r} in {self.axis_names}") from None

    def contains(self, x):
        """Whether x lies in the chart: a bool at one point, an array over
        stacked points (..., dim)."""
        x = np.asarray(x, dtype=float)
        inside = np.all((x >= self.bounds[:, 0]) & (x <= self.bounds[:, 1]), axis=-1)
        return bool(inside) if x.ndim == 1 else inside

    def require_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ContractViolation(f"point shape {x.shape} does not match dim {self.dim}")
        return x

    def boundary_clearance(self, x):
        """Smallest signed distance to the boundary (negative outside): a
        float at one point, an array over stacked points (..., dim)."""
        x = np.asarray(x, dtype=float)
        clear = np.minimum(x - self.bounds[:, 0], self.bounds[:, 1] - x).min(axis=-1)
        return float(clear) if x.ndim == 1 else clear

    def interior_sample(self, rng: np.random.Generator, margin: float = 0.0) -> np.ndarray:
        return rng.uniform(self.bounds[:, 0] + margin, self.bounds[:, 1] - margin)


def fd_steps(x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Per-axis central-difference steps: h * max(1, |x_i|)."""
    return h * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))


def fd_gradient(f: Callable, x, steps) -> np.ndarray:
    """Central differences of a scalar- or array-valued f with per-axis steps.

    At one point x of shape (n,), row i is (f(x + h_i e_i) - f(x - h_i e_i))
    / (2 h_i), so for a vector-valued f the result is J[i, j] = d f_j / d x_i.
    At stacked points x of shape (..., n), f is called on the whole stack and
    the row index i sits after the stack axes: J[..., i] or J[..., i, j].
    """
    x = np.asarray(x, dtype=float)
    steps = np.broadcast_to(steps, x.shape)
    rows = []
    for i in range(x.shape[-1]):
        hi = steps[..., i]
        xp = x.copy(); xp[..., i] += hi
        xm = x.copy(); xm[..., i] -= hi
        d = np.asarray(f(xp)) - np.asarray(f(xm))
        rows.append(d / (2.0 * hi).reshape(hi.shape + (1,) * (d.ndim - hi.ndim)))
    return np.stack(rows, axis=x.ndim - 1)


def brentq(f: Callable, a: float, b: float, args=(), xtol: float = 2e-12,
           rtol: float = 4 * _EPS, maxiter: int = 100) -> float:
    """A root of t -> f(t, *args) in the bracket [a, b] by Brent's method,
    within |t - root| <= xtol + rtol |root|.

    A port of scipy.optimize.brentq, its C routine operation for operation
    and its wrapper's checks, so a root has scipy's bits.  Raises ValueError
    for xtol <= 0, rtol < 4 eps, a NaN value of f, or f(a) and f(b) of one
    sign; RuntimeError when maxiter iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * _EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * _EPS:g})")
    xtol, rtol = float(xtol), float(rtol)

    def call(t):
        ft = float(f(t, *args))
        if math.isnan(ft):
            raise ValueError(f"The function value at x={t} is NaN; solver cannot continue.")
        return ft

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf   # bisect, unless an interpolation step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:   # C divides by zero to an inf or a nan: a bisection either way
                if xpre == xblk:   # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:   # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def scan_roots(f: Callable, grid, n: int = 1) -> list[list[float]]:
    """Ascending roots of the n scalar functions t -> f(t, i), i < n, found
    by scanning one grid: a list of n root lists.

    f is called once on the whole grid for all n functions, with t of shape
    (1, k) and i of shape (n, 1), and returns values of shape (n, k); the
    brentq polish of each sign change between neighbouring grid values calls
    it with a float t and an int i.  A grid value that is exactly zero (the
    last one included) counts once.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(f(grid[None, :], np.arange(n)[:, None]), dtype=float)
    # an exact zero, or a sign change between a grid value and the next one
    hit = (vals == 0.0) | (vals * np.pad(vals[:, 1:], ((0, 0), (0, 1))) < 0)
    return [sorted(float(grid[j]) if vals[i, j] == 0.0
                   else brentq(f, grid[j], grid[j + 1], args=(i,), xtol=1e-14)
                   for j in np.flatnonzero(hit[i])) for i in range(n)]


def components(a) -> list:
    """The components of a along its last axis: floats for one point of
    shape (n,), arrays of shape (...) for stacked points of shape (..., n)."""
    return a.tolist() if a.ndim == 1 else [a[..., i] for i in range(a.shape[-1])]


def stack_last(parts) -> np.ndarray:
    """Inverse of ``components``: equal-shape parts stacked on a new last axis."""
    out = np.array(parts, dtype=float)
    return out if out.ndim == 1 else out.transpose(*range(1, out.ndim), 0)


def libm_pow(a, b):
    """a ** b elementwise through the C library's pow, on floats or on arrays
    that broadcast.

    This is the rounding a single float gets.  numpy squares arrays by
    multiplication instead, which differs from pow in the last bit on about
    0.1% of inputs, so stacked and single evaluations would disagree.
    """
    if isinstance(b, (int, float)):
        if isinstance(a, float):
            return a ** b
        if b == 0:
            return 1.0
        if b == 1:
            return a
        a = np.asarray(a, dtype=float)
        return np.fromiter(map(math.pow, memoryview(a.ravel()), itertools.repeat(b)),
                           float, a.size).reshape(a.shape)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.fromiter(map(math.pow, memoryview(a.ravel()), memoryview(b.ravel())),
                       float, a.size).reshape(a.shape)


def libm_hypot(a, b):
    """math.hypot elementwise on floats (an np.float64 comes back) or on
    arrays that broadcast.

    np.hypot differs from math.hypot in the last bit on about 0.5% of inputs.
    """
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(math.hypot(a, b))
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.fromiter(map(math.hypot, memoryview(a.ravel()), memoryview(b.ravel())),
                       float, a.size).reshape(a.shape)


class ScalarField:
    """A real function on a chart with an optional analytic gradient.

    ``fn`` and ``grad`` get one point of shape (dim,), or stacked points of
    shape (..., dim) when a stack is evaluated; then they must broadcast.
    When no gradient callable is supplied, central finite differences are
    used (O(h^2) accurate for C^3 fields).
    """

    def __init__(self, chart: Chart, fn: Callable, grad: Callable | None = None):
        self.chart = chart
        self.fn = fn
        self.grad = grad

    def value(self, x):
        """A float at one point, an array of shape (...) at stacked points."""
        x = np.asarray(x, dtype=float)
        v = self.fn(x)
        return float(v) if x.ndim == 1 else np.broadcast_to(np.asarray(v, float), x.shape[:-1])

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.chart.dim,):
            raise ContractViolation(f"point shape {x.shape} does not match dim {self.chart.dim}")
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        steps = fd_steps(x)
        bounds = self.chart.bounds
        if np.any(x - steps < bounds[:, 0]) or np.any(x + steps > bounds[:, 1]):
            raise BoundaryError(f"point {x} closer than one step to the chart boundary")
        return fd_gradient(self.value, x, steps)


class PolyField:
    """Multivariate polynomial on a chart with exact derivatives of every order.

    Coefficients are stored as a map multi-index -> float; this is the
    workhorse for connection potentials, gauge functions and probe phases
    where finite differences would limit accuracy.
    """

    def __init__(self, chart: Chart, coeffs: Mapping[tuple, float]):
        self.chart = chart
        self.coeffs = {tuple(int(i) for i in k): float(v) for k, v in coeffs.items()
                       if v != 0.0}
        for k in self.coeffs:
            if len(k) != chart.dim or any(i < 0 for i in k):
                raise ContractViolation(f"bad multi-index {k} for dim {chart.dim}")

    def value(self, x):
        """Value at a point x of shape (dim,) (a float), or at stacked points
        of shape (..., dim) (an array of shape (...))."""
        x = np.asarray(x, dtype=float)
        xs = components(x)
        total = 0.0
        for k, c in self.coeffs.items():
            term = 1
            for xi, ki in zip(xs, k):
                term = term * libm_pow(xi, ki)
            total += c * term
        return total if x.ndim == 1 else np.broadcast_to(total, x.shape[:-1])

    def __call__(self, x) -> float:
        return self.value(x)

    def derivative(self, multi: Sequence[int]) -> "PolyField":
        out = self.coeffs
        for axis, order in enumerate(multi):
            for _ in range(order):
                new = {}
                for k, c in out.items():
                    if k[axis] > 0:
                        kk = list(k); kk[axis] -= 1
                        new[tuple(kk)] = new.get(tuple(kk), 0.0) + c * k[axis]
                out = new
        return PolyField(self.chart, out)

    def deriv_value(self, multi: Sequence[int], x) -> float:
        return self.derivative(multi).value(x)

    @cached_property
    def partials(self) -> list["PolyField"]:
        """The first partial derivatives, one per axis (built once)."""
        dim = self.chart.dim
        return [self.derivative([int(i == axis) for i in range(dim)]) for axis in range(dim)]

    def gradient(self, x) -> np.ndarray:
        """The partials stacked on the last axis: shape (dim,) or (..., dim)."""
        x = np.asarray(x, dtype=float)
        return stack_last([d.value(x) for d in self.partials])

    @classmethod
    def from_const(cls, chart: Chart, c: float) -> "PolyField":
        return cls(chart, {tuple([0] * chart.dim): c})


class VectorField:
    """Vector field on a chart from one component per axis, with a Jacobian
    (exact for polynomial components); constants become constant polynomials."""

    def __init__(self, chart: Chart, components: Sequence):
        self.chart = chart
        self.components = [c if isinstance(c, (PolyField, ScalarField))
                           else PolyField.from_const(chart, float(c))
                           for c in components]
        if len(self.components) != chart.dim:
            raise ContractViolation("vector field needs one component per axis")

    def value(self, x) -> np.ndarray:
        """Components on the last axis, at one point or at stacked points
        (a stack needs polynomial components)."""
        x = np.asarray(x, float)
        return stack_last([c.value(x) for c in self.components])

    def jacobian(self, x) -> np.ndarray:
        """J[..., i, j] = d v^j / d x^i."""
        x = np.asarray(x, float)
        return stack_last([c.gradient(x) for c in self.components])


def random_polynomial(chart: Chart, rng: np.random.Generator, max_degree: int = 2,
                      scale: float = 1.0) -> PolyField:
    """Random polynomial, useful as a gauge function in property tests."""
    coeffs = {}
    for k in itertools.product(range(max_degree + 1), repeat=chart.dim):
        if 0 < sum(k) <= max_degree:
            coeffs[k] = scale * rng.uniform(-1.0, 1.0)
    return PolyField(chart, coeffs)
