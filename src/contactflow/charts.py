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
from scipy.optimize import brentq

from .errors import BoundaryError, ContractViolation

#: default relative finite-difference step (scaled per axis by max(1, |x_i|))
DEFAULT_FD_STEP = 1e-5


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
            raise ContractViolation(
                f"bounds shape {arr.shape} does not match {len(names)} axes"
            )
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

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.bounds[:, 0]) and np.all(x <= self.bounds[:, 1]))

    def require_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ContractViolation(f"point shape {x.shape} does not match dim {self.dim}")
        return x

    def boundary_clearance(self, x) -> float:
        """Smallest signed distance to the boundary (negative outside)."""
        x = np.asarray(x, dtype=float)
        return float(min(np.min(x - self.bounds[:, 0]), np.min(self.bounds[:, 1] - x)))

    def interior_sample(self, rng: np.random.Generator, margin: float = 0.0) -> np.ndarray:
        lo = self.bounds[:, 0] + margin
        hi = self.bounds[:, 1] - margin
        return rng.uniform(lo, hi)


def fd_steps(x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Per-axis central-difference steps: h * max(1, |x_i|)."""
    return h * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))


def fd_gradient(f: Callable, x, steps) -> np.ndarray:
    """Central differences of a scalar- or array-valued f with per-axis steps.

    Row i is (f(x + h_i e_i) - f(x - h_i e_i)) / (2 h_i), so for a
    vector-valued f the result is J[i, j] = d f_j / d x_i.
    """
    x = np.asarray(x, dtype=float)
    rows = []
    for i, hi in enumerate(steps):
        xp = x.copy(); xp[i] += hi
        xm = x.copy(); xm[i] -= hi
        rows.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * hi))
    return np.array(rows)


def scan_roots(f: Callable, grid) -> list[float]:
    """Ascending roots of a scalar f found by scanning a grid.

    Each sign change between neighbouring grid values is polished by brentq;
    a grid value that is exactly zero (the last one included) counts once.
    """
    vals = [f(t) for t in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0:
            roots.append(float(brentq(f, a, b, xtol=1e-14)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return sorted(roots)


class ScalarField:
    """A real function on a chart with an optional analytic gradient.

    When no gradient callable is supplied, central finite differences are
    used (O(h^2) accurate for C^3 fields).
    """

    def __init__(self, chart: Chart, fn: Callable, grad: Callable | None = None):
        self.chart = chart
        self.fn = fn
        self.grad = grad

    def value(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        x = self.chart.require_point(x)
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

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for k, c in self.coeffs.items():
            total += c * math.prod(xi ** ki for xi, ki in zip(x, k))
        return total

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
        x = np.asarray(x, dtype=float)
        return np.array([d.value(x) for d in self.partials])

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
        x = np.asarray(x, float)
        return np.array([c.value(x) for c in self.components])

    def jacobian(self, x) -> np.ndarray:
        """J[i, j] = d v^j / d x^i."""
        x = np.asarray(x, float)
        return np.column_stack([c.gradient(x) for c in self.components])


def random_polynomial(chart: Chart, rng: np.random.Generator, max_degree: int = 2,
                      scale: float = 1.0) -> PolyField:
    """Random polynomial, useful as a gauge function in property tests."""
    coeffs = {}
    for k in itertools.product(range(max_degree + 1), repeat=chart.dim):
        if 0 < sum(k) <= max_degree:
            coeffs[k] = scale * rng.uniform(-1.0, 1.0)
    return PolyField(chart, coeffs)
