"""Single-chart coordinate numerics: points, scalar fields, finite differences, root scans.

Everything in the engine lives in one global coordinate chart per scenario.
Coordinates are dimensionless; axis names are labels only.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractViolation

_EPS = np.finfo(float).eps
POW_CHAIN_MAX = 64   # the largest exponent libm_pow multiplies out
SCAN_BLOCK = 2 ** 15   # the most grid values scan_roots passes f in one call


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

    def multi_index(self, powers: Mapping[str, int]) -> tuple[int, ...]:
        """The multi-index of the monomial prod x_axis ** power, from a
        mapping {axis name: power}; absent axes get power 0, and a power
        that is not a non-negative integer is refused."""
        m = [0] * self.dim
        for name, k in powers.items():
            i = self.axis_index(name)
            if not (isinstance(k, numbers.Real) and float(k).is_integer() and k >= 0):
                raise ContractViolation(
                    f"power of {name!r} must be a non-negative integer, got {k!r}")
            m[i] = int(k)
        return tuple(m)

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
        clear = np.minimum.reduce(np.minimum(x - self.bounds[:, 0], self.bounds[:, 1] - x), -1)
        return float(clear) if x.ndim == 1 else clear

    def interior_sample(self, rng: np.random.Generator, margin: float = 0.0) -> np.ndarray:
        return rng.uniform(self.bounds[:, 0] + margin, self.bounds[:, 1] - margin)


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


def brentq(f: Callable, a, b, i, xtol: float = 2e-12, rtol: float = 4 * _EPS,
           maxiter: int = 100) -> np.ndarray:
    """Roots of the functions t -> f(t, i[k]) in the brackets [a[k], b[k]]
    by Brent's method, each within |t - root| <= xtol + rtol |root|; a, b
    and i are 1-D arrays of one length, and so is the result.

    f takes an array of points and the matching array of indices and returns
    the values there; it is called on both ends of every bracket, then once
    per iteration on the brackets still open.  Each bracket follows the C
    routine of scipy.optimize.brentq operation for operation, so its root
    has scipy's bits.  Raises ValueError for xtol <= 0, rtol < 4 eps, a NaN
    value of f, or a bracket whose ends have values of one sign;
    RuntimeError when a bracket does not converge in maxiter iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * _EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * _EPS:g})")
    xtol, rtol = float(xtol), float(rtol)

    def call(t, i):
        ft = np.asarray(f(t, i), dtype=float)
        if np.isnan(ft).any():
            raise ValueError(f"The function value at x={t[np.isnan(ft)][0]} is NaN; "
                             "solver cannot continue.")
        return ft

    a, b, i = np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(i)
    fa, fb = call(a, i), call(b, i)
    root = np.where(fa == 0, a, b)   # an end where f is exactly zero is the root
    k = np.flatnonzero((fa != 0) & (fb != 0))   # the brackets still open
    if ((fa[k] < 0) == (fb[k] < 0)).any():
        raise ValueError("f(a) and f(b) must have different signs")
    # Q[0] holds the points (pre, cur, blk), Q[1] their values; S the steps (spre, scur)
    zero = np.zeros(len(k))
    Q, S, i = np.array([[a[k], b[k], zero], [fa[k], fb[k], zero]]), np.zeros((2, len(k))), i[k]
    for _ in range(maxiter):
        neg = Q[1, :2] < 0
        flip = neg[0] != neg[1]   # the sign change is in [pre, cur] (f(cur) = 0 ends below)
        np.copyto(Q[:, 2], Q[:, 0], where=flip)
        np.copyto(S, Q[0, 1] - Q[0, 0], where=flip)
        mag = np.abs(Q[1])
        Q = np.where(mag[2] < mag[1], Q.take([1, 2, 1], axis=1), Q)   # blk is nearer 0
        (xpre, xcur, xblk), (fpre, fcur, fblk), (spre, scur) = Q[0], Q[1], S
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        asbis = np.abs(sbis)
        done = (fcur == 0) | (asbis < delta)
        if np.count_nonzero(done):
            root[k[done]] = xcur[done]
            k, i, Q, S, delta, sbis, asbis = (v[..., ~done] for v in (k, i, Q, S, delta, sbis,
                                                                    asbis))
            if not k.size:
                break
            (xpre, xcur, xblk), (fpre, fcur, fblk), (spre, scur) = Q[0], Q[1], S
        # bisect, unless an interpolation step is short enough
        aspre, mag = np.abs(spre), np.abs(Q[1])
        interp = (aspre > delta) & (mag[1] < mag[0])
        stry = np.full(len(k), np.inf)
        if np.count_nonzero(interp):
            # a zero divisor gives an inf or a NaN here as in C, and either bisects
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                s = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),   # secant
                             -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            np.copyto(stry, s, where=interp)
        take = 2 * np.abs(stry) < np.minimum(aspre, 3 * asbis - delta)
        S = np.where(take, np.array([scur, stry]), sbis)
        # a step of at least delta toward blk (sbis is not 0 in an open bracket)
        xnew = xcur + np.where(np.abs(S[1]) > delta, S[1], np.copysign(delta, sbis))
        Q[:, 0] = Q[:, 1]
        Q[0, 1], Q[1, 1] = xnew, call(xnew, i)
    if k.size:
        raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
    return root


def scan_roots(f: Callable, grid, n: int = 1, need: int | None = None) -> list[list[float]]:
    """Ascending roots of the n scalar functions t -> f(t, i), i < n, found
    by scanning one ascending grid: a list of n root lists.

    f is called on ascending blocks of the grid, with t of shape (1, k) and
    i of shape (r, 1) for the r functions still scanning, and returns values
    of shape (r, k); a block holds at most SCAN_BLOCK values (and at least
    one column), so a grid of n * len(grid) <= SCAN_BLOCK values is one
    call.  A function leaves the scan once it has ``need`` roots, and its
    list holds its first ``need``; with need None every function scans the
    whole grid.  Every sign change between neighbouring grid values is then
    polished by one brentq call of up to 1000 iterations (a multiple root
    needs more than 100), which calls f with matching 1-D arrays t and i.
    A grid value that is exactly zero (the last one included) counts once;
    each function's last value carries across a block edge.
    """
    grid = np.asarray(grid, dtype=float)
    need = len(grid) if need is None else need   # at most one root per grid value
    rows, have = np.arange(n), np.zeros(n, int)   # the functions still scanning, roots found
    # per hit: the function, the grid index and whether it brackets (not an exact zero)
    fi, j, polish = [np.arange(0)], [np.arange(0)], [np.zeros(0, bool)]
    lo, last = 0, None   # the next block's start and the scanning rows' values before it
    while lo < len(grid) and rows.size:
        hi = min(len(grid), lo + max(1, SCAN_BLOCK // rows.size))
        vals = np.asarray(f(grid[None, lo:hi], rows[:, None]), dtype=float)
        # hit column c is grid value lo - 1 + c: an exact zero, or a sign change between
        # it and the next one; column 0 is the carried value, whose zero counted already
        hit = np.empty((len(vals), vals.shape[1] + 1), bool)
        np.equal(vals, 0.0, out=hit[:, 1:])
        neg, pos = vals < 0, vals > 0   # compared, not multiplied: a product can underflow
        hit[:, 1:-1] |= neg[:, :-1] & pos[:, 1:] | pos[:, :-1] & neg[:, 1:]
        hit[:, 0] = False if last is None else np.sign(last) * vals[:, 0] < 0
        r, c = divmod(np.flatnonzero(hit), hit.shape[1])
        # the hits come in (row, column) order: keep each row's first need - have
        rank = np.arange(len(r)) - np.searchsorted(r, r)
        keep = rank < need - have[r]
        r, c = r[keep], c[keep]
        # a carried sign change brackets (its value is not 0)
        fi.append(rows[r]); j.append(lo - 1 + c); polish.append(vals[r, c - (c > 0)] != 0.0)
        have += np.bincount(r, minlength=rows.size)
        scan = have < need
        rows, have, last, lo = rows[scan], have[scan], vals[scan, -1], hi
    fi, j, polish = (np.concatenate(v) for v in (fi, j, polish))
    roots = grid[j]
    if polish.any():
        jb = j[polish]
        roots[polish] = brentq(f, grid[jb], grid[jb + 1], fi[polish], xtol=1e-14, maxiter=1000)
    roots = roots[np.lexsort((roots, fi))].tolist()
    ends = np.cumsum(np.bincount(fi, minlength=n)).tolist()
    return [roots[lo:hi] for lo, hi in zip([0] + ends, ends)]


def components(a) -> list:
    """The components of a along its last axis: floats for one point of
    shape (n,), arrays of shape (...) for stacked points of shape (..., n)."""
    return a.tolist() if a.ndim == 1 else [a[..., i] for i in range(a.shape[-1])]


def stack_last(parts) -> np.ndarray:
    """Inverse of ``components``: equal-shape parts stacked on a new last axis."""
    out = np.array(parts, dtype=float)
    return out if out.ndim == 1 else out.transpose(*range(1, out.ndim), 0)


def dot(a, b):
    """sum_i a[..., i] * b[..., i], the products added in index order, over
    arguments with one last-axis length whose other axes broadcast: a float64
    for two vectors, an array over stacks.

    Elementwise * and + are exactly rounded, so the bits depend on neither
    the BLAS kernel nor numpy's SIMD dispatch, and a row of a stack gets the
    bits it gets alone.  Few rows take one np.add.accumulate call, whose
    r[i] = r[i - 1] + t[i] is that order by definition; many rows take
    lead_dot over the components, which is faster there.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if max(a.size, b.size) < 128 * a.shape[-1]:
        return np.add.accumulate(a * b, axis=-1)[..., -1]
    return lead_dot(components(a), components(b))


def lead_dot(a, b, out=None):
    """sum_i a[i] * b[i] over the leading index of a and b, arrays or lists
    of slabs (dot passes its components), the products added in index order;
    the terms broadcast to one shape, that of ``out`` if given (the sum goes there)."""
    total = np.multiply(a[0], b[0], out=out)
    term = np.empty_like(total)
    for i in range(1, len(a)):
        total += np.multiply(a[i], b[i], out=term)
    return total


def libm_pow(a, b):
    """a ** b elementwise, on floats or on arrays that broadcast, with the
    same bits for a Python float, an np.float64 (either keeps its type) and
    an array element.

    An integral exponent up to POW_CHAIN_MAX is repeated multiplication; any
    other goes through the C library's pow (math.pow), which numpy's ** does
    not match on arrays.  Where math.pow raises (a domain edge, an overflow)
    the value is numpy's NaN or +-inf: it never raises, warns or is complex.
    """
    if isinstance(b, (int, float)):
        chain = 0 <= b <= POW_CHAIN_MAX and float(b).is_integer()
        if isinstance(a, float):   # in Python floats, which never warn
            x = float(a)
            return type(a)(math.prod(itertools.repeat(x, int(b))) if chain else _pow(x, b))
        a = np.asarray(a, dtype=float)
        if chain:
            with np.errstate(over="ignore"):   # an overflow is inf; 1 * a is exact
                return math.prod(itertools.repeat(a, int(b)), start=1.0 if b else np.ones(a.shape))
        bs = [b] * a.size
    else:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        bs = memoryview(b.ravel())
    try:
        out = np.fromiter(map(math.pow, memoryview(a.ravel()), bs), float, a.size)
    except (ValueError, OverflowError):   # some element is at a domain edge or overflows
        out = np.fromiter(map(_pow, memoryview(a.ravel()), bs), float, a.size)
    return out.reshape(a.shape)


def _pow(a: float, b: float) -> float:
    """math.pow, or numpy's NaN or +-inf where math.pow raises."""
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError):
        with np.errstate(all="ignore"):
            return float(np.power(a, b))


class ScalarField:
    """A real function on a chart with its gradient.

    ``fn`` and ``grad`` get one point of shape (dim,), or stacked points of
    shape (..., dim) when a stack is evaluated; then they must broadcast.
    """

    def __init__(self, chart: Chart, fn: Callable, grad: Callable):
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
        return np.asarray(self.grad(x), dtype=float)


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
                if ki:   # a zero power is a factor of exactly 1, and x ** 1 is x
                    term = term * (xi if ki == 1 else libm_pow(xi, ki))
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

    @cached_property
    def _constant_gradient(self) -> np.ndarray | None:
        """At degree <= 1 each partial's constant, the float its value is; else None."""
        const = (0,) * self.chart.dim
        linear = all(set(d.coeffs) <= {const} for d in self.partials)
        return np.array([d.coeffs.get(const, 0.0) for d in self.partials]) if linear else None

    def gradient(self, x) -> np.ndarray:
        """The partials stacked on the last axis: shape (dim,) or (..., dim)."""
        x = np.asarray(x, dtype=float)
        if self._constant_gradient is not None:   # no monomial to evaluate
            return np.full(x.shape, self._constant_gradient)
        return stack_last([d.value(x) for d in self.partials])

    @classmethod
    def from_const(cls, chart: Chart, c: float) -> "PolyField":
        return cls(chart, {tuple([0] * chart.dim): c})


class VectorField:
    """Vector field on a chart from one component per axis, with a Jacobian
    (exact for polynomial components); constants become constant polynomials."""

    def __init__(self, chart: Chart, components: Sequence):
        if callable(components) or len(components) != chart.dim:
            raise ContractViolation("a vector field takes one component per axis "
                                    "(fields or constants)")
        self.chart = chart
        self.components = [c if isinstance(c, (PolyField, ScalarField))
                           else PolyField.from_const(chart, float(c))
                           for c in components]

    def value(self, x) -> np.ndarray:
        """Components on the last axis, at one point or at stacked points."""
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
