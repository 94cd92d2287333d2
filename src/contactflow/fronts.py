"""Legendre lifts of initial hypersurfaces and front propagation.

An initial front is a parametrized hypersurface in the M axes with an
initial action value; each sample is lifted to an on-shell characteristic
state (momentum conormal to the front, scaled onto the chosen branch of
{G = 0}) and propagated.  Caustics are detected as sign changes of the
finite-difference Jacobian of the projected front map (u, tau) -> x.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .charts import Chart, _scan_outward, dot, fd_gradient
from .errors import ContractViolation, NoLiftError
from .strips import IntegratorConfig, SymbolSurface, _propagate_stack

#: |det| below this times the largest |det| of its u sample counts as zero
#: when scanning for caustic sign flips and tagging action branches
CAUSTIC_DET_TOL = 1e-9

#: central-difference step of the front tangent and dS0/du
FRONT_FD_STEP = 1e-6

#: conormal scales scanned for on-shell roots when lifting a front sample, from the
#: middle 101 (+-2.5) outward; a chart with a bound beyond +-20 widens it 0.05 apart
_LIFT_GRID = np.linspace(-20.0, 20.0, 801)

#: the widest |t| a lift scans, whatever the chart's bounds: +-2.5 doubled seven times
_LIFT_CAP = 320.0


def _lift_window(w: int) -> np.ndarray:
    """The 2 w + 1 conormal scales |t| <= w / 20, 0.05 apart: _LIFT_GRID's own
    values inside +-20."""
    if w <= 400:
        return _LIFT_GRID[400 - w:401 + w]
    wide = 20.0 + np.arange(1, w - 399) / 20.0
    return np.concatenate([-wide[::-1], _LIFT_GRID, wide])


class FrontSpec:
    """Parametrized initial hypersurface: u -> x(u) in M with initial action S0(u).

    ``params`` is a 1D grid of front parameters (codimension 1, so a 2D chart);
    a closed front's ``period`` in u lets propagate_front check its lift's
    wrap-around gap.  ``x`` (``position``) and ``s0`` (zero by default) map
    parameters (n,) to (n, m) and (n,), and refuse any other shape.
    """

    def __init__(self, chart: Chart, position: Callable, params: np.ndarray,
                 s0: Callable | None = None, closed: bool = False, period: float | None = None):
        self.chart = chart
        self.x = _on_stacks(position, "position", (chart.dim,))
        self.params = np.asarray(params, float)
        self.s0 = _on_stacks(s0 or np.zeros_like, "s0", ())
        self.closed = closed
        self.period = period

    def tangent(self, u) -> np.ndarray:
        """dx/du, shape (n, m), at parameters u of shape (n,)."""
        return fd_gradient(lambda v: self.x(v[:, 0]), np.reshape(u, (-1, 1)),
                           FRONT_FD_STEP)[:, 0]

    def s0_du(self, u) -> np.ndarray:
        """dS0/du, shape (n,), at parameters u of shape (n,)."""
        return fd_gradient(lambda v: self.s0(v[:, 0]), np.reshape(u, (-1, 1)),
                           FRONT_FD_STEP)[:, 0]


def _on_stacks(f: Callable, name: str, tail: tuple) -> Callable:
    def call(u):   # f on parameters (n,), its result checked to be (n,) + tail
        u = np.asarray(u, float)
        out = np.asarray(f(u), float)
        if u.ndim != 1 or out.shape != u.shape + tail:
            raise ContractViolation(f"a front's {name} must map parameters (n,) to shape (n,"
                                    f"{' %d' % tail if tail else ''}), not {u.shape} to {out.shape}")
        return out
    return call


def flat_front(chart: Chart, axis: str, value: float, span, n: int,
               s0: Callable | None = None) -> FrontSpec:
    """Hyperplane {axis = value} parametrized by the remaining axis."""
    i_fixed = chart.axis_index(axis)
    if chart.dim != 2:
        raise ContractViolation("flat_front currently supports 2D charts")

    def pos(u):
        x = np.empty((len(u), 2))
        x[:, i_fixed], x[:, 1 - i_fixed] = value, u
        return x

    params = np.linspace(span[0], span[1], n)
    return FrontSpec(chart, pos, params, s0=s0)


def circle_front(chart: Chart, radius: float, n: int, center=(0.0, 0.0)) -> FrontSpec:
    if chart.dim != 2:
        raise ContractViolation("circle_front needs a 2D chart")
    cx, cy = center

    def pos(u):   # glibc's cos and sin per angle, whose bits numpy's need not match
        return np.column_stack([cx + radius * np.fromiter(map(math.cos, u), float, len(u)),
                                cy + radius * np.fromiter(map(math.sin, u), float, len(u))])

    params = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return FrontSpec(chart, pos, params, closed=True, period=2 * math.pi)


@dataclass
class Lift:
    """The lifted front samples as arrays: parameters u (n,) and states x
    (n, m), s (n,), p (n, m), p_s (n,); the front's period in u, if it has
    one; and (u, why it has no lift) per dropped sample, in parameter order."""

    u: np.ndarray
    x: np.ndarray
    s: np.ndarray
    p: np.ndarray
    p_s: np.ndarray
    period: float | None
    failures: list

    def __len__(self) -> int:
        return len(self.u)


def legendre_lift(E: SymbolSurface, sigma: FrontSpec, branch: tuple[int, int] = (1, 0)) -> Lift:
    """Lift each front sample to an on-shell state.

    The momentum must annihilate the front tangent in the contact sense
    (<p, x_u> = p_s dS0/du); the remaining conormal scale t, the momentum
    P0 + t N from the particular solution P0 along the unit conormal N, is
    fixed by root finding G = 0.  ``branch`` is (sign of p_s, root index k):
    the sample takes the k-th ascending root in the narrowest window
    |t| <= 2.5 * 2^j of the lift grid that holds k + 1 roots, scanned
    outward (_scan_outward) up to |t| <= max(20, the chart's largest
    |bound|), at most _LIFT_CAP; a sample without one there is dropped.
    """
    ps_sign, root_idx = branch
    if ps_sign not in (1, -1):
        raise ContractViolation("branch p_s sign must be +1 or -1 (null lifts unsupported)")
    if not (isinstance(root_idx, numbers.Integral) and root_idx >= 0):
        raise ContractViolation(f"branch root index must be an integer >= 0, not {root_idx!r}")
    if E.dim != 2:
        raise ContractViolation("conormal construction implemented for 2D charts")
    U = sigma.params
    X, T = sigma.x(U), sigma.tangent(U)
    nt = np.sqrt(dot(T, T))
    rows = np.flatnonzero(nt != 0.0)   # samples with a tangent
    X, T, nt = X[rows], T[rows], nt[rows]
    # particular solutions of <p, x_u> = p_s * dS0/du, and the unit conormals
    P0 = (ps_sign * sigma.s0_du(U)[rows] / (nt * nt))[:, None] * T
    N = np.stack([-T[:, 1], T[:, 0]], axis=-1)
    N /= np.sqrt(dot(N, N))[:, None]

    def g(lam, i):
        shape = np.broadcast_shapes(np.shape(lam), np.shape(i))
        p = np.empty((2,) + shape)   # component-major
        for c in range(2):   # lam N + P0, in place: the bits of P0 + lam N
            np.multiply(lam, N[i, c], out=p[c])
            p[c] += P0[i, c]
        return E.value(X[i], np.moveaxis(p, 0, -1), np.broadcast_to(float(ps_sign), shape))

    cap = min(max(20.0, float(np.abs(E.chart.bounds).max())), _LIFT_CAP)
    top = math.ceil(20.0 * cap)   # the widest window's half-width in grid steps
    roots = _scan_outward(g, _lift_window, len(rows), root_idx + 1, 50, top)
    found = np.full(len(U), -1)   # roots per sample (up to need), -1 without a tangent
    found[rows] = [len(r) for r in roots]
    failures = [(u, "degenerate parametrization (zero tangent)" if k < 0 else
                 f"no on-shell root with |t| <= {top / 20:g} (found {k}, wanted index "
                 f"{root_idx})")
                for u, k in zip(U.tolist(), found.tolist()) if k <= root_idx]
    ok = found[rows] > root_idx
    if not ok.any():
        raise NoLiftError(f"no front sample admitted a lift: {failures[:3]}")
    lam, u = np.array([r[root_idx] for r in roots if len(r) > root_idx]), U[rows[ok]]
    return Lift(u, X[ok], sigma.s0(u), P0[ok] + lam[:, None] * N[ok],
                np.full(len(u), float(ps_sign)), sigma.period, failures)


@dataclass
class CausticEvent:
    u_index: int
    tau_lo: float
    tau_hi: float


@dataclass
class FrontHistory:
    """Propagated front: arrays indexed (u, tau).  Its dx/du and determinant
    signs are computed once, by propagate_front or on first use."""

    surface: SymbolSurface
    params: np.ndarray           # (nu,)
    taus: np.ndarray             # (nt,)
    x: np.ndarray                # (nu, nt, m)
    s: np.ndarray                # (nu, nt)
    p: np.ndarray                # (nu, nt, m)
    p_s: np.ndarray              # (nu, nt)
    jacobian_det: np.ndarray     # (nu, nt)
    caustics: list[CausticEvent]
    g_raw: np.ndarray            # (nu, nt) G as integrated, before the on-shell projection
    p_correction: np.ndarray     # (nu, nt) the length of the change it made to p
    closed: bool = False

    @cached_property
    def x_u(self) -> np.ndarray:
        """dx/du, (nu, nt, m): _u_derivative of x."""
        return _u_derivative(self.x, self.params, self.closed)

    @cached_property
    def det_signs(self) -> np.ndarray:
        """_det_signs of jacobian_det."""
        return _det_signs(self.jacobian_det)

    def first_caustic_tau(self) -> float | None:
        return min((ev.tau_lo for ev in self.caustics), default=None)

    def contact_residual(self) -> float:
        """Max |<p, dx/du> - p_s ds/du| over the interior grid (Legendre condition)."""
        dx = self.x_u
        r = dot(self.p, dx)
        r -= self.p_s * _u_derivative(self.s, self.params, self.closed)
        r = np.abs(r, out=r) / np.maximum(np.sqrt(dot(self.p, self.p)) * np.sqrt(dot(dx, dx)), 1.0)
        return float(np.fmax.reduce(r, axis=None, initial=0.0))   # NaNs skipped


def _u_derivative(A: np.ndarray, params: np.ndarray, closed: bool) -> np.ndarray:
    """Centered differences of a (nu, nt, ...) array along the front parameter.

    A closed front is taken as uniformly sampled over its period; on an open
    front the two end samples have no centered difference and are NaN.
    """
    n = len(params)
    d = np.empty_like(A, dtype=float)   # in A's memory order: the passes run along its rows
    np.subtract(A[2:], A[:-2], out=d[1:-1])
    if closed:
        d[0], d[-1] = A[1] - A[-1], A[0] - A[-2]
        d /= 2.0 * (params[-1] - params[0] + (params[1] - params[0])) / n
    else:
        d[0] = d[-1] = np.nan
        d[1:-1] /= (params[2:] - params[:-2]).reshape((-1,) + (1,) * (A.ndim - 1))
    return d


def propagate_front(E: SymbolSurface, lift: Lift, taus, integ: IntegratorConfig | None = None,
                    closed: bool = False) -> FrontHistory:
    """Propagate every lifted sample and track the projection Jacobian.

    The Jacobian column along tau uses the exact strip velocity; the column
    along u uses centered differences across neighbouring samples.  A caustic
    event is recorded wherever the determinant changes sign between
    consecutive tau samples.  A closed front must be uniformly sampled in u
    (over its period, when its lift carries one), so a closed lift that
    dropped samples, an end sample included, raises ContractViolation, as
    does a ray that stops early.  An exception the symbol raises, or a NaN
    inside an event's bracket (brentq's ValueError), reaches the caller.
    """
    if not lift:
        raise ContractViolation("empty lift")
    if E.dim != 2:
        raise ContractViolation("jacobian tracking implemented for 2D charts")
    if closed and len(lift) > 1:
        _require_uniform(lift.u, lift.period)
    taus = np.asarray(taus, float)
    nu, nt = len(lift), len(taus)
    Y0 = np.column_stack([lift.x, lift.s, lift.p, lift.p_s])
    _, counts, run = _propagate_stack(E, Y0, taus[[0, -1]], integ, taus)
    bad = (counts != nt).nonzero()[0]   # a strip that raised has no samples
    if bad.size:
        raise ContractViolation(
            f"{len(bad)} front samples failed to propagate over the full grid "
            f"(first failure at u index {bad[0]})")
    # every strip covers the tau grid, so the stacked samples are (u, tau) arrays
    X, S, P, PS, _, G_raw, dP = (a.reshape((nu, nt) + a.shape[1:]) for a in run[1:])

    # the Jacobian columns dx/du and dx/dtau = dG/dp; an open front's end
    # samples have no dx/du, so their determinant is NaN
    du, dtau = _u_derivative(X, lift.u, closed), E.gradient(X, P, PS)[1]
    J = du[..., 0] * dtau[..., 1]
    J -= du[..., 1] * dtau[..., 0]
    signs = _det_signs(J)
    hist = FrontHistory(E, lift.u, taus, X, S, P, PS, J, _caustic_events(signs, taus), G_raw,
                        dP, closed=closed)
    hist.x_u, hist.det_signs = du, signs   # for contact_residual and front_action_function
    return hist


def _caustic_events(signs: np.ndarray, taus: np.ndarray) -> list[CausticEvent]:
    """Sign flips of each u sample's determinant signs (_det_signs) along
    tau, in (u, tau) order.  Consecutive *significant* signs are compared, so
    a grid point landing exactly on det = 0 still registers as one flip."""
    iu, jt = np.nonzero(signs)
    v = signs[iu, jt]
    k = np.flatnonzero((iu[1:] == iu[:-1]) & (v[1:] != v[:-1]))
    return [CausticEvent(*ev) for ev in
            zip(iu[k].tolist(), taus[jt[k]].tolist(), taus[jt[k + 1]].tolist())]


def _require_uniform(params: np.ndarray, period: float | None) -> None:
    """A closed front's u-derivative assumes equal parameter gaps, the
    wrap-around gap included when the period is known (a lift that dropped
    samples has a wider one)."""
    u = np.append(params, [params[0] + period] if period is not None else [])
    gaps = np.diff(u)
    mid = np.sort(gaps)[(len(gaps) - 1) // 2:len(gaps) // 2 + 1]   # np.median loads numpy.ma
    h = float(mid.sum() / len(mid))
    bad = np.flatnonzero(np.abs(gaps - h) > 1e-9 * abs(h))
    if bad.size:
        i = int(bad[0])
        raise ContractViolation(
            f"a closed front needs uniformly spaced params: gap {i} "
            f"(u = {u[i]:.6g} to {u[i + 1]:.6g}) is {gaps[i]:.6g}, "
            f"the median gap is {h:.6g}")


def _det_signs(J: np.ndarray) -> np.ndarray:
    """Significant signs of the (nu, nt) Jacobian determinants, int8: 0 where
    det is NaN or |det| <= CAUSTIC_DET_TOL times the largest |det| of its row
    (one u sample over all taus; NaN counts as 0)."""
    tol = CAUSTIC_DET_TOL * np.fmax.reduce(np.abs(J), axis=1, keepdims=True)   # NaN: no max
    return (J > tol).view(np.int8) - (J < -tol).view(np.int8)


@dataclass
class ActionSlice:
    tau: float
    x: np.ndarray        # (nu, m) projected positions
    s: np.ndarray        # (nu,) accumulated action
    branch: np.ndarray   # (nu,) integer branch tag (constant-sign Jacobian runs)


def front_action_function(history: FrontHistory) -> list[ActionSlice]:
    """Per-tau-slice sampled action S(x): (projected position, s) pairs.

    Pre-caustic slices carry a single branch tag; after a caustic the samples
    are tagged by runs of constant Jacobian sign instead of failing.
    """
    signs = history.det_signs
    # the tag counts sign flips between consecutive significant samples in u:
    # carry each column's last significant sign down, then count the flips
    last = np.maximum.accumulate(np.where(signs != 0, np.arange(len(signs))[:, None], 0))
    carried = np.take_along_axis(signs, last, axis=0)
    branch = np.zeros(signs.shape, dtype=int)
    np.cumsum(signs[1:] * carried[:-1] < 0, axis=0, out=branch[1:])
    return [ActionSlice(float(tau), history.x[:, j], history.s[:, j], branch[:, j])
            for j, tau in enumerate(history.taus)]
