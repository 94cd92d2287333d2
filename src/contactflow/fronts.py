"""Legendre lifts of initial hypersurfaces and front propagation.

An initial front is a parametrized hypersurface in the M axes with an
initial action value; each sample is lifted to an on-shell characteristic
state (momentum conormal to the front, scaled onto the chosen branch of
{G = 0}) and propagated.  Caustics are detected as sign changes of the
finite-difference Jacobian of the projected front map (u, tau) -> x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .charts import Chart, fd_gradient, libm_pow, scan_roots
from .errors import ContractViolation, NoLiftError
from .strips import CharacteristicState, IntegratorConfig, SymbolSurface, _propagate_stack

#: |det| below this times the largest |det| of its u sample counts as zero
#: when scanning for caustic sign flips and tagging action branches
CAUSTIC_DET_TOL = 1e-9

#: central-difference step of the front tangent and dS0/du
FRONT_FD_STEP = 1e-6

#: conormal scales scanned for on-shell roots when lifting a front sample
_LIFT_GRID = np.linspace(-20.0, 20.0, 801)


class FrontSpec:
    """Parametrized initial hypersurface: u -> x(u) in M with initial action S0(u).

    ``params`` is a 1D grid of front parameters: only codimension-1 fronts
    with a single parameter are supported, so the chart must be 2D.  A closed
    front's ``period`` in u lets propagate_front check its lift's wrap-around gap.
    """

    def __init__(self, chart: Chart, position: Callable, params: np.ndarray,
                 s0: Callable | None = None, closed: bool = False, period: float | None = None):
        self.chart = chart
        self.position = position
        self.params = np.asarray(params, float)
        self.s0 = s0 or (lambda u: 0.0)
        self.closed = closed
        self.period = period

    def x(self, u) -> np.ndarray:
        return np.asarray(self.position(u), float)

    def tangent(self, u) -> np.ndarray:
        """dx/du: shape (m,) at one parameter, (n, m) at an array of n."""
        return _param_derivative(self.x, u)

    def s0_du(self, u):
        """dS0/du: a float at one parameter, shape (n,) at an array of n."""
        d = _param_derivative(lambda w: float(self.s0(w)), u)
        return float(d) if d.ndim == 0 else d


def _param_derivative(f, u) -> np.ndarray:
    """Central differences of f in the front parameter at one u or an array
    of them, in one fd_gradient call; f takes one parameter at a time."""
    u = np.asarray(u, float)
    d = fd_gradient(lambda v: np.array([f(w) for w in v[:, 0]]), u.reshape(-1, 1),
                    FRONT_FD_STEP)[:, 0]
    return d.reshape(u.shape + d.shape[1:])


def flat_front(chart: Chart, axis: str, value: float, span, n: int,
               s0: Callable | None = None) -> FrontSpec:
    """Hyperplane {axis = value} parametrized by the remaining axis."""
    i_fixed = chart.axis_index(axis)
    if chart.dim != 2:
        raise ContractViolation("flat_front currently supports 2D charts")

    def pos(u):
        x = np.zeros(2)
        x[i_fixed], x[1 - i_fixed] = value, u
        return x

    params = np.linspace(span[0], span[1], n)
    return FrontSpec(chart, pos, params, s0=s0)


def circle_front(chart: Chart, radius: float, n: int, center=(0.0, 0.0)) -> FrontSpec:
    if chart.dim != 2:
        raise ContractViolation("circle_front needs a 2D chart")
    cx, cy = center

    def pos(u):
        return np.array([cx + radius * math.cos(u), cy + radius * math.sin(u)])

    params = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return FrontSpec(chart, pos, params, closed=True, period=2 * math.pi)


@dataclass
class LiftedSample:
    u: float
    state: CharacteristicState
    period: float | None = None   # the front's period in u, if it has one


def legendre_lift(E: SymbolSurface, sigma: FrontSpec,
                  branch: tuple[int, int] = (1, 0)) -> list[LiftedSample]:
    """Lift each front sample to an on-shell state.

    The momentum must annihilate the front tangent in the contact sense
    (<p, x_u> = p_s dS0/du); the remaining conormal scale is fixed by root
    finding G = 0 along the conormal ray, all samples in one grid scan.
    ``branch`` is (sign of p_s, root index among the ascending roots).
    """
    ps_sign, root_idx = branch
    if ps_sign not in (1, -1):
        raise ContractViolation("branch p_s sign must be +1 or -1 (null lifts unsupported)")
    if E.dim != 2:
        raise ContractViolation("conormal construction implemented for 2D charts")
    U = sigma.params
    X, T = np.array([sigma.x(u) for u in U]), sigma.tangent(U)
    nt = np.sqrt(np.vecdot(T, T))
    rows = np.flatnonzero(nt != 0.0)   # samples with a tangent
    X, T, nt = X[rows], T[rows], nt[rows]
    # particular solutions of <p, x_u> = p_s * dS0/du, and the unit conormals
    P0 = (ps_sign * sigma.s0_du(U)[rows] / libm_pow(nt, 2))[:, None] * T
    N = np.stack([-T[:, 1], T[:, 0]], axis=-1)
    N /= np.sqrt(np.vecdot(N, N))[:, None]

    def g(lam, i):
        return E.value(X[i], P0[i] + np.asarray(lam)[..., None] * N[i], float(ps_sign))

    found = dict(zip(rows.tolist(), zip(X, P0, N, scan_roots(g, _LIFT_GRID, len(rows)))))
    samples, failures = [], []   # failures: (u, why it has no lift)
    for k, u in enumerate(U):
        x, p0, nrm, roots = found.get(k, (None,) * 4)
        if roots is None:
            failures.append((u, "degenerate parametrization (zero tangent)"))
        elif root_idx >= len(roots):
            failures.append((u, f"no on-shell root (found {len(roots)}, wanted index {root_idx})"))
        else:
            state = CharacteristicState(x, float(sigma.s0(u)), p0 + roots[root_idx] * nrm,
                                        float(ps_sign))
            samples.append(LiftedSample(float(u), state, sigma.period))
    if not samples:
        raise NoLiftError(f"no front sample admitted a lift: {failures[:3]}")
    return samples


@dataclass
class CausticEvent:
    u_index: int
    tau_lo: float
    tau_hi: float


@dataclass
class FrontHistory:
    """Propagated front: arrays indexed (u, tau)."""

    surface: SymbolSurface
    params: np.ndarray           # (nu,)
    taus: np.ndarray             # (nt,)
    x: np.ndarray                # (nu, nt, m)
    s: np.ndarray                # (nu, nt)
    p: np.ndarray                # (nu, nt, m)
    p_s: np.ndarray              # (nu, nt)
    jacobian_det: np.ndarray     # (nu, nt)
    caustics: list[CausticEvent]
    closed: bool = False

    def first_caustic_tau(self) -> float | None:
        return min((ev.tau_lo for ev in self.caustics), default=None)

    def contact_residual(self) -> float:
        """Max |<p, dx/du> - p_s ds/du| over the interior grid (Legendre condition)."""
        dx = _u_derivative(self.x, self.params, self.closed)
        ds = _u_derivative(self.s, self.params, self.closed)
        res = np.abs(np.sum(self.p * dx, axis=-1) - self.p_s * ds)
        scale = np.maximum(np.linalg.norm(self.p, axis=-1) * np.linalg.norm(dx, axis=-1), 1.0)
        r = res / scale
        return float(np.max(r, where=~np.isnan(r), initial=0.0))


def _u_derivative(A: np.ndarray, params: np.ndarray, closed: bool) -> np.ndarray:
    """Centered differences of a (nu, nt, ...) array along the front parameter.

    A closed front is taken as uniformly sampled over its period; on an open
    front the two end samples have no centered difference and are NaN.
    """
    n = len(params)
    d = np.full(A.shape, np.nan)
    np.subtract(A[2:], A[:-2], out=d[1:-1])
    if closed:
        d[0], d[-1] = A[1] - A[-1], A[0] - A[-2]
        d /= 2.0 * (params[-1] - params[0] + (params[1] - params[0])) / n
    else:
        d[1:-1] /= (params[2:] - params[:-2]).reshape((-1,) + (1,) * (A.ndim - 1))
    return d


def propagate_front(E: SymbolSurface, lift: Sequence[LiftedSample], taus,
                    integ: IntegratorConfig | None = None,
                    closed: bool = False) -> FrontHistory:
    """Propagate every lifted sample and track the projection Jacobian.

    The Jacobian column along tau uses the exact strip velocity; the column
    along u uses centered differences across neighbouring samples.  A caustic
    event is recorded wherever the determinant changes sign between
    consecutive tau samples.  A closed front must be uniformly sampled in u
    (over its period, when its lift carries one), so a closed lift that
    dropped samples, an end sample included, raises ContractViolation.
    """
    if not lift:
        raise ContractViolation("empty lift")
    if E.dim != 2:
        raise ContractViolation("jacobian tracking implemented for 2D charts")
    params = np.array([ls.u for ls in lift])
    if closed and len(params) > 1:
        _require_uniform(params, lift[0].period)
    taus = np.asarray(taus, float)
    nu, nt = len(lift), len(taus)
    _, counts, run = _propagate_stack(E, [ls.state for ls in lift], taus[[0, -1]], integ, taus)
    bad = (counts != nt).nonzero()[0]   # a strip that raised has no samples
    if bad.size:
        raise ContractViolation(
            f"{len(bad)} front samples failed to propagate over the full grid "
            f"(first failure at u index {bad[0]})")
    # every strip covers the tau grid, so the stacked samples are (u, tau) arrays
    X, S, P, PS = (a.reshape((nu, nt) + a.shape[1:]) for a in run[1:5])

    cols = np.empty((nu, nt, 2, 2))   # Jacobian columns dx/du and dx/dtau = dG/dp
    cols[..., 0] = _u_derivative(X, params, closed)
    cols[..., 1] = E.gradient(X, P, PS)[1]
    J = np.full((nu, nt), np.nan)
    rows = slice(None) if closed else slice(1, -1)   # open-front ends have no u column
    J[rows] = np.linalg.det(cols[rows])
    return FrontHistory(E, params, taus, X, S, P, PS, J, _caustic_events(J, taus),
                        closed=closed)


def _caustic_events(J: np.ndarray, taus: np.ndarray) -> list[CausticEvent]:
    """Sign flips of each u sample's determinants along tau, in (u, tau)
    order.  Consecutive *significant* signs are compared, so a grid point
    landing exactly on det = 0 still registers as one flip."""
    signs = _det_signs(J)
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
    h = float(np.median(gaps))
    bad = np.flatnonzero(np.abs(gaps - h) > 1e-9 * abs(h))
    if bad.size:
        i = int(bad[0])
        raise ContractViolation(
            f"a closed front needs uniformly spaced params: gap {i} "
            f"(u = {u[i]:.6g} to {u[i + 1]:.6g}) is {gaps[i]:.6g}, "
            f"the median gap is {h:.6g}")


def _det_signs(J: np.ndarray) -> np.ndarray:
    """Significant signs of the (nu, nt) Jacobian determinants: 0 where det
    is NaN or |det| <= CAUSTIC_DET_TOL times the largest finite |det| of its
    row (one u sample over all taus)."""
    absJ = np.where(np.isnan(J), 0.0, np.abs(J))
    significant = absJ > CAUSTIC_DET_TOL * absJ.max(axis=1, keepdims=True)
    return np.where(significant, np.sign(J), 0.0)


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
    signs = _det_signs(history.jacobian_det)
    # the tag counts sign flips between consecutive significant samples in u:
    # carry each column's last significant sign down, then count the flips
    last = np.maximum.accumulate(np.where(signs != 0, np.arange(len(signs))[:, None], 0))
    carried = np.take_along_axis(signs, last, axis=0)
    branch = np.zeros(signs.shape, dtype=int)
    np.cumsum(signs[1:] * carried[:-1] < 0, axis=0, out=branch[1:])
    return [ActionSlice(float(tau), history.x[:, j, :].copy(), history.s[:, j].copy(),
                        branch[:, j].copy()) for j, tau in enumerate(history.taus)]
