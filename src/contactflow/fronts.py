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
from .strips import (CharacteristicState, IntegratorConfig, SymbolSurface,
                     batch_propagate)

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
    with a single parameter are supported, so the chart must be 2D.
    """

    def __init__(self, chart: Chart, position: Callable, params: np.ndarray,
                 s0: Callable | None = None, closed: bool = False):
        self.chart = chart
        self.position = position
        self.params = np.asarray(params, float)
        self.s0 = s0 or (lambda u: 0.0)
        self.closed = closed

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
    i_free = 1 - i_fixed

    def pos(u):
        x = np.zeros(chart.dim)
        x[i_fixed] = value
        x[i_free] = u
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
    return FrontSpec(chart, pos, params, closed=True)


@dataclass
class LiftedSample:
    u: float
    state: CharacteristicState


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
    samples: list[LiftedSample] = []
    failures: list[tuple[float, str]] = []
    for k, u in enumerate(U):
        x, p0, nrm, roots = found.get(k, (None,) * 4)
        if roots is None:
            failures.append((u, "degenerate parametrization (zero tangent)"))
        elif root_idx >= len(roots):
            failures.append((u, f"no on-shell root (found {len(roots)}, wanted index {root_idx})"))
        else:
            state = CharacteristicState(x, float(sigma.s0(u)), p0 + roots[root_idx] * nrm,
                                        float(ps_sign))
            samples.append(LiftedSample(float(u), state))
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
        if not self.caustics:
            return None
        return min(ev.tau_lo for ev in self.caustics)

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
    consecutive tau samples.  A closed front must be uniformly sampled in u,
    so a closed lift that dropped samples raises ContractViolation.
    """
    if not lift:
        raise ContractViolation("empty lift")
    if E.dim != 2:
        raise ContractViolation("jacobian tracking implemented for 2D charts")
    params = np.array([ls.u for ls in lift])
    if closed and len(params) > 1:
        _require_uniform(params)
    taus = np.asarray(taus, float)
    inits = [ls.state for ls in lift]
    results = batch_propagate(E, inits, (taus[0], taus[-1]), integ, tau_eval=taus)
    bad = [i for i, r in enumerate(results) if not r.ok or len(r.strip.taus) != len(taus)]
    if bad:
        raise ContractViolation(
            f"{len(bad)} front samples failed to propagate over the full grid "
            f"(first failure at u index {bad[0]})")
    X, S, P, PS = (np.stack([getattr(r.strip, k) for r in results])
                   for k in ("x", "s", "p", "p_s"))
    nu, nt, m = X.shape

    cols = np.empty((nu, nt, m, 2))   # Jacobian columns dx/du and dx/dtau = dG/dp
    cols[..., 0] = _u_derivative(X, params, closed)
    cols[..., 1] = E.gradient(X, P, PS)[1]
    J = np.full((nu, nt), np.nan)
    rows = slice(None) if closed else slice(1, -1)   # open-front ends have no u column
    J[rows] = np.linalg.det(cols[rows])

    signs = _det_signs(J)
    events: list[CausticEvent] = []
    for i in range(nu):
        # compare consecutive *significant* signs so a grid point landing
        # exactly on det = 0 still registers as one flip
        last_sign, last_j = 0, -1
        for j in np.flatnonzero(signs[i]):
            if last_sign and signs[i, j] != last_sign:
                events.append(CausticEvent(i, float(taus[last_j]), float(taus[j])))
            last_sign, last_j = signs[i, j], j
    return FrontHistory(E, params, taus, X, S, P, PS, J, events, closed=closed)


def _require_uniform(params: np.ndarray) -> None:
    """A closed front's u-derivative assumes equal parameter gaps (a lift
    that dropped samples has a wider one)."""
    gaps = np.diff(params)
    h = float(np.median(gaps))
    bad = np.flatnonzero(np.abs(gaps - h) > 1e-9 * abs(h))
    if bad.size:
        i = int(bad[0])
        raise ContractViolation(
            f"a closed front needs uniformly spaced params: gap {i} "
            f"(u = {params[i]:.6g} to {params[i + 1]:.6g}) is {gaps[i]:.6g}, "
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
    slices = []
    for j, tau in enumerate(history.taus):
        # the tag counts sign flips between consecutive significant samples
        nz = np.flatnonzero(signs[:, j])
        flips = np.zeros(len(signs), dtype=int)
        flips[nz[1:]] = signs[nz[1:], j] != signs[nz[:-1], j]
        branch = np.cumsum(flips)
        slices.append(ActionSlice(float(tau), history.x[:, j, :].copy(),
                                  history.s[:, j].copy(), branch))
    return slices
