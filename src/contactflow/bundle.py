"""Connections, curvature, wave diagrams, Legendre duality and the
relativistic-particle scenario.

The bundle total space is modelled locally as M x fiber; the connection is
carried by a potential A on M with 1-form alpha = ds + A_mu dx^mu.  Wave
diagrams are unit-level sections of the Monge cone by the plane alpha = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .charts import (Chart, PolyField, ScalarField, VectorField, fd_gradient,
                     fd_steps, scan_roots)
from .errors import (ContractViolation, EmptyDiagramError,
                     InternalConsistencyError)
from .strips import PS_ZERO_TOL, Strip, SymbolSurface

#: rays whose alpha-value is below this (relative to the ray norm) are lightlike
LIGHTLIKE_RTOL = 1e-9

#: relative finite-difference step for the Jacobian of a callable potential
CONNECTION_FD_STEP = 1e-6

#: relative step of the value second differences behind the Hessian of a
#: field without a gradient: ~eps**(1/4) balances truncation and rounding
HESSIAN_FD_STEP = 1e-4

#: radii scanned for on-shell momenta along each direction
_RADII = np.linspace(1e-9, 20.0, 400)


class ConnectionData:
    """Connection potential A on M and its curvature F = dA."""

    def __init__(self, chart: Chart, A: Callable | Sequence, dA: Callable | None = None):
        self.chart = chart
        if not callable(A):
            field = VectorField(chart, A)
            A, dA = field.value, dA or field.jacobian
        self._A = A
        self._dA = dA

    def A(self, x) -> np.ndarray:
        """A at a point x of shape (m,), or at stacked points (..., m)."""
        x = np.asarray(x, float)
        a = np.asarray(self._A(x), float)
        return a if a.shape == x.shape else np.broadcast_to(a, x.shape)

    def jacobian(self, x) -> np.ndarray:
        """J[..., i, j] = d A_j / d x_i."""
        x = np.asarray(x, float)
        if self._dA is None:
            return fd_gradient(self.A, x, fd_steps(x, CONNECTION_FD_STEP))
        J = np.asarray(self._dA(x), float)
        shape = x.shape + x.shape[-1:]
        return J if J.shape == shape else np.broadcast_to(J, shape)

    def curvature(self, x) -> np.ndarray:
        """F_{mu nu} = d_mu A_nu - d_nu A_mu (antisymmetric by construction)."""
        J = self.jacobian(x)
        return J - J.T

    def bianchi_residual(self, x) -> float:
        """Max cyclic-sum residual of dF over 3-axis combinations (0 for dim < 3)."""
        m = self.chart.dim
        if m < 3:
            return 0.0
        dF = fd_gradient(self.curvature, x, fd_steps(x))   # dF[i, mu, nu] = d_i F_mu,nu
        return float(max(abs(dF[a, b, c] + dF[b, c, a] + dF[c, a, b])
                         for a, b, c in itertools.combinations(range(m), 3)))

    def shifted(self, chi: PolyField | ScalarField) -> "ConnectionData":
        """Connection with potential A + d(chi)."""
        def A_new(x, old=self.A, chi=chi):
            return old(x) + chi.gradient(x)

        def dA_new(x, oldJ=self.jacobian, chi=chi):
            return oldJ(x) + _hessian_of(chi, x)

        return ConnectionData(self.chart, A_new, dA=dA_new)


def _hessian_of(chi, x):
    x = np.asarray(x, float)
    if isinstance(chi, PolyField):
        return np.stack([d.gradient(x) for d in chi.partials], axis=-2)
    if chi.grad is None:
        # second differences of values; a central difference of the
        # finite-difference gradient would amplify its rounding by 1 / h
        steps = fd_steps(x, HESSIAN_FD_STEP)
        return fd_gradient(lambda y: fd_gradient(chi.value, y, steps), x, steps)
    return fd_gradient(chi.gradient, x, fd_steps(x))


@dataclass
class DiagramPoint:
    v: np.ndarray            # tangent vector in M with Lambda(v) = 1
    p_s_sign: int            # sign of the generating fiber momentum
    covector: np.ndarray     # the generating on-shell (p, p_s)
    s_dot: float             # fiber component of the scaled cone ray

    @property
    def branch(self) -> str:
        return "plus" if self.p_s_sign > 0 else ("minus" if self.p_s_sign < 0 else "null")


@dataclass
class WaveDiagram:
    """Sampled level set {Lambda_x = 1} in T_x M with momentum provenance."""

    base_point: np.ndarray
    points: list[DiagramPoint]
    lightlike: list[np.ndarray] = field(default_factory=list)   # raw rays with alpha = 0
    unreachable: list[np.ndarray] = field(default_factory=list)  # rays with alpha < 0

    def branch(self, name: str) -> np.ndarray:
        pts = [q.v for q in self.points if q.branch == name]
        return np.asarray(pts) if pts else np.empty((0, len(self.base_point)))

    def samples(self) -> np.ndarray:
        return np.asarray([q.v for q in self.points])


def _onshell_momenta_at(E: SymbolSurface, x, p_s: float, n_samples: int) -> list[np.ndarray]:
    """On-shell M-momenta at fixed p_s: radial root scan over directions."""
    m = E.dim
    if m == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    elif m == 2:
        thetas = np.linspace(0.0, 2 * math.pi, n_samples, endpoint=False)
        dirs = [np.array([math.cos(t), math.sin(t)]) for t in thetas]
    else:
        rng = np.random.default_rng(0)
        dirs = []
        for _ in range(n_samples):
            d = rng.standard_normal(m)
            dirs.append(d / np.linalg.norm(d))
    return [r * d for d in dirs
            for r in scan_roots(lambda r: E.value(x, np.multiply.outer(r, d), p_s), _RADII)]


def wave_diagram(E: SymbolSurface, conn: ConnectionData, x, n_samples: int = 64) -> WaveDiagram:
    """Section of the Monge cone at x by the connection plane alpha = 1.

    Rays parallel to the plane (alpha = 0) land in the lightlike bucket; rays
    pointing below it (alpha < 0, unreachable by positive rescaling) are kept
    separately as well.
    """
    x = E.chart.require_point(x)
    A = conn.A(x)
    points: list[DiagramPoint] = []
    lightlike: list[np.ndarray] = []
    unreachable: list[np.ndarray] = []

    rays = [(p, p_s, sign) for p_s, sign in ((1.0, 1), (-1.0, -1))
            for p in _onshell_momenta_at(E, x, p_s, n_samples)
            if not E.is_degenerate(x, p, p_s)]
    # the p_s = 0 class: scan directions on the unit momentum sphere
    rays += [(p, 0.0, 0) for p in _null_class_momenta(E, x, n_samples)]
    for p, p_s, sign in rays:
        _, gp, gps = E.gradient(x, p, p_s)
        v_m, s_dot = gp, -gps
        a = s_dot + float(np.dot(A, v_m))
        norm = np.linalg.norm(np.append(v_m, s_dot))
        if norm == 0.0:
            continue
        if abs(a) <= LIGHTLIKE_RTOL * norm:
            lightlike.append(np.append(v_m, s_dot))
        elif a < 0:
            unreachable.append(np.append(v_m, s_dot))
        else:
            points.append(DiagramPoint(v_m / a, sign, np.append(p, p_s), s_dot / a))

    if not points:
        if lightlike:
            raise EmptyDiagramError(
                f"all Monge-cone rays at {x} are lightlike; the alpha = 1 section is empty")
        raise EmptyDiagramError(f"no on-shell covectors found at {x}")
    return WaveDiagram(x, points, lightlike, unreachable)


def ray_alpha(E: SymbolSurface, conn: ConnectionData, x, p, p_s: float) -> float:
    """alpha = ds + A.dx evaluated on the cone ray of an on-shell covector.

    Positive values mean the ray meets the diagram plane alpha = 1 under
    positive rescaling; negative values put it in the unreachable bucket.
    """
    x = np.asarray(x, float)
    _, gp, gps = E.gradient(x, p, p_s)
    return float(-gps + conn.A(x) @ gp)


def _null_class_momenta(E: SymbolSurface, x, n_samples: int) -> list[np.ndarray]:
    """Unit momenta p with G(x, p, 0) = 0 (homogeneous: a cone direction scan)."""
    if E.dim != 2:
        return []
    period = 2 * math.pi

    # g is exactly periodic, so the closing grid point 2 pi repeats t = 0 and
    # a root reported there is the one at 0
    def g(t):
        t = t % period
        return E.value(x, np.stack([np.cos(t), np.sin(t)], axis=-1), 0.0)

    thetas = np.linspace(0.0, period, max(n_samples, 16), endpoint=False)
    return [np.array([math.cos(t), math.sin(t)])
            for t in scan_roots(g, np.append(thetas, period)) if t < period]


def legendre_dual(samples: np.ndarray) -> np.ndarray:
    """Supporting-hyperplane (polar) dual of a sampled convex hypersurface.

    For each sample v with estimated tangent plane T the unique covector p
    with p(v) = 1 and p|_T = 0 is returned.  2D samples are taken as a ring
    in order and the tangent is the symmetric chord through the neighbours;
    in higher dimensions it is a local least-squares plane over the
    2*dim nearest samples.
    """
    samples = np.asarray(samples, float)
    n, m = samples.shape
    if n < m + 1:
        raise ContractViolation("need at least dim+1 samples to estimate tangent planes")
    duals = np.full_like(samples, np.nan)
    if m == 2:
        for i in range(n):
            t = samples[(i + 1) % n] - samples[(i - 1) % n]
            nrm = np.array([-t[1], t[0]])
            denom = float(np.dot(nrm, samples[i]))
            if abs(denom) < 1e-14 * np.linalg.norm(nrm) * max(np.linalg.norm(samples[i]), 1.0):
                continue  # degenerate tangent estimate: skip with NaN marker
            duals[i] = nrm / denom
    else:
        d2 = np.sum((samples[None, :, :] - samples[:, None, :]) ** 2, axis=-1)
        for i in range(n):
            idx = np.argsort(d2[i])[1:2 * m + 1]
            rel = samples[idx] - samples[i]
            _, sv, vt = np.linalg.svd(rel, full_matrices=True)
            nrm = vt[-1]
            denom = float(np.dot(nrm, samples[i]))
            if abs(denom) < 1e-12:
                continue
            duals[i] = nrm / denom
    good = ~np.isnan(duals[:, 0])
    return duals[good]


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.spatial import cKDTree

    a = np.asarray(a, float)
    b = np.asarray(b, float)
    da = cKDTree(b).query(a)[0].max()
    db = cKDTree(a).query(b)[0].max()
    return float(max(da, db))


def strip_in_gauge(strip: Strip, chi: PolyField | ScalarField) -> Strip:
    """Re-express a strip in the trivialization matching A -> A + d(chi):
    s -> s + chi(x), p -> p + p_s * d(chi)."""
    dchi = np.array([chi.gradient(strip.x[i]) for i in range(len(strip))])
    chival = np.array([chi.value(strip.x[i]) for i in range(len(strip))])
    return Strip(strip.surface, strip.taus.copy(), strip.x.copy(),
                 strip.s + chival,
                 strip.p + strip.p_s[:, None] * dchi,
                 strip.p_s.copy(), strip.g_residual.copy(), strip.boundary_exit)


def classify_characteristic(strip: Strip, time_orientation: int = +1) -> str:
    """Particle / antiparticle / lightlike class by the sign of p_s.

    p_s is conserved, so a sign change along the strip indicates corruption
    and raises InternalConsistencyError.
    """
    if time_orientation not in (+1, -1):
        raise ContractViolation("time_orientation must be +1 or -1")
    ps = strip.p_s * time_orientation
    signs = np.sign(ps[np.abs(ps) > PS_ZERO_TOL])
    if signs.size and not np.all(signs == signs[0]):
        raise InternalConsistencyError("p_s changed sign along a strip")
    if not signs.size:
        return "lightlike"
    if np.any(np.abs(ps) <= PS_ZERO_TOL):
        raise InternalConsistencyError("p_s jumped between zero and nonzero along a strip")
    return "particle" if signs[0] > 0 else "antiparticle"


@dataclass
class RelativisticScenario:
    surface: SymbolSurface
    connection: ConnectionData
    metric: np.ndarray          # constant Lorentzian metric on the M axes
    mass: float
    charge: float
    fiber_coeff: float          # coefficient of p_s^2 in G (m^2 c^2 for flat diag(c^2,-1,...))
    em_potential: ConnectionData


def lorentzian_metric(c: float, dim: int = 2) -> np.ndarray:
    """Flat metric diag(c^2, -1, ..., -1) on (t, x...)."""
    g = -np.eye(dim)
    g[0, 0] = c * c
    return g


def relativistic_scenario(mass: float, charge: float, em_potential,
                          metric, chart: Chart | None = None,
                          fiber_coeff: float | None = None) -> RelativisticScenario:
    """Light-cone symbol on U for a charged relativistic particle.

    The Monge cones are the null cones of a Lorentzian metric on U whose
    fiber direction is spacelike; the symbol is

        G = g^{mu nu} (p - e A p_s)_mu (p - e A p_s)_nu - (fiber_coeff) p_s^2

    normalized so the p_s = +/-1 sections are the two mass-shell branches
    (fiber_coeff defaults to m^2 g_{00}, i.e. m^2 c^2 for diag(c^2, -1...)).
    """
    g = np.asarray(metric, float)
    m_dim = g.shape[0]
    eigs = np.linalg.eigvalsh(g)
    if not (np.sum(eigs > 0) == 1 and np.sum(eigs < 0) == m_dim - 1):
        raise ContractViolation("metric must be Lorentzian (signature +,-,...,-)")
    if chart is None:
        names = ("t",) + tuple(f"x{i}" if m_dim > 2 else "x" for i in range(1, m_dim))
        chart = Chart(names, [[-1e4, 1e4]] * m_dim)
    if fiber_coeff is None:
        fiber_coeff = mass * mass * g[0, 0]
    if not fiber_coeff > 0:
        raise ContractViolation("fiber coefficient must be positive (spacelike fiber)")
    ginv = np.linalg.inv(g)

    if isinstance(em_potential, ConnectionData):
        em = em_potential
    else:
        em = ConnectionData(chart, em_potential)
    e = float(charge)

    # stacked matmul and vecdot round like the 1-D `@` and np.dot
    def value(x, p, ps):
        k = p - (e * ps)[..., None] * em.A(x)
        return np.vecdot(_matvec(ginv, k), k) - fiber_coeff * ps * ps

    def grad(x, p, ps):
        A = em.A(x)
        k = p - (e * ps)[..., None] * A
        w = 2.0 * _matvec(ginv, k)
        J = em.jacobian(x)          # J[..., i, j] = d A_j / d x_i
        gx = (-e * ps)[..., None] * _matvec(J, w)
        gps = -e * np.vecdot(A, w) - 2.0 * fiber_coeff * ps
        return gx, w, gps

    surface = SymbolSurface(chart, value, degree=2, grad=grad, name="relativistic")

    def A_conn(x):
        return e * em.A(x)

    def dA_conn(x):
        return e * em.jacobian(x)

    conn = ConnectionData(chart, A_conn, dA=dA_conn)
    return RelativisticScenario(surface, conn, g, mass, e, float(fiber_coeff), em)


def _matvec(M, v):
    """M @ v over stacks: M of shape (..., m, m) or (m, m), v of shape (..., m)."""
    return np.matmul(M, v[..., None])[..., 0]


def constant_field_potential(chart: Chart, field_strength: float) -> ConnectionData:
    """EM potential with F = E0 dt ^ dx: A_t = -E0 * x (so F_tx = +E0)."""
    m = chart.dim
    comps = [PolyField.from_const(chart, 0.0) for _ in range(m)]
    idx_x = 1  # first spatial axis
    e_x = [0] * m
    e_x[idx_x] = 1
    comps[0] = PolyField(chart, {tuple(e_x): -field_strength})
    return ConnectionData(chart, comps)


def null_norm(scenario: RelativisticScenario, strip: Strip) -> float:
    """Max |g(dx/dtau, dx/dtau)| along a strip, normalized by the velocity norm."""
    worst = 0.0
    for i in range(len(strip)):
        v = strip.velocity(i)[:strip.surface.dim]
        nv = float(v @ scenario.metric @ v)
        worst = max(worst, abs(nv) / max(np.dot(v, v), 1e-300))
    return worst
