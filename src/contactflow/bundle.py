"""Connections, curvature, wave diagrams, Legendre duality and the
relativistic-particle scenario.

The bundle total space is modelled locally as M x fiber; the connection is
carried by a potential A on M with 1-form alpha = ds + A_mu dx^mu.  Wave
diagrams are unit-level sections of the Monge cone by the plane alpha = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .charts import Chart, PolyField, ScalarField, VectorField, dot, scan_roots, stack_last
from .errors import (ContractViolation, EmptyDiagramError,
                     InternalConsistencyError)
from .strips import PS_ZERO_TOL, Strip, SymbolSurface, _degeneracy_gap

#: rays whose alpha-value is below this (relative to the ray norm) are lightlike
LIGHTLIKE_RTOL = 1e-9

#: radii scanned for on-shell momenta along each direction
_RADII = np.linspace(1e-9, 20.0, 400)


class ConnectionData(VectorField):
    """Connection potential A on M, one component per axis (fields or
    constants), and its curvature F, the exterior derivative of A."""

    def A(self, x) -> np.ndarray:
        """A at a point x of shape (m,), or at stacked points (..., m)."""
        return self.value(x)

    def curvature(self, x) -> np.ndarray:
        """F_{mu nu} = d_mu A_nu - d_nu A_mu (antisymmetric by construction)."""
        J = self.jacobian(x)
        return J - np.swapaxes(J, -1, -2)

    def shifted(self, chi: PolyField) -> "ConnectionData":
        """Connection with potential A + d(chi): component j is A_j + d_j chi,
        and its gradient adds column j of chi's Hessian, H[i, j] = d_j d_i chi."""
        def part(a, j):
            return ScalarField(self.chart, lambda x: a.value(x) + chi.partials[j].value(x),
                               lambda x: a.gradient(x) + stack_last(
                                   [d.partials[j].value(x) for d in chi.partials]))

        return ConnectionData(self.chart, [part(a, j) for j, a in enumerate(self.components)])


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


def wave_diagram(E: SymbolSurface, conn: ConnectionData, x, n_samples: int = 64) -> WaveDiagram:
    """Section of the Monge cone at x by the connection plane alpha = 1, on a
    2D chart, from one radial scan per section p_s = +-1 over ``n_samples``
    directions (degenerate ones dropped) and from the p_s = 0 angle scan.

    Rays parallel to the plane (alpha = 0) land in the lightlike bucket; rays
    pointing below it (alpha < 0, unreachable by positive rescaling) are kept
    separately as well.
    """
    if E.dim != 2:
        raise ContractViolation("wave diagrams are implemented for 2D charts")
    x = E.chart.require_point(x)
    thetas = np.linspace(0.0, 2 * math.pi, n_samples, endpoint=False)
    dirs = np.array([[math.cos(t), math.sin(t)] for t in thetas])
    P, PS = [], []
    for p_s in (1.0, -1.0):
        roots = scan_roots(lambda r, i: E.value(x, np.asarray(r)[..., None] * dirs[i], p_s),
                           _RADII, n_samples)
        P += [r * d for d, radii in zip(dirs, roots) for r in radii]
        PS += [p_s] * (len(P) - len(PS))
    P += _null_class_momenta(E, x, n_samples)
    P, PS = np.array(P).reshape(-1, 2), np.array(PS + [0.0] * (len(P) - len(PS)))
    Q = np.concatenate([P, PS[:, None]], axis=1)

    # one gradient over every ray; (v_m, s_dot) = (dG/dp, -dG/dp_s) is its cone ray
    _, gp, gps = E.gradient(x, P, PS)
    W = np.concatenate([gp, -gps[:, None]], axis=1)
    gap = _degeneracy_gap(E, Q, np.concatenate([gp, gps[:, None]], axis=1))
    a, norm = W[:, 2] + dot(conn.A(x), gp), np.sqrt(dot(W, W))
    keep = ((PS == 0.0) | ~(gap < 0)) & (norm != 0.0)
    light = keep & (np.abs(a) <= LIGHTLIKE_RTOL * norm)
    below = keep & ~light & (a < 0)
    points = [DiagramPoint(gp[k] / a[k], int(PS[k]), Q[k], float(W[k, 2] / a[k]))
              for k in np.flatnonzero(keep & ~light & ~below)]
    if not points:
        if light.any():
            raise EmptyDiagramError(
                f"all Monge-cone rays at {x} are lightlike; the alpha = 1 section is empty")
        raise EmptyDiagramError(f"no on-shell covectors found at {x}")
    return WaveDiagram(x, points, list(W[light]), list(W[below]))


def ray_alpha(E: SymbolSurface, conn: ConnectionData, x, p, p_s: float) -> float:
    """alpha = ds + A.dx evaluated on the cone ray of an on-shell covector.

    Positive values mean the ray meets the diagram plane alpha = 1 under
    positive rescaling; negative values put it in the unreachable bucket.
    """
    x = np.asarray(x, float)
    _, gp, gps = E.gradient(x, p, p_s)
    return float(-gps + dot(conn.A(x), gp))


def _null_class_momenta(E: SymbolSurface, x, n_samples: int) -> list[np.ndarray]:
    """Unit momenta p with G(x, p, 0) = 0 (homogeneous: a cone direction scan)."""
    period = 2 * math.pi

    # g is exactly periodic, so the closing grid point 2 pi repeats t = 0 and
    # a root reported there is the one at 0
    def g(t, i):
        t = t % period
        return E.value(x, np.stack([np.cos(t), np.sin(t)], axis=-1), 0.0)

    thetas = np.linspace(0.0, period, max(n_samples, 16), endpoint=False)
    roots, = scan_roots(g, np.append(thetas, period))
    return [np.array([math.cos(t), math.sin(t)]) for t in roots if t < period]


def legendre_dual(samples: np.ndarray) -> np.ndarray:
    """Supporting-line (polar) dual of a sampled convex curve in the plane.

    The samples, of shape (n, 2), are taken as a ring in order; for each
    sample v with tangent T, the symmetric chord through its neighbours,
    the unique covector p with p(v) = 1 and p|_T = 0 is returned.  Samples
    whose tangent estimate is degenerate (p(v) near 0) are left out.
    """
    samples = np.asarray(samples, float)
    n, m = samples.shape
    if m != 2 or n < 3:
        raise ContractViolation(f"legendre_dual takes n >= 3 samples in 2D, not shape {(n, m)}")
    t = np.roll(samples, -1, axis=0) - np.roll(samples, 1, axis=0)
    nrm = np.stack([-t[:, 1], t[:, 0]], axis=-1)
    tol = 1e-14 * np.sqrt(dot(nrm, nrm)) * np.maximum(np.sqrt(dot(samples, samples)), 1.0)
    denom = dot(nrm, samples)
    fit = ~(np.abs(denom) < tol)
    duals = nrm[fit] / denom[fit, None]
    return duals[~np.isnan(duals[:, 0])]


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets of shape (n, m)
    and (k, m), from all n * k pairwise distances (O(n * k) memory)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt(dot(diff, diff))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def strip_in_gauge(strip: Strip, chi: PolyField) -> Strip:
    """Re-express a strip in the trivialization matching A -> A + d(chi):
    s -> s + chi(x), p -> p + p_s * d(chi)."""
    return Strip(strip.surface, strip.taus.copy(), strip.x.copy(),
                 strip.s + chi.value(strip.x),
                 strip.p + strip.p_s[:, None] * chi.gradient(strip.x),
                 strip.p_s.copy(), strip.g_residual.copy(), strip.g_raw.copy(),
                 strip.p_correction.copy(), strip.boundary_exit)


def classify_characteristic(strip: Strip) -> str:
    """Particle / antiparticle / lightlike class by the sign of p_s.

    p_s is conserved, so a sign change along the strip indicates corruption
    and raises InternalConsistencyError.
    """
    signs = np.sign(strip.p_s[np.abs(strip.p_s) > PS_ZERO_TOL])
    if signs.size and not np.all(signs == signs[0]):
        raise InternalConsistencyError("p_s changed sign along a strip")
    if not signs.size:
        return "lightlike"
    if np.any(np.abs(strip.p_s) <= PS_ZERO_TOL):
        raise InternalConsistencyError("p_s jumped between zero and nonzero along a strip")
    return "particle" if signs[0] > 0 else "antiparticle"


@dataclass
class RelativisticScenario:
    surface: SymbolSurface
    connection: ConnectionData
    metric: np.ndarray          # constant Lorentzian metric on the M axes
    mass: float
    fiber_coeff: float          # coefficient of p_s^2 in G (m^2 c^2 for flat diag(c^2,-1,...))


def lorentzian_metric(c: float, dim: int = 2) -> np.ndarray:
    """Flat metric diag(c^2, -1, ..., -1) on (t, x...)."""
    g = -np.eye(dim)
    g[0, 0] = c * c
    return g


def relativistic_scenario(mass: float, charge: float, em_potential,
                          metric, chart: Chart | None = None) -> RelativisticScenario:
    """Light-cone symbol on U for a charged relativistic particle.

    The Monge cones are the null cones of a Lorentzian metric on U whose
    fiber direction is spacelike; the symbol is

        G = g^{mu nu} (p - e A p_s)_mu (p - e A p_s)_nu - (fiber_coeff) p_s^2

    normalized so the p_s = +/-1 sections are the two mass-shell branches:
    fiber_coeff is m^2 g_{00}, i.e. m^2 c^2 for diag(c^2, -1...).
    """
    g = np.asarray(metric, float)
    m_dim = g.shape[0]
    eigs = np.linalg.eigvalsh(g)
    if not (np.sum(eigs > 0) == 1 and np.sum(eigs < 0) == m_dim - 1):
        raise ContractViolation("metric must be Lorentzian (signature +,-,...,-)")
    if chart is None:
        names = ("t",) + tuple(f"x{i}" if m_dim > 2 else "x" for i in range(1, m_dim))
        chart = Chart(names, [[-1e4, 1e4]] * m_dim)
    fiber_coeff = mass * mass * g[0, 0]
    if not fiber_coeff > 0:
        raise ContractViolation("fiber coefficient must be positive (spacelike fiber)")
    ginv = np.linalg.inv(g)

    em = (em_potential if isinstance(em_potential, ConnectionData)
          else ConnectionData(chart, em_potential))
    e = float(charge)

    def value(x, p, ps):
        k = p - (e * ps)[..., None] * em.A(x)
        return dot(dot(ginv, k[..., None, :]), k) - fiber_coeff * ps * ps

    def grad(x, p, ps):
        A = em.A(x)
        k = p - (e * ps)[..., None] * A
        w = 2.0 * dot(ginv, k[..., None, :])
        J = em.jacobian(x)          # J[..., i, j] = d A_j / d x_i
        gx = (-e * ps)[..., None] * dot(J, w[..., None, :])
        gps = -e * dot(A, w) - 2.0 * fiber_coeff * ps
        return gx, w, gps

    surface = SymbolSurface(chart, value, degree=2, grad=grad, name="relativistic")

    conn = ConnectionData(chart, [ScalarField(chart, lambda x, a=a: e * a.value(x),
                                              lambda x, a=a: e * a.gradient(x))
                                  for a in em.components])
    return RelativisticScenario(surface, conn, g, mass, float(fiber_coeff))


def constant_field_potential(chart: Chart, field_strength: float) -> ConnectionData:
    """EM potential with F = E0 dt ^ dx: A_t = -E0 * x (so F_tx = +E0)."""
    x_axis = tuple(int(i == 1) for i in range(chart.dim))   # the first spatial axis
    return ConnectionData(chart, [PolyField(chart, {x_axis: -field_strength}),
                                  *[0.0] * (chart.dim - 1)])


def null_norm(scenario: RelativisticScenario, strip: Strip) -> float:
    """Max |g(dx/dtau, dx/dtau)| along a strip, normalized by the velocity norm."""
    _, v, _ = strip.surface.gradient(strip.x, strip.p, strip.p_s)   # dx/dtau = dG/dp
    nv = np.abs(np.vecdot(v @ scenario.metric, v))
    return float(np.max(nv / np.maximum(np.vecdot(v, v), 1e-300)))
