"""Phase-space reduction of characteristics and contact-hyperplane holonomy.

A phase point is the G-invariant data of a characteristic: flow the strip to
a declared time section, drop s, and read off the remaining positions and
the ratios p/p_s.  The contact hyperplanes give a horizontal lift for loops
in the phase chart; its holonomy reproduces the symplectic area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, ContractViolation, CrossingError
from .strips import (PS_ZERO_TOL, CharacteristicState, Fiber, IntegratorConfig,
                     SymbolSurface, check_start, flow_to_event)

#: integrator settings of the flow to the section
SECTION_INTEGRATOR = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)


@dataclass(frozen=True)
class SectionSpec:
    """Time slice {axis = value} transverse to the characteristics."""

    axis: str
    value: float


@dataclass(frozen=True)
class PhasePoint:
    coords: np.ndarray            # (x_i, p_i / p_s) over the non-section axes
    axis_names: tuple[str, ...]
    branch: str                   # particle | antiparticle | lightlike-boundary

    def distance(self, other: "PhasePoint") -> float:
        return float(np.max(np.abs(self.coords - other.coords)))


def _branch_of(p_s: float, scale: float) -> str:
    if abs(p_s) <= PS_ZERO_TOL * max(scale, 1.0):
        return "lightlike-boundary"
    return "particle" if p_s > 0 else "antiparticle"


def to_phase(E: SymbolSurface, state: CharacteristicState, section: SectionSpec,
             tau_budget: float = 50.0) -> PhasePoint:
    """Flow the characteristic through ``state`` to the section and reduce.

    Both tau directions are tried; the crossing nearest tau = 0 wins, the
    forward one on a tie.  The backward flow stops at |tau| of the forward
    crossing, or at the budget if there is none.  The result is independent
    of where on the characteristic ``state`` sits and of its s value.
    """
    i_sec = E.chart.axis_index(section.axis)
    keep = [i for i in range(E.dim) if i != i_sec]
    names = tuple(E.chart.axis_names[i] for i in keep)

    check_start(E, state, SECTION_INTEGRATOR.tol_onshell)

    def crossing(tau, y):   # y[:dim] is the base point
        return y[i_sec] - section.value

    if abs(state.x[i_sec] - section.value) <= 1e-13 * max(abs(section.value), 1.0):
        hits = [state]
    else:
        ahead = flow_to_event(E, state, tau_budget, crossing, SECTION_INTEGRATOR)
        reach = tau_budget if ahead is None else abs(ahead.tau)
        hits = [h for h in (ahead, flow_to_event(E, state, -reach, crossing, SECTION_INTEGRATOR))
                if h is not None]
    if not hits:
        raise CrossingError(
            f"characteristic does not cross {{{section.axis} = {section.value}}} "
            f"within |tau| <= {tau_budget}")
    end = min(hits, key=lambda h: abs(h.tau))
    branch = _branch_of(end.p_s, np.linalg.norm(end.covector()))
    if branch == "lightlike-boundary":
        # p/p_s blows up; report the normalized momentum ray instead
        mom = end.p[keep] / max(np.linalg.norm(end.p), 1e-300)
    else:
        mom = end.p[keep] / end.p_s
    coords = np.concatenate([end.x[keep], mom])
    return PhasePoint(coords, names, branch)


def phase_portrait(E: SymbolSurface, states, section: SectionSpec,
                   tau_budget: float = 50.0) -> list[tuple[str, "PhasePoint | None"]]:
    """to_phase over a batch; non-crossing states are kept with a None point."""
    out = []
    for st in states:
        try:
            pt = to_phase(E, st, section, tau_budget=tau_budget)
            out.append((pt.branch, pt))
        except CrossingError:
            out.append(("no-crossing", None))
    return out


# --- holonomy of the contact-hyperplane connection --------------------------

def _require_loop(loop) -> np.ndarray:
    arr = np.asarray(loop, float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
        raise ContractViolation("loop must be a list of >= 3 points (x, p)")
    return arr


@dataclass
class HolonomyResult:
    delta_s: float
    area: float               # signed symplectic area of the polygon
    delta_s_mod: float | None  # reduced by the fiber period, circle fibers only


def holonomy(loop, p_s: float = 1.0, fiber: Fiber | None = None) -> HolonomyResult:
    """Fiber displacement of the horizontal lift of a closed polygonal loop.

    The loop lives in a 2D phase chart with coordinates (x, p/p_s); on the
    contact hyperplane p.dx = p_s ds, so each straight edge contributes the
    exact trapezoid increment.  The total equals the signed area enclosed
    in (p, x) orientation -- the curvature is the symplectic form dp ^ dx.
    """
    if abs(p_s) <= PS_ZERO_TOL:
        raise BoundaryError("holonomy is undefined on the p_s = 0 boundary")
    pts = _require_loop(loop)
    closed = np.vstack([pts, pts[0]])
    ds = 0.0
    area = 0.0
    for (x1, q1), (x2, q2) in zip(closed[:-1], closed[1:]):
        ds += 0.5 * (q1 + q2) * (x2 - x1)   # integral of (p/p_s) dx, exact
        area += 0.5 * (q1 + q2) * (x2 - x1)  # shoelace for the dp ^ dx area
    mod = fiber.reduce(ds) if (fiber is not None and fiber.group == "circle") else None
    return HolonomyResult(float(ds), float(area), mod)


def square_loop(center, side: float) -> np.ndarray:
    """Positively oriented (dp ^ dx) square loop around center = (x0, q0)."""
    x0, q0 = center
    h = side / 2.0
    return np.array([[x0 - h, q0 - h], [x0 - h, q0 + h],
                     [x0 + h, q0 + h], [x0 + h, q0 - h]])


def curvature_ratio(center, side: float, p_s: float = 1.0) -> float:
    """holonomy / symplectic area for a small square loop; should be 1."""
    res = holonomy(square_loop(center, side), p_s=p_s)
    if res.area == 0.0:
        raise ContractViolation("degenerate loop: zero area")
    return res.delta_s / res.area


def holonomy_convergence(center, sides, p_s: float = 1.0,
                         exact_tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """Errors |Delta s / eps^2 - 1| over shrinking squares and observed order.

    The lift increments are exact for polygonal loops, so the errors usually
    sit at rounding level; in that case the observed order is reported as
    +inf rather than a meaningless rounding-noise fit.
    """
    sides = np.asarray(sides, float)
    errs = np.empty(len(sides))
    for i, eps in enumerate(sides):
        res = holonomy(square_loop(center, eps), p_s=p_s)
        errs[i] = abs(res.delta_s / eps**2 - 1.0)
    if np.all(errs < exact_tol):
        return errs, float("inf")
    mask = errs > 0
    order = float(np.polyfit(np.log(sides[mask]), np.log(errs[mask]), 1)[0])
    return errs, order
