"""Phase-space reduction of characteristics and contact-hyperplane holonomy.

A phase point is the G-invariant data of a characteristic: flow the strip to
a declared time section, drop s, and read off the remaining positions and
the ratios p/p_s.  The contact hyperplanes give a horizontal lift for loops
in the phase chart; its holonomy reproduces the symplectic area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import dot
from .errors import ContractViolation, CrossingError
from .strips import (PS_ZERO_TOL, CharacteristicState, IntegratorConfig,
                     SymbolSurface, check_start, flow_to_event)

#: integrator settings of the flow to the section
SECTION_INTEGRATOR = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
SECTION_TAU_BUDGET = 50.0   # the largest |tau| the flow to the section covers either way


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


def to_phase(E: SymbolSurface, state: CharacteristicState, section: SectionSpec) -> PhasePoint:
    """Flow the characteristic through ``state`` to the section and reduce.

    Both tau directions are tried; the crossing nearest tau = 0 wins, the
    forward one on a tie.  The direction that dx/dtau = dG/dp points to the
    section at the start flows first, over SECTION_TAU_BUDGET; the other
    stops at |tau| of its crossing, or at the budget if there is none.  The
    result is independent of where on the characteristic ``state`` sits and
    of its s value.
    """
    i_sec = E.chart.axis_index(section.axis)
    keep = [i for i in range(E.dim) if i != i_sec]
    names = tuple(E.chart.axis_names[i] for i in keep)

    check_start(E, state, SECTION_INTEGRATOR.tol_onshell)

    def crossing(tau, y):   # y[:, :dim] are the base points
        return y[:, i_sec] - section.value

    if abs(state.x[i_sec] - section.value) <= 1e-13 * max(abs(section.value), 1.0):
        hits = [state]
    else:
        dx = E.gradient(state.x, state.p, state.p_s)[1][i_sec]   # dx/dtau on the axis
        sign = -1.0 if dx * (section.value - state.x[i_sec]) < 0 else 1.0   # toward it
        first = flow_to_event(E, state, sign * SECTION_TAU_BUDGET, crossing,
                              SECTION_INTEGRATOR)
        reach = SECTION_TAU_BUDGET if first is None else abs(first.tau)
        hits = [h for h in (first, flow_to_event(E, state, -sign * reach, crossing,
                                                 SECTION_INTEGRATOR)) if h is not None]
    if not hits:
        raise CrossingError(
            f"characteristic does not cross {{{section.axis} = {section.value}}} "
            f"within |tau| <= {SECTION_TAU_BUDGET}")
    end = min(hits, key=lambda h: (abs(h.tau), h.tau < 0))   # forward wins a tie
    branch = _branch_of(end.p_s, np.linalg.norm(end.covector()))
    if branch == "lightlike-boundary":
        # p/p_s blows up; report the normalized momentum ray instead
        mom = end.p[keep] / max(np.linalg.norm(end.p), 1e-300)
    else:
        mom = end.p[keep] / end.p_s
    coords = np.concatenate([end.x[keep], mom])
    return PhasePoint(coords, names, branch)


# --- holonomy of the contact-hyperplane connection --------------------------

def _require_loop(loop) -> np.ndarray:
    arr = np.asarray(loop, float)
    if arr.ndim != 2 or arr.shape[1] == 0 or arr.shape[1] % 2 or len(arr) < 3:
        raise ContractViolation("loop must be a list of >= 3 points (x_1..x_k, q_1..q_k)")
    return arr


def holonomy(loop) -> float:
    """The fiber displacement delta_s of the horizontal lift of a closed polygonal loop.

    The loop has shape (n, 2k) in a phase chart: k positions x_i, then the
    k ratios q_i = p_i/p_s.  On the contact hyperplane p.dx = p_s ds, so
    each straight edge contributes the exact trapezoid increment
    q_mid . dx, added edge by edge and axis by axis.  The total is the
    signed area enclosed in the (q_i, x_i) planes, summed over i -- the
    curvature is the symplectic form sum_i dq_i ^ dx_i.
    """
    pts = _require_loop(loop)
    closed = np.vstack([pts, pts[:1]])
    k = pts.shape[1] // 2
    x, q = closed[:, :k], closed[:, k:]
    return float(dot((0.5 * (q[:-1] + q[1:])).ravel(), (x[1:] - x[:-1]).ravel()))


def square_loop(center, side: float) -> np.ndarray:
    """Positively oriented (dp ^ dx) square loop around center = (x0, q0)."""
    x0, q0 = center
    h = side / 2.0
    return np.array([[x0 - h, q0 - h], [x0 - h, q0 + h],
                     [x0 + h, q0 + h], [x0 + h, q0 - h]])
