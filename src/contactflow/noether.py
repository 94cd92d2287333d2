"""Noether symmetries: the bundle-form conserved quantity Q = <p, v> + p_s f
and numerical verification of its conservation along strips."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charts import Chart, PolyField, ScalarField, VectorField, dot
from .errors import ContractViolation
from .strips import Strip, SymbolSurface, _onshell_scale, sample_onshell


@dataclass
class SymmetryField:
    """Candidate symmetry: a vector field v on M plus a fiber component f.

    The corresponding bundle field is v + f * d/ds; its conserved quantity on
    extremals is Q = <p, v(x)> + p_s f(x).
    """

    v: VectorField
    f: PolyField | ScalarField

    @classmethod
    def build(cls, chart: Chart, v_components: Sequence, f=0.0) -> "SymmetryField":
        if not isinstance(f, (PolyField, ScalarField)):
            f = PolyField.from_const(chart, float(f))
        return cls(VectorField(chart, v_components), f)


def symmetry_residual(E: SymbolSurface, sym: SymmetryField, x, p, p_s):
    """dQ/dtau at on-shell points (stacks broadcast), through the symbol gradient.

    Along the strip flow,
        dQ/dtau = -<v, dG/dx> + p^T (Dv) dG/dp + p_s <df, dG/dp>,
    which vanishes identically iff the lifted field preserves {G = 0}.
    """
    gx, gp, _ = E.gradient(x, p, p_s)
    Jp = dot(sym.v.jacobian(x), np.asarray(p, float)[..., None, :])   # J[..., i, j] = dv^j/dx^i
    return -dot(sym.v.value(x), gx) + dot(Jp, gp) + p_s * dot(sym.f.gradient(x), gp)


def check_symmetry(E: SymbolSurface, sym: SymmetryField,
                   n_samples: int = 50, rng: np.random.Generator | None = None,
                   margin: float = 1.0, p_s: float = 1.0) -> float:
    """Max |dQ/dtau| over random on-shell samples, divided by the integrator's
    on-shell scale.  A value <= 1e-6 declares the symmetry verified.

    No connection is needed: in the bundle picture f already absorbs the
    vertical part.
    """
    states = sample_onshell(E, rng or np.random.default_rng(0), n_samples, p_s=p_s,
                            margin=margin)
    x, p = np.array([st.x for st in states]), np.array([st.p for st in states])
    ps = np.full(len(states), float(p_s))
    return float(np.max(np.abs(symmetry_residual(E, sym, x, p, ps)) / _onshell_scale(E, p, ps)))


def conservation_drift(E: SymbolSurface, sym: SymmetryField, strip: Strip) -> float:
    """max_tau |Q(tau) - Q(0)| along an integrated strip."""
    if len(strip) == 0:
        raise ContractViolation("empty strip")
    q = conservation_series(sym, strip)
    return float(np.max(np.abs(q - q[0])))


def conservation_series(sym: SymmetryField, strip: Strip) -> np.ndarray:
    """Q = <p, v(x)> + p_s f(x) at each sample of the strip."""
    return dot(strip.p, sym.v.value(strip.x)) + strip.p_s * sym.f.value(strip.x)


def gauge_shifted_symmetry(sym: SymmetryField, chi: PolyField) -> SymmetryField:
    """Covariant transport of a symmetry under A -> A + d(chi): (v, f) -> (v, f - d(chi)(v)).

    Paired with the strip re-trivialization s -> s + chi, p -> p + p_s d(chi),
    the conserved quantity Q is unchanged.
    """
    chart = sym.v.chart

    def f_new(x, sym=sym, chi=chi):
        return sym.f.value(x) - dot(chi.gradient(x), sym.v.value(x))

    def grad_new(x, sym=sym, chi=chi):
        H = np.stack([d.gradient(x) for d in chi.partials], axis=-2)
        Hv = dot(H, sym.v.value(x)[..., None, :])
        return sym.f.gradient(x) - Hv - dot(sym.v.jacobian(x), chi.gradient(x)[..., None, :])

    return SymmetryField(sym.v, ScalarField(chart, f_new, grad=grad_new))
