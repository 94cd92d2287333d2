"""Noether symmetries: the bundle-form conserved quantity Q = <p, v> + p_s f
and numerical verification of its conservation along strips."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charts import Chart, PolyField, ScalarField, VectorField
from .errors import ContractViolation
from .strips import CharacteristicState, Strip, SymbolSurface, sample_onshell


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


def conserved_quantity(sym: SymmetryField, state: CharacteristicState) -> float:
    """Q = <p, v(x)> + p_s f(x)."""
    return float(np.dot(state.p, sym.v.value(state.x)) + state.p_s * sym.f.value(state.x))


def symmetry_residual(E: SymbolSurface, sym: SymmetryField, x, p, p_s: float) -> float:
    """dQ/dtau at an on-shell point, expressed through the symbol gradient.

    Along the strip flow,
        dQ/dtau = -<v, dG/dx> + p^T (Dv) dG/dp + p_s <df, dG/dp>,
    which vanishes identically iff the lifted field preserves {G = 0}.
    """
    gx, gp, _ = E.gradient(x, p, p_s)
    v = sym.v.value(x)
    J = sym.v.jacobian(x)             # J[i, j] = d v^j / d x^i
    df = sym.f.gradient(x)
    return float(-np.dot(v, gx) + np.dot(np.asarray(p) @ J.T, gp) + p_s * np.dot(df, gp))


def check_symmetry(E: SymbolSurface, sym: SymmetryField,
                   n_samples: int = 50, rng: np.random.Generator | None = None,
                   margin: float = 1.0, p_s: float = 1.0) -> float:
    """Max |dQ/dtau| over random on-shell samples, normalized by the local
    symbol scale.  A value <= 1e-6 declares the symmetry verified.

    No connection is needed: in the bundle picture f already absorbs the
    vertical part.
    """
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for state in sample_onshell(E, rng, n_samples, p_s=p_s, margin=margin):
        q = np.append(state.p, state.p_s)
        scale = max(np.linalg.norm(q) ** E.degree, 1e-30)
        worst = max(worst, abs(symmetry_residual(E, sym, state.x, state.p, state.p_s)) / scale)
    return worst


def conservation_drift(E: SymbolSurface, sym: SymmetryField, strip: Strip) -> float:
    """max_tau |Q(tau) - Q(0)| along an integrated strip."""
    if len(strip) == 0:
        raise ContractViolation("empty strip")
    q = conservation_series(sym, strip)
    return float(np.max(np.abs(q - q[0])))


def conservation_series(sym: SymmetryField, strip: Strip) -> np.ndarray:
    return np.array([conserved_quantity(sym, strip.state(i)) for i in range(len(strip))])


def gauge_shifted_symmetry(sym: SymmetryField, chi: PolyField | ScalarField) -> SymmetryField:
    """Covariant transport of a symmetry under A -> A + d(chi): (v, f) -> (v, f - d(chi)(v)).

    Paired with the strip re-trivialization s -> s + chi, p -> p + p_s d(chi),
    the conserved quantity Q is unchanged.
    """
    chart = sym.v.chart

    def f_new(x, sym=sym, chi=chi):
        dchi = chi.gradient(x)
        return sym.f.value(x) - float(np.dot(dchi, sym.v.value(x)))

    def grad_new(x, sym=sym, chi=chi):
        from .bundle import _hessian_of
        H = _hessian_of(chi, x)
        dchi = chi.gradient(x)
        J = sym.v.jacobian(x)
        return sym.f.gradient(x) - H @ sym.v.value(x) - J @ dchi

    return SymmetryField(sym.v, ScalarField(chart, f_new, grad=grad_new))
