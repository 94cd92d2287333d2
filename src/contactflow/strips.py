"""The equation hypersurface and its characteristic strips.

A scenario is described by a momentum-homogeneous scalar G(x, p, p_s) on the
slit cotangent space of the bundle total space U = M x fiber.  G never
depends on the fiber coordinate s (fiber invariance), so the fiber momentum
p_s is an exact constant of motion.  The zero set {G = 0} is the fundamental
object; its characteristic strips are integrated here.

Strip equations (coordinates x, fiber s, momenta p, p_s; tau the strip
parameter):

    dx/dtau  = dG/dp
    ds/dtau  = -dG/dp_s
    dp/dtau  = -dG/dx
    dp_s/dtau = 0

With this orientation the fiber coordinate accumulates the action: on shell,
momentum homogeneity gives p . dx/dtau = p_s ds/dtau, so in the p_s = 1 gauge
s grows by the Lagrangian integral along the projected extremal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .charts import _EPS, Chart, brentq, fd_gradient, fd_steps, libm_pow, scan_roots
from .errors import ContractViolation, DegeneracyError

#: strips with |p_s| below this are treated as the lightlike class
PS_ZERO_TOL = 1e-12

#: relative finite-difference step for symbols given without a gradient
SYMBOL_FD_STEP = 1e-6

#: sample_onshell gives up after this many draws per requested sample
SAMPLE_MAX_TRIES = 200
_SAMPLE_GRID = np.linspace(-20.0, 20.0, 81)   # momentum offsets it scans for G = 0


@dataclass(frozen=True)
class Fiber:
    """Fiber group of the bundle: the real line or a circle of given period."""

    group: str = "line"  # "line" | "circle"
    period: float = 2.0 * math.pi

    def __post_init__(self):
        if self.group not in ("line", "circle"):
            raise ContractViolation(f"unknown fiber group {self.group!r}")
        if self.group == "circle" and not self.period > 0:
            raise ContractViolation("circle fiber needs a positive period")

    def reduce(self, s: float) -> float:
        if self.group == "circle":
            return float(s % self.period)
        return float(s)


class SymbolSurface:
    """Zero set of a momentum-homogeneous symbol function over a chart on M.

    value(x, p, p_s) must be positively homogeneous of integer degree
    ``degree`` in (p, p_s) and independent of the fiber coordinate (the
    latter holds by construction: s is not an argument).

    ``value`` and ``grad`` are called with arrays x and p of shape (..., m)
    and p_s of shape (...), all with the same stack shape (...), which is ()
    for a single point; they must broadcast over the stack axes (index
    components as ``p[..., i]``).  ``grad`` returns (dG/dx, dG/dp, dG/dp_s)
    with those shapes; a constant dG/dp_s may be returned as a scalar.
    """

    def __init__(self, chart: Chart, value: Callable, degree: int,
                 grad: Callable | None = None, fiber: Fiber = Fiber(),
                 name: str = ""):
        self.chart = chart
        self._value = value
        self._grad = grad
        self.degree = int(degree)
        self.fiber = fiber
        self.name = name
        if self.degree < 1:
            raise ContractViolation("homogeneity degree must be a positive integer")

    @property
    def dim(self) -> int:
        return self.chart.dim

    def value(self, x, p, p_s):
        """G at one point (a float), or at stacked points (an array).

        x and p have shape (..., m) and p_s shape (...); stacks broadcast
        against each other and against single-point arguments.
        """
        x, p, p_s, shape = _symbol_args(x, p, p_s)
        g = self._value(x, p, p_s)
        return float(g) if shape is None else _filled(g, shape)

    def gradient(self, x, p, p_s):
        """Return (dG/dx, dG/dp, dG/dp_s), of shapes (..., m), (..., m) and
        (...) at stacked points; dG/dp_s is a float at a single point."""
        x, p, p_s, shape = _symbol_args(x, p, p_s)
        gx, gp, gps = (self._grad or self._fd_gradient)(x, p, p_s)
        if shape is None:
            return np.asarray(gx, float), np.asarray(gp, float), float(gps)
        vec = shape + (self.dim,)
        return _filled(gx, vec), _filled(gp, vec), _filled(gps, shape)

    def _fd_gradient(self, x, p, p_s):
        m = self.dim
        q = np.concatenate([x, p, p_s[..., None]], axis=-1)
        g = fd_gradient(lambda q: self.value(q[..., :m], q[..., m:2 * m], q[..., 2 * m]), q,
                        fd_steps(q, SYMBOL_FD_STEP))
        return g[..., :m], g[..., m:2 * m], g[..., 2 * m]

    def euler_residual(self, x, p, p_s: float) -> float:
        """Euler homogeneity defect <q, dG/dq> - degree * G (should vanish)."""
        _, gp, gps = self.gradient(x, p, p_s)
        return float(np.dot(p, gp) + p_s * gps - self.degree * self.value(x, p, p_s))

    def is_degenerate(self, x, p, p_s: float) -> bool:
        """Whether the non-radial part of the momentum gradient vanishes at
        (x, p, p_s): the contact hyperplane touches the surface there and the
        characteristic direction is undefined."""
        q = np.append(np.asarray(p, float), p_s)
        if not np.any(q):
            raise ContractViolation("the zero covector is not a contact element")
        _, gp, gps = self.gradient(x, p, p_s)
        return bool(_degeneracy_gap(self, q[None], np.append(gp, gps)[None])[0] < 0)


def _degeneracy_gap(E: SymbolSurface, q, gq) -> np.ndarray:
    """Degeneracy measure minus threshold at stacked covectors q = (p, p_s)
    with gradients gq = (dG/dp, dG/dp_s): the norm of the non-radial part of
    gq less 1e-10 |q|^(degree - 1).  Negative at a touching point."""
    nq = np.sqrt(np.vecdot(q, q))
    r = gq - (np.vecdot(gq, q) / libm_pow(nq, 2))[:, None] * q
    return np.sqrt(np.vecdot(r, r)) - 1e-10 * libm_pow(nq, E.degree - 1)


def _symbol_args(x, p, p_s):
    """Symbol arguments with one stack shape, and that shape (None at a
    single point, where p_s is passed as an np.float64)."""
    x = np.asarray(x, float)
    p = np.asarray(p, float)
    if x.ndim == 1 and p.ndim == 1:
        if type(p_s) is np.float64:   # the ODE right-hand side passes these
            return x, p, p_s, None
        if np.ndim(p_s) == 0:
            return x, p, np.float64(p_s), None
    p_s = np.asarray(p_s, float)
    shape = np.broadcast_shapes(x.shape[:-1], p.shape[:-1], p_s.shape)
    return (np.broadcast_to(x, shape + x.shape[-1:]), np.broadcast_to(p, shape + p.shape[-1:]),
            np.broadcast_to(p_s, shape), shape)


def _filled(a, shape) -> np.ndarray:
    """A new float array of the given shape from a (a scalar broadcasts)."""
    return np.array(np.broadcast_to(np.asarray(a, float), shape))


@dataclass(frozen=True)
class CharacteristicState:
    """A point of a characteristic strip."""

    x: np.ndarray
    s: float
    p: np.ndarray
    p_s: float
    tau: float = 0.0

    def __init__(self, x, s: float, p, p_s: float, tau: float = 0.0):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        if x.shape != p.shape:
            raise ContractViolation("x and p must have the same length")
        if np.linalg.norm(p) == 0.0 and p_s == 0.0:
            raise ContractViolation("(p, p_s) = 0 is excluded: contact elements are projective")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "s", float(s))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_s", float(p_s))
        object.__setattr__(self, "tau", float(tau))

    def covector(self) -> np.ndarray:
        return np.append(self.p, self.p_s)

    def scaled(self, lam: float) -> "CharacteristicState":
        if lam <= 0:
            raise ContractViolation("contact-element rescaling must be by a positive factor")
        return CharacteristicState(self.x, self.s, lam * self.p, lam * self.p_s, self.tau)

    def normalized(self) -> "CharacteristicState":
        """Gauge-fix the projective scale: p_s -> sign(p_s), else |(p,p_s)| = 1."""
        if abs(self.p_s) > PS_ZERO_TOL:
            return self.scaled(1.0 / abs(self.p_s))
        return self.scaled(1.0 / np.linalg.norm(self.covector()))


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    tol_onshell: float = 1e-8
    method: str = "adaptive"  # "adaptive" | "fixed"
    dt: float = 1e-2          # fixed-step size
    n_out: int = 201          # adaptive-mode samples when no tau_eval is given

    def __post_init__(self):
        if self.method not in ("adaptive", "fixed"):
            raise ContractViolation(f"unknown integrator method {self.method!r}")
        if not self.abs_tol >= 0:
            raise ContractViolation("abs_tol must not be negative")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ContractViolation(f"dt must be finite and positive, got {self.dt!r}")


@dataclass
class Strip:
    """A sampled characteristic strip."""

    surface: SymbolSurface
    taus: np.ndarray
    x: np.ndarray        # (n, m)
    s: np.ndarray        # (n,)
    p: np.ndarray        # (n, m)
    p_s: np.ndarray      # (n,)
    g_residual: np.ndarray
    boundary_exit: bool = False

    def __len__(self) -> int:
        return len(self.taus)

    def state(self, i: int) -> CharacteristicState:
        return CharacteristicState(self.x[i], self.s[i], self.p[i], self.p_s[i], self.taus[i])


def _onshell_scale(E: SymbolSurface, p, p_s):
    """max(|(p, p_s)|^degree, 1e-300), at one point or over stacked points."""
    q = np.concatenate([np.asarray(p, float), np.asarray(p_s, float)[..., None]], axis=-1)
    return np.maximum(libm_pow(np.sqrt(np.vecdot(q, q)), E.degree), 1e-300)


def check_start(E: SymbolSurface, state: CharacteristicState, tol_onshell: float) -> None:
    """Require a start state on shell (|G| <= tol_onshell * max(1, |(p, p_s)|^degree)),
    inside the chart and not degenerate."""
    Y = _pack(state)[None]
    err = _start_errors(E, Y, state.tau, tol_onshell)[0][0]
    if err is not None:
        raise err


def _start_errors(E: SymbolSurface, Y, t0: float, tol_onshell: float) -> tuple[list, np.ndarray]:
    """check_start over a state stack: per row None or the exception it
    raises, and the right-hand side at the rows that pass (NaN elsewhere)."""
    m = E.dim
    X, P, PS = Y[:, :m], Y[:, m + 1:2 * m + 1], Y[:, 2 * m + 1]
    G = E.value(X, P, PS)
    scale = _onshell_scale(E, P, PS)
    off = np.abs(G) > tol_onshell * np.where(scale > 1.0, scale, 1.0)
    ok = ~off & E.chart.contains(X)
    errors = [None if ok[r] else ContractViolation(
        f"initial state is off-shell: G = {G[r]:.3e}" if off[r]
        else f"initial point {X[r]} outside chart bounds") for r in range(len(Y))]
    F = np.full_like(Y, np.nan)
    if ok.any():
        F[ok] = _rhs(E, Y[ok])
        gap = _degeneracy_gap(E, Y[ok, m + 1:], _dG_dq(F[ok], m))
        for r in np.flatnonzero(ok)[gap < 0]:
            errors[r] = DegeneracyError("initial state is a degenerate (touching) point",
                                        state=_unpack(E, Y[r], t0))
    for r in np.flatnonzero(~np.isfinite(Y).all(axis=1)):
        errors[r] = errors[r] or ContractViolation("initial state is not finite")
    return errors, F


def _pack(state: CharacteristicState) -> np.ndarray:
    return np.concatenate([state.x, [state.s], state.p, [state.p_s]])


def _unpack(E: SymbolSurface, y, tau: float) -> CharacteristicState:
    m = E.dim
    return CharacteristicState(y[:m], y[m], y[m + 1:2 * m + 1], y[2 * m + 1], tau)


def _rhs(E: SymbolSurface, Y) -> np.ndarray:
    """Strip right-hand sides (dG/dp, -dG/dp_s, -dG/dx, 0) of a state stack
    (a one-row stack is evaluated as a single point: the same bits, faster)."""
    m, F = Y.shape[1] // 2 - 1, np.empty(Y.shape)
    row = 0 if len(Y) == 1 else slice(None)
    gx, gp, gps = E.gradient(Y[row, :m], Y[row, m + 1:2 * m + 1], Y[row, 2 * m + 1])
    F[:, :m] = gp
    F[:, m] = -gps
    F[:, m + 1:2 * m + 1] = -gx
    F[:, 2 * m + 1] = 0.0
    return F


def _dG_dq(F, m: int) -> np.ndarray:
    """(dG/dp, dG/dp_s) from right-hand sides F = (dG/dp, -dG/dp_s, ...)."""
    gq = F[:, :m + 1].copy()
    gq[:, m] = -gq[:, m]
    return gq


def _project_strip(E: SymbolSurface, X, P, PS, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton-correct the M-momenta of stacked samples to restore G = 0;
    x and p_s are held fixed.  Returns the corrected (P, G).

    Radial rescaling would only scale a homogeneous G, so the correction acts
    along the p-gradient instead, which leaves the projected characteristic
    unchanged to the order of the defect.  Each sample takes up to four
    steps and stops once |G| <= tol / 2 or its p-gradient vanishes.
    """
    P = np.array(P, float)
    G = E.value(X, P, PS)
    todo = np.arange(len(G))
    for _ in range(4):
        todo = todo[~(np.abs(G[todo]) <= 0.5 * tol)]
        if todo.size:
            _, gp, _ = E.gradient(X[todo], P[todo], PS[todo])
            n2 = np.vecdot(gp, gp)
            keep = ~(n2 < 1e-300)
            todo, gp, n2 = todo[keep], gp[keep], n2[keep]
        if not todo.size:
            break
        P[todo] -= (G[todo] / n2)[:, None] * gp
        G[todo] = E.value(X[todo], P[todo], PS[todo])
    return P, G


# ------------------------------------------------------------- the integrator
#
# One explicit Runge-Kutta integrator steps a stack of strips, one row
# (x, s, p, p_s) each, with one stacked symbol gradient per stage.  Adaptive
# mode is the Dormand-Prince 5(4) pair with its quartic interpolant and a
# step size, error norm and accept/reject decision per strip (Hairer, Norsett
# and Wanner, Solving ODEs I, II.4-II.6; Dormand and Prince 1980).  Fixed
# mode is classic RK4 with a cubic continuous extension.  Both repeat the
# floating-point operations of scipy's solve_ivp (method RK45, and RK4 as an
# OdeSolver) one for one, so a strip comes out with the same bits in any
# stack: stage sums are K.transpose(0, 2, 1) @ a, RMS norms
# sqrt(vecdot(v, v)) / sqrt(n), powers of single floats go through libm_pow,
# and an interpolant is one matrix product per strip and step, a
# matrix-vector product when it has one column.

_A45 = [np.array(a) for a in ([1/5], [3/40, 9/40], [44/45, -56/15, 32/9],
                              [19372/6561, -25360/2187, 64448/6561, -212/729],
                              [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656])]
_B45 = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E45 = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P45 = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(v) -> np.ndarray:
    return np.sqrt(np.vecdot(v, v)) / v.shape[-1] ** 0.5


def _step_tries(T, H, retry, t1: float, sign: float):
    """Per row, the step scipy's RK45 tries from time t with |step| H: at
    least 10 ulp of t (a retry is not raised to it), cut to end on t1.
    Returns (t_new, h), h NaN where the step fell below 10 ulp."""
    t_new, h = [], []
    for t, step, again in zip(T.tolist(), H.tolist(), retry.tolist()):
        min_step = 10 * abs(math.nextafter(t, sign * math.inf) - t)
        if not again and step < min_step:
            step = min_step
        end = t + step * sign if step >= min_step else math.nan
        end = t1 if sign * (end - t1) > 0 else end
        t_new.append(end)
        h.append(end - t)
    return np.array(t_new), np.array(h)


def _step_factors(err, retry) -> np.ndarray:
    """Per row, scipy's RK45 step-size factor after a try with error norm
    err: an accepted step (err < 1) grows, at most 10-fold and not at all
    right after a rejected try; a rejected one shrinks, at most 5-fold."""
    out = []
    for e, again in zip(err.tolist(), retry.tolist()):
        if e < 1:
            f = _MAX_FACTOR if e == 0 else min(_MAX_FACTOR, _SAFETY * e ** -0.2)
            out.append(min(1, f) if again else f)
        else:
            out.append(max(_MIN_FACTOR, _SAFETY * e ** -0.2))
    return np.array(out)


def _first_step(E: SymbolSurface, Y, F, span: float, sign: float, rtol: float, atol: float):
    """Per-strip first step size (scipy's select_initial_step, order 4)."""
    scale = atol + np.abs(Y) * rtol
    d0, d1 = _rms(Y / scale), _rms(F / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.where(span < h0, span, h0)
        d2 = _rms((_rhs(E, Y + (h0 * sign)[:, None] * F) - F) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      libm_pow(0.01 / np.where(d2 > d1, d2, d1), 1 / 5))
    return np.minimum(np.minimum(100 * h0, h1), span)


def _rk45_step(E: SymbolSurface, Y, F, h):
    """A Dormand-Prince step of signed size h per row from (Y, F):
    (y_new, K), K[:, 6] the right-hand side at y_new."""
    K, h = np.empty((len(Y), 7, Y.shape[1])), h[:, None]
    Kt = K.transpose(0, 2, 1)
    K[:, 0] = F
    for s, a in enumerate(_A45, start=1):
        K[:, s] = _rhs(E, Y + (Kt[:, :, :s] @ a) * h)
    y_new = Y + h * (Kt[:, :, :6] @ _B45)
    K[:, 6] = _rhs(E, y_new)
    return y_new, K


def _rk4_step(E: SymbolSurface, Y, F, h: float):
    """A classic RK4 step of size h from (Y, F): (y_new, K), K[:, :4] the
    stages and K[:, 4] the right-hand side at y_new."""
    K = np.empty((len(Y), 5, Y.shape[1]))
    K[:, 0] = F
    K[:, 1] = _rhs(E, Y + 0.5 * h * K[:, 0])
    K[:, 2] = _rhs(E, Y + 0.5 * h * K[:, 1])
    K[:, 3] = _rhs(E, Y + h * K[:, 2])
    y_new = Y + (h / 6.0) * (K[:, 0] + 2.0 * K[:, 1] + 2.0 * K[:, 2] + K[:, 3])
    K[:, 4] = _rhs(E, y_new)
    return y_new, K


def _interpolate(K, y_old, t_old, h, taus, fixed: bool, scalar: bool = False):
    """A step's continuous extension y_old + h * (M @ w(theta)) at times
    taus (rows, k), theta = (tau - t_old) / h, from the step's stages K;
    returns (rows, n, k).

    For RK4, M = K[:, :4]^T and w holds the cubic weights; for
    Dormand-Prince, M = K^T P and w = (theta, ..., theta^4).  ``scalar``
    marks one time (an event location), whose RK4 powers scipy takes with
    pow().
    """
    M = K[:, :4].transpose(0, 2, 1) if fixed else K.transpose(0, 2, 1) @ _P45
    th = (taus - t_old[:, None]) / h[:, None]
    if fixed:
        sq, cu = (libm_pow(th, 2), libm_pow(th, 3)) if scalar else (th ** 2, th ** 3)
        b23 = sq - 2.0 * cu / 3.0
        W = np.stack([th - 1.5 * sq + 2.0 * cu / 3.0, b23, b23, -0.5 * sq + 2.0 * cu / 3.0], 1)
    else:
        W = np.cumprod(np.repeat(th[:, None], 4, axis=1), axis=1)
    return y_old[:, :, None] + h[:, None, None] * (M @ W)


def _integrate(E: SymbolSurface, Y0, t0: float, t1: float, tau_eval, integ: IntegratorConfig,
               events=()) -> tuple:
    """Integrate the strips of the state stack Y0, rows (x, s, p, p_s), from
    t0 to t1, sampled at ``tau_eval`` (None: at the steps).

    ``integ.method`` picks Dormand-Prince 5(4) at (rel_tol, abs_tol) or RK4
    in round(|t1 - t0| / dt) equal steps, the last landing exactly on t1.
    Each start is checked as check_start does.  A strip stops at the span
    end, on the chart boundary, at a degenerate (touching) point, or where
    one of the extra terminal ``events(tau, y)`` changes sign; an event is
    located on its step's interpolant with brentq.

    Returns (stops, taus, ys, counts): per strip "span_end", "boundary" or
    "event" (then its last sample is the event point) or the exception that
    ended it, a failed start check or a DegeneracyError at a touching point
    or when the step size underflows; the samples of the strips that did not
    raise, in strip order; and each strip's sample count (0 if it raised).
    An exception raised by the symbol ends the whole call.
    """
    sign = 1.0 if t1 >= t0 else -1.0
    if tau_eval is not None:
        tau_eval = np.asarray(tau_eval, dtype=float)
        if (tau_eval.ndim != 1 or np.any(tau_eval < min(t0, t1))
                or np.any(tau_eval > max(t0, t1)) or np.any(sign * np.diff(tau_eval) <= 0)):
            raise ContractViolation("tau_eval must be a 1-D grid inside tau_span, "
                                    "strictly ordered from its start to its end")
        ahead = sign * tau_eval   # ascending
    fixed, m, n_strips = integ.method == "fixed", E.dim, len(Y0)
    chunks = [(np.zeros(0, int), np.zeros(0), Y0[:0])]   # (strip ids, taus, states) recorded

    def last(i):
        """The last state recorded for strip i (its start if none), and
        whether there is one."""
        for sid, taus, ys in reversed(chunks):
            at = (sid == i).nonzero()[0]
            if at.size:
                return _unpack(E, ys[at[-1]], taus[at[-1]]), True
        return _unpack(E, Y0[i], t0), False

    def event_values(T, Y, F):
        """Per row: the chart clearance, the degeneracy gap and the extras."""
        g = np.empty((len(Y), 2 + len(events)))
        g[:, 0] = E.chart.boundary_clearance(Y[:, :m])
        g[:, 1] = _degeneracy_gap(E, Y[:, m + 1:], _dG_dq(F, m))
        for k, ev in enumerate(events, start=2):
            g[:, k] = [ev(t, y) for t, y in zip(T, Y)]
        return g

    out, F = _start_errors(E, Y0, t0, integ.tol_onshell)
    ids = np.array([i for i, e in enumerate(out) if e is None], dtype=int)
    if tau_eval is None:
        chunks.append((ids, np.full(len(ids), t0), Y0[ids]))
    if t0 == t1:
        out = ["span_end" if e is None else e for e in out]
        ids = ids[:0]
    # the working set: row r is strip ids[r]; a strip's row leaves when it stops
    T, Y, F = np.full(len(ids), t0), Y0[ids], F[ids]
    nxt = np.zeros(len(ids), dtype=int)      # next tau_eval index
    H, retry = np.zeros(len(ids)), np.zeros(len(ids), bool)   # |step| to try, last try failed
    if ids.size:
        Gev = event_values(T, Y, F)
        if fixed:
            n_steps = max(1, int(round(abs(t1 - t0) / integ.dt)))
            h_fix, k_step = (t1 - t0) / n_steps, 0
        else:
            rtol, atol = max(integ.rel_tol, 100 * _EPS), integ.abs_tol
            H = _first_step(E, Y, F, abs(t1 - t0), sign, rtol, atol)

    while ids.size:
        # propose a step per row; acc are the rows that take it
        if fixed:
            k_step += 1
            t_new = np.full(len(ids), t1 if k_step == n_steps else t0 + k_step * h_fix)
            h = np.full(len(ids), h_fix)
            y_new, K = _rk4_step(E, Y, F, h_fix)
            acc = np.arange(len(ids))
        else:
            t_new, h = _step_tries(T, H, retry, t1, sign)
            small = np.isnan(h)
            if small.any():
                for i in ids[small]:
                    out[i] = DegeneracyError(
                        "integration failed: Required step size is less than spacing "
                        "between numbers.", state=last(i)[0])
                ids, T, Y, F, Gev, nxt, H, retry = (
                    a[~small] for a in (ids, T, Y, F, Gev, nxt, H, retry))
                continue
            y_new, K = _rk45_step(E, Y, F, h)
            scale = atol + np.maximum(np.abs(Y), np.abs(y_new)) * rtol
            err = _rms((K.transpose(0, 2, 1) @ _E45) * h[:, None] / scale)
            H = np.abs(h) * _step_factors(err, retry)
            accept = err < 1
            retry, acc = ~accept, accept.nonzero()[0]
            if not acc.size:
                continue
        t_old, y_old, sid, g_old, start = (a.take(acc, axis=0) for a in (T, Y, ids, Gev, nxt))
        t_new, y_new, K, h = (a.take(acc, axis=0) for a in (t_new, y_new, K, h))
        T[acc], Y[acc], F[acc] = t_new, y_new, K[:, -1]   # the last stage starts the next step

        # terminal events: the earliest root on the step's interpolant ends the strip
        g_new = event_values(t_new, y_new, K[:, -1])
        Gev[acc] = g_new
        active = (np.minimum(g_old, g_new) <= 0) & (np.maximum(g_old, g_new) >= 0)
        hit, t_end, y_end = np.full(len(acc), -1), t_new.copy(), y_new.copy()
        for r in active.any(axis=1).nonzero()[0]:
            def sol(tau, r=r):
                return _interpolate(K[r:r + 1], y_old[r:r + 1], t_old[r:r + 1], h[r:r + 1],
                                    np.array([[tau]]), fixed, scalar=True)[:, :, 0]

            def g(tau, k):
                y = sol(tau)
                return event_values([tau], y, _rhs(E, y))[0, k]

            ks = active[r].nonzero()[0]
            roots = np.array([brentq(g, t_old[r], t_new[r], args=(k,), xtol=4 * _EPS,
                                     rtol=4 * _EPS) for k in ks])
            first = np.argsort(sign * roots)[0]
            hit[r], t_end[r], y_end[r] = ks[first], roots[first], sol(roots[first])[0]

        # samples up to the step end, or up to the event
        if tau_eval is None:
            chunks.append((sid, t_end, y_end))
        else:
            upto = np.searchsorted(ahead, t_end if sign > 0 else -t_end, side="right")
            count = upto - start
            # one sample in a step is a matrix-vector product, more a matrix product
            for sub in ((count == 1).nonzero()[0], (count > 1).nonzero()[0]):
                if sub.size:
                    j = start[sub, None] + np.arange(count[sub].max())
                    taus = tau_eval[np.minimum(j, len(tau_eval) - 1)]
                    ys = _interpolate(K[sub], y_old[sub], t_old[sub], h[sub], taus, fixed)
                    keep = j < upto[sub, None]
                    chunks.append((np.repeat(sid[sub], count[sub]), taus[keep],
                                   ys.transpose(0, 2, 1)[keep]))
            nxt[acc] = upto

        stop = (t_new == t1) | (hit >= 0)
        for r in stop.nonzero()[0]:
            i = sid[r]
            if hit[r] < 0:
                out[i] = "span_end"
            elif hit[r] == 1:
                out[i] = DegeneracyError(
                    f"degenerate (touching) point reached near tau = {t_end[r]:.6g}",
                    state=last(i)[0])
            else:
                state, recorded = last(i)
                if not recorded or state.tau != t_end[r]:
                    chunks.append((sid[r:r + 1], t_end[r:r + 1], y_end[r:r + 1]))
                out[i] = "boundary" if hit[r] == 0 else "event"
        if stop.any():
            keep = np.ones(len(ids), bool)
            keep[acc[stop]] = False
            ids, T, Y, F, Gev, nxt, H, retry = (
                a[keep] for a in (ids, T, Y, F, Gev, nxt, H, retry))

    ok = np.array([not isinstance(o, Exception) for o in out], bool)
    sid = np.concatenate([c[0] for c in chunks])
    # a strip with no tau_eval point in its run is its start point
    bare = (ok & (np.bincount(sid, minlength=n_strips) == 0)).nonzero()[0]
    chunks.append((bare, np.full(len(bare), t0), Y0[bare]))
    sid = np.concatenate([c[0] for c in chunks])
    order = np.argsort(sid, kind="stable")
    order = order[ok[sid[order]]]
    taus, ys = (np.concatenate([c[k] for c in chunks])[order] for k in (1, 2))
    return out, taus, ys, np.bincount(sid[order], minlength=n_strips)


def flow_to_event(E: SymbolSurface, init: CharacteristicState, tau_end: float, event,
                  integ: IntegratorConfig) -> CharacteristicState | None:
    """Flow the strip through ``init`` from tau = 0 toward ``tau_end`` until
    ``event(tau, y)`` changes sign, y = (x, s, p, p_s) stacked.

    Returns the (unprojected) state at the event, or None when the span end
    or the chart boundary comes first.
    """
    (stop,), taus, ys, _ = _integrate(E, _pack(init)[None], 0.0, float(tau_end), None, integ,
                                      events=(event,))
    if isinstance(stop, Exception):
        raise stop
    return _unpack(E, ys[-1], taus[-1]) if stop == "event" else None


def action_increment(strip: Strip) -> float:
    """Fiber increment s_end - s_start (never reduced mod the circle period)."""
    if len(strip) == 0:
        raise ContractViolation("empty strip")
    return float(strip.s[-1] - strip.s[0])


@dataclass
class BatchItem:
    strip: Strip | None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _propagate_stack(E: SymbolSurface, inits: Sequence[CharacteristicState], tau_span,
                     integ: IntegratorConfig | None, tau_eval) -> tuple:
    """propagate() over a stack of initial states: one integrator call, one
    projection call.  Returns per strip its stop or the exception that ended
    it, each strip's number of samples, and the samples (taus, X, S, P, PS,
    G) in strip order (None if no strip ran).  When the stacked run raises
    (say, the symbol raises at one strip's state), each state runs on its
    own, so the error reaches only the strips that raise it."""
    try:
        integ = integ or IntegratorConfig()
        t0, t1 = float(tau_span[0]), float(tau_span[1])
        if not (np.isfinite(t0) and np.isfinite(t1)):
            raise ContractViolation("tau_span must be finite")
        if t0 == t1:
            tau_eval = None          # the strip is its start point
        elif tau_eval is None and integ.method != "fixed":   # fixed mode returns its step grid
            tau_eval = np.linspace(t0, t1, integ.n_out)
        stops, taus, ys, counts = _integrate(E, np.array([_pack(s) for s in inits]), t0, t1,
                                             tau_eval, integ)
        samples, m = None, E.dim
        if len(taus):
            X, S, P, PS = ys[:, :m], ys[:, m], ys[:, m + 1:2 * m + 1], ys[:, 2 * m + 1]
            # the projection acts sample by sample, so all strips take one call
            P, G = (P, E.value(X, P, PS)) if t0 == t1 else _project_strip(E, X, P, PS,
                                                                          integ.tol_onshell)
            samples = (taus, X, S, P, PS, G)
    except Exception as exc:  # noqa: BLE001 - per-strip isolation is the contract
        if len(inits) == 1:
            return [exc], np.zeros(1, int), None
        parts = [_propagate_stack(E, [s], tau_span, integ, tau_eval) for s in inits]
        ran = [part[2] for part in parts if part[2] is not None]
        return ([part[0][0] for part in parts], np.concatenate([part[1] for part in parts]),
                tuple(map(np.concatenate, zip(*ran))) if ran else None)
    return stops, counts, samples


def _strip_items(E: SymbolSurface, stops: list, counts, samples) -> list[BatchItem]:
    """Split a stacked run into one BatchItem per strip."""
    parts = (zip(*(np.split(a, np.cumsum(counts)[:-1]) for a in samples)) if samples
             else [()] * len(stops))   # no strip ran
    return [BatchItem(None, stop) if isinstance(stop, Exception)
            else BatchItem(Strip(E, *part, boundary_exit=stop == "boundary"))
            for stop, part in zip(stops, parts)]


def propagate(E: SymbolSurface, init: CharacteristicState, tau_span,
              integ: IntegratorConfig | None = None,
              tau_eval: Sequence[float] | None = None) -> Strip:
    """Integrate a characteristic strip over tau_span.

    Leaving the chart bounds terminates normally with ``boundary_exit`` set;
    a degenerate (touching) point raises DegeneracyError carrying the last
    good state.
    """
    item, = _strip_items(E, *_propagate_stack(E, [init], tau_span, integ, tau_eval))
    if not item.ok:
        raise item.error
    return item.strip


def batch_propagate(E: SymbolSurface, inits: Sequence[CharacteristicState], tau_span,
                    integ: IntegratorConfig | None = None,
                    tau_eval: Sequence[float] | None = None) -> list[BatchItem]:
    """propagate() over a list of initial states, integrated as one stack.

    Failures are carried per item, and an error the symbol raises at one
    strip's state reaches only that item.
    """
    if not inits:
        return []
    return _strip_items(E, *_propagate_stack(E, inits, tau_span, integ, tau_eval))


def sample_onshell(E: SymbolSurface, rng: np.random.Generator, n: int,
                   p_s: float = 1.0, margin: float = 0.0) -> list[CharacteristicState]:
    """Draw random states on {G = 0} inside the chart (p_s gauge fixed).

    For each sample a random interior base point and a random momentum ray
    are drawn and the momentum is slid along a random direction; the first
    root of G along it comes from the shared grid scan.
    """
    out: list[CharacteristicState] = []
    tries = 0
    while len(out) < n and tries < SAMPLE_MAX_TRIES * n:
        tries += 1
        x = E.chart.interior_sample(rng, margin)
        p0 = rng.standard_normal(E.dim)
        d = rng.standard_normal(E.dim)
        d /= np.linalg.norm(d)
        roots, = scan_roots(lambda t, i: E.value(x, p0 + np.multiply.outer(t, d), p_s),
                            _SAMPLE_GRID)
        if not roots:
            continue
        p = p0 + roots[0] * d
        if not E.is_degenerate(x, p, p_s):
            out.append(CharacteristicState(x, 0.0, p, p_s))
    if len(out) < n:
        raise ContractViolation(
            f"could only find {len(out)}/{n} on-shell samples; surface may be empty here")
    return out


def __getattr__(name):
    # benchmarks/tracer.py binds strips.solve_ivp when it installs; scipy loads only then
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
