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

from .charts import (_EPS, SCAN_BLOCK, Chart, brentq, dot, fd_gradient, lead_dot, libm_pow,
                     scan_roots)
from .errors import ContractViolation, DegeneracyError

#: strips with |p_s| below this are treated as the lightlike class
PS_ZERO_TOL = 1e-12

#: relative finite-difference step for symbols given without a gradient
SYMBOL_FD_STEP = 1e-6

#: sample_onshell gives up after this many draws per requested sample
SAMPLE_MAX_TRIES = 200
_SAMPLE_GRID = np.linspace(-20.0, 20.0, 81)   # momentum offsets it scans for G = 0

_NOT_FINITE = "integration failed: a step's stages are not finite"


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
                 grad: Callable | None = None, name: str = ""):
        self.chart = chart
        self._value = value
        self._grad = grad
        self.degree = int(degree)
        self.name = name
        if self.degree < 1:
            raise ContractViolation("homogeneity degree must be a positive integer")

    @property
    def dim(self) -> int:
        return self.chart.dim

    def value(self, x, p, p_s):
        """G at one point (a float), or at stacked points (an array).

        x and p have shape (..., m) and p_s shape (...); stacks broadcast
        against each other and against single-point arguments.  A stacked
        value may be the array the symbol returned, when that is a float
        array of the stack shape that owns its data and is not p_s: read it,
        never write (_project_strip, which corrects values, copies them).
        """
        x, p, p_s, shape = _symbol_args(x, p, p_s)
        g = self._value(x, p, p_s)
        if shape is None:
            return float(g)
        fresh = type(g) is np.ndarray and g.dtype == float and g.flags.owndata and g is not p_s
        return g if fresh and g.shape == shape else np.array(np.broadcast_to(g, shape), float)

    def gradient(self, x, p, p_s):
        """Return (dG/dx, dG/dp, dG/dp_s), of shapes (..., m), (..., m) and
        (...) at stacked points; dG/dp_s is a float at a single point.  The
        arrays may be views (of the arguments, or read-only broadcasts of a
        partial given below the stack shape): read them, never write.
        """
        x, p, p_s, shape = _symbol_args(x, p, p_s)
        gx, gp, gps = (self._grad or self._fd_gradient)(x, p, p_s)
        if shape is None:
            return np.asarray(gx, float), np.asarray(gp, float), float(gps)
        vec = shape + (self.dim,)
        return _at_shape(gx, vec), _at_shape(gp, vec), _at_shape(gps, shape)

    def _fd_gradient(self, x, p, p_s):
        m = self.dim
        q = np.concatenate([x, p, p_s[..., None]], axis=-1)
        g = fd_gradient(lambda q: self.value(q[..., :m], q[..., m:2 * m], q[..., 2 * m]), q,
                        SYMBOL_FD_STEP * np.maximum(1.0, np.abs(q)))
        return g[..., :m], g[..., m:2 * m], g[..., 2 * m]

    def euler_residual(self, x, p, p_s: float) -> float:
        """Euler homogeneity defect <q, dG/dq> - degree * G (should vanish)."""
        _, gp, gps = self.gradient(x, p, p_s)
        return float(dot(p, gp) + p_s * gps - self.degree * self.value(x, p, p_s))


def _degeneracy_gap(E: SymbolSurface, q, gq) -> np.ndarray:
    """Degeneracy measure minus threshold at stacked covectors q = (p, p_s), gradients
    gq = (dG/dp, dG/dp_s): |gq's non-radial part| - 1e-10 |q|^(degree - 1) (multiplied out),
    negative at a touching point; the same bits with q's and gq's last entries negated."""
    qq, gqq = dot(np.array((q, gq)), q)
    nq = np.sqrt(qq)
    r = gq - (gqq / (nq * nq))[:, None] * q
    return np.sqrt(dot(r, r)) - 1e-10 * math.prod([nq] * (E.degree - 1), start=1.0)


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
    if x.shape[:-1] == p.shape[:-1] == p_s.shape:   # the integrator's stacks
        return x, p, p_s, p_s.shape
    shape = np.broadcast(x[..., 0], p[..., 0], p_s).shape   # faster than broadcast_shapes
    return (_at_shape(x, shape + x.shape[-1:]), _at_shape(p, shape + p.shape[-1:]),
            _at_shape(p_s, shape), shape)


def _at_shape(a, shape) -> np.ndarray:
    """a as a float array of the given shape: a itself if it has that shape,
    a new array filled with it if it is a scalar, else a read-only broadcast
    view."""
    a = np.asarray(a, float)
    return a if a.shape == shape else np.broadcast_to(a, shape) if a.ndim else np.full(shape, a)


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
        for key, zero in (("abs_tol", True), ("dt", False), ("rel_tol", True),
                          ("tol_onshell", False)):
            v = getattr(self, key)
            if not (math.isfinite(v) and (v >= 0 if zero else v > 0)):
                raise ContractViolation(f"{key} must be finite and "
                                        f"{'not negative' if zero else 'positive'}, got {v!r}")
        if not (isinstance(self.n_out, (int, np.integer)) and self.n_out >= 2):
            raise ContractViolation(f"n_out must be an integer of at least 2, got {self.n_out!r}")


@dataclass
class Strip:
    """A sampled characteristic strip."""

    surface: SymbolSurface
    taus: np.ndarray
    x: np.ndarray        # (n, m)
    s: np.ndarray        # (n,)
    p: np.ndarray        # (n, m)
    p_s: np.ndarray      # (n,)
    g_residual: np.ndarray     # (n,) G after the on-shell projection (may view g_raw)
    g_raw: np.ndarray          # (n,) G as integrated, before it
    p_correction: np.ndarray   # (n,) the length of the change it made to p
    boundary_exit: bool = False

    def __len__(self) -> int:
        return len(self.taus)


def _onshell_scale(E: SymbolSurface, p, p_s):
    """max(|(p, p_s)|^degree, 1e-300), at one point or over stacked points."""
    q = np.concatenate([np.asarray(p, float), np.asarray(p_s, float)[..., None]], axis=-1)
    return np.maximum(libm_pow(np.sqrt(dot(q, q)), E.degree), 1e-300)


def check_start(E: SymbolSurface, state: CharacteristicState, tol_onshell: float) -> None:
    """Require a start state on shell (|G| <= tol_onshell * max(1, |(p, p_s)|^degree),
    a NaN or infinite G is off), inside the chart and not degenerate."""
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
    off = ~(np.abs(G) <= tol_onshell * np.where(scale > 1.0, scale, 1.0)) | np.isinf(G)
    ok = ~off & E.chart.contains(X)
    errors = [None if ok[r] else ContractViolation(
        f"initial state is off-shell: G = {G[r]:.3e}" if off[r]
        else f"initial point {X[r]} outside chart bounds") for r in range(len(Y))]
    F = np.full_like(Y, np.nan)
    if ok.any():
        F[ok] = _rhs(E, Y[ok])   # F holds (dG/dp, -dG/dp_s): flip p_s's sign to match
        gap = _degeneracy_gap(E, Y[ok, m + 1:] * np.append(np.ones(m), -1.0), F[ok, :m + 1])
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


def _rhs(E: SymbolSurface, Y, F=None) -> np.ndarray:
    """Strip right-hand sides (dG/dp, -dG/dp_s, -dG/dx, 0) of a state stack, into
    F if given, its last column 0 (one row is a single point: same bits, faster)."""
    m, F = Y.shape[1] // 2 - 1, np.zeros(Y.shape) if F is None else F
    row = 0 if len(Y) == 1 else slice(None)
    gx, gp, gps = E.gradient(Y[row, :m], Y[row, m + 1:2 * m + 1], Y[row, 2 * m + 1])
    F[row, :m], F[row, m], F[row, m + 1:2 * m + 1] = gp, -gps, -gx   # the last column stays 0
    return F


def _project_strip(E: SymbolSurface, X, P, PS, G, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Newton-correct the M-momenta of stacked samples, whose symbol values
    are G, to restore G = 0; x and p_s are held fixed.  Returns the
    corrected (P, G), new arrays.

    Radial rescaling would only scale a homogeneous G, so the correction acts
    along the p-gradient instead, which leaves the projected characteristic
    unchanged to the order of the defect.  Each sample takes up to four
    steps and stops once |G| <= tol / 2 or its p-gradient vanishes.
    """
    P, G = np.array(P, float), np.array(G, float)
    todo = np.arange(len(G))
    for _ in range(4):
        todo = todo[~(np.abs(G[todo]) <= 0.5 * tol)]
        if todo.size:
            _, gp, _ = E.gradient(X[todo], P[todo], PS[todo])
            n2 = dot(gp, gp)
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
# mode is classic RK4 with a cubic continuous extension.  Every sum of
# products (stage sums, error norms, interpolants) adds its terms in index
# order from elementwise * and +, so a strip has the same bits in any stack,
# any layout and under any BLAS kernel or SIMD dispatch.  A step's arrays
# are few and wide, since a one-row stack pays numpy's call overhead per
# array operation: a new stage joins every sum that uses it in one product.

_A45 = [[1/5], [3/40, 9/40], [44/45, -56/15, 32/9],
        [19372/6561, -25360/2187, 64448/6561, -212/729],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]]
_B45 = [35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]
_E45 = [-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]
_P45 = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# _W45[j]: K_j's weights in the stage sums j + 1..5, y_new's and the error estimate's
_W45 = [np.array([(w + [0] * 7)[j] for w in (_A45 + [_B45, _E45])[j:]])[:, None, None]
        for j in range(7)]
_B4 = np.array([1.0, 2.0, 2.0, 1.0])[:, None, None]   # RK4's weights, times 6
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(v) -> np.ndarray:
    return np.sqrt(dot(v, v)) / math.sqrt(v.shape[-1])


def _step_control(T, h, err, retry, t1: float, sign: float):
    """Per row, the next try after a try of signed size h from T with error norm err
    (retry: it followed a rejected try): |h| grows after an accepted try (err < 1),
    at most 10-fold and not right after a rejected try, and shrinks after a rejected
    one (NaN err too), at most 5-fold; at least 10 ulp of T (a retry is not raised to
    it), cut to end on t1.  Returns (t_new, h_new NaN below 10 ulp, retry_new)."""
    f = _SAFETY * libm_pow(np.maximum(err, 5e-324), -0.2)   # err = 0 grows the most
    H = np.abs(h) * np.fmax(np.minimum(f, np.where(retry, 1.0, _MAX_FACTOR)), _MIN_FACTOR)
    retry = ~(err < 1)
    min_step = 10 * np.abs(np.nextafter(T, sign * np.inf) - T)
    step = np.where(retry, H, np.maximum(H, min_step))
    end = np.where(step >= min_step, T + step * sign, np.nan)
    end = (np.minimum if sign > 0 else np.maximum)(end, t1)   # a NaN stays
    return end, end - T, retry


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
    """A Dormand-Prince step of signed size h per row from (Y, F): (y_new, K, e), stages
    K[s] (rows, component), K[6] the RHS at y_new, e the error sum before its factor h."""
    K, h = np.zeros((7,) + Y.shape), h[:, None]
    K[0] = F
    S = _W45[0] * F   # the stage sums, y_new's and the error estimate's
    for s in range(1, 7):
        y = Y + S[s - 1] * h
        S[s:] += _W45[s] * _rhs(E, y, K[s])
    return y, K, S[6]


def _rk4_step(E: SymbolSurface, Y, F, h: float):
    """A classic RK4 step of size h from (Y, F): (y_new, K), stages K[s] of
    shape (rows, component), K[4] the right-hand side at y_new."""
    K = np.zeros((5,) + Y.shape)
    K[0] = F
    _rhs(E, Y + 0.5 * h * K[0], K[1])
    _rhs(E, Y + 0.5 * h * K[1], K[2])
    _rhs(E, Y + h * K[2], K[3])
    y_new = Y + (h / 6.0) * np.add.accumulate(K[:4] * _B4, axis=0)[-1]
    _rhs(E, y_new, K[4])
    return y_new, K


def _interpolate(K, y_old, t_old, h, taus, fixed: bool, out=None):
    """A step's continuous extension y_old + h * sum_j M[j] w_j(theta) at
    times taus, theta = (tau - t_old) / h (k, rows), from its stages K; returns
    (component, k, rows), written into ``out`` if given.  M (4, component,
    row) is K's first four stages with cubic weights w_j for RK4, and K^T P
    with w_j = theta^(j + 1) for Dormand-Prince; lead_dot adds both in index
    order, whole components of at most SCAN_BLOCK values at a time, so a wide
    step stays in cache.  p_s's row skips the sums: _rhs leaves its stage
    column +0.0 and a second weight, theta^2 or theta^2 (1 - 2 theta / 3), is
    not negative on a step, so the sums are +0.0 and the row y_old + 0.0 h."""
    Ks = np.ascontiguousarray(K[:, :, :-1].transpose(0, 2, 1))   # the row axis innermost
    th = (taus - t_old) / h
    sq = th * th
    cu = sq * th
    if fixed:
        c23 = 2.0 * cu / 3.0
        M, W = Ks, (th - 1.5 * sq + c23, sq - c23, sq - c23, -0.5 * sq + c23)
    else:
        M, W = lead_dot(_P45[:, :, None, None], Ks), (th, sq, cu, cu * th)
    n = max(1, SCAN_BLOCK // th.size)
    out = np.empty((K.shape[2],) + th.shape) if out is None else out
    body, y_body = out[:-1], y_old.T[:-1]
    for c in range(0, len(body), n):
        part = lead_dot(W, M[:, c:c + n, None], out=body[c:c + n])
        part *= h
        part += y_body[c:c + n, None]
    np.add(y_old[:, -1], 0.0 * h, out=out[-1])
    return out


def _integrate(E: SymbolSurface, Y0, t0: float, t1: float, tau_eval, integ: IntegratorConfig,
               events=()) -> tuple:
    """Integrate the strips of the state stack Y0, rows (x, s, p, p_s), from
    t0 to t1, sampled at ``tau_eval`` (None, in fixed mode: at the steps).

    ``integ.method`` picks Dormand-Prince 5(4) at (rel_tol, abs_tol) or RK4
    in round(|t1 - t0| / dt) equal steps, the last landing exactly on t1.
    Each start is checked as check_start does.  A strip stops at the span
    end, on the chart boundary, at a degenerate (touching) point, or where
    an extra terminal ``event(T, Y)`` (T (k,), Y (k, 2m + 2)) changes sign;
    a step's events are located on its interpolant by one brentq call.

    Samples go straight into a (component, column, strip) buffer with no
    scratch columns, rows (tau, x, s, p, p_s): column j is tau_eval[j] (with
    no grid, step j), and an event point takes the strip's next column.
    Working row r is slot r; a row that leaves moves its slot past them.  A
    step writes one block of columns, each row only its own; its interpolant
    runs once over the block's columns at the grid's taus, in chunks of at
    most SCAN_BLOCK values.  When every row takes every column of the block,
    the interpolant writes straight into the buffer; else (some row retries,
    or the rows' steps end in different columns) it goes to a scratch block,
    copied under a mask.  Both add the same terms in the same order.

    Returns (stops, samples, counts): per strip "span_end", "boundary" or
    "event" (then its last sample is the event point) or the exception that
    ended it, a failed start check (a NaN G is off shell) or a
    DegeneracyError at a touching point, when the step size underflows (a
    NaN error norm rejects a step; after tries whose stages are not finite
    it says so, and at which tau) or at a fixed step whose stages are not
    finite (its state the strip's last sample, or where it stopped if it has
    none); the samples (tau, x, s, p, p_s) of the strips that did not raise,
    a (2m + 3, n) array in strip order; and each strip's sample count (0 if
    it raised).  An exception that the symbol or an event raises ends the
    whole call, and so does a NaN inside an event's bracket (brentq raises).
    """
    sign = 1.0 if t1 >= t0 else -1.0
    fixed, m, n_strips = integ.method == "fixed", E.dim, len(Y0)
    if fixed:
        n_steps = max(1, int(round(abs(t1 - t0) / integ.dt)))
        h_fix, k_step, n_cols = (t1 - t0) / n_steps, 0, n_steps + 1
    if tau_eval is not None:
        tau_eval = np.asarray(tau_eval, dtype=float)
        if (tau_eval.ndim != 1 or np.any(tau_eval < min(t0, t1))
                or np.any(tau_eval > max(t0, t1)) or np.any(sign * np.diff(tau_eval) <= 0)):
            raise ContractViolation("tau_eval must be a 1-D grid inside tau_span, "
                                    "strictly ordered from its start to its end")
        ahead, n_cols = sign * tau_eval, len(tau_eval) + 1   # ascending; an event point past it
        cols = np.arange(n_cols)[:, None]
    elif not fixed:
        raise ContractViolation("adaptive mode samples a tau_eval grid")
    out, F = _start_errors(E, Y0, t0, integ.tol_onshell)
    slots = np.argsort([e is not None for e in out], kind="stable")   # each buffer slot's strip
    ids = slots[:out.count(None)].copy()
    buf, counts = np.empty((Y0.shape[1] + 1, n_cols, n_strips)), np.zeros(n_strips, int)

    def last(r, tau, y):
        """The last state recorded for working row r (a copy: slots move), else (tau, y)."""
        c = counts[ids[r]] - 1
        return _unpack(E, buf[1:, c, r].copy(), buf[0, c, r]) if c >= 0 else _unpack(E, y, tau)

    def move(order):   # slot j takes the samples of slot order[j] (only slots that change)
        d = np.flatnonzero(order != np.arange(len(order)))
        buf[:, :, d], slots[d] = buf[:, :, order[d]], slots[order[d]]

    def leave(keep):   # the other rows leave the working set, their slots moved past it
        nonlocal ids, T, Y, F, Gev, h, err, retry, nonfinite
        move(np.argsort(~keep, kind="stable"))
        ids, T, Y, F, Gev, h, err, retry, nonfinite = (
            a[keep] for a in (ids, T, Y, F, Gev, h, err, retry, nonfinite))

    def fail(bad, message):   # the rows bad sets end, at their last sample or their T, Y
        for r in bad.nonzero()[0]:   # message may name the row's tau as {tau}
            out[ids[r]] = DegeneracyError(message.format(tau=T[r]), state=last(r, T[r], Y[r]))
        leave(~bad)

    def event_values(T, Y, F):
        """Per row: the chart clearance, the degeneracy gap and the extras."""
        return np.array([E.chart.boundary_clearance(Y[:, :m]),   # F: (dG/dp, -dG/dp_s, ...)
                         _degeneracy_gap(E, Y[:, m + 1:] * flip, F[:, :m + 1]),
                         *(ev(T, Y) for ev in events)]).T

    if tau_eval is None:
        buf[0, 0, :len(ids)], buf[1:, 0, :len(ids)] = t0, Y0[ids].T
        counts[ids] = 1
    if t0 == t1:
        out = ["span_end" if e is None else e for e in out]
        ids = ids[:0]
    # the working set: row r is strip ids[r]; a strip's row leaves when it stops
    T, Y, F, flip = np.full(len(ids), t0), Y0[ids], F[ids], np.append(np.ones(m), -1.0)
    # per row the last try's step, error norm and whether it retried (an error norm 0 after
    # a retry keeps _first_step's step); nonfinite: a try since the last step was not finite
    h, err = np.full(len(ids), h_fix if fixed else 0.0), np.zeros(len(ids))
    retry, nonfinite = np.ones(len(ids), bool), np.zeros(len(ids), bool)
    if ids.size:
        Gev = np.sign(event_values(T, Y, F))   # a step's events: a sign change or a zero
        if not fixed:
            rtol, atol = max(integ.rel_tol, 100 * _EPS), integ.abs_tol
            h = _first_step(E, Y, F, abs(t1 - t0), sign, rtol, atol)

    while ids.size:
        # propose a step per row; acc are the rows that take it
        if fixed:
            k_step += 1
            y_new, K = _rk4_step(E, Y, F, h_fix)
            if np.count_nonzero(np.isfinite(K)) < K.size:   # the rows only on a failure
                bad = ~np.isfinite(K).all(axis=(0, 2))
                fail(bad, _NOT_FINITE)
                y_new, K = y_new[~bad], K[:, ~bad]
            t_new = np.full(len(ids), t1 if k_step == n_steps else t0 + k_step * h_fix)
            acc = np.arange(len(ids))
        else:
            t_new, h_try, retry_try = _step_control(T, h, err, retry, t1, sign)
            small = np.isnan(h_try)
            if np.count_nonzero(small):
                nan = small & nonfinite
                fail(nan, _NOT_FINITE + " (the step size underflowed at tau = {tau:.6g})")
                fail(small[~nan], "integration failed: Required step size is less than "
                                  "spacing between numbers.")
                continue
            h, retry = h_try, retry_try
            y_new, K, e = _rk45_step(E, Y, F, h)
            scale = atol + np.maximum(np.abs(Y), np.abs(y_new)) * rtol
            err = _rms(e * h[:, None] / scale)
            acc = (err < 1).nonzero()[0]
            if acc.size < len(err) and np.count_nonzero(np.isfinite(err)) < len(err):
                nonfinite |= ~np.isfinite(K).all(axis=(0, 2))   # a finite norm: finite stages
            nonfinite[acc] = False
            if not acc.size:
                continue
        part = acc.size < len(ids)   # some rows retry: gather the others (else no copies)
        t_old, y_old, sid, g_old, t_new, y_new, ha = (
            a.take(acc, axis=0) if part else a for a in (T, Y, ids, Gev, t_new, y_new, h))
        Ka = K.take(acc, axis=1) if part else K   # the accepted rows' stages and h

        # terminal events: the earliest root on the step's interpolant ends the strip
        g_new = np.sign(event_values(t_new, y_new, Ka[-1]))
        active = g_old * g_new <= 0   # NaN is never active
        hit, t_end, y_end = np.full(len(acc), -1), t_new, y_new
        erow, ecol = active.nonzero()   # the (row, event) pairs with a sign change in the step
        if erow.size:
            def sol(tau, r):
                return _interpolate(Ka[:, r], y_old[r], t_old[r], ha[r], tau[None], fixed)[:, 0].T

            def g(tau, q):
                y = sol(tau, erow[q])
                return event_values(tau, y, _rhs(E, y))[np.arange(len(q)), ecol[q]]

            roots = brentq(g, t_old[erow], t_new[erow], np.arange(len(erow)), xtol=4 * _EPS,
                           rtol=4 * _EPS)
            # per row the earliest root, the first event on a tie
            order = np.lexsort((sign * roots, erow))
            first = order[np.diff(erow[order], prepend=-1) != 0]
            r, t_end, y_end = erow[first], t_new.copy(), y_new.copy()
            hit[r], t_end[r], y_end[r] = ecol[first], roots[first], sol(roots[first], r)

        # samples up to the step end, or up to the event: working row r takes the columns
        # [start, upto) of slot r (none if it retries), one block of columns for all rows
        start = counts[ids]
        if tau_eval is None:   # no grid: every row takes every (fixed) step, in column k_step
            upto = start + 1
            buf[0, k_step, :len(ids)], buf[1:, k_step, :len(ids)] = t_end, y_end.T
        else:   # at the grid's own taus
            upto = start.copy()
            upto[acc] = np.searchsorted(ahead, sign * t_end, side="right")
            lo, hi = min(start.tolist()), max(upto.tolist())
            block, taus = buf[:, lo:hi, :len(ids)], tau_eval[lo:hi, None]
            into = (start <= cols[lo:hi]) & (cols[lo:hi] < upto)
            if into.size and into.all():   # every row takes every column: written in place
                block[0] = taus
                _interpolate(K, Y, T, h, taus, fixed, out=block[1:])
            elif into.any():   # the entries a row does not take stay quiet and unwritten
                with np.errstate(invalid="ignore", over="ignore"):
                    ys = _interpolate(K, Y, T, h, taus, fixed)
                np.copyto(block[0], taus, where=into)
                np.copyto(block[1:], ys, where=into)
        counts[ids] = upto
        if part:
            T[acc], Y[acc], F[acc], Gev[acc] = t_new, y_new, Ka[-1], g_new
        else:
            T, Y, F, Gev = t_new, y_new, Ka[-1], g_new   # the last stage starts the next step

        stop = ((t_new == t1) | (hit >= 0)).nonzero()[0]
        for r in stop:
            i = sid[r]
            if hit[r] < 0:
                out[i] = "span_end"
            elif hit[r] == 1:
                out[i] = DegeneracyError(
                    f"degenerate (touching) point reached near tau = {t_end[r]:.6g}",
                    state=last(acc[r], t_end[r], y_end[r]))
            else:
                if not counts[i] or buf[0, counts[i] - 1, acc[r]] != t_end[r]:
                    buf[0, counts[i], acc[r]], buf[1:, counts[i], acc[r]] = t_end[r], y_end[r]
                    counts[i] += 1
                out[i] = "boundary" if hit[r] == 0 else "event"
        if stop.size:
            leave(np.isin(np.arange(len(ids)), acc[stop], invert=True))

    ok = np.array([not isinstance(o, Exception) for o in out], bool)
    bare = (ok & (counts == 0)).nonzero()[0]   # no sample in its run (an empty grid): its start
    counts[bare], counts[~ok] = 1, 0
    k = counts.max(initial=0)
    move(np.argsort(slots))   # back in strip order
    buf[0, 0, bare], buf[1:, 0, bare] = t0, Y0[bare].T
    run = buf[:, :k].transpose(0, 2, 1)   # (component, strip, column)
    full = (counts == k).all()   # then the samples are a reshape, else a mask
    return out, (run.reshape(len(run), -1) if full
                 else run[:, np.arange(k) < counts[:, None]]), counts


def flow_to_event(E: SymbolSurface, init: CharacteristicState, tau_end: float, event,
                  integ: IntegratorConfig) -> CharacteristicState | None:
    """Flow the strip through ``init`` from tau = 0 toward ``tau_end`` until
    ``event(T, Y)`` changes sign: T (k,), Y (k, 2m + 2) rows (x, s, p, p_s).

    Returns the (unprojected) state at the event, or None when the span end
    or the chart boundary comes first.  It samples no grid, only the event.
    """
    (stop,), samples, _ = _integrate(E, _pack(init)[None], 0.0, float(tau_end), (), integ,
                                     events=(event,))
    if isinstance(stop, Exception):
        raise stop
    return _unpack(E, samples[1:, -1], samples[0, -1]) if stop == "event" else None


def action_increment(strip: Strip) -> float:
    """The fiber increment s_end - s_start."""
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


def _propagate_stack(E: SymbolSurface, Y0, tau_span, integ: IntegratorConfig | None,
                     tau_eval) -> tuple:
    """propagate() over the packed state stack Y0, rows (x, s, p, p_s): one
    integrator call, one projection call.  Returns per strip its stop or the
    exception that ended it (as _integrate decides, or a DegeneracyError at
    its first sample that the projection leaves off shell), its number of
    samples, and the samples (taus, X, S, P, PS, G, G_raw, dP) of the strips
    that did not raise (None if no strip ran): G after the projection, G_raw
    before it and dP the length of its change to p.  Any exception raised
    ends the call.  With every |G_raw| <= tol_onshell / 2 and every p finite,
    the projection, which would move nothing, and the bound check are
    skipped: G is a read-only view of G_raw, P is the integrator's samples
    as X and PS are, and dP is 0.0, the bits of P - P."""
    integ = integ or IntegratorConfig()
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ContractViolation("tau_span must be finite")
    if t0 == t1:
        tau_eval = ()            # an empty grid: the strip is its start point
    elif tau_eval is None and integ.method != "fixed":   # fixed mode returns its step grid
        tau_eval = np.linspace(t0, t1, integ.n_out)
    stops, run, counts = _integrate(E, Y0, t0, t1, tau_eval, integ)
    if not run.shape[1]:
        return stops, counts, None
    m = E.dim
    taus, X, S, P, PS = run[0], run[1:m + 1].T, run[m + 1], run[m + 2:-1].T, run[-1]
    # the projection acts sample by sample, so all strips take one call
    tol, P0, G_raw = integ.tol_onshell, P, E.value(X, P, PS)
    if (np.abs(G_raw) <= 0.5 * tol).all() and np.isfinite(P).all():   # a NaN G is off
        G = G_raw.view()
        G.flags.writeable = False   # G_raw's memory: a write into G fails, not alters G_raw
        return stops, counts, (taus, X, S, P, PS, G, G_raw, np.zeros(len(taus)))
    P, G = (P, G_raw) if t0 == t1 else _project_strip(E, X, P, PS, G_raw, tol)
    dP = P - P0
    dP = np.sqrt(dot(dP, dP))
    # a sample off shell by the start check's bound (an infinite G too) ends its strip
    off = np.flatnonzero(~(np.abs(G) <= tol))   # the bound's scale only at these
    if off.size:
        bound = tol * np.maximum(_onshell_scale(E, P[off], PS[off]), 1.0)
        rows = np.searchsorted(np.cumsum(counts), off, side="right")
        g = np.abs(G[off])
        for k in np.flatnonzero(~(g <= bound) | (g == np.inf))[::-1]:   # a strip's first wins
            j = off[k]
            stops[rows[k]] = DegeneracyError(
                f"projection failed: |G| = {abs(G[j]):.3e} exceeds the on-shell bound "
                f"{bound[k]:.3e} at tau = {taus[j]:.6g}",
                state=CharacteristicState(X[j], S[j], P[j], PS[j], taus[j]))
        failed = np.array([isinstance(stop, Exception) for stop in stops])
        counts, keep = np.where(failed, 0, counts), np.repeat(~failed, counts)
        taus, X, S, P, PS, G, G_raw, dP = (a[keep] for a in (taus, X, S, P, PS, G, G_raw, dP))
    return stops, counts, (taus, X, S, P, PS, G, G_raw, dP)


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
    item, = _strip_items(E, *_propagate_stack(E, _pack(init)[None], tau_span, integ,
                                                tau_eval))
    if not item.ok:
        raise item.error
    return item.strip


def batch_propagate(E: SymbolSurface, inits: Sequence[CharacteristicState], tau_span,
                    integ: IntegratorConfig | None = None,
                    tau_eval: Sequence[float] | None = None) -> list[BatchItem]:
    """propagate() over a list of initial states, integrated as one stack.

    A strip that ends in a failed start check or a DegeneracyError carries
    it in its item, as propagate would raise it.  An exception that the
    symbol raises at any strip's state, a bad argument, or a NaN met inside
    an event's bracket (brentq's ValueError) reaches the caller.
    """
    if not inits:
        return []
    Y0 = np.array([_pack(s) for s in inits])
    return _strip_items(E, *_propagate_stack(E, Y0, tau_span, integ, tau_eval))


def sample_onshell(E: SymbolSurface, rng: np.random.Generator, n: int,
                   p_s: float = 1.0, margin: float = 0.0) -> list[CharacteristicState]:
    """Draw random states on {G = 0} inside the chart (p_s gauge fixed).

    Each candidate is a random interior base point and a random momentum
    ray, slid along a random direction to the first root of G that the
    shared grid scan finds.  Candidates are drawn in rounds of as many as
    samples are still missing, each round scanned in one call and tested
    for degeneracy in one call, so the states and the generator's state
    are those of drawing and testing one candidate at a time.
    """
    out: list[CharacteristicState] = []
    tries, max_tries = 0, SAMPLE_MAX_TRIES * n
    while len(out) < n and tries < max_tries:
        k = min(n - len(out), max_tries - tries)
        tries += k
        X, P0, D = np.empty((3, k, E.dim))
        for j in range(k):
            X[j] = E.chart.interior_sample(rng, margin)
            P0[j] = rng.standard_normal(E.dim)
            d = rng.standard_normal(E.dim)
            D[j] = d / np.linalg.norm(d)
        roots = scan_roots(lambda t, i: E.value(X[i], P0[i] + t[..., None] * D[i], p_s),
                           _SAMPLE_GRID, k, need=1)
        hit = [j for j in range(k) if roots[j]]
        if not hit:
            continue
        X, P = X[hit], P0[hit] + np.array([roots[j][0] for j in hit])[:, None] * D[hit]
        PS = np.full(len(hit), float(p_s))
        _, gp, gps = E.gradient(X, P, PS)
        gap = _degeneracy_gap(E, np.column_stack([P, PS]), np.column_stack([gp, gps]))
        out += [CharacteristicState(X[r], 0.0, P[r], p_s) for r in np.flatnonzero(~(gap < 0))]
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
