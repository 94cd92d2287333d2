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
from scipy.integrate import DenseOutput, OdeSolver, solve_ivp

from .charts import Chart, fd_gradient, fd_steps, scan_roots
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

    def degeneracy_measure(self, x, p, p_s: float) -> float:
        """Norm of the non-radial part of the momentum gradient.

        Vanishing means the contact hyperplane touches the surface (a point
        the characteristic direction is undefined at).
        """
        _, gp, gps = self.gradient(x, p, p_s)
        q = np.append(np.asarray(p, float), p_s)
        gq = np.append(gp, gps)
        nq = np.linalg.norm(q)
        if nq == 0.0:
            raise ContractViolation("the zero covector is not a contact element")
        radial = (np.dot(gq, q) / nq**2) * q
        return float(np.linalg.norm(gq - radial))

    def degeneracy_threshold(self, p, p_s: float) -> float:
        q = np.append(np.asarray(p, float), p_s)
        return 1e-10 * np.linalg.norm(q) ** (self.degree - 1)

    def is_degenerate(self, x, p, p_s: float) -> bool:
        return self.degeneracy_measure(x, p, p_s) < self.degeneracy_threshold(p, p_s)


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

    def velocity(self, i: int) -> np.ndarray:
        """Strip velocity (dx/dtau, ds/dtau) at sample i."""
        _, gp, gps = self.surface.gradient(self.x[i], self.p[i], self.p_s[i])
        return np.append(gp, -gps)


def _onshell_scale(E: SymbolSurface, p, p_s) -> float:
    return max(np.linalg.norm(np.append(p, p_s)) ** E.degree, 1e-300)


def check_start(E: SymbolSurface, state: CharacteristicState, tol_onshell: float) -> float:
    """Require a start state on shell (|G| <= tol_onshell * max(1, |(p, p_s)|^degree)),
    inside the chart and not degenerate; returns G there."""
    g = E.value(state.x, state.p, state.p_s)
    if abs(g) > tol_onshell * max(1.0, _onshell_scale(E, state.p, state.p_s)):
        raise ContractViolation(f"initial state is off-shell: G = {g:.3e}")
    if not E.chart.contains(state.x):
        raise ContractViolation(f"initial point {state.x} outside chart bounds")
    if E.is_degenerate(state.x, state.p, state.p_s):
        raise DegeneracyError("initial state is a degenerate (touching) point",
                              state=state)
    return g


def _pack(state: CharacteristicState) -> np.ndarray:
    return np.concatenate([state.x, [state.s], state.p, [state.p_s]])


def _unpack(E: SymbolSurface, y, tau: float) -> CharacteristicState:
    m = E.dim
    return CharacteristicState(y[:m], y[m], y[m + 1:2 * m + 1], y[2 * m + 1], tau)


def _rhs(E: SymbolSurface):
    m = E.dim

    def f(tau, y):
        gx, gp, gps = E.gradient(y[:m], y[m + 1:2 * m + 1], y[2 * m + 1])
        return np.concatenate([gp, [-gps], -gx, [0.0]])

    return f


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


def propagate(E: SymbolSurface, init: CharacteristicState, tau_span,
              integ: IntegratorConfig | None = None,
              tau_eval: Sequence[float] | None = None) -> Strip:
    """Integrate a characteristic strip over tau_span.

    Leaving the chart bounds terminates normally with ``boundary_exit`` set;
    a degenerate (touching) point raises DegeneracyError carrying the last
    good state.
    """
    integ = integ or IntegratorConfig()
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ContractViolation("tau_span must be finite")
    g0 = check_start(E, init, integ.tol_onshell)

    if t0 == t1:
        y = _pack(init)
        return Strip(E, np.array([t0]), y[None, :E.dim], np.array([init.s]),
                     y[None, E.dim + 1:2 * E.dim + 1], np.array([init.p_s]),
                     np.array([g0]))

    if tau_eval is not None:
        tau_eval = np.asarray(tau_eval, dtype=float)
    elif integ.method != "fixed":   # fixed mode returns its step grid
        tau_eval = np.linspace(t0, t1, integ.n_out)
    taus, ys, stop = _integrate(E, _pack(init), t0, t1, tau_eval, integ)

    m = E.dim
    ys = np.array(ys)
    X, S, PS = ys[:, :m], ys[:, m], ys[:, 2 * m + 1]
    P, G = _project_strip(E, X, ys[:, m + 1:2 * m + 1], PS, integ.tol_onshell)
    return Strip(E, np.asarray(taus), X, S, P, PS, G, boundary_exit=stop == "boundary")


class _RK4Dense(DenseOutput):
    """Third-order continuous extension of one classic RK4 step."""

    def __init__(self, t_old, t, h, y_old, K):
        super().__init__(t_old, t)
        self.h, self.y_old, self.K = h, y_old, K

    def _call_impl(self, t):
        th = (np.asarray(t) - self.t_old) / self.h
        b23 = th**2 - 2.0 * th**3 / 3.0
        B = np.array([th - 1.5 * th**2 + 2.0 * th**3 / 3.0, b23, b23,
                      -0.5 * th**2 + 2.0 * th**3 / 3.0])
        y = self.y_old if B.ndim == 1 else self.y_old[:, None]
        return y + self.h * (self.K.T @ B)


class _RK4(OdeSolver):
    """Classic RK4 in round(|t1 - t0| / dt) equal steps, the last landing
    exactly on t1; bitwise reproducible."""

    def __init__(self, fun, t0, y0, t_bound, vectorized, dt):
        super().__init__(fun, t0, y0, t_bound, vectorized)
        self.n_steps = max(1, int(round(abs(t_bound - t0) / dt)))
        self.h = (t_bound - t0) / self.n_steps
        self.t_start = t0
        self.k = 0

    def _step_impl(self):
        f, h, tau, y = self.fun, self.h, self.t, self.y
        k1 = f(tau, y)
        k2 = f(tau + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(tau + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(tau + h, y + h * k3)
        self.y_old, self.K = y, np.array([k1, k2, k3, k4])
        self.y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        self.k += 1
        self.t = self.t_bound if self.k == self.n_steps else self.t_start + self.k * h
        return True, None

    def _dense_output_impl(self):
        return _RK4Dense(self.t_old, self.t, self.h, self.y_old, self.K)


def _integrate(E, y0, t0, t1, tau_eval, integ, events=()):
    """Integrate from y0 over (t0, t1), sampled at ``tau_eval`` (None: at the
    solver steps), stopped by the chart boundary, a degenerate point (raises
    DegeneracyError) or one of the extra terminal ``events``.

    ``integ.method`` picks RK45 at (rel_tol, abs_tol) or RK4 at step dt.
    Returns (taus, ys, stop) with stop one of "span_end", "boundary" or
    "event"; on a stop by an event the last sample is the event point.
    """
    if integ.method == "adaptive":
        method, options = "RK45", {"rtol": integ.rel_tol, "atol": integ.abs_tol}
    elif integ.method == "fixed":
        method, options = _RK4, {"dt": integ.dt}
    else:
        raise ContractViolation(f"unknown integrator method {integ.method!r}")

    def bounds_event(tau, y):
        return E.chart.boundary_clearance(y[:E.dim])

    bounds_event.terminal = True

    def degeneracy_event(tau, y):
        m = E.dim
        p, ps = y[m + 1:2 * m + 1], y[2 * m + 1]
        return E.degeneracy_measure(y[:m], p, ps) - E.degeneracy_threshold(p, ps)

    degeneracy_event.terminal = True

    sol = solve_ivp(_rhs(E), (t0, t1), y0, method=method, t_eval=tau_eval,
                    events=[bounds_event, degeneracy_event, *events], **options)
    if not sol.success and sol.status != 1:
        raise DegeneracyError(f"integration failed: {sol.message}",
                              state=_unpack(E, sol.y[:, -1] if sol.y.size else y0,
                                            sol.t[-1] if sol.t.size else t0))
    stop = "span_end"
    taus = list(sol.t)
    ys = list(sol.y.T)
    if sol.status == 1:  # a terminal event fired
        k = next(k for k, t in enumerate(sol.t_events) if t.size)
        if k == 1:
            last = (_unpack(E, ys[-1], taus[-1]) if ys
                    else _unpack(E, y0, t0))
            raise DegeneracyError(
                f"degenerate (touching) point reached near tau = {sol.t_events[1][0]:.6g}",
                state=last)
        stop = "boundary" if k == 0 else "event"
        t_event = float(sol.t_events[k][0])
        if not taus or taus[-1] != t_event:   # on the step grid it is there already
            taus.append(t_event)
            ys.append(sol.y_events[k][0])
    if not taus:
        taus = [t0]
        ys = [y0]
    return np.asarray(taus), ys, stop


def flow_to_event(E: SymbolSurface, init: CharacteristicState, tau_end: float, event,
                  integ: IntegratorConfig) -> CharacteristicState | None:
    """Flow the strip through ``init`` from tau = 0 toward ``tau_end`` until the
    terminal ``event(tau, y)`` fires, y = (x, s, p, p_s) stacked.

    Returns the (unprojected) state at the event, or None when the span end
    or the chart boundary comes first.
    """
    taus, ys, stop = _integrate(E, _pack(init), 0.0, tau_end, None, integ,
                                events=(event,))
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


def batch_propagate(E: SymbolSurface, inits: Sequence[CharacteristicState], tau_span,
                    integ: IntegratorConfig | None = None,
                    tau_eval: Sequence[float] | None = None) -> list[BatchItem]:
    """propagate() over a list of initial states; failures are carried per item."""
    out = []
    for init in inits:
        try:
            out.append(BatchItem(propagate(E, init, tau_span, integ, tau_eval)))
        except Exception as exc:  # noqa: BLE001 - per-item isolation is the contract
            out.append(BatchItem(None, exc))
    return out


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
        roots = scan_roots(lambda t: E.value(x, p0 + np.multiply.outer(t, d), p_s),
                           _SAMPLE_GRID)
        if not roots:
            continue
        p = p0 + roots[0] * d
        state = CharacteristicState(x, 0.0, p, p_s)
        if E.is_degenerate(x, p, p_s):
            continue
        out.append(state)
    if len(out) < n:
        raise ContractViolation(
            f"could only find {len(out)}/{n} on-shell samples; surface may be empty here")
    return out
