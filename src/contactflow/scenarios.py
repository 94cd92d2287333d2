"""Bundled scenarios: named symbol surfaces with standard charts and data.

Each builder returns a Scenario carrying the symbol surface, a connection
(zero unless stated), and a few canonical initial states used by the test
suite and the command-line runner.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .bundle import (ConnectionData, constant_field_potential, lorentzian_metric,
                     relativistic_scenario)
from .charts import Chart, PolyField, components, stack_last
from .errors import ConfigError
from .operators import PrincipalSymbol, equivariant_reduce, schrodinger_operator
from .strips import CharacteristicState, SymbolSurface


@dataclass
class Scenario:
    name: str
    surface: SymbolSurface
    connection: ConnectionData
    initial_states: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def chart(self) -> Chart:
        return self.surface.chart


def free_scenario(bound: float = 60.0) -> Scenario:
    """Free particle on axes (t, x): G = p_t p_s + p_x^2 / 2."""
    chart = Chart(["t", "x"], [(-bound, bound), (-bound, bound)])

    def value(x, p, p_s):
        p_t, p_x = components(p)
        return p_t * p_s + 0.5 * (p_x * p_x)

    def grad(x, p, p_s):
        p_t, p_x = components(p)
        return np.zeros(x.shape), stack_last([p_s, p_x]), p_t

    E = SymbolSurface(chart, value, 2, grad=grad, name="free")
    # at rest origin: p_x = 0.7, p_t = -p_x^2/2
    inits = [CharacteristicState([0.0, 0.0], 0.0, [-0.245, 0.7], 1.0),
             CharacteristicState([0.0, 1.0], 0.0, [-0.5, -1.0], 1.0)]
    return Scenario("free", E, ConnectionData(chart, [0.0] * chart.dim), inits)


def oscillator_scenario(bound: float = 60.0) -> Scenario:
    """Harmonic oscillator: G = p_t p_s + p_x^2 / 2 + x^2 p_s^2 / 2."""
    chart = Chart(["t", "x"], [(-bound, bound), (-bound, bound)])

    def value(x, p, p_s):
        _, q = components(x)
        p_t, p_x = components(p)
        return p_t * p_s + 0.5 * (p_x * p_x) + 0.5 * (q * q) * (p_s * p_s)

    def grad(x, p, p_s):
        _, q = components(x)
        p_t, p_x = components(p)
        gx = np.zeros(x.shape)
        gx[..., 1] = q * (p_s * p_s)
        return gx, stack_last([p_s, p_x]), p_t + q * q * p_s

    E = SymbolSurface(chart, value, 2, grad=grad, name="oscillator")
    # x(tau) = sin(tau): start at x=0 with p_x=1, energy 1/2
    inits = [CharacteristicState([0.0, 0.0], 0.0, [-0.5, 1.0], 1.0)]
    return Scenario("oscillator", E, ConnectionData(chart, [0.0] * chart.dim), inits)


def eikonal_scenario(bound: float = 40.0) -> Scenario:
    """Isotropic unit-speed eikonal on (x, y): G = |p| - p_s.

    Characteristics are straight rays with |dx/dtau| = 1; fronts move at unit
    speed.  Degenerate exactly at p = 0 (handled by the degeneracy events).
    """
    chart = Chart(["x", "y"], [(-bound, bound), (-bound, bound)])

    def norm(p):   # |p| as sqrt(p_x^2 + p_y^2), in place on stacks (np.hypot calls libm)
        p_x, p_y = components(p)
        n = p_x * p_x
        n += p_y * p_y
        return np.sqrt(n, out=n if p.ndim > 1 else None)

    def value(x, p, p_s):
        n = norm(p)
        return np.subtract(n, p_s, out=n if p.ndim > 1 else None)

    def grad(x, p, p_s):
        n = norm(p)
        return np.zeros(x.shape), p / (n if p.ndim == 1 else n[..., None]), -1.0

    E = SymbolSurface(chart, value, 1, grad=grad, name="eikonal")
    inits = [CharacteristicState([0.0, 0.0], 0.0, [1.0, 0.0], 1.0)]
    return Scenario("eikonal", E, ConnectionData(chart, [0.0] * chart.dim), inits)


def relativistic(mass: float = 1.0, charge: float = 1.0, field_strength: float = 0.0,
                 c: float = 1.0, bound: float = 200.0) -> Scenario:
    """Charged 1+1 relativistic particle in a constant electric field."""
    chart = Chart(["t", "x"], [(-bound, bound), (-bound, bound)])
    em = constant_field_potential(chart, field_strength)
    rel = relativistic_scenario(mass, charge, em, lorentzian_metric(c, 2), chart=chart)
    # at rest at the origin: p = (m c^2, 0), p_s = 1
    inits = [CharacteristicState([0.0, 0.0], 0.0, [mass * c * c, 0.0], 1.0)]
    return Scenario("relativistic", rel.surface, rel.connection, inits,
                    extras={"relativistic": rel})


def schrodinger(mass: float = 1.0, V: "PolyField | dict | float" = 0.0,
                bound: float = 60.0) -> Scenario:
    """Reduced symbol of the Schroedinger operator at fiber weight 1.

    G = p_x^2/(2m) + V(x) p_s^2 + p_s p_t on axes (t, x); the full operator
    on (t, x, s) is kept in extras for the symbol checks.
    """
    u_chart = Chart(["t", "x", "s"], [(-bound, bound)] * 3)
    if isinstance(V, dict):
        V = PolyField(u_chart, {u_chart.multi_index({"x": power}): c for power, c in V.items()})
    D = schrodinger_operator(u_chart, mass=mass, V=V)
    E = equivariant_reduce(PrincipalSymbol(D), 1.0)
    # G is p_t p_s plus terms free of p_t, so p_t = -G(x0, (0, p_x), 1) is on shell
    x0, p_x = [0.0, 0.5], 0.8
    inits = [CharacteristicState(x0, 0.0, [-E.value(x0, [0.0, p_x], 1.0), p_x], 1.0)]
    return Scenario("schrodinger", E, ConnectionData(E.chart, [0.0] * E.chart.dim), inits,
                    extras={"operator": D})


_BUILDERS = {
    "free": free_scenario,
    "oscillator": oscillator_scenario,
    "eikonal": eikonal_scenario,
    "relativistic": relativistic,
    "schrodinger": schrodinger,
}


def builtin(name: str, **kwargs) -> Scenario:
    """The builtin scenario ``name`` built with ``kwargs``.  A refused name or
    argument is a ConfigError whose ``key`` is the scenario block's key at
    fault: ``builtin`` or ``builtin_args.<argument>``."""
    if name not in _BUILDERS:
        raise ConfigError(f"unknown builtin scenario {name!r}; known: {sorted(_BUILDERS)}",
                          key="builtin")
    allowed = list(inspect.signature(_BUILDERS[name]).parameters)
    for arg in kwargs:
        if arg not in allowed:
            raise ConfigError(f"bad arguments for builtin {name!r}: got an unexpected keyword "
                              f"argument {arg!r}; allowed: {allowed}", key=f"builtin_args.{arg}")
    return _BUILDERS[name](**kwargs)
