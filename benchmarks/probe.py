"""Host-speed probe: a fixed piece of scipy work timed next to the timed work.

On a shared host other tenants slow every process by up to a half, for
minutes at a time: the same front op took 1.6 s in one run and 2.9 s in a
run a minute later.  The probe integrates a harmonic oscillator with
``solve_ivp`` and finds roots with ``brentq``, the primitives contactflow
is built on, but it calls no contactflow code, so it slows with the host
and not with a change to the program.  The benchmark times it in the same
process as the work it measures and reports times scaled by
``NOMINAL_S / median probe time``: figures read as on a host where one
probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

#: the probe time that scaled figures assume
NOMINAL_S = 0.1


def _rhs(t, y):
    return np.array([y[1], -y[0]])


def probe():
    """Seconds one run of the probe takes."""
    t = time.perf_counter()
    solve_ivp(_rhs, (0.0, 60.0), [0.0, 1.0], rtol=1e-10, atol=1e-12)
    for k in range(40):
        brentq(lambda u: np.cos(u) - 0.05 * k * u, 0.0, 3.0)
    return time.perf_counter() - t


def scale(times):
    """Factor that turns times measured next to these probe times into
    times on the nominal host.

    The host switches between a fast and a slow state every few seconds, so
    probe times fall into two clusters; their mean follows the share of time
    spent slow, where a median would jump from one cluster to the other.
    """
    return NOMINAL_S / statistics.fmean(times)
