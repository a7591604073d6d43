"""Three-body recombination: condensate density decay and half-life.

The density obeys d rho/dt = -L rho^3 (a first-order decay with
density-dependent rate gamma(t) = L rho^2), solved in closed form.  This
sets the lifetime budget against which the phonon decoherence time is
compared.
"""

from __future__ import annotations

import numpy as np

from .constants import RB87


def decay_rate(n: float, l3: float = RB87.three_body_l3) -> float:
    """Instantaneous loss rate gamma = L3 n^2, in 1/s."""
    if n < 0 or l3 <= 0:
        raise ValueError("density >= 0 and L3 > 0 required")
    return l3 * n * n


def density_decay(n0: float, l3: float, t):
    """Density n(t) = n0 / sqrt(1 + 2 L3 n0^2 t); accepts scalar or array t."""
    if n0 <= 0 or l3 <= 0:
        raise ValueError("density and L3 must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be >= 0")
    out = n0 / np.sqrt(1.0 + 2.0 * l3 * n0 * n0 * t)
    return float(out) if out.ndim == 0 else out


def half_life(n0: float, l3: float = RB87.three_body_l3) -> float:
    """Time for the density to halve: exactly 3 / (2 L3 n0^2).

    Exact because 1 + 2 L3 n0^2 t_half = 4 under the closed-form decay.
    """
    if n0 <= 0 or l3 <= 0:
        raise ValueError("density and L3 must be positive")
    return 3.0 / (2.0 * l3 * n0 * n0)
