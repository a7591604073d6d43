"""Three-body recombination: condensate loss rate and half-life.

The density obeys d rho/dt = -L rho^3 (a first-order decay with
density-dependent rate gamma(t) = L rho^2), whose closed-form solution
rho0 / sqrt(1 + 2 L rho0^2 t) sets the half-life.  This is the lifetime
budget against which the phonon decoherence time is compared.
"""

from __future__ import annotations


def decay_rate(n: float, l3: float) -> float:
    """Instantaneous loss rate gamma = L3 n^2, in 1/s."""
    if n < 0 or l3 <= 0:
        raise ValueError("density >= 0 and L3 > 0 required")
    return l3 * n * n


def half_life(n0: float, l3: float) -> float:
    """Time for the density to halve: exactly 3 / (2 L3 n0^2).

    Exact because 1 + 2 L3 n0^2 t_half = 4 under the closed-form decay.
    """
    if n0 <= 0 or l3 <= 0:
        raise ValueError("density and L3 must be positive")
    return 3.0 / (2.0 * l3 * n0 * n0)
