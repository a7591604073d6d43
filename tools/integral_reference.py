"""High-precision reference for the collision integrals of ``damping._gamma_integral``.

Evaluates G_B and G_L, the net Beliaev (decay) and Landau (collision) rates
of one phonon mode in units of s = (mu / hbar) sqrt(n a^3), at theta =
k_B T / mu and eps = hbar w_q / mu, with every ingredient in mpmath at
``DIGITS`` significant digits: in x = hbar k / (m c_s), the energy
E(x) = x sqrt(1 + x^2 / 4) and its inverse, the group velocity dE/dx, the
coefficients u and v, the cubic vertices b and l as products of u and v,
and the Bose factors.  No species constant enters.  The integrals run with
``mp.quad`` (tanh-sinh) over [0, x_q] for the decay channel and [0, x_max]
for the collision channel, with E(x_max) = 45 theta as in ``damping``;
each interval is cut at a few interior points so that every piece is
smooth.  theta and eps are taken exactly as the floats given.

    python tools/integral_reference.py
    python tools/integral_reference.py 0.041395 0.0632

Prints one line per point: theta and eps, then G_B and G_L, each with its
quadrature error estimate.  A point whose estimate is not below
``SETTLED`` relative is printed with ``unsettled`` and must not be used as
a reference.  Uses the standard library and mpmath only.
"""

from __future__ import annotations

import sys

from mpmath import mp, mpf

DIGITS = 40
SETTLED = mpf("1e-25")  # largest relative quadrature error estimate accepted
THERMAL_CUTOFF = 45  # as damping.THERMAL_CUTOFF

# (theta, eps) pairs.  The first five are the 87Rb points (speed of sound m/s,
# temperature K, mode frequency rad/s) (3.4e-3, 5e-9, 1e3), (1.7e-3, 0.5e-9,
# 1e4), (3.4e-3, 0.6e-6, 1e3), (3.4e-3, 0, 1e2) and (1.7e-3,
# 1.0186070511963128e-10, 1e4) as ``damping.condensate_units`` maps them;
# then fig1 (3.4e-3, 0.5e-9, 1e4) and fig2's (6.8e-3, 0.5e-9, 1e3), mapped
# the same way; then hbar w / mu = 0.03 at k_B T / hbar w = 0.2 and 0.29,
# mu / k_B T = 3, 10 and 20 at k_B T / hbar w = 10, and k_B T / mu = 3 at
# mu / hbar w = 3 and 10 at 30.
POINTS = (
    (0.041379067608722356, 0.06321258844774622),
    (0.016551627043488944, 2.5285035379098484),
    (4.965488113046683, 0.06321258844774622),
    (0.0, 0.006321258844774621),
    (0.0033719208030538834, 2.5285035379098484),
    (0.004137906760872236, 0.6321258844774621),
    (0.001034476690218059, 0.015803147111936554),
    (0.006, 0.03),
    (0.0087, 0.03),
    (1 / 3, 1 / 30),
    (0.1, 0.01),
    (0.05, 0.005),
    (3.0, 1 / 3),
    (10.0, 1 / 30),
)


def reference_rates(theta: float, eps: float):
    """(G_B, G_L, error_B, error_L), as mpf."""
    with mp.workdps(DIGITS):
        t, e_q = mpf(theta), mpf(eps)

        def energy(x):
            return x * mp.sqrt(1 + x * x / 4)

        def momentum(e):
            return mp.sqrt(2 * e * e / (1 + mp.sqrt(1 + e * e)))

        def slope(x):
            return x * (1 + x * x / 2) / energy(x)

        def uv(x):
            e, half = energy(x), x * x / 2 + 1
            return mp.sqrt((half + e) / (2 * e)), -mp.sqrt((half - e) / (2 * e))

        def occupation(e):
            return 1 / mp.expm1(e / t) if t > 0 else mpf(0)

        x_q = momentum(e_q)
        uq, vq = uv(x_q)

        def integrand(x, decay):
            e_k = energy(x)
            e_l = e_q - e_k if decay else e_q + e_k
            if e_l <= 0:
                return mpf(0)
            x_l = momentum(e_l)
            if not abs(x_q - x) <= x_l <= x_q + x:
                return mpf(0)
            uk, vk = uv(x)
            ul, vl = uv(x_l)
            weight = x * x_l / slope(x_l)
            n_k, n_l = occupation(e_k), occupation(e_l)
            if decay:
                b = uq * (uk * ul + vk * ul + uk * vl) + vq * (vk * vl + vk * ul + uk * vl)
                return weight * b**2 * (1 + n_k + n_l)
            l = 2 * (uq * (vk * ul + uk * ul + vk * vl) + vq * (uk * vl + uk * ul + vk * vl))
            return weight * l**2 / 2 * (n_k - n_l)

        prefactor = 4 * mp.sqrt(mp.pi) / x_q
        beliaev, error_b = mp.quad(
            lambda x: integrand(x, True),
            [0, x_q / 4, x_q / 2, 3 * x_q / 4, x_q],
            error=True,
        )
        landau = error_l = mpf(0)
        if t > 0:
            x_max = momentum(THERMAL_CUTOFF * t)
            x_thermal = momentum(t)
            cuts = sorted({mpf(0), x_q, x_max} | {x_thermal * f for f in (mpf("0.1"), 1, 10)})
            cuts = [x for x in cuts if x <= x_max]
            landau, error_l = mp.quad(lambda x: integrand(x, False), cuts, error=True)
        return (
            prefactor * beliaev,
            prefactor * landau,
            prefactor * error_b,
            prefactor * error_l,
        )


def settled(rate, error) -> bool:
    return error <= SETTLED * abs(rate) or rate == 0 == error


def main(argv: list[str]) -> int:
    points = [tuple(map(float, argv))] if argv else POINTS
    for point in points:
        beliaev, landau, error_b, error_l = reference_rates(*point)
        status = "" if settled(beliaev, error_b) and settled(landau, error_l) else "  unsettled"
        print(
            " ".join(repr(x) for x in point),
            mp.nstr(beliaev, 25),
            mp.nstr(error_b, 2),
            mp.nstr(landau, 25),
            mp.nstr(error_l, 2) + status,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
