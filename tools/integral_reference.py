"""High-precision reference for the collision integrals of ``damping.gamma_integral``.

Evaluates the net Beliaev (decay) and Landau (collision) rates of one 87Rb
phonon mode with every ingredient in mpmath at ``DIGITS`` significant
digits: the Bogoliubov dispersion and its inverse, the group velocity, the
coefficients u and v, the cubic vertices b and l, and the Bose factors.
The integrals run with ``mp.quad`` (tanh-sinh) over [0, q] for the decay
channel and [0, k_max] for the collision channel, with k_max the
wavenumber of hbar w = 45 k_B T as in ``damping``; each interval is cut at
a few interior points so that every piece is smooth.  The float inputs
(speed of sound, temperature, frequency, the species constants) are taken
exactly as the floats phonodec reads.

    PYTHONPATH=src python tools/integral_reference.py
    PYTHONPATH=src python tools/integral_reference.py 3.4e-3 5e-9 1e3

Prints one line per point: the speed of sound, temperature and frequency,
then each channel's rate in 1/s and its quadrature error estimate.  A
point whose estimate is not below ``SETTLED`` relative is printed with
``unsettled`` and must not be used as a reference.
Uses the standard library, mpmath and ``phonodec.constants`` only.
"""

from __future__ import annotations

import sys

from mpmath import mp, mpf

from phonodec.constants import HBAR, K_B, RB87

DIGITS = 40
SETTLED = mpf("1e-25")  # largest relative quadrature error estimate accepted
THERMAL_CUTOFF = 45  # as damping.THERMAL_CUTOFF

# (speed of sound m/s, temperature K, mode frequency rad/s)
POINTS = (
    (3.4e-3, 5e-9, 1e3),
    (1.7e-3, 0.5e-9, 1e4),
    (3.4e-3, 0.6e-6, 1e3),
    (3.4e-3, 0.0, 1e2),
    (1.7e-3, 1.0186070511963128e-10, 1e4),
)


def reference_rates(speed_of_sound: float, temperature: float, omega: float):
    """(gamma_beliaev, gamma_landau, error_beliaev, error_landau), as mpf in 1/s."""
    with mp.workdps(DIGITS):
        hbar, k_b = mpf(HBAR), mpf(K_B)
        mass, a = mpf(RB87["mass_kg"]), mpf(RB87["scattering_length_m"])
        c, temp, w_q = mpf(speed_of_sound), mpf(temperature), mpf(omega)
        coupling = 4 * mp.pi * hbar**2 * a / mass
        density = mass * c**2 / coupling
        mu = mass * c**2
        h2m = hbar / (2 * mass)

        def dispersion(k):
            return mp.sqrt((c * k) ** 2 + (h2m * k * k) ** 2)

        def inverse(w):
            return mp.sqrt(2 * w**2 / (c**2 + mp.sqrt(c**4 + (2 * h2m * w) ** 2)))

        def group_velocity(k):
            return k * (c**2 + 2 * h2m**2 * k * k) / dispersion(k)

        def uv(k):
            e = hbar * dispersion(k)
            free = hbar**2 * k * k / (2 * mass)
            return mp.sqrt((free + mu + e) / (2 * e)), -mp.sqrt((free + mu - e) / (2 * e))

        def occupation(w):
            return 1 / mp.expm1(hbar * w / (k_b * temp)) if temp > 0 else mpf(0)

        q = inverse(w_q)
        uq, vq = uv(q)

        def integrand(k, decay):
            w_k = dispersion(k)
            w_l = w_q - w_k if decay else w_q + w_k
            if w_l <= 0:
                return mpf(0)
            k_l = inverse(w_l)
            if not abs(q - k) <= k_l <= q + k:
                return mpf(0)
            uk, vk = uv(k)
            ul, vl = uv(k_l)
            weight = k * k_l / group_velocity(k_l)
            n_k, n_l = occupation(w_k), occupation(w_l)
            if decay:
                b = uq * (uk * ul + vk * ul + uk * vl) + vq * (vk * vl + vk * ul + uk * vl)
                return weight * b**2 * (1 + n_k + n_l)
            l = 2 * (uq * (vk * ul + uk * ul + vk * vl) + vq * (uk * vl + uk * ul + vk * vl))
            return weight * l**2 / 2 * (n_k - n_l)

        prefactor = coupling**2 * density / (2 * mp.pi * hbar**2 * q)
        beliaev, error_b = mp.quad(
            lambda k: integrand(k, True), [0, q / 4, q / 2, 3 * q / 4, q], error=True
        )
        landau = error_l = mpf(0)
        if temp > 0:
            k_max = inverse(THERMAL_CUTOFF * k_b * temp / hbar)
            k_thermal = inverse(k_b * temp / hbar)
            cuts = sorted({mpf(0), q, k_max} | {k_thermal * f for f in (mpf("0.1"), 1, 10)})
            cuts = [k for k in cuts if k <= k_max]
            landau, error_l = mp.quad(lambda k: integrand(k, False), cuts, error=True)
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
            mp.nstr(beliaev, 20),
            mp.nstr(error_b, 2),
            mp.nstr(landau, 20),
            mp.nstr(error_l, 2) + status,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
