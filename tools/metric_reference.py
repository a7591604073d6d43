"""High-precision reference for the metrics of ``decoherence.metric_trajectory``.

Evaluates the purity mu, the nonclassical depth tau, the squeezing r and the
occupation N on a time grid, and the decoherence timestamps t_min and
t_tau0, for a Gaussian state (purity mu0, squeezing r0, occupation N0)
relaxing at rate gamma toward the thermal state of occupation n_th.  Every
input is taken exactly as the float given.  The formulas are the textbook
ones, with e = e^{-gamma t}, c = 1 - e, mu_inf = 1 / (1 + 2 n_th) and
rho = mu0 / mu_inf:

    mu(t)       = mu0 [e^2 + rho^2 c^2 + 2 rho e c cosh 2r0]^{-1/2}
    tau(t)      = max{[e (1 - (mu_inf/mu0) e^{-2 r0}) + mu_inf - 1] / (2 mu_inf), 0}
    cosh 2r(t)  = mu(t) [e cosh 2r0 / mu0 + c / mu_inf]
    N(t)        = e N0 + c n_th
    t_min       = (1/gamma) ln[(rho + 1/rho - 2 cosh 2r0) / (rho - cosh 2r0)]
                  where cosh 2r0 > max(rho, 1/rho), else none
    t_tau0      = (1/gamma) ln[(1 - (mu_inf/mu0) e^{-2 r0}) / (1 - mu_inf)],
                  0 where tau(0) <= 0, inf where n_th = 0 or gamma = 0

They cancel in 1 - e, in mu_inf - 1 (against 1 when n_th is small and
against e (1 - ...) when it is large) and in 1 - e^{-2 r0} / mu0, so the
working precision is ``DIGITS`` plus the decades of 1 / (gamma t) at the
smallest positive time, of 1 + 2 n_th, of 1 + 1 / (2 n_th) and of 1 / r0.
At fig1, mu_inf - 1 is about -9e-67, so 60 digits alone are not enough.

    python tools/metric_reference.py
    python tools/metric_reference.py MU0 R0 N0 GAMMA N_TH T [T ...]

With no arguments it prints fig1's timestamps (87Rb at 0.5 nK, c_s =
3.4 mm/s, 10 krad/s, r0 = 10); otherwise one line per time (t, mu, tau, r,
N) and then t_min and t_tau0, each to 20 digits.  Uses the standard library
and mpmath only.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from mpmath import mp, mpf

DIGITS = 60

# fig1's (mu0, r0, N0, gamma, n_th) as the program derives them (its
# header's repr values)
FIG1 = (1.0, 10.0, 121291298.35244757, 0.739652485292398, 4.520170340331802e-67)


class Reference(NamedTuple):
    """Per-time rows (mu, tau, r, N) and the timestamps; mpf, t_min None
    when the purity has no interior minimum."""

    rows: list[tuple]
    t_min: object
    t_tau0: object


def _decades(x) -> int:
    return max(0, int(mp.ceil(mp.log10(x))))


def working_digits(r0: float, gamma: float, n_thermal: float, times) -> int:
    """DIGITS plus the decades that the three cancellations can cost."""
    positive = [t for t in times if t > 0]
    digits = DIGITS + _decades(1 + 2 * mpf(n_thermal))
    if n_thermal > 0:
        digits += _decades(1 + 1 / (2 * mpf(n_thermal)))
    if gamma > 0 and positive:
        digits += _decades(1 / (mpf(gamma) * min(positive)))
    if r0 > 0:
        digits += _decades(1 / mpf(r0))
    return digits


def reference(mu0, r0, n0, times, *, gamma, n_thermal) -> Reference:
    """The metrics at each of ``times`` and the two timestamps."""
    with mp.workdps(working_digits(r0, gamma, n_thermal, times)):
        mu0, r0, n0 = mpf(mu0), mpf(r0), mpf(n0)
        gamma, n_th = mpf(gamma), mpf(n_thermal)
        mu_inf = 1 / (1 + 2 * n_th)
        rho = mu0 / mu_inf
        ch = mp.cosh(2 * r0)
        q = mu_inf / mu0 * mp.exp(-2 * r0)
        rows = []
        for t in times:
            e = mp.exp(-gamma * mpf(t))
            c = 1 - e
            mu = mu0 / mp.sqrt(e * e + rho * rho * c * c + 2 * rho * e * c * ch)
            tau = max((e * (1 - q) + mu_inf - 1) / (2 * mu_inf), 0)
            cosh_2r = mu * (e * ch / mu0 + c / mu_inf)
            r = mp.acosh(max(cosh_2r, 1)) / 2
            rows.append((mu, tau, r, e * n0 + c * n_th))
        t_min = None
        if gamma > 0 and ch > max(rho, 1 / rho):
            t_min = mp.log((rho + 1 / rho - 2 * ch) / (rho - ch)) / gamma
        if 1 - mp.exp(-2 * r0) / mu0 <= 0:
            t_tau0 = mpf(0)
        elif n_th == 0 or gamma == 0:
            t_tau0 = mp.inf
        else:
            t_tau0 = mp.log((1 - q) / (1 - mu_inf)) / gamma
        return Reference(rows, t_min, t_tau0)


def main(argv: list[str]) -> int:
    mu0, r0, n0, gamma, n_th, *times = [float(a) for a in argv] or FIG1
    ref = reference(mu0, r0, n0, times, gamma=gamma, n_thermal=n_th)
    for t, row in zip(times, ref.rows):
        print(repr(t), *(mp.nstr(x, 20) for x in row))
    t_min = "none" if ref.t_min is None else mp.nstr(ref.t_min, 20)
    print("t_min", t_min)
    print("t_tau0", mp.nstr(ref.t_tau0, 20))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
