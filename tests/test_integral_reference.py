"""The collision integrals against a 40-digit evaluation of the same physics.

The literals are ``tools/integral_reference.py``'s values: dispersion, its
inverse, u/v, the vertices and the Bose factors in mpmath, and ``mp.quad``
over [0, q] and [0, k_max] for each channel's net rate.  Each settled to
about 1e-34 relative (the same points at 55 digits).  The points are those
of ``tests/test_pinned_bits.py``, the T = 0 point of ``verify`` and a point
far below the presets' temperatures.
"""

import importlib.util
from pathlib import Path

import pytest
from mpmath import mp, mpf

from condensates import rb87
from phonodec.damping import DEFAULT_QUADRATURE, gamma_integral

TOOL = Path(__file__).resolve().parents[1] / "tools" / "integral_reference.py"

# (speed of sound m/s, temperature K, mode frequency rad/s) ->
# (gamma_beliaev, gamma_landau) in 1/s, to 20 digits
REFERENCE = {
    (3.4e-3, 5e-9, 1e3): ("0.000025053551093108041404", "0.0019527908347558416751"),
    (1.7e-3, 0.5e-9, 1e4): ("10.096409874192335325", "0.00034751551276298402275"),
    (3.4e-3, 0.6e-6, 1e3): ("0.0028953333535325649905", "123.05459920817207868"),
    (3.4e-3, 0.0, 1e2): ("7.3962817692234905709e-11", "0.0"),
    (1.7e-3, 1.0186070511963128e-10, 1e4): (
        "10.096069780333648739",
        "2.9297462134556517156e-6",
    ),
}


@pytest.mark.parametrize("point", sorted(REFERENCE))
def test_gamma_integral_is_within_ten_rel_tol_of_the_reference(point):
    c_s, temperature, omega = point
    rates = gamma_integral(omega, rb87(temperature, c_s))
    for got, literal in zip(rates, REFERENCE[point]):
        assert got == pytest.approx(
            float(literal), rel=10 * DEFAULT_QUADRATURE.rel_tol, abs=0.0
        )


def test_the_reference_tool_reproduces_its_literals():
    spec = importlib.util.spec_from_file_location("integral_reference", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    point = (3.4e-3, 5e-9, 1e3)  # both channels open, about 1.4 s
    beliaev, landau, error_b, error_l = tool.reference_rates(*point)
    assert tool.settled(beliaev, error_b) and tool.settled(landau, error_l)
    with mp.workdps(tool.DIGITS):
        for value, literal in zip((beliaev, landau), REFERENCE[point]):
            assert abs(value / mpf(literal) - 1) < mpf("1e-19")
