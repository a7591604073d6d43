"""The collision integrals against a 40-digit evaluation of the same physics.

The literals are ``tools/integral_reference.py``'s values of G_B and G_L,
the net rates over s = (mu / hbar) sqrt(n a^3) at theta = k_B T / mu and
eps = hbar w / mu: the Bogoliubov energy, its inverse, u/v, the vertices
as products of u and v, and the Bose factors in mpmath, and ``mp.quad``
over [0, x_q] and [0, x_max] for each channel's net rate.  Each quadrature
error estimate is 1.2e-29 relative or smaller.  The points (the tool lists where each comes
from) are those of ``tests/test_pinned_bits.py``, the T = 0 point of
``verify``, a point far below the presets' temperatures, fig1, fig2 at
6.8 mm/s and 1 krad/s, and the rows of ROADMAP's Baseline table where
``auto`` is far from the integral.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

from phonodec.damping import DEFAULT_QUADRATURE, _gamma_integral

TOOL = Path(__file__).resolve().parents[1] / "tools" / "integral_reference.py"

# (theta, eps) -> (G_B, G_L), to 20 digits
REFERENCE = {
    (0.041379067608722356, 0.06321258844774622): ("2.2723005212904460242e-7", "0.000017711371993918909011"),
    (0.016551627043488944, 2.5285035379098484): ("0.73257726491636098978", "0.000025215097943542920709"),
    (4.965488113046683, 0.06321258844774622): ("0.000026260019843460406245", "1.1160774330503426109"),
    (0.0, 0.006321258844774621): ("6.7082605804495539991e-13", "0.0"),
    (0.0033719208030538834, 2.5285035379098484): ("0.73255258832023266543", "2.1257709370917328582e-7"),
    (0.004137906760872236, 0.6321258844774621): ("0.0050190060896675252828", "1.8566326355529155033e-7"),
    (0.001034476690218059, 0.015803147111936554): ("6.7329587373854278496e-11", "3.7041246205799421514e-12"),
    (0.006, 0.03): ("2.2072362855007548416e-9", "4.6057847315058225068e-9"),
    (0.0087, 0.03): ("2.7748911258303218551e-9", "1.8862178511690038421e-8"),
    (0.3333333333333333, 0.03333333333333333): ("1.3665839635171135047e-7", "0.0079798803929715988683"),
    (0.1, 0.01): ("3.3236250902730767603e-10", "0.000071355699757200608756"),
    (0.05, 0.005): ("1.0386984032872925568e-11", "2.883300230937800831e-6"),
    (3.0, 0.3333333333333333): ("0.011250386982011186341", "3.0930586736904709001"),
    (10.0, 0.03333333333333333): ("4.0990694923375604856e-6", "1.2829347644983692359"),
}


@pytest.mark.parametrize("point", sorted(REFERENCE))
def test_scaled_rates_are_within_ten_rel_tol_of_the_reference(point):
    theta, eps = point
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rates = _gamma_integral(theta, np.array([eps]), DEFAULT_QUADRATURE)
    for got, literal in zip(rates, REFERENCE[point]):
        assert got[0] == pytest.approx(
            float(literal), rel=10 * DEFAULT_QUADRATURE.rel_tol, abs=0.0
        )


def test_the_reference_tool_reproduces_its_literals():
    spec = importlib.util.spec_from_file_location("integral_reference", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert set(tool.POINTS) == set(REFERENCE)
    point = tool.POINTS[0]  # 3.4 mm/s, 5 nK, 1 krad/s: both channels open
    beliaev, landau, error_b, error_l = tool.reference_rates(*point)
    assert tool.settled(beliaev, error_b) and tool.settled(landau, error_l)
    with mp.workdps(tool.DIGITS):
        for value, literal in zip((beliaev, landau), REFERENCE[point]):
            assert abs(value / mpf(literal) - 1) < mpf("1e-19")
