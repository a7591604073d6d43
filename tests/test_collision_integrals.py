"""The Gauss-Kronrod integrator, and the collision integrals pinned against
the adaptive-quadrature reference.

The values below are ``gamma_integral`` as computed with scalar QUADPACK
quadrature at the default ``quadrature_rel_tol`` (1e-6), at the three
points of ``verify.check_rate_integrals`` (T = 0; 3 nK, also the
``thermal_low`` point of ``test_runs.POINTS``; and 4 uK, its
high-temperature point, which lies above T_c, so no config reaches it and
the pin calls ``gamma_integral`` directly), at the ``intermediate`` point
of ``test_runs.POINTS``, and at five fig2 sweep frequencies per speed of
sound (the 3.4 mm/s, 10 krad/s one is the ``quantum`` point).
Any integrator must reproduce them to that tolerance.
"""

import numpy as np
import pytest

from condensates import rb87
from phonodec.damping import (
    G10_WEIGHTS,
    GK21_NODES,
    GK21_WEIGHTS,
    QuadratureConfig,
    gamma_integral,
    gauss_kronrod,
    quad,
)

REL_TOL = 1e-6

# (speed of sound m/s, temperature K, mode frequency rad/s) ->
# (gamma_beliaev, gamma_landau, gamma_1, gamma_2) in 1/s
PINNED = [
    ((0.0034, 4e-06, 1000.0), (0.019302171388583034, 938.1766269712243, 491784.9644042327, 490846.7684750901)),
    ((0.0034, 3e-09, 50.0), (9.080705898775846e-11, 1.3298510048086022e-05, 0.00011125378271855497, 9.795518186340996e-05)),
    ((0.0034, 5e-09, 1000.0), (2.5053551093051766e-05, 0.0019527908347560415, 0.0025261306344223243, 0.0005482862485732309)),
    ((0.0034, 0.0, 100.0), (7.396281716316423e-11, 0.0, 7.396281716316423e-11, 0.0)),
    ((0.0017, 5e-10, 1000.0), (0.0009244882300050954, 4.833310561133809e-05, 0.0009728215613253249, 2.257088914332324e-10)),
    ((0.0017, 5e-10, 1757.510624854791), (0.01372267866919095, 0.0001115062687150615, 0.013834184937936264, 3.0253563947137824e-14)),
    ((0.0017, 5e-10, 3237.457542817643), (0.21361713694686407, 0.0002304716982258801, 0.21384760864508995, 7.099740030462789e-23)),
    ((0.0017, 5e-10, 5689.866029018293), (1.8778381055988929, 0.00032846230134632654, 1.8781665679002393, 3.3450762051505114e-38)),
    ((0.0017, 5e-10, 10000.0), (10.09640987419881, 0.0003475155127629836, 10.096757389711573, 4.563906328649978e-66)),
    ((0.0034, 5e-10, 1000.0), (7.57838632730047e-06, 4.155923919729497e-07, 7.993980573994332e-06, 1.8547209120621736e-12)),
    ((0.0034, 5e-10, 1757.510624854791), (0.00012353219245238772, 1.104062734684985e-06, 0.00012463625518734529, 2.725632867681354e-16)),
    ((0.0034, 5e-10, 3237.457542817643), (0.002546090075993574, 3.308710723884455e-06, 0.002549398786717458, 8.464003284558966e-25)),
    ((0.0034, 5e-10, 5689.866029018293), (0.039869491779431436, 8.834870129704988e-06, 0.03987832664956114, 7.1024606579916505e-40)),
    ((0.0034, 5e-10, 10000.0), (0.5533771802903827, 2.0470549630265734e-05, 0.553397650840013, 2.501451647736295e-67)),
    ((0.0068, 5e-10, 1000.0), (5.938810439666641e-08, 3.2672254248141907e-09, 6.26553443584408e-08, 1.45369601987901e-14)),
    ((0.0068, 5e-10, 1757.510624854791), (9.742219592168346e-07, 8.769037663290035e-09, 9.829909968822743e-07, 2.149673516514015e-18)),
    ((0.0068, 5e-10, 3237.457542817643), (2.05293254344213e-05, 2.719195185151286e-08, 2.0556517386272813e-05, 6.824763218018629e-27)),
    ((0.0068, 5e-10, 5689.866029018293), (0.00034242175699209106, 7.968339518830566e-08, 0.00034250144038727937, 6.100062891387388e-42)),
    ((0.0068, 5e-10, 10000.0), (0.0056631973211661, 2.3487410451704034e-07, 0.005663432195270617, 2.5599678233542146e-69)),
]


@pytest.mark.parametrize("point, expected", PINNED, ids=[repr(p) for p, _ in PINNED])
def test_gamma_integral_is_pinned(point, expected):
    c_s, temperature, omega = point
    params = rb87(temperature, c_s)
    rates = gamma_integral(omega, params)
    got = (rates.gamma_beliaev, rates.gamma_landau, rates.gamma_1, rates.gamma_2)
    assert got == pytest.approx(expected, rel=REL_TOL, abs=0.0)


def monomial_error(weights, degree):
    exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
    return abs(weights @ GK21_NODES**degree - exact)


def test_gk21_table_exactness():
    assert np.all(np.diff(GK21_NODES) > 0) and np.array_equal(GK21_NODES, -GK21_NODES[::-1])
    assert np.count_nonzero(G10_WEIGHTS) == 10
    # Kronrod: exact through degree 31; Gauss on its 10 nodes: through 19
    for degree in range(32):
        assert monomial_error(GK21_WEIGHTS, degree) < 1e-15, degree
    for degree in range(20):
        assert monomial_error(G10_WEIGHTS, degree) < 1e-15, degree
    assert monomial_error(GK21_WEIGHTS, 32) > 1e-13
    assert monomial_error(G10_WEIGHTS, 20) > 1e-13


# (integrand, lo, hi): smooth, thermal-tail, peaked, endpoint-singular
INTEGRANDS = {
    "poly_exp": (lambda x: x**2 * np.exp(-x), 0.0, 50.0),
    "bose": (lambda x: x**3 / np.expm1(x), 1e-12, 45.0),
    "lorentzian": (lambda x: 1.0 / (1e-4 + x**2), -1.0, 2.0),
    "sqrt": (np.sqrt, 0.0, 1.0),
}


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_gauss_kronrod_agrees_with_quad(name, rel_tol):
    f, lo, hi = INTEGRANDS[name]
    cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=200)
    # two rows on one node array, as the collision integrals use it
    integrand = lambda x, owner: np.stack((f(x), -3.0 * f(x)))
    got = gauss_kronrod(integrand, np.array([lo]), np.array([hi]), cfg)[:, 0]
    reference = quad(
        lambda x: float(f(np.float64(x))), lo, hi, epsabs=0.0, epsrel=1e-13, limit=500
    )[0]
    assert got[0] == pytest.approx(reference, rel=rel_tol, abs=0.0)
    assert got[1] == pytest.approx(-3.0 * reference, rel=rel_tol, abs=0.0)


def test_gauss_kronrod_nan_integrand_is_an_error_not_a_hang():
    cfg = QuadratureConfig(rel_tol=1e-6, max_subdivisions=50)
    with pytest.raises(RuntimeError, match="did not converge"):
        gauss_kronrod(
            lambda x, owner: np.stack((np.full_like(x, np.nan),)),
            np.array([0.0]),
            np.array([1.0]),
            cfg,
        )


# Batches: one call over many intervals or frequencies, with the semantics of
# the calls one at a time (see also tests/test_runs.py for resolve_rate).

from hypothesis import given, settings, strategies as st

from phonodec.cli import main as cli_main

NO_CONVERGENCE = "did not converge to relative tolerance"


def damped_wave(x, decay, wavenumber, curvature):
    """Two smooth integrands per interval, on one node array."""
    base = np.exp(-decay * x) * np.cos(wavenumber * x)
    return np.stack((base + curvature * x * x, base * x))


interval = st.tuples(
    st.floats(-5.0, 5.0),  # lo
    st.floats(-5.0, 5.0),  # hi
    st.floats(0.0, 2.0),  # decay
    st.floats(0.0, 8.0),  # wavenumber
    st.floats(0.1, 3.0),  # curvature
)


@settings(max_examples=60, deadline=None)
@given(st.lists(interval, min_size=1, max_size=12))
def test_batched_gauss_kronrod_equals_single_calls_bit_for_bit(intervals):
    lo, hi, decay, wavenumber, curvature = map(np.array, zip(*intervals))
    cfg = QuadratureConfig(rel_tol=1e-9, max_subdivisions=200)

    def batched(x, owner):
        column = lambda p: p[owner][:, None]
        return damped_wave(x, column(decay), column(wavenumber), column(curvature))

    singles = []
    for a, b, *params in intervals:
        single = lambda x, owner: damped_wave(x, *params)
        try:
            singles.append(gauss_kronrod(single, np.array([a]), np.array([b]), cfg)[:, 0])
        except RuntimeError:  # an integral near 0 that no relative tolerance fits
            with pytest.raises(RuntimeError, match=NO_CONVERGENCE):
                gauss_kronrod(batched, lo, hi, cfg)
            return
    got = gauss_kronrod(batched, lo, hi, cfg)
    assert got.shape == (2, len(intervals))
    for i, single in enumerate(singles):
        assert [v.hex() for v in got[:, i]] == [v.hex() for v in single], i


def lorentzian(width):
    return lambda x, owner: np.stack((width / (width * width + x * x),))


def test_batch_raises_when_one_interval_exceeds_the_cap():
    cfg = QuadratureConfig(rel_tol=1e-6, max_subdivisions=12)
    widths = np.array([1.0, 2.0, 1e-7, 0.5])  # only the third is too sharp
    for width in np.delete(widths, 2):
        gauss_kronrod(lorentzian(width), np.array([-1.0]), np.array([2.0]), cfg)
    with pytest.raises(RuntimeError) as alone:
        gauss_kronrod(lorentzian(widths[2]), np.array([-1.0]), np.array([2.0]), cfg)
    with pytest.raises(RuntimeError) as batch:
        gauss_kronrod(
            lambda x, owner: lorentzian(widths[owner][:, None])(x, owner),
            np.full(4, -1.0),
            np.full(4, 2.0),
            cfg,
        )
    assert str(batch.value) == str(alone.value) == (
        "collision-integral quadrature did not converge to relative tolerance "
        "1e-06 within 12 Gauss-Kronrod panels"
    )


def test_batch_with_one_nan_integrand_ends_at_the_cap():
    cfg = QuadratureConfig(rel_tol=1e-6, max_subdivisions=50)

    def f(x, owner):
        return np.stack((np.where((owner == 2)[:, None], np.nan, x * x),))

    with pytest.raises(RuntimeError, match=NO_CONVERGENCE):
        gauss_kronrod(f, np.zeros(4), np.ones(4), cfg)


@pytest.mark.parametrize("bad", [0.0, -1.0e3])
def test_nonpositive_frequency_anywhere_in_a_batch_is_rejected(bad):
    params = rb87(5e-9, 0.0034)
    omegas = np.array([1.0e3, 2.0e3, bad, 4.0e3])
    with pytest.raises(ValueError, match="frequency must be positive"):
        gamma_integral(omegas, params)


@pytest.mark.parametrize(
    "overlay, message",
    [
        # below the schema's floor of 10 panels
        ({"quadrature_max_subdivisions": 3}, "quadrature_max_subdivisions"),
        # a tolerance under the float resolution, which no panel count meets
        ({"quadrature_rel_tol": 1.0e-16, "quadrature_max_subdivisions": 10}, NO_CONVERGENCE),
    ],
    ids=["cap-3", "tol-1e-16"],
)
def test_integral_sweep_that_cannot_converge_is_one_error_line(
    tmp_path, capsys, overlay, message
):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "rate_source: integral\n" + "".join(f"{k}: {v!r}\n" for k, v in overlay.items())
    )
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--preset", "fig2", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()
