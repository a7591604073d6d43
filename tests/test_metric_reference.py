"""The trajectory's metrics and timestamps against a high-precision evaluation
of the textbook formulas.

``tools/metric_reference.py`` evaluates mu, tau, r, the occupation, t_min and
t_tau0 in mpmath, from the same float inputs the trajectory's header carries,
at enough digits to absorb the cancellations in 1 - e^{-gamma t}, in
mu_inf - 1 and in 1 - e^{-2 r0} / mu0.  The program is run end to end
(``run_trajectory`` over fig1 with overrides) over a grid of mode
frequencies from 1e4 rad/s down to the floor, at T = 0, 0.5 and 50 nK, for
a pure and a mixed state and for squeezings from 0 to 10; under an explicit
rate down to the floor, and at squeezings whose cosh 2r0 nears the float
range; and over fig1 itself at 500 and 200 000 points.

Bounds: mu and the occupation within 1e-15 relative; tau within 1e-15
absolute; t_min and t_tau0 within 1e-13 relative, t_tau0 exactly 0.0 for a
state classical at t = 0 and inf where n_th = 0.  r is ill-conditioned where
cosh 2r -> 1 (an ulp of cosh 2r is about 1.05e-8 of r there), so it is held
only to an absolute 2e-8.
"""

import importlib.util
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

from phonodec.config import preset_config
from phonodec.damping import RegimeWarning
from phonodec.runs import run_trajectory

TOOL = Path(__file__).resolve().parents[1] / "tools" / "metric_reference.py"

MU_REL = OCCUPATION_REL = 1e-15
TAU_ABS = 1e-15
TIME_REL = 1e-13
R_ABS = 2e-8

# fig1's classicality time, to 20 digits
FIG1_T_TAU0 = "205.59858500146211703"

FLOOR = 1.4916681462400413e-154  # the smallest mode frequency the config accepts
OMEGAS = (1e4, 1e2, 1.0, 1e-2, 1e-5, 1e-10, 1e-20, 1e-50, 1e-100, 1e-150, FLOOR)
PURITIES = (1.0, 0.3)
SQUEEZINGS = (0.0, 1e-8, 1.0, 10.0)


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("metric_reference", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trajectory(overrides: dict):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return run_trajectory(preset_config("fig1", overrides))


def assert_near_reference(tool, run, rows=slice(None)) -> None:
    """The run's rows ``rows`` and its timestamps against the reference."""
    header = run.header
    t, mu, tau, r, occupation = (np.asarray(column)[rows] for column in run.rows)
    ref = tool.reference(
        header["initial_purity"],
        header["initial_squeezing"],
        header["initial_occupation"],
        t.tolist(),
        gamma=header["gamma_per_s"],
        n_thermal=header["n_thermal"],
    )
    # float64 images of the reference: they add at most half an ulp
    want_mu, want_tau, want_r, want_occupation = np.array(
        [[float(x) for x in row] for row in ref.rows]
    ).T
    where = f"{header['temperature_K']!r} K, {header['mode_frequency_rad_per_s']!r} rad/s"
    assert np.all(np.abs(mu - want_mu) <= MU_REL * want_mu), where
    assert np.all(np.abs(tau - want_tau) <= TAU_ABS), where
    assert np.all(np.abs(r - want_r) <= R_ABS), where
    assert np.all(
        np.abs(occupation - want_occupation) <= OCCUPATION_REL * want_occupation
    ), where
    assert (header["t_min_s"] is None) == (ref.t_min is None), where
    if ref.t_min is not None:
        assert abs(header["t_min_s"] / ref.t_min - 1) <= TIME_REL, where
    t_tau0 = header["t_tau0_s"]
    if ref.t_tau0 == 0 or ref.t_tau0 == mp.inf:
        assert t_tau0 == float(ref.t_tau0), where
    else:
        assert abs(t_tau0 / ref.t_tau0 - 1) <= TIME_REL, where


@pytest.mark.parametrize("temperature", [0.0, 0.5e-9, 50e-9])
def test_metrics_over_the_frequency_grid_are_within_rounding_of_the_reference(
    tool, temperature
):
    for omega, mu0, r0 in itertools.product(OMEGAS, PURITIES, SQUEEZINGS):
        run = trajectory({
            "temperature_K": temperature,
            "mode_frequency_rad_per_s": omega,
            "initial_purity": mu0,
            "initial_squeezing": r0,
            "rate_source": "asymptotic",  # the integrals fail at low frequency and 50 nK
            "time_points": 9,
        })
        assert_near_reference(tool, run)


@pytest.mark.parametrize("omega", [1e-152, 1e-153, FLOOR])
def test_an_explicit_rate_near_the_frequency_floor_is_within_rounding_of_the_reference(
    tool, omega
):
    # at 0.5 nK n_th passes 6e154 from 1e-153 rad/s down, and (rho c)^2 would
    # leave the float range inside the purity
    run = trajectory({
        "rate_source": "explicit",
        "gamma_explicit_per_s": 0.5,
        "mode_frequency_rad_per_s": omega,
        "time_points": 9,
    })
    assert_near_reference(tool, run)


# cosh 2r0 is 1.5e307 at r0 = 354, 9.0e307 at 354.88 and 5.1e303 at 350
# (where n_th is 1.3e12), and the purity's cross term 2 rho c e cosh 2r0
# would leave the float range
LARGE_SQUEEZINGS = {
    "r0_354": {"initial_squeezing": 354.0},
    "r0_354.88": {"initial_squeezing": 354.88, "time_points": 9},
    "r0_350_mixed": {
        "initial_squeezing": 350.0,
        "initial_purity": 0.01,
        "mode_frequency_rad_per_s": 1e-8,
        "time_points": 9,
    },
}


@pytest.mark.parametrize("name", sorted(LARGE_SQUEEZINGS))
def test_a_squeezing_near_the_float_range_is_within_rounding_of_the_reference(tool, name):
    run = trajectory({
        "temperature_K": 1.0e-7,
        "mode_frequency_rad_per_s": 1.0e3,
        "rate_source": "explicit",
        "gamma_explicit_per_s": 1.0,
        **LARGE_SQUEEZINGS[name],
    })
    assert_near_reference(tool, run)


@pytest.mark.parametrize("points", [500, 200_000])
def test_fig1_is_within_rounding_of_the_reference(tool, points):
    run = trajectory({"time_points": points})
    rows = np.unique(np.r_[0 : min(points, 3001), 0:points:97])
    assert_near_reference(tool, run, rows)


def test_fig1_classicality_time_is_the_reference(tool):
    run = trajectory({})
    assert run.header["t_tau0_s"] == pytest.approx(float(FIG1_T_TAU0), rel=TIME_REL)
    ref = tool.reference(*tool.FIG1[:3], [], gamma=tool.FIG1[3], n_thermal=tool.FIG1[4])
    with mp.workdps(30):
        assert abs(ref.t_tau0 / mpf(FIG1_T_TAU0) - 1) < mpf("1e-19")
    assert tool.FIG1 == tuple(
        run.header[key]
        for key in (
            "initial_purity", "initial_squeezing", "initial_occupation",
            "gamma_per_s", "n_thermal",
        )
    )
