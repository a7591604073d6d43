"""Rate resolution per rate_source, pinned one point per temperature regime,
the CSV bytes of the shipped presets, and the sweep's root finder."""

import dataclasses
import hashlib
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq as scipy_brentq

from phonodec.bec import beta_of
from phonodec.config import preset_config, validate_config
from phonodec.damping import (
    RegimeWarning,
    gamma_beliaev_asymptotic,
    gamma_integral,
    gamma_landau_high_temperature,
    gamma_landau_low_temperature,
    split_rates,
)
from phonodec import runs
from phonodec.runs import (
    Run,
    brentq,
    rates_report,
    resolve_rate,
    run_sweep,
    run_trajectory,
    to_csv,
)

FALLBACK_FLAG = "no closed form applies; rates from collision integrals"

# (temperature K, mode frequency rad/s) -> (auto regime, asymptotic regime)
POINTS = {
    "quantum": ((0.5e-9, 1.0e4), "quantum", "quantum"),
    "thermal_high": ((6e-7, 1.0e3), "thermal_high", "thermal_high"),
    "thermal_low": ((3e-9, 50.0), "thermal_low", "thermal_low"),
    # k_B T / hbar w = 0.65: no closed form is strictly valid
    "intermediate": ((5e-9, 1.0e3), "integral", "thermal_low"),
}

CLOSED_FORMS = {
    "quantum": (gamma_beliaev_asymptotic, "gamma_beliaev"),
    "thermal_high": (gamma_landau_high_temperature, "gamma_landau"),
    "thermal_low": (gamma_landau_low_temperature, "gamma_landau"),
}


def scenario(temperature, omega, source, **extra):
    raw = {
        "species": "rb87",
        "speed_of_sound_m_per_s": 3.4e-3,
        "temperature_K": temperature,
        "mode_frequency_rad_per_s": omega,
        "rate_source": source,
        **extra,
    }
    return validate_config(raw)


def resolve_quietly(config, omega=None):
    """resolve_rate plus whether it emitted a RegimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = resolve_rate(config, config.condensate(), omega)
    warned = any(issubclass(w.category, RegimeWarning) for w in caught)
    return res, warned


def expected_gammas(regime, omega, params):
    """(gamma_beliaev, gamma_landau) from the formula the regime names."""
    if regime == "integral":
        rates = gamma_integral(omega, params)
        return rates.gamma_beliaev, rates.gamma_landau
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        fn, channel = CLOSED_FORMS[regime]
        value = fn(omega, params)
    return (value, 0.0) if channel == "gamma_beliaev" else (0.0, value)


def assert_split(res, omega, temperature):
    g1, g2, gt, n_th = split_rates(res.gamma, omega, temperature)
    assert (res.gamma_1, res.gamma_2, res.gamma_total, res.n_thermal) == (
        g1, g2, gt, n_th
    )
    assert res.beta_q == beta_of(omega, temperature)


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("source", ["auto", "asymptotic", "integral"])
def test_resolve_rate_per_source(point, source):
    (temperature, omega), auto_regime, asym_regime = POINTS[point]
    config = scenario(temperature, omega, source)
    params = config.condensate()
    res, warned = resolve_quietly(config)

    regime = {"auto": auto_regime, "asymptotic": asym_regime, "integral": "integral"}[
        source
    ]
    assert res.regime == regime
    gamma_b, gamma_l = expected_gammas(regime, omega, params)
    assert (res.gamma_beliaev, res.gamma_landau) == (gamma_b, gamma_l)
    assert res.gamma == gamma_b + gamma_l
    assert_split(res, omega, temperature)

    fallback = source == "auto" and regime == "integral"
    assert res.flags == ((FALLBACK_FLAG,) if fallback else ())
    # only the nearest-closed-form rule evaluates a formula outside its region
    assert warned == (source == "asymptotic" and point == "intermediate")


@pytest.mark.parametrize("point", sorted(POINTS))
def test_resolve_rate_explicit(point):
    (temperature, omega), _, _ = POINTS[point]
    config = scenario(temperature, omega, "explicit", gamma_explicit_per_s=0.25)
    res, warned = resolve_quietly(config)
    assert res.regime == "explicit"
    assert (res.gamma, res.gamma_beliaev, res.gamma_landau) == (0.25, 0.0, 0.0)
    assert res.flags == ()
    assert not warned
    assert_split(res, omega, temperature)


def test_resolve_rate_frequency_override_matches_config_frequency():
    # the sweep passes each frequency explicitly; that must equal a config at it
    for source in ("auto", "asymptotic"):
        base = scenario(3e-9, 1.0e4, source)
        at_50 = scenario(3e-9, 50.0, source)
        assert resolve_quietly(base, 50.0)[0] == resolve_quietly(at_50)[0]


@pytest.mark.parametrize("point", sorted(POINTS))
def test_flags_follow_regime_in_header_and_rates(point):
    (temperature, omega), auto_regime, _ = POINTS[point]
    config = scenario(temperature, omega, "auto", time_points=3)
    header = list(run_trajectory(config).header.items())
    report = [line.split(maxsplit=1) for line in rates_report(config).splitlines()]
    for lines in (header, report):
        keys = [key for key, _ in lines]
        if auto_regime == "integral":
            assert tuple(lines[keys.index("regime") + 1]) == ("flags", FALLBACK_FLAG)
        else:
            assert "flags" not in keys


def test_asymptotic_outside_region_warns():
    config = scenario(5e-9, 1.0e3, "asymptotic")
    with pytest.warns(RegimeWarning):
        res = resolve_rate(config, config.condensate())
    assert res.regime == "thermal_low"


# SHA-256 of to_csv for each (preset, overrides, run); output determinism
# is a contract, so a change to the renderer or the numbers must move these.
CSV_SHA256 = {
    "fig1": (
        "fig1", None, run_trajectory,
        "ad339cf6f5ba8dc9df5241b857d5111b4297bdb1a72a31188938a988701c063b",
    ),
    "fig2": (
        "fig2", None, run_sweep,
        "94bb3fa4a1208ec13871a7275143cef65c65c7ee12293e3f931c6d28b32f6170",
    ),
    "fig1_1e5_points": (
        "fig1", {"time_points": 100000}, run_trajectory,
        "6f07c92ea1c68831100ac9e23cd24b0b9bca851b5f0bdbdb7628b17dc6f203f7",
    ),
}


@pytest.mark.parametrize("case", sorted(CSV_SHA256))
def test_csv_bytes_are_pinned(case):
    preset, overrides, run, digest = CSV_SHA256[case]
    config = preset_config(preset, overrides)
    assert config.rate_source == "auto"
    text = to_csv(run(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def row_by_row_csv(run: Run) -> str:
    """The reference renderer: one repr-joined line per row."""
    lines = [f"# {key} = {value}" for key, value in run.header.items()]
    lines.append(",".join(run.columns))
    lines.extend(",".join(map(repr, row)) for row in run.rows.tolist())
    return "\n".join(lines) + "\n"


# signed zeros, infinities, nan, the subnormal range, the points where
# repr switches between positional and exponent notation (1e16, 1e-4),
# powers of two whose lower neighbour is half a gap away (1.0, 2**1023), and
# the smallest normal 2**-1022, whose lower neighbour is a full gap away
EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1e16, -1e16,
    9999999999999998.0, 1.0000000000000002e16, 1e-4, 0.00010000000000000002,
    9.999999999999999e-05, 1e-5, -1e-5, 1.7976931348623157e308,
    1.0, 2.0**-1022, 2.0**1023,
]
TABLES = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 40), st.integers(1, 6)),
    elements=st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64)),
)


@settings(max_examples=200, deadline=None)
@given(TABLES)
@example(np.array([EDGE_FLOATS[:6], EDGE_FLOATS[6:12], EDGE_FLOATS[12:18]]))
def test_table_csv_equals_the_row_by_row_reference(table):
    run = Run(
        header={"kind": "trajectory", "gamma_per_s": 0.7396522778206445},
        columns=tuple(f"c{i}" for i in range(table.shape[1])),
        rows=table,
    )
    assert to_csv(run) == row_by_row_csv(run)


# (f, a, b) bracketing problems: polynomial, tanh and exp roots
ROOT_PROBLEMS = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    "quintic_flat": (lambda x: (x - 0.3) ** 5, -1.0, 2.0),
    "tanh_steep": (lambda x: math.tanh(40.0 * (x - 1.234)), 0.0, 5.0),
    "exp": (lambda x: math.exp(x) - 1e3, 0.0, 20.0),
    "exp_tiny": (lambda x: 1e-300 * (math.exp(x) - 2.0), -3.0, 4.0),
}


@pytest.mark.parametrize("rtol", [1e-12, 4 * np.finfo(float).eps, 1e-8])
@pytest.mark.parametrize("name", sorted(ROOT_PROBLEMS))
def test_brentq_is_bit_identical_to_scipy(name, rtol):
    f, a, b = ROOT_PROBLEMS[name]
    for lo, hi in ((a, b), (b, a)):
        root = brentq(f, lo, hi, rtol=rtol)
        assert root.hex() == scipy_brentq(f, lo, hi, rtol=rtol).hex()


def test_brentq_errors_match_scipy():
    f, a, b = ROOT_PROBLEMS["cubic"]
    for call in (brentq, scipy_brentq):
        with pytest.raises(ValueError, match="must have different signs"):
            call(f, 3.0, 4.0)
        with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
            call(f, a, b, maxiter=3)
        with pytest.raises(ValueError, match="rtol too small"):
            call(f, a, b, rtol=1e-17)
        with pytest.raises(ValueError, match="xtol too small"):
            call(f, a, b, xtol=0.0)
        with pytest.raises(ValueError, match="NaN"):
            call(lambda x: math.nan if x > 2.5 else f(x), a, b)
    # an endpoint that is a root is returned without iterating
    assert brentq(lambda x: x - 1.0, 1.0, 2.0, maxiter=0) == 1.0
    assert brentq(lambda x: x - 2.0, 1.0, 2.0, maxiter=0) == 2.0


@pytest.mark.parametrize(
    "overrides", [None, {"rate_source": "integral", "sweep_points": 8}]
)
def test_sweep_crossings_match_scipy_brentq(monkeypatch, overrides):
    config = preset_config("fig2", overrides)
    ported = run_sweep(config).header
    monkeypatch.setattr(runs, "brentq", scipy_brentq)
    reference = run_sweep(config).header
    crossings = [key for key in ported if key.startswith("truncation_omega")]
    assert sum(ported[key] is not None for key in crossings) == 2
    assert ported == reference


def bits(res):
    """Every field of a DampingResult, floats by their exact bits."""
    return [
        (type(v).__name__, float(v).hex()) if isinstance(v, float) else v
        for v in (getattr(res, f.name) for f in dataclasses.fields(res))
    ]


# fig2 at its own temperature (quantum everywhere in auto), at 5 nK (quantum
# and integral points in auto) and at 50 nK (integral and thermal_low)
BATCH_TEMPERATURES = {"fig2": None, "5nK": 5.0e-9, "50nK": 5.0e-8}
AUTO_REGIMES = {
    "fig2": {"quantum": 150},
    "5nK": {"quantum": 99, "integral": 51},
    "50nK": {"integral": 133, "thermal_low": 17},
}


@pytest.mark.parametrize("source", ["auto", "asymptotic", "integral", "explicit"])
@pytest.mark.parametrize("case", sorted(BATCH_TEMPERATURES))
def test_batched_resolve_rate_equals_point_calls_bit_for_bit(case, source):
    overrides = {"rate_source": source}
    if source == "explicit":
        overrides["gamma_explicit_per_s"] = 0.25
    if BATCH_TEMPERATURES[case] is not None:
        overrides["temperature_K"] = BATCH_TEMPERATURES[case]
    config = preset_config("fig2", overrides)
    omegas = np.geomspace(
        config.sweep_omega_min_rad_per_s,
        config.sweep_omega_max_rad_per_s,
        config.sweep_points,
    )
    regimes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for c_s in config.sweep_speeds_of_sound_m_per_s:
            params = config.condensate(speed_of_sound=c_s)
            batch = resolve_rate(config, params, omegas)
            assert len(batch) == len(omegas)
            for omega, res in zip(omegas, batch):
                assert bits(res) == bits(resolve_rate(config, params, omega))
                regimes.append(res.regime)
    if source == "auto":
        assert Counter(regimes) == AUTO_REGIMES[case]


def test_rates_at_a_sweep_frequency_prints_the_sweep_gamma():
    config = preset_config("fig2", {"rate_source": "integral", "temperature_K": 5.0e-9})
    lines = to_csv(run_sweep(config)).splitlines()
    rows = [line.split(",") for line in lines if line[0].isdigit()]
    for c_s, omega, gamma, *_ in rows[7], rows[50 + 31], rows[-1]:
        at_row = preset_config(
            "fig2",
            {
                "rate_source": "integral",
                "temperature_K": 5.0e-9,
                "speed_of_sound_m_per_s": float(c_s),
                "mode_frequency_rad_per_s": float(omega),
            },
        )
        report = dict(line.split(maxsplit=1) for line in rates_report(at_row).splitlines())
        assert report["gamma_per_s"] == gamma
