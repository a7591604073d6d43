"""Rate resolution per rate_source, pinned one point per temperature regime,
the CSV bytes of the shipped presets, and the sweep's root finder."""

import hashlib
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq as scipy_brentq

from phonodec.bec import CondensateParams, beta_of
from phonodec.config import preset_config, validate_config
from phonodec.damping import (
    RegimeWarning,
    gamma_beliaev_asymptotic,
    gamma_integral,
    gamma_landau_high_temperature,
    gamma_landau_low_temperature,
    split_rates,
)
from phonodec.gaussian import GaussianState
from phonodec import _repr, runs
from phonodec.runs import (
    Run,
    brentq,
    rates_report,
    resolve_rate,
    run_sweep,
    run_trajectory,
    to_csv,
    write_csv,
)
from phonodec.three_body import half_life

FALLBACK_FLAG = "no closed form applies; rates from collision integrals"
OUTSIDE_FLAG = (  # asymptotic at the intermediate point
    "thermal_low closed form outside its validity region"
    " (k_B T/mu = 0.0414, hbar w_q/mu = 0.0632)"
)

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
        res = resolve_rate(config, config.condensate, omega)
    warned = any(issubclass(w.category, RegimeWarning) for w in caught)
    return res, warned


def expected_gammas(regime, omega, params):
    """(gamma_beliaev, gamma_landau) from the formula the regime names."""
    if regime == "integral":
        rates = gamma_integral(omega, params)
        return rates.gamma_beliaev, rates.gamma_landau
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
    params = config.condensate
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
    # only the nearest-closed-form rule evaluates a formula outside its
    # region; it warns, and the warning's text is the flag
    outside = source == "asymptotic" and point == "intermediate"
    assert res.flags == (
        (FALLBACK_FLAG,) if fallback else (OUTSIDE_FLAG,) if outside else ()
    )
    assert warned == outside


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
        res = resolve_rate(config, config.condensate)
    assert res.regime == "thermal_low"


# SHA-256 of to_csv for each (preset, overrides, run); output determinism
# is a contract, so a change to the renderer or the numbers must move these.
CSV_SHA256 = {
    "fig1": (
        "fig1", None, run_trajectory,
        "cb8ed8bd9aa08f37e8dfde30d72dcf95c99beb3f62433f247ec9df8fcf39823a",
    ),
    "fig2": (
        "fig2", None, run_sweep,
        "94bb3fa4a1208ec13871a7275143cef65c65c7ee12293e3f931c6d28b32f6170",
    ),
    "fig1_1e5_points": (
        "fig1", {"time_points": 100000}, run_trajectory,
        "2901fdc88e2278fa5c5d253c91cb75f98e755d38b832d2d1ef46750e1844b7b8",
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
    rows = zip(*(column.tolist() for column in run.rows))
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def table_run(table: np.ndarray) -> Run:
    """A trajectory-like run of a 2-D float table, given by its columns."""
    return Run(
        header={"kind": "trajectory", "gamma_per_s": 0.7396522778206445},
        columns=tuple(f"c{i}" for i in range(table.shape[1])),
        rows=tuple(table.T),
    )


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
    run = table_run(table)
    assert to_csv(run) == row_by_row_csv(run)


def edge_table(n_rows: int, n_cols: int) -> np.ndarray:
    """Random float bits in ``n_rows`` rows, starting with EDGE_FLOATS."""
    rng = np.random.default_rng(20)
    table = rng.integers(0, 2**64, size=n_rows * n_cols, dtype=np.uint64).view(np.float64)
    table[: len(EDGE_FLOATS)] = EDGE_FLOATS
    return table.reshape(n_rows, n_cols)


@pytest.mark.parametrize("extra_rows", [0, 1])
def test_table_csv_at_the_small_table_limit_equals_the_kernel(monkeypatch, extra_rows):
    # SMALL_TABLE_CELLS cells go cell by cell, one row more through
    # _repr.write_table; both give the row-by-row reference's bytes
    n_cols = 4
    n_rows = runs.SMALL_TABLE_CELLS // n_cols + extra_rows
    run = table_run(edge_table(n_rows, n_cols))
    calls = []
    write_table = _repr.write_table

    def spy(file, columns):
        calls.append(len(columns) * len(columns[0]))
        write_table(file, columns)

    monkeypatch.setattr(_repr, "write_table", spy)
    assert to_csv(run) == row_by_row_csv(run)
    assert calls == ([n_rows * n_cols] if extra_rows else [])


# to_csv's text, which the benchmark's tracer encodes, against write_csv's
# file: the presets, the 1e5-point fig1, and a table past the small-table
# limit whose row count does not divide the kernel's chunk
WRITTEN_RUNS = {
    "fig1": lambda: run_trajectory(preset_config("fig1")),
    "fig2": lambda: run_sweep(preset_config("fig2")),
    "fig1_1e5_points": lambda: run_trajectory(
        preset_config("fig1", {"time_points": 100000})
    ),
    "edge_floats": lambda: table_run(edge_table(runs.SMALL_TABLE_CELLS // 5 + 3, 5)),
}


@pytest.mark.parametrize("case", sorted(WRITTEN_RUNS))
def test_write_csv_writes_the_bytes_of_to_csv(case, tmp_path):
    run = WRITTEN_RUNS[case]()
    if case == "edge_floats":
        chunk_rows = _repr._CHUNK_CELLS // 5
        assert len(run.rows[0]) > chunk_rows and len(run.rows[0]) % chunk_rows
    path = tmp_path / "x.csv"
    write_csv(run, path)
    assert path.read_bytes() == to_csv(run).encode("utf-8")


def test_writing_a_large_trajectory_holds_less_than_its_text(tmp_path):
    # the kernel writes each chunk as it renders it, so neither the CSV text
    # nor a copy of the table is held whole
    run = run_trajectory(preset_config("fig1", {"time_points": 100000}))
    path = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        write_csv(run, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


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


def test_a_crossing_search_that_does_not_converge_names_the_sweep_keys(monkeypatch):
    def no_convergence(f, a, b, **kwargs):
        raise RuntimeError(f"Failed to converge after {kwargs['maxiter']} iterations.")

    monkeypatch.setattr(runs, "brentq", no_convergence)
    with pytest.raises(RuntimeError) as info:
        run_sweep(preset_config("fig2"))
    # fig2's bracket, one step of 10**(1/19), adds one iteration to the 100
    assert str(info.value) == (
        "sweep_omega_min_rad_per_s, sweep_omega_max_rad_per_s and sweep_points:"
        " Failed to converge after 101 iterations."
    )


def test_an_integral_error_in_the_crossing_search_names_its_keys_once(monkeypatch):
    select = runs.select_regime

    def fails_at_one_frequency(omega_q, *args):
        if np.ndim(omega_q) == 0:  # the crossing search's calls
            raise RuntimeError("collision-integral quadrature did not converge")
        return select(omega_q, *args)

    monkeypatch.setattr(runs, "select_regime", fails_at_one_frequency)
    with pytest.raises(RuntimeError) as info:
        run_sweep(preset_config("fig2"))
    assert str(info.value) == (
        "sweep_omega_min_rad_per_s, sweep_omega_max_rad_per_s and temperature_K:"
        " collision-integral quadrature did not converge"
    )


@pytest.mark.parametrize("source", ["auto", "asymptotic", "integral", "explicit"])
def test_sweep_cells_and_header_values_are_python_scalars(source):
    # a closed form, an integral and an explicit rate all reach the CSV as
    # Python numbers, as a point call's do
    overrides = {"rate_source": source, "sweep_points": 8}
    if source == "explicit":
        overrides["gamma_explicit_per_s"] = 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        run = run_sweep(preset_config("fig2", overrides))
    python = {float, int, str, type(None)}
    assert {type(cell) for row in run.rows for cell in row} <= python
    assert {type(value) for value in run.header.values()} <= python


def bits(res):
    """Every field of a DampingResult, floats by their exact bits."""
    return [
        (type(v).__name__, float(v).hex()) if isinstance(v, float) else v
        for v in (getattr(res, name) for name in res._fields)
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
        for params in config.sweep_condensates:
            batch = resolve_rate(config, params, omegas)
            assert len(batch) == len(omegas)
            for omega, res in zip(omegas, batch):
                assert bits(res) == bits(resolve_rate(config, params, omega))
                regimes.append(res.regime)
    if source == "auto":
        assert Counter(regimes) == AUTO_REGIMES[case]


def resolve_recording(config, params, omega):
    """resolve_rate plus the texts of the RegimeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = resolve_rate(config, params, omega)
    return res, [str(w.message) for w in caught if issubclass(w.category, RegimeWarning)]


@pytest.mark.parametrize("case", ["5nK", "50nK"])
def test_asymptotic_sweep_warns_once_per_frequency_outside_its_region(case):
    # the frequencies outside their closed form's strict region are the ones
    # at which auto falls back to the integrals
    config = preset_config(
        "fig2", {"rate_source": "asymptotic", "temperature_K": BATCH_TEMPERATURES[case]}
    )
    omegas = np.geomspace(
        config.sweep_omega_min_rad_per_s,
        config.sweep_omega_max_rad_per_s,
        config.sweep_points,
    )
    warned = 0
    for params in config.sweep_condensates:
        batch, texts = resolve_recording(config, params, omegas)
        assert texts == [text for res in batch for text in res.flags]
        warned += len(texts)
        for omega, res in zip(omegas, batch):
            alone, alone_texts = resolve_recording(config, params, omega)
            assert bits(res) == bits(alone)
            assert list(res.flags) == alone_texts
    assert warned == AUTO_REGIMES[case]["integral"]


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


@settings(max_examples=25, deadline=None)
@given(density=st.floats(17.0, 22.0).map(lambda exponent: 10.0**exponent))
@example(density=2.0e20)
def test_a_density_sweep_without_speeds_runs_at_the_configured_density(density):
    # the sweep's condensate is the one rates prints, not one rebuilt from
    # its derived speed of sound, whose density rounds differently
    config = preset_config(
        "fig2",
        {
            "speed_of_sound_m_per_s": None,
            "density_per_m3": density,
            "sweep_speeds_of_sound_m_per_s": [],
            "temperature_K": 0.0,
            "sweep_points": 5,
        },
    )
    t_half = half_life(density, config.three_body_l3_m6_per_s)
    report = dict(line.split(maxsplit=1) for line in rates_report(config).splitlines())
    assert report["three_body_half_life_s"] == repr(t_half)
    run = run_sweep(config)
    c_s = config.condensate.speed_of_sound
    assert [row[0] for row in run.rows] == [c_s] * 5
    assert [row[4].hex() for row in run.rows] == [t_half.hex()] * 5
    assert f"truncation_omega_rad_per_s[c_s={c_s!r}]" in run.header


def test_a_density_sweep_with_speeds_runs_at_the_listed_speeds():
    speeds = [6.8e-3, 1.7e-3]
    config = preset_config(
        "fig2",
        {
            "speed_of_sound_m_per_s": None,
            "density_per_m3": 2.0e20,
            "sweep_speeds_of_sound_m_per_s": speeds,
            "sweep_points": 5,
        },
    )
    run = run_sweep(config)
    assert [row[0] for row in run.rows] == [1.7e-3] * 5 + [6.8e-3] * 5
    own = config.condensate
    for row in run.rows:
        density = CondensateParams(
            own.mass, own.scattering_length, own.temperature, speed_of_sound=row[0]
        ).density
        assert row[4] == half_life(density, config.three_body_l3_m6_per_s)
    crossings = [key for key in run.header if key.startswith("truncation_omega")]
    assert crossings == [
        "truncation_omega_rad_per_s[c_s=0.0017]",
        "truncation_omega_rad_per_s[c_s=0.0068]",
    ]


# fig1, fig2 and a density-given fig2 that sweeps its own condensate
VALIDATED = {
    "fig1": ("fig1", None),
    "fig2": ("fig2", None),
    "density": (
        "fig2",
        {
            "speed_of_sound_m_per_s": None,
            "density_per_m3": 2.0e20,
            "sweep_speeds_of_sound_m_per_s": [],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATED))
def test_the_verbs_run_what_validate_config_built_and_build_nothing(case, monkeypatch):
    # the condensates and the initial state are built and checked once, by
    # validate_config; a verb that built one again would raise here
    config = preset_config(*VALIDATED[case])

    def outputs():
        texts = [rates_report(config), to_csv(run_trajectory(config))]
        if config.has_sweep():
            texts.append(to_csv(run_sweep(config)))
        return texts

    expected = outputs()

    def built_again(self):
        raise AssertionError(f"a {type(self).__name__} was built after validation")

    monkeypatch.setattr(CondensateParams, "__post_init__", built_again)
    monkeypatch.setattr(GaussianState, "__post_init__", built_again)
    assert outputs() == expected
