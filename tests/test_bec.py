"""Thermal occupation, parameter duality, the rate scale."""

import math

import pytest

from condensates import rb87
from phonodec.bec import CondensateParams, thermal_occupation
from phonodec.constants import HBAR, K_B


def test_thermal_occupation_exact_points():
    assert thermal_occupation(1e4, 0.0) == 0.0
    # beta = ln 2 gives exactly one quantum
    omega = 1.0
    t_ln2 = HBAR * omega / (K_B * math.log(2.0))
    assert thermal_occupation(omega, t_ln2) == pytest.approx(1.0, rel=1e-12)


def test_thermal_occupation_worked_example():
    beta = HBAR * 1e4 / (K_B * 0.5e-9)
    assert beta == pytest.approx(152.76, rel=1e-3)
    assert thermal_occupation(1e4, 0.5e-9) < 1e-66


def test_density_speed_duality(paper_params):
    # reconstruct from the derived density and recover the speed of sound
    p2 = CondensateParams(
        mass=paper_params.mass,
        scattering_length=paper_params.scattering_length,
        temperature=paper_params.temperature,
        density=paper_params.density,
    )
    assert p2.speed_of_sound == pytest.approx(paper_params.speed_of_sound, rel=1e-12)


def test_derived_density_worked_value(paper_params):
    assert paper_params.density == pytest.approx(3.2e20, rel=0.02)
    assert paper_params.density == pytest.approx(3.244371906994492e20, rel=1e-12)


def test_chemical_potential(paper_params):
    mu = paper_params.chemical_potential
    assert mu == pytest.approx(paper_params.coupling * paper_params.density, rel=1e-12)
    assert mu / HBAR == pytest.approx(1.6e4, rel=0.02)


def test_rate_scale_is_mu_over_hbar_times_the_root_gas_parameter(paper_params):
    p = paper_params
    direct = p.chemical_potential / HBAR * math.sqrt(p.density * p.scattering_length**3)
    assert p.rate_scale == pytest.approx(direct, rel=4e-16)
    assert p.rate_scale == pytest.approx(110.26, rel=1e-4)


def test_params_validation():
    with pytest.raises(ValueError):
        CondensateParams(mass=1e-25, scattering_length=5e-9, temperature=1e-9)
    with pytest.raises(ValueError):
        CondensateParams(
            mass=1e-25, scattering_length=5e-9, temperature=1e-9,
            speed_of_sound=1e-3, density=1e20,
        )
    with pytest.raises(ValueError):
        CondensateParams(
            mass=1e-25, scattering_length=5e-9, temperature=-1e-9,
            speed_of_sound=1e-3,
        )


def test_the_squares_of_the_speed_of_sound_are_products():
    # c_s**2 is libm's pow, which raised OverflowError at 1e200 m/s and is
    # not the correctly rounded square at 5.763 mm/s
    for c in (5.763e-3, 1e200):
        p = rb87(0.0, c)
        assert p.density == p.mass * (c * c) / p.coupling
        assert p.chemical_potential == p.mass * (c * c)
    assert rb87(0.0, 1e200).density == math.inf
