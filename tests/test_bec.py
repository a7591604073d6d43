"""Dispersion, Bogoliubov coefficients, thermal occupation, parameter duality."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from phonodec.bec import (
    CondensateParams,
    bogoliubov_uv,
    dispersion,
    group_velocity,
    invert_dispersion,
    thermal_occupation,
)
from phonodec.constants import HBAR, K_B


def test_phonon_limit(paper_params):
    # omega -> c_s k for hbar k << m c_s
    k = 1e-3 * paper_params.mass * paper_params.speed_of_sound / HBAR
    omega = dispersion(k, paper_params)
    assert omega / (paper_params.speed_of_sound * k) == pytest.approx(1.0, abs=1e-3)


def test_free_particle_limit(paper_params):
    k = 1e3 * paper_params.mass * paper_params.speed_of_sound / HBAR
    omega = dispersion(k, paper_params)
    free = HBAR * k * k / (2 * paper_params.mass)
    assert omega / free == pytest.approx(1.0, abs=1e-3)


def test_dispersion_worked_value():
    # spec-sheet mass value; the free-particle term contributes ~5% here
    p = CondensateParams(
        mass=1.4432e-25, scattering_length=5.31e-9,
        temperature=0.5e-9, speed_of_sound=3.4e-3,
    )
    omega = dispersion(2.94e6, p)
    assert omega == pytest.approx(10482.990037499592, rel=1e-12)
    assert omega == pytest.approx(1.05e4, rel=0.01)
    phonon_part = p.speed_of_sound * 2.94e6
    assert 0.03 < (omega - phonon_part) / omega < 0.07


def test_dispersion_rejects_nonpositive_k(paper_params):
    with pytest.raises(ValueError):
        dispersion(0.0, paper_params)
    with pytest.raises(ValueError):
        dispersion(-1.0, paper_params)


def test_invert_dispersion_phonon_regime(paper_params):
    omega = 1.0  # deep phonon
    k = invert_dispersion(omega, paper_params)
    assert k == pytest.approx(omega / paper_params.speed_of_sound, rel=1e-6)


def test_invert_dispersion_worked_value_and_bisection():
    p = CondensateParams(
        mass=1.4432e-25, scattering_length=5.31e-9,
        temperature=0.5e-9, speed_of_sound=3.4e-3,
    )
    k = invert_dispersion(1e4, p)
    k_bisect = brentq(lambda x: dispersion(x, p) - 1e4, 1.0, 1e9, rtol=1e-15)
    assert k == pytest.approx(k_bisect, rel=1e-10)
    assert k == pytest.approx(2.8e6, rel=0.01)


def test_invert_dispersion_round_trip(paper_params):
    for omega in np.geomspace(1e-2, 1e8, 60):
        k = invert_dispersion(omega, paper_params)
        assert dispersion(k, paper_params) == pytest.approx(omega, rel=1e-10)


def test_dispersion_monotone(paper_params):
    ks = np.geomspace(1.0, 1e9, 200)
    omegas = [dispersion(k, paper_params) for k in ks]
    assert np.all(np.diff(omegas) > 0)


def test_group_velocity_matches_finite_difference(paper_params):
    for k in np.geomspace(1e3, 1e8, 7):
        h = k * 1e-6
        fd = (dispersion(k + h, paper_params) - dispersion(k - h, paper_params)) / (2 * h)
        assert group_velocity(k, paper_params) == pytest.approx(fd, rel=1e-7)


def test_uv_normalization(paper_params):
    for k in np.geomspace(1e2, 1e9, 50):
        u, v = bogoliubov_uv(k, paper_params)
        assert u * u - v * v == pytest.approx(1.0, abs=1e-10)
        assert u > 0 > v


def test_dispersion_relation(paper_params):
    # (hbar w)^2 = (c_s hbar k)^2 + (hbar^2 k^2 / 2m)^2
    k = 2.94e6
    omega = dispersion(k, paper_params)
    assert (HBAR * omega) ** 2 == pytest.approx(
        (paper_params.speed_of_sound * HBAR * k) ** 2
        + (HBAR**2 * k**2 / (2 * paper_params.mass)) ** 2,
        rel=1e-10,
    )


def test_uv_phonon_asymptotics(paper_params):
    # u ~ -v ~ sqrt(m c_s / 2 hbar k) deep in the phonon branch
    k = 1e-2 * paper_params.mass * paper_params.speed_of_sound / HBAR
    u, v = bogoliubov_uv(k, paper_params)
    lead = math.sqrt(paper_params.mass * paper_params.speed_of_sound / (2 * HBAR * k))
    assert u == pytest.approx(lead, rel=0.05)
    assert -v == pytest.approx(lead, rel=0.05)


def test_uv_free_particle_limit(paper_params):
    k = 1e3 * paper_params.mass * paper_params.speed_of_sound / HBAR
    u, v = bogoliubov_uv(k, paper_params)
    assert u == pytest.approx(1.0, abs=1e-3)
    assert abs(v) < 1e-3


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
