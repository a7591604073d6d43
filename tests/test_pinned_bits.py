"""Bit-level pins of the numerical references: the collision integrals with
both channels open, the 3 x 150 integral sweep's CSV, the Fock oracle's
moments and final matrix, and the text of ``verify``.

A refactor of ``damping.gamma_integral`` or of the Fock oracle must keep
every one of these bits.  Like the other byte pins, they hold for the CPU
family and numpy build they were recorded on (see ROADMAP, Baseline).
"""

import hashlib
import math

import numpy as np
import pytest

from condensates import rb87
from phonodec.cli import main as cli_main
from phonodec.config import preset_config
from phonodec.damping import gamma_integral
from phonodec.fock import lindblad_step_integrate, squeezed_vacuum_fock
from phonodec.runs import run_sweep, to_csv

FIELDS = ("gamma_beliaev", "gamma_landau", "gamma_1", "gamma_2")

# (speed of sound m/s, temperature K, mode frequency rad/s) -> float.hex of
# the four IntegralRates fields; T > 0, so the collision channel is open
INTEGRAL_HEX = {
    (3.4e-3, 5e-9, 1e3): (
        "0x1.a4542ebe6f9c0p-16",
        "0x1.ffe99315b6f52p-10",
        "0x1.4b1ae0eba8326p-9",
        "0x1.1f75bc0d3f627p-11",
    ),
    (1.7e-3, 0.5e-9, 1e4): (
        "0x1.4315ca2916407p+3",
        "0x1.6c657c31d8d6fp-12",
        "0x1.4318a2f40ea42p+3",
        "0x1.ec2bb200b7296p-218",
    ),
    (3.4e-3, 0.6e-6, 1e3): (
        "0x1.7b7f4420faa80p-9",
        "0x1.ec37e8dad5f00p+6",
        "0x1.3000c5f0db681p+13",
        "0x1.2c28503128abbp+13",
    ),
}


def hex_fields(rates):
    return tuple(float(getattr(rates, name)).hex() for name in FIELDS)


@pytest.mark.parametrize("point", sorted(INTEGRAL_HEX))
def test_gamma_integral_bits_alone(point):
    c_s, temperature, omega = point
    assert hex_fields(gamma_integral(omega, rb87(temperature, c_s))) == INTEGRAL_HEX[point]


@pytest.mark.parametrize("point", sorted(INTEGRAL_HEX))
def test_gamma_integral_bits_in_a_batch(point):
    c_s, temperature, omega = point
    # batched with the other pinned frequencies and two neighbours of its own
    batch = np.array(sorted({p[2] for p in INTEGRAL_HEX} | {0.5 * omega, 2.0 * omega}))
    rates = gamma_integral(batch, rb87(temperature, c_s))
    (i,) = np.flatnonzero(batch == omega)
    assert hex_fields(rates[i]) == INTEGRAL_HEX[point]


def test_integral_sweep_csv_bytes_are_pinned():
    config = preset_config("fig2", {"rate_source": "integral", "sweep_points": 150})
    text = to_csv(run_sweep(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "362369140fa5a65ac19beae5d62dfe1cec0dc3f04ffd199068c216091e92b8c9"
    )


def coherent(alpha: complex, n_cut: int) -> np.ndarray:
    c = np.zeros(n_cut + 1, dtype=complex)
    c[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(n_cut):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1)
    return c


def oracle_case(name: str):
    """(rho0, omega, gamma1, gamma2): verify's squeezed vacuum, and a coherent
    state whose displacement is not zero."""
    if name == "squeezed":
        amplitudes = squeezed_vacuum_fock(0.5, 40)
        return np.outer(amplitudes, amplitudes).astype(complex), 0.5, 1.2, 0.2
    amplitudes = coherent(0.8 + 0.3j, 40)
    return np.outer(amplitudes, amplitudes.conj()), 2.0, 0.7, 0.1


# SHA-256 of each FockTrajectory array's bytes on linspace(0, 5, 11); the
# purity is held to the closed forms by tests/test_fock.py instead, since its
# summation order is free
ORACLE_SHA256 = {
    "squeezed": {
        "displacement": "86d2cf5b090f43ee54d8f7c1dcf746a853951191457ff6dac96269a9d24860b9",
        "covariance": "23275654a0283886d6d8fcc0e0b495623f9394407ee6d7cd1103158ac4f57b61",
        "occupation": "8c284da1a26383016b43690fbb1b02d1421192e4ac91d54b6628781f869c000d",
        "final_rho": "7c3d24558e0a72a7b040295c9c0be1a610c78e230917b5c1f569bd4fbe7cde4e",
    },
    "coherent": {
        "displacement": "c397297181841e79f1072a29adcae2cffdf1da8917198afcef38d361a52a834b",
        "covariance": "26a93fb408c9878f9ae205df7b9b3b6a7b353c3a36146955342ca09e8dbe0203",
        "occupation": "e7b4ac1049a9375f8d6beac6d23fd24921438a9f85b56bb31dea968192af263a",
        "final_rho": "d04ddfd86e8d4d611044c89de157078c3d54850ef3cbe1dbb964badc1b3b4155",
    },
}


@pytest.mark.parametrize("name", sorted(ORACLE_SHA256))
def test_fock_oracle_bits_are_pinned(name):
    oracle = lindblad_step_integrate(*oracle_case(name), np.linspace(0.0, 5.0, 11))
    digests = {
        field: hashlib.sha256(np.ascontiguousarray(getattr(oracle, field)).tobytes()).hexdigest()
        for field in ORACLE_SHA256[name]
    }
    assert digests == ORACLE_SHA256[name]


VERIFY_TEXT = """\
PASS fixed_point                  max deviation 0.000e+00  tolerance 1.000e-13
PASS detailed_balance             max deviation 2.350e-16  tolerance 1.000e-12
PASS lyapunov_closed_vs_numeric   max deviation 8.252e-16  tolerance 1.000e-08
PASS fock_oracle                  max deviation 1.534e-13  tolerance 1.000e-03
PASS integral_vs_asymptotic       max deviation 3.045e-02  tolerance 1.000e-01
RESULT: 5/5 checks passed (tolerance scale 1.0)
"""


def test_verify_text_is_pinned(capsys):
    assert cli_main(["verify", "--tolerance", "1.0"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (VERIFY_TEXT, "")
