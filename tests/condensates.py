"""The 87Rb condensate the tests build, from the species preset's constants."""

from phonodec.bec import CondensateParams
from phonodec.constants import RB87


def rb87(temperature: float, speed_of_sound: float = 3.4e-3) -> CondensateParams:
    """87Rb at ``temperature`` (K) with speed of sound ``speed_of_sound`` (m/s)."""
    return CondensateParams(
        RB87["mass_kg"],
        RB87["scattering_length_m"],
        temperature,
        speed_of_sound=speed_of_sound,
    )
