"""Physical constants and species data used throughout the package.

Values are pinned here (CODATA 2018 / SI exact) rather than imported from
scipy.constants so that golden-number tests are bit-reproducible.
"""

from __future__ import annotations

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J / K (exact SI)
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg

# Species presets, keyed by the config's own names for the species constants
# (see config.validate_config); a constant a preset lacks must be configured.
#
# 87Rb: 86.909180527 u; a = 5.31 nm (~100 Bohr radii, standard value for the
# F=1 ground state); L3 measured for F=1, m_F=-1.
RB87 = {
    "mass_kg": 86.909180527 * ATOMIC_MASS_UNIT,
    "scattering_length_m": 5.31e-9,
    "three_body_l3_m6_per_s": 5.8e-42,
}

# 174Yb: 173.9388664 u.  Mass preset only; scattering length must be supplied.
YB174 = {"mass_kg": 173.9388664 * ATOMIC_MASS_UNIT}

SPECIES_PRESETS = {"rb87": RB87, "yb174": YB174}
