"""Decoherence of single-mode Gaussian phonon states in a uniform condensate.

Covariance-matrix evolution under the two-operator thermal Lindblad
channel, Bogoliubov-mode damping rates (closed forms and collision
integrals), closed-form decoherence metrics, a three-body lifetime model,
and a truncated-number-basis validator.  Import the submodules
(``phonodec.gaussian``, ``phonodec.damping``, ...) directly.
"""

__version__ = "0.1.0"
