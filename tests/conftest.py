import pytest

from condensates import rb87
from phonodec.bec import CondensateParams


@pytest.fixture(scope="session")
def paper_params() -> CondensateParams:
    """87Rb at 0.5 nK with c_s = 3.4 mm/s, the worked-example condensate."""
    return rb87(0.5e-9)


@pytest.fixture(scope="session")
def cold_params() -> CondensateParams:
    """Same condensate at T = 0."""
    return rb87(0.0)
