import pytest

from isoladder.isospectral import IsospectralParams, ThetaBasis
from isoladder.numerics import build_grid


@pytest.fixture(scope="session")
def grid64():
    return build_grid(64)


@pytest.fixture(scope="session")
def basis64(grid64):
    return ThetaBasis(IsospectralParams(2.0), grid64, 64)
