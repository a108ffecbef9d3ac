import numpy as np
import pytest

from besovflow.littlewood_paley import GridFunction, build_filters, frequencies


def bessel_potential(u, s):
    """Apply the multiplier (1 + xi^2)^{s/2}: a reference for Sobolev norms."""
    half = np.fft.rfft(u.values) * (1.0 + frequencies(u.grid_size) ** 2) ** (s / 2.0)
    return GridFunction(np.fft.irfft(half, n=u.grid_size))


def write_grid_csv(path, u):
    """Write u in the CSV grid format that load_grid_function reads: ``index,value`` lines."""
    lines = [f"{i},{v:.17g}" for i, v in enumerate(u.values.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def bank64():
    return build_filters(64)


@pytest.fixture(scope="session")
def bank256():
    return build_filters(256)
