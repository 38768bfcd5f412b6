import numpy as np
import pytest


def random_states(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random but valid state rows (k+1, 7): the sufferer at rest at the
    origin, then k neighbours scattered around and above it, each drawing
    N, E, D and then its velocity."""
    states = np.zeros((k + 1, 7))
    for row in states[1:]:
        row[:3] = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2), -rng.uniform(0.15, 1.5)
        row[3:6] = rng.uniform(-0.8, 0.8, size=3)
    return states


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
