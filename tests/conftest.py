import numpy as np
import pytest

from rydberg_xpm.config import RunConfig


@pytest.fixture
def params():
    return RunConfig().eit_params()


@pytest.fixture
def geom():
    return RunConfig().geometry()


@pytest.fixture
def blk():
    return RunConfig().blockade()


@pytest.fixture
def ds_op():
    return RunConfig().delta_s


def angle_diff(a: float, b: float) -> float:
    """Signed difference of two angles folded into (-pi, pi]."""
    return float((np.asarray(a) - b + np.pi) % (2 * np.pi) - np.pi)
