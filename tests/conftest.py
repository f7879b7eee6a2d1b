from pathlib import Path

import numpy as np
import pytest

from driftform import tower as tw


@pytest.fixture(scope="session")
def interval_config() -> str:
    """Path of the shipped interval structure config, independent of the
    directory pytest runs from."""
    return str(Path(__file__).resolve().parents[1] / "docs" / "configs" / "interval.json")


@pytest.fixture(scope="session")
def sg_tower() -> tw.LevelTower:
    """One shared Sierpinski hierarchy; levels are cached across tests."""
    return tw.sierpinski_tower()


@pytest.fixture(scope="session")
def admissible_cfg(sg_tower) -> tw.DriftConfig:
    """The default admissible instance: one constant coefficient at half the
    pointwise threshold, proxy diameter taken at level 6."""
    return tw.default_admissible_drift(sg_tower, proxy_level=6)


@pytest.fixture(scope="session")
def admissible_constants(sg_tower, admissible_cfg):
    """Constants shared by every level (proxy level 6)."""
    report = tw.constants_for(sg_tower, admissible_cfg, 2, proxy_level=6)
    assert report.constants is not None
    return report.constants


@pytest.fixture(scope="session")
def unit_triangle():
    from driftform.resistance import ConductanceNetwork

    return ConductanceNetwork.from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
