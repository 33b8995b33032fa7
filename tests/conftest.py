import warnings

import pytest

from mspg.harness import ExperimentConfig, Workspace


@pytest.fixture(autouse=True)
def _quiet_peclet():
    # small test grids intentionally violate the fine-resolution guard
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="cell Peclet")
        yield


@pytest.fixture(scope="session")
def ws_small():
    """Example-1 workspace on a 32/4 grid; shared by the space-building tests."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="cell Peclet")
        return Workspace(ExperimentConfig(example=1, alpha=2.0, nc=4, n=32, L=1))
