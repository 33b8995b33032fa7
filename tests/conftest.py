import warnings

import numpy as np
import pytest

from mspg import test_space
from mspg.harness import ExperimentConfig, Workspace
from mspg.numerics import DROPTOL, orthonormal_row_blocks, orthonormalize_columns


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


@pytest.fixture(scope="module")
def tiny():
    """Example-1 workspace at the smallest scale that keeps all parts alive."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="cell Peclet")
        return Workspace(ExperimentConfig(example=1, alpha=2.0, nc=4, n=16, L=3))


@pytest.fixture(scope="module")
def ws_contrast():
    """Example-5 workspace (contrast 500): its test matrices are ill-conditioned."""
    return Workspace(ExperimentConfig(example=5, nc=8, n=64, m=3, L=3, eigenproblem=2))


def _regenerated(X, steps):
    return np.vstack([block for _, block in orthonormal_row_blocks(X, steps)])


@pytest.fixture
def kernel_q():
    """Q of ``orthonormalize_columns`` on X, regenerated from its row blocks
    in the kernel's order (the kernel itself returns coefficients only)."""

    def q(X, droptol=DROPTOL):
        return _regenerated(X, orthonormalize_columns(X, droptol=droptol)[2])

    return q


@pytest.fixture
def basis_q(monkeypatch):
    """Records every test-basis orthonormalization made from here on.

    Calling it returns the recorded Q blocks, each regenerated in the
    kernel's order from the input and steps of its call, side by side, and
    starts a new record: for a basis grown online, the offline block
    followed by each online block Q_n.
    """
    calls, kernel = [], test_space.orthonormalize_columns

    def recording(X, *args, **kwargs):
        T, kept, steps = kernel(X, *args, **kwargs)
        calls.append((X, steps))
        return T, kept, steps

    monkeypatch.setattr(test_space, "orthonormalize_columns", recording)

    def q():
        blocks = [_regenerated(X, steps) for X, steps in calls]
        calls.clear()
        return np.hstack(blocks)

    return q
