import functools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from mspg import numerics, test_space
from mspg.harness import ExperimentConfig, Workspace
from mspg.numerics import DROPTOL, orthonormal_rows, orthonormalize_columns, serial_blas


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


def form_coefficients(steps) -> np.ndarray:
    """The K x K T = C R_1^{-1} [R_2^{-1}] of ``steps`` = (C, R_1[, R_2]),
    Fortran-ordered: the formed reference of the products with T, which the
    package makes through ``numerics.apply_coefficients`` and
    ``numerics.coefficient_product`` only."""
    C, *factors = steps
    return functools.reduce(numerics._solve_right_upper, factors, np.array(C, order="F"))


def image_lift(Y, interiors=()):
    """The map of rows Z of ``test_space.compressed_image(Y, interiors)``
    back to the fine rows Y Z: the plain rows as they are, each compressed
    block interior through the orthonormal factor F of its QR F R, formed
    by the economic QR of the same block on one BLAS thread."""
    Y_rows = Y.tocsr()
    plain = np.ones(Y.shape[0], dtype=bool)
    blocks = []
    with serial_blas():
        for interior in interiors:
            local = Y_rows[interior]
            stored = np.unique(local.indices)
            if interior.size <= stored.size:
                continue
            F, _ = sla.qr(local[:, stored].toarray(), mode="economic", check_finite=False)
            plain[interior] = False
            blocks.append((interior, F))
    plain = np.flatnonzero(plain)

    def lift(Z):
        out = np.empty((Y.shape[0], Z.shape[1]))
        at = plain.size
        out[plain] = Z[:at]
        for interior, F in blocks:
            out[interior] = F @ Z[at : at + F.shape[1]]
            at += F.shape[1]
        return out

    return lift


@pytest.fixture
def kernel_q():
    """Q of ``orthonormalize_columns`` on X, regenerated from its steps in
    the kernel's order (the kernel itself returns factors only)."""

    def q(X, droptol=DROPTOL):
        return orthonormal_rows(X, orthonormalize_columns(X, droptol=droptol)[1])

    return q


@pytest.fixture
def basis_q(monkeypatch):
    """Records every test-basis orthonormalization made from here on.

    Calling it returns the recorded Q blocks in fine-dof rows, side by side,
    and starts a new record: each is regenerated in the kernel's order from
    the input and steps of its call and, where that input is a
    ``test_space.compressed_image``, lifted back through ``image_lift``.
    For a basis grown online, the offline block comes first, then each
    online block Q_n.
    """
    calls, images = [], {}
    kernel, compress = test_space.orthonormalize_columns, test_space.compressed_image

    def compressing(Y, interiors=()):
        rows = compress(Y, interiors)
        images[id(rows)] = (rows, Y, interiors)  # holding rows keeps its id unique
        return rows

    def recording(X, *args, **kwargs):
        kept, steps = kernel(X, *args, **kwargs)
        calls.append((X, steps))
        return kept, steps

    monkeypatch.setattr(test_space, "compressed_image", compressing)
    monkeypatch.setattr(test_space, "orthonormalize_columns", recording)

    def q():
        blocks = []
        for X, steps in calls:
            Q = orthonormal_rows(X, steps)
            if id(X) in images:
                _, Y, interiors = images[id(X)]
                Q = image_lift(Y, interiors)(Q)
            blocks.append(Q)
        calls.clear()
        images.clear()
        return np.hstack(blocks)

    return q
