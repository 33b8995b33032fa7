"""Built-in coefficient fields for the experiment catalogue.

Examples 1 and 2 are cellular velocity fields (eddies, plus channels in
example 2), example 3 derives its velocity from a stream function, example
4 is a purely channelized horizontal flow, and example 5 transports along
a Darcy velocity computed from a heterogeneous permeability raster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import CoefficientField, assemble_nodes
from .errors import (
    ConfigError,
    InvalidCoefficientError,
    RasterParseError,
    UnknownExampleError,
)
from .grid import FineMesh
from .numerics import CheckedFactor

DELTA_DEFAULT = math.sqrt(2.0) / 4.0

ALPHA_DEFAULTS = {1: 2.0, 2: 2.0, 3: 1e-3, 4: 200.0, 5: 1.0 / 250.0}
# examples whose alpha is the (constant) diffusion coefficient
DIFFUSION_ALPHA = (3, 5)


def _const(value: float) -> Callable:
    return lambda x, y: np.full(np.shape(x), value)


def example_1(alpha: float) -> CoefficientField:
    k = 18.0 * np.pi

    def b(x, y):
        return np.stack(
            [
                alpha * np.sin(k * x) * np.cos(k * y),
                -alpha * np.cos(k * x) * np.sin(k * y),
            ]
        )

    return CoefficientField(kappa=_const(0.01), b=b, f=_const(1.0))


def example_2(alpha: float, delta: float = DELTA_DEFAULT) -> CoefficientField:
    k = 18.0 * np.pi
    q = 18.0 * np.sqrt(2.0) * np.pi

    def b(x, y):
        return np.stack(
            [
                alpha
                * (
                    np.sin(k * x) * np.cos(k * y)
                    + delta * np.cos(q * x) * np.sin(q * y)
                ),
                alpha
                * (
                    -np.cos(k * x) * np.sin(k * y)
                    - delta * np.sin(q * x) * np.sin(q * y)
                ),
            ]
        )

    return CoefficientField(kappa=_const(0.01), b=b, f=_const(1.0))


def example_3(alpha: float) -> CoefficientField:
    # stream function sin(5 pi x) sin(6 pi y)/(60 pi) + 0.005 (x + y),
    # velocity = (-dH/dy, +dH/dx)
    def b(x, y):
        return np.stack(
            [
                -np.sin(5 * np.pi * x) * np.cos(6 * np.pi * y) / 10.0 - 0.005,
                np.cos(5 * np.pi * x) * np.sin(6 * np.pi * y) / 12.0 + 0.005,
            ]
        )

    return CoefficientField(kappa=_const(alpha), b=b, f=_const(1.0))


def example_4(alpha: float) -> CoefficientField:
    q = 18.0 * np.sqrt(2.0) * np.pi

    def b(x, y):
        return np.stack(
            [alpha * np.sin(q * y), np.zeros(np.shape(x))]
        )

    return CoefficientField(kappa=_const(1.0), b=b, f=_const(1.0))


@dataclass(frozen=True)
class PermeabilityRaster:
    """Cell-centered scalar grid; ``values[row, col]`` with row = y index."""

    width: int
    height: int
    values: np.ndarray


def load_permeability_raster(path) -> PermeabilityRaster:
    """Read ``width height`` and then row-major whitespace-separated values."""
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise RasterParseError("empty raster file", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise RasterParseError("header must be 'width height'", line=1)
    try:
        width, height = int(header[0]), int(header[1])
    except ValueError:
        raise RasterParseError("header must hold two integers", line=1) from None
    if width < 1 or height < 1:
        raise RasterParseError("raster dimensions must be positive", line=1)
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        for token in line.split():
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise RasterParseError(f"bad scalar {token!r}", line=lineno)
            values.append(value)
        if len(values) > width * height:
            raise RasterParseError("more values than width*height", line=lineno)
    if len(values) != width * height:
        raise RasterParseError(
            f"expected {width * height} values, got {len(values)}", line=len(lines)
        )
    grid = np.array(values).reshape(height, width)
    return PermeabilityRaster(width=width, height=height, values=grid)


def synthetic_channel_raster(n: int) -> PermeabilityRaster:
    """Deterministic channelized pattern: value-500 streaks on background 1.

    Four meandering horizontal channels connect the left and right sides,
    mimicking a high-contrast layered medium; usable at any resolution.
    """
    xc = (np.arange(n) + 0.5) / n
    yc = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xc, yc, indexing="xy")
    channels = [
        (0.18, 0.05, 2.0, 0.0, 0.035),
        (0.42, 0.07, 3.0, 1.3, 0.030),
        (0.63, 0.04, 2.5, 2.1, 0.025),
        (0.82, 0.06, 1.8, 4.0, 0.030),
    ]
    mask = np.zeros((n, n), dtype=bool)
    for y0, amp, freq, phase, halfwidth in channels:
        center = y0 + amp * np.sin(2.0 * np.pi * freq * X + phase)
        mask |= np.abs(Y - center) <= halfwidth
    values = np.where(mask, 500.0, 1.0)
    return PermeabilityRaster(width=n, height=n, values=values)


@dataclass(frozen=True)
class DarcyVelocity:
    """Piecewise-polynomial velocity sampled from a pressure pre-solve."""

    mesh: FineMesh
    kappa_cells: np.ndarray
    p_nodes: np.ndarray
    sign: float

    def __call__(self, x, y):
        mesh = self.mesh
        n = mesh.n
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ix = np.clip(np.floor(x * n).astype(int), 0, n - 1)
        iy = np.clip(np.floor(y * n).astype(int), 0, n - 1)
        xi = 2.0 * (x * n - ix) - 1.0
        eta = 2.0 * (y * n - iy) - 1.0
        n00 = iy * (n + 1) + ix
        p00 = self.p_nodes[n00]
        p10 = self.p_nodes[n00 + 1]
        p11 = self.p_nodes[n00 + n + 2]
        p01 = self.p_nodes[n00 + n + 1]
        scale = 0.5 * n  # (2/h) * (1/4)
        dpdx = scale * (
            -p00 * (1 - eta) + p10 * (1 - eta) + p11 * (1 + eta) - p01 * (1 + eta)
        )
        dpdy = scale * (
            -p00 * (1 - xi) - p10 * (1 + xi) + p11 * (1 + xi) + p01 * (1 - xi)
        )
        k = self.kappa_cells[iy, ix]
        return self.sign * k * np.stack([dpdx, dpdy])


def darcy_velocity(
    raster: PermeabilityRaster,
    mesh: FineMesh,
    boundary: Callable | None = None,
    sign: float = 1.0,
) -> DarcyVelocity:
    """Velocity from a pure-diffusion pressure solve on the raster.

    The pressure carries the bilinear boundary data x*y by default (any
    other trace can be injected for testing), its interior values come from
    one solve with a one-shot ``CheckedFactor``, and the returned velocity is
    ``sign * kappa * grad(p)``, element-wise from the Q1 gradient.
    """
    n = mesh.n
    if (raster.width, raster.height) != (n, n):
        raise ConfigError(
            f"raster {raster.width}x{raster.height} does not match the {n}x{n} fine cell grid"
        )
    if not np.all(raster.values > 0.0):
        raise InvalidCoefficientError("raster holds non-positive or NaN permeability values")
    values = raster.values

    def kappa_xy(x, y):
        ix = np.clip((np.asarray(x) * n).astype(int), 0, n - 1)
        iy = np.clip((np.asarray(y) * n).astype(int), 0, n - 1)
        return values[iy, ix]

    field = CoefficientField(
        kappa=kappa_xy,
        b=lambda x, y: np.zeros((2,) + np.shape(x)),
        f=lambda x, y: np.zeros(np.shape(x)),
    )
    A_nodes = assemble_nodes(mesh, field)[0]

    if boundary is None:
        boundary = lambda x, y: x * y
    interior = mesh.node_of_dof
    bnd = np.flatnonzero(mesh.dof_of_node < 0)
    bx, by = mesh.node_coords(bnd)
    g = np.asarray(boundary(bx, by), dtype=float)

    A_interior = A_nodes[interior]
    p_nodes = np.zeros(mesh.num_nodes)
    p_nodes[bnd] = g
    p_nodes[interior] = CheckedFactor(A_interior[:, interior], "pressure", held=False).solve(
        -(A_interior[:, bnd] @ g)
    )
    return DarcyVelocity(mesh=mesh, kappa_cells=values, p_nodes=p_nodes, sign=sign)


def example_5(
    alpha: float,
    mesh: FineMesh,
    raster: PermeabilityRaster | None = None,
    sign: float = 1.0,
) -> CoefficientField:
    if raster is None:
        raster = synthetic_channel_raster(mesh.n)
    velocity = darcy_velocity(raster, mesh, sign=sign)
    return CoefficientField(kappa=_const(alpha), b=velocity, f=_const(1.0))


def field_for_example(config, mesh: FineMesh | None = None) -> CoefficientField:
    """Coefficient field of one experiment configuration.

    Example 5 needs the fine mesh for its pressure pre-solve; it is built
    from the configured resolution when not supplied.
    """
    example = config.example
    alpha = config.alpha
    if example == 1:
        return example_1(alpha)
    if example == 2:
        return example_2(alpha, delta=config.delta)
    if example == 3:
        return example_3(alpha)
    if example == 4:
        return example_4(alpha)
    if example == 5:
        from .grid import build_fine_mesh

        if mesh is None:
            mesh = build_fine_mesh(config.n)
        raster = (
            load_permeability_raster(config.raster_path)
            if config.raster_path
            else None
        )
        return example_5(alpha, mesh, raster=raster, sign=config.darcy_sign)
    raise UnknownExampleError(f"example id {example} outside 1..5")
