"""Structured fine mesh and nested coarse topology on the unit square.

The fine mesh is an n-by-n grid of square Q1 cells with homogeneous
Dirichlet conditions, so the degrees of freedom are the (n-1)^2 interior
lattice nodes.  The coarse grid splits the same square into nc-by-nc blocks
of r = n/nc fine cells each.  All index sets handed to local solvers
(block interiors, vertex neighborhoods, coarse-edge interiors) are built
here once and shared read-only afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleGridError, InvalidMeshError


@dataclass(frozen=True)
class FineMesh:
    """Uniform lattice on [0,1]^2 with Dirichlet boundary removed.

    Node (i, j) sits at (i/n, j/n) and has id j*(n+1)+i.  ``dof_of_node``
    maps node ids to dof indices (-1 on the boundary); ``node_of_dof`` is
    its inverse on the interior nodes.
    """

    n: int
    dof_of_node: np.ndarray
    node_of_dof: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def num_nodes(self) -> int:
        return (self.n + 1) ** 2

    @property
    def num_dofs(self) -> int:
        return (self.n - 1) ** 2

    def node_coords(self, nodes: np.ndarray):
        """Coordinates (x, y) of the given node ids."""
        nodes = np.asarray(nodes)
        return (nodes % (self.n + 1)) * self.h, (nodes // (self.n + 1)) * self.h

    def dof_coords(self, dofs: np.ndarray):
        return self.node_coords(self.node_of_dof[np.asarray(dofs)])


def build_fine_mesh(n: int) -> FineMesh:
    """Build the fine lattice and its interior dof numbering."""
    if n < 2:
        raise InvalidMeshError(f"fine mesh needs n >= 2, got n={n}")
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    interior = (i > 0) & (i < n) & (j > 0) & (j < n)
    dof_of_node = -np.ones((n + 1) ** 2, dtype=np.int64)
    node_of_dof = np.flatnonzero(interior.ravel())
    dof_of_node[node_of_dof] = np.arange(node_of_dof.size)
    return FineMesh(n=n, dof_of_node=dof_of_node, node_of_dof=node_of_dof)


def _box_nodes(n: int, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
    """Node ids with i0 <= i <= i1 and j0 <= j <= j1, ascending."""
    ii = np.arange(i0, i1 + 1)
    jj = np.arange(j0, j1 + 1)
    return (jj[:, None] * (n + 1) + ii[None, :]).ravel()


def _frame_nodes(n: int, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
    """Node ids on the boundary of the box, ascending."""
    inner = _box_nodes(n, i0 + 1, i1 - 1, j0 + 1, j1 - 1)
    outer = _box_nodes(n, i0, i1, j0, j1)
    return np.setdiff1d(outer, inner, assume_unique=True)


@dataclass(frozen=True)
class Block:
    """One coarse cell: fine-node index sets for local solves.

    ``interior``/``boundary``/``closure`` are dof indices; the node variants
    include domain-boundary lattice nodes and are used where functions are
    allowed to be nonzero on the outer boundary (partition of unity).
    """

    index: int
    ij: tuple[int, int]
    interior: np.ndarray
    boundary: np.ndarray
    closure: np.ndarray
    interior_nodes: np.ndarray
    boundary_nodes: np.ndarray


@dataclass(frozen=True)
class Neighborhood:
    """Union of the coarse blocks sharing one coarse node.

    The union is always an axis-aligned rectangle (truncated to 2 or 1
    blocks at the domain boundary).  ``boundary`` excludes nodes on the
    domain boundary, which carry no degrees of freedom.  ``cell_box`` holds
    the fine-cell range (i0, i1, j0, j1) covered by the rectangle.
    """

    node: int
    ab: tuple[int, int]
    blocks: tuple[int, ...]
    interior: np.ndarray
    boundary: np.ndarray
    closure: np.ndarray
    cell_box: tuple[int, int, int, int]


@dataclass(frozen=True)
class CoarseEdge:
    """Interior coarse edge with its two adjacent blocks.

    ``interior`` lists the r-1 edge dofs ordered along the edge.  ``region``
    concatenates interior(K1), interior(K2) and the edge dofs; ``edge_local``
    gives the positions of the edge dofs inside ``region``.
    """

    index: int
    blocks: tuple[int, int]
    interior: np.ndarray
    region: np.ndarray
    edge_local: np.ndarray


@dataclass(frozen=True)
class CoarseTopology:
    mesh: FineMesh
    nc: int
    blocks: tuple[Block, ...]
    neighborhoods: tuple[Neighborhood, ...]
    interior_coarse_nodes: np.ndarray
    edges: tuple[CoarseEdge, ...]

    @property
    def r(self) -> int:
        return self.mesh.n // self.nc

    @property
    def H(self) -> float:
        return 1.0 / self.nc

    @property
    def num_coarse_nodes(self) -> int:
        return (self.nc + 1) ** 2

    def coarse_node_coords(self, node: int):
        return (node % (self.nc + 1)) * self.H, (node // (self.nc + 1)) * self.H

    def coarse_node_ab(self, node: int):
        return node % (self.nc + 1), node // (self.nc + 1)


def build_coarse_topology(mesh: FineMesh, nc: int) -> CoarseTopology:
    """Build blocks, vertex neighborhoods and interior coarse edges."""
    n = mesh.n
    if nc < 2:
        raise IncompatibleGridError(f"coarse grid needs nc >= 2, got nc={nc}")
    if n % nc != 0:
        raise IncompatibleGridError(f"coarse grid nc={nc} does not divide n={n}")
    r = n // nc
    dof = mesh.dof_of_node

    def dofs_of(nodes: np.ndarray) -> np.ndarray:
        d = dof[nodes]
        return d[d >= 0]

    blocks = []
    for J in range(nc):
        for I in range(nc):
            i0, i1 = I * r, (I + 1) * r
            j0, j1 = J * r, (J + 1) * r
            interior_nodes = _box_nodes(n, i0 + 1, i1 - 1, j0 + 1, j1 - 1)
            boundary_nodes = _frame_nodes(n, i0, i1, j0, j1)
            interior = dofs_of(interior_nodes)
            boundary = dofs_of(boundary_nodes)
            blocks.append(
                Block(
                    index=J * nc + I,
                    ij=(I, J),
                    interior=interior,
                    boundary=boundary,
                    closure=np.concatenate([interior, boundary]),
                    interior_nodes=interior_nodes,
                    boundary_nodes=boundary_nodes,
                )
            )

    neighborhoods = []
    for b in range(nc + 1):
        for a in range(nc + 1):
            I0, I1 = max(a - 1, 0), min(a, nc - 1)
            J0, J1 = max(b - 1, 0), min(b, nc - 1)
            members = tuple(
                J * nc + I for J in range(J0, J1 + 1) for I in range(I0, I1 + 1)
            )
            i0, i1 = I0 * r, (I1 + 1) * r
            j0, j1 = J0 * r, (J1 + 1) * r
            interior = dofs_of(_box_nodes(n, i0 + 1, i1 - 1, j0 + 1, j1 - 1))
            boundary = dofs_of(_frame_nodes(n, i0, i1, j0, j1))
            neighborhoods.append(
                Neighborhood(
                    node=b * (nc + 1) + a,
                    ab=(a, b),
                    blocks=members,
                    interior=interior,
                    boundary=boundary,
                    closure=np.concatenate([interior, boundary]),
                    cell_box=(i0, i1, j0, j1),
                )
            )

    interior_coarse = np.array(
        [
            b * (nc + 1) + a
            for b in range(1, nc)
            for a in range(1, nc)
        ],
        dtype=np.int64,
    )

    edges = []

    def add_edge(edge_nodes: np.ndarray, k1: int, k2: int):
        interior = dof[edge_nodes]
        assert np.all(interior >= 0)
        region = np.concatenate(
            [blocks[k1].interior, blocks[k2].interior, interior]
        )
        edge_local = np.arange(region.size - interior.size, region.size)
        edges.append(
            CoarseEdge(
                index=len(edges),
                blocks=(k1, k2),
                interior=interior,
                region=region,
                edge_local=edge_local,
            )
        )

    # vertical edges x = a*H, then horizontal edges y = b*H
    for a in range(1, nc):
        for J in range(nc):
            nodes = _box_nodes(n, a * r, a * r, J * r + 1, (J + 1) * r - 1)
            add_edge(nodes, J * nc + (a - 1), J * nc + a)
    for b in range(1, nc):
        for I in range(nc):
            nodes = _box_nodes(n, I * r + 1, (I + 1) * r - 1, b * r, b * r)
            add_edge(nodes, (b - 1) * nc + I, b * nc + I)

    return CoarseTopology(
        mesh=mesh,
        nc=nc,
        blocks=tuple(blocks),
        neighborhoods=tuple(neighborhoods),
        interior_coarse_nodes=interior_coarse,
        edges=tuple(edges),
    )


def coloring(topology: CoarseTopology) -> list[np.ndarray]:
    """Partition interior coarse nodes into parity classes.

    Within a class the neighborhood interiors are pairwise disjoint, so the
    local enrichment solves of one class never touch the same dofs.
    Classes are returned in fixed (a%2, b%2) order; empty ones are dropped.
    """
    nc = topology.nc
    classes = {(pa, pb): [] for pb in (0, 1) for pa in (0, 1)}
    for node in topology.interior_coarse_nodes:
        a, b = topology.coarse_node_ab(int(node))
        classes[(a % 2, b % 2)].append(node)
    out = []
    for pa in (0, 1):
        for pb in (0, 1):
            members = classes[(pa, pb)]
            if members:
                out.append(np.array(members, dtype=np.int64))
    return out


def hat_values(topology: CoarseTopology, node: int, x: np.ndarray, y: np.ndarray):
    """Bilinear coarse hat of one coarse node evaluated at points."""
    xa, ya = topology.coarse_node_coords(node)
    H = topology.H
    return np.maximum(0.0, 1.0 - np.abs(x - xa) / H) * np.maximum(
        0.0, 1.0 - np.abs(y - ya) / H
    )
