import numpy as np
import pytest

from mspg.errors import IncompatibleGridError, InvalidMeshError
from mspg.grid import build_coarse_topology, build_fine_mesh, coloring, hat_values


def test_smallest_mesh_single_dof():
    mesh = build_fine_mesh(2)
    assert mesh.num_dofs == 1
    x, y = mesh.dof_coords(np.array([0]))
    assert (x[0], y[0]) == (0.5, 0.5)


def test_dof_map_bijective():
    mesh = build_fine_mesh(4)
    assert mesh.num_dofs == 9
    assert np.array_equal(
        mesh.dof_of_node[mesh.node_of_dof], np.arange(9)
    )
    # boundary nodes carry no dof
    assert (mesh.dof_of_node >= 0).sum() == 9


def test_dof_count_large():
    assert build_fine_mesh(200).num_dofs == 199**2


def test_mesh_too_small():
    with pytest.raises(InvalidMeshError):
        build_fine_mesh(1)


def test_coarse_counts_2x2():
    topo = build_coarse_topology(build_fine_mesh(4), 2)
    assert len(topo.blocks) == 4
    assert len(topo.interior_coarse_nodes) == 1
    assert len(topo.edges) == 4


def test_coarse_counts_10x10():
    topo = build_coarse_topology(build_fine_mesh(200), 10)
    assert len(topo.blocks) == 100
    assert len(topo.interior_coarse_nodes) == 81
    # 2 * nc * (nc - 1) interior edges
    assert len(topo.edges) == 180


def test_incompatible_grid():
    with pytest.raises(IncompatibleGridError):
        build_coarse_topology(build_fine_mesh(4), 3)


def test_neighborhood_block_counts():
    topo = build_coarse_topology(build_fine_mesh(12), 3)
    counts = {}
    for nb in topo.neighborhoods:
        a, b = topo.coarse_node_ab(nb.node)
        on_edge = int(a in (0, 3)) + int(b in (0, 3))
        counts.setdefault(on_edge, set()).add(len(nb.blocks))
    assert counts[0] == {4}  # interior nodes
    assert counts[1] == {2}  # edge nodes
    assert counts[2] == {1}  # corners


@pytest.mark.parametrize("n,nc", [(8, 2), (8, 4), (12, 3), (16, 4)])
def test_index_set_consistency(n, nc):
    topo = build_coarse_topology(build_fine_mesh(n), nc)
    r = topo.r
    all_interiors = []
    for block in topo.blocks:
        assert np.array_equal(
            np.sort(block.closure),
            np.union1d(block.interior, block.boundary),
        )
        assert np.intersect1d(block.interior, block.boundary).size == 0
        all_interiors.append(block.interior)
    stacked = np.concatenate(all_interiors)
    assert np.unique(stacked).size == stacked.size
    covered = np.unique(np.concatenate([b.closure for b in topo.blocks]))
    assert np.array_equal(covered, np.arange(topo.mesh.num_dofs))
    for edge in topo.edges:
        assert len(edge.blocks) == 2
        assert edge.interior.size == r - 1
        assert np.array_equal(edge.region[-(r - 1) :], edge.interior)


def test_coloring_single_interior_node():
    topo = build_coarse_topology(build_fine_mesh(4), 2)
    classes = coloring(topo)
    assert len(classes) == 1
    assert classes[0].tolist() == topo.interior_coarse_nodes.tolist()


def test_coloring_partitions_and_disjoint_interiors():
    topo = build_coarse_topology(build_fine_mesh(40), 10)
    classes = coloring(topo)
    assert len(classes) == 4
    merged = np.sort(np.concatenate(classes))
    assert np.array_equal(merged, np.sort(topo.interior_coarse_nodes))
    for cls in classes:
        for i, a in enumerate(cls):
            for b in cls[i + 1 :]:
                na = topo.neighborhoods[int(a)]
                nb = topo.neighborhoods[int(b)]
                assert np.intersect1d(na.interior, nb.interior).size == 0


def test_hat_values_partition_of_unity():
    topo = build_coarse_topology(build_fine_mesh(8), 4)
    nodes = np.arange(topo.mesh.num_nodes)
    x, y = topo.mesh.node_coords(nodes)
    total = sum(
        hat_values(topo, l, x, y) for l in range(topo.num_coarse_nodes)
    )
    assert np.allclose(total, 1.0, atol=1e-14)
