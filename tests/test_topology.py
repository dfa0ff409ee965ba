"""Topology snapshots: generators, conversion, serialization, validation."""

import math
import random

import numpy as np
import pytest

from adncount import (
    RootedTree,
    Topology,
    gnp,
    path,
    prune,
    ranrut,
    star,
    tree_to_topology,
)
from adncount.dynamics import _path_order
from adncount.topology import path_topologies
from adncount.trees import RANRUT_VARIANTS
from helpers import assert_same_snapshot, gnp_oracle, is_connected, neighbor_lists


def test_star_shape():
    topo = star(4)
    assert topo.edges == ((0, 1), (0, 2), (0, 3))
    assert topo.degrees[0] == 3
    assert topo.max_degree == 3


def test_path_shape():
    topo = path(3)
    assert topo.edges == ((0, 1), (1, 2))
    assert topo.degrees[0] == 1


def test_generator_preconditions():
    with pytest.raises(ValueError):
        star(1)
    with pytest.raises(ValueError):
        path(1)
    with pytest.raises(ValueError):
        gnp(5, 1.5, random.Random(0))


def test_gnp_probability_extremes():
    full = gnp(6, 1.0, random.Random(0))
    assert len(full.edges) == 15
    empty = gnp(6, 0.0, random.Random(0))
    assert len(empty.edges) == 0


def test_gnp_symmetric_no_self_loops():
    for seed in range(20):
        topo = gnp(12, 0.4, random.Random(seed))
        adjacent = neighbor_lists(topo)
        for u, v in topo.edges:
            assert u < v
            assert v in adjacent[u]
            assert u in adjacent[v]


def test_gnp_deterministic_per_seed():
    a = gnp(15, 0.3, random.Random(7))
    b = gnp(15, 0.3, random.Random(7))
    assert a == b
    assert a != gnp(15, 0.3, random.Random(8))


def test_tree_to_topology_two_vertices():
    topo = tree_to_topology(RootedTree([-1, 0]))
    assert topo.n == 2
    assert topo.edges == ((0, 1),)


def test_tree_to_topology_path_shape():
    chain = RootedTree([-1, 0, 1, 2])
    topo = tree_to_topology(chain)
    assert topo.edges == ((0, 1), (1, 2), (2, 3))
    assert topo.degrees[0] == 1  # leader at the endpoint


def test_tree_to_topology_star_shape():
    topo = tree_to_topology(RootedTree([-1, 0, 0]))
    assert topo.edges == ((0, 1), (0, 2))
    assert topo.degrees[0] == 2  # leader at the center


def test_tree_to_topology_edge_count():
    rng = random.Random(3)
    for n in (2, 5, 17, 30):
        topo = tree_to_topology(ranrut(n, rng))
        assert len(topo.edges) == n - 1
        assert is_connected(topo)


def test_json_golden_star4():
    assert star(4).to_json_dict() == {
        "n": 4,
        "leader": 0,
        "edges": [[0, 1], [0, 2], [0, 3]],
    }


def test_json_round_trip():
    topo = gnp(9, 0.5, random.Random(1))
    again = Topology.from_json_dict(topo.to_json_dict())
    assert topo == again


def test_constructor_validation():
    with pytest.raises(ValueError):
        Topology(3, [(0, 0)])
    with pytest.raises(ValueError):
        Topology(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Topology(3, [(0, 3)])


@pytest.mark.parametrize("edge", [(0, 1.5), (0, 1.0), (0.0, 2), (0, True), (False, 2)])
def test_constructor_rejects_non_integer_endpoints(edge):
    # the kernel arrays hold intp endpoints, so a float or bool would be
    # truncated or reinterpreted silently
    with pytest.raises(ValueError):
        Topology(3, [edge])


def test_constructor_accepts_numpy_integer_endpoints():
    topo = Topology(3, [(np.int64(2), np.intp(0))])
    assert topo.edges == ((0, 2),)
    assert all(type(x) is int for x in topo.edges[0])


def test_generators_match_validating_constructor():
    # The generators skip Topology's validation and build their pair arrays
    # directly (tree snapshots from parent labels). So those pairs must
    # already be normalised, sorted and distinct, and every array a round
    # kernel reads must equal, element for element and in the same order,
    # the one the validating constructor derives from the edges: the order
    # of each node's inflows fixes the float sums.
    rng = random.Random(5)
    snapshots = [star(2), star(7), path(2), path(7),
                 gnp(9, 0.5, rng), gnp(4, 0.0, rng), gnp(5, 1.0, rng)]
    snapshots += [path_topologies([_path_order(n, rng)])[0] for n in (2, 3, 9)]
    cases = [(topo, max(topo.max_degree, 2)) for topo in snapshots]
    for variant in RANRUT_VARIANTS:
        for delta in (2, 3, 4):
            for n in range(1, 41):
                tree = prune(ranrut(n, rng, variant), delta, rng)
                cases.append((tree_to_topology(tree), delta))
    energies = np.random.default_rng(5)
    for topo, delta in cases:
        assert_same_snapshot(topo, Topology(topo.n, topo.edges), delta, energies)


@pytest.mark.parametrize("n", [2, 3, 9, 30, 70, 75])
def test_gnp_matches_per_pair_draws(n):
    # gnp reads all its draws as raw generator words in one call; the
    # oracle calls rng.random() once per pair. Edges, kernel arrays and
    # the generator's state afterwards must all agree.
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    middle = len(pairs) // 2
    # p equal to the middle pair's draw under seed n, and the next float
    # above it: the strict comparison must drop that pair, then keep it
    probe = random.Random(n)
    at = [probe.random() for _ in pairs][middle]
    above = math.nextafter(at, 1.0)
    assert pairs[middle] not in gnp(n, at, random.Random(n)).edges
    assert pairs[middle] in gnp(n, above, random.Random(n)).edges
    energies = np.random.default_rng(n)
    for p in (0.0, 1e-9, 0.3, 0.5, 0.999, 1.0 - 2.0 ** -53, 1.0, at, above):
        for seed in range(150):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            topo = gnp(n, p, rng)
            checked = gnp_oracle(n, p, oracle_rng)
            assert rng.getstate() == oracle_rng.getstate()
            assert_same_snapshot(topo, checked, n - 1, energies)


def test_collection_arrays_exclude_leader_sender():
    topo = path(3)
    src, dst = topo.collection_arrays()
    assert 0 not in src.tolist()
    assert sorted(zip(src.tolist(), dst.tolist())) == [(1, 0), (1, 2), (2, 1)]
    ssrc, sdst = topo.symmetric_arrays()
    assert len(ssrc) == 2 * len(topo.edges)


def test_is_connected():
    assert is_connected(path(5))
    assert not is_connected(Topology(4, [(0, 1), (2, 3)]))
