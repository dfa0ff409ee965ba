"""Tree pipeline: counting recurrence, subtree tables, sampler, pruning."""

import bisect
import itertools
import random

import numpy as np
import pytest

from adncount import (
    RootedTree,
    Topology,
    canonical_form,
    check_tables,
    enumerate_rooted_trees,
    prune,
    ranrut,
    row_pairs,
    sizes_table,
    tree_to_topology,
)
from adncount import trees
from adncount.errors import InfeasibleDegreeBound
from adncount.trees import RANRUT_VARIANTS

from helpers import (assert_same_snapshot, is_path_graph, max_graph_degree, tree_depth,
                     validate_tree)


def test_sizes_table_small():
    assert sizes_table(1) == [1]
    assert sizes_table(2) == [1, 1]
    assert sizes_table(5) == [1, 1, 2, 4, 9]
    assert sizes_table(8)[-1] == 115


def test_sizes_table_matches_enumeration():
    table = sizes_table(8)
    for i in range(1, 9):
        assert table[i - 1] == len(enumerate_rooted_trees(i))


def test_sizes_table_rejects_bad_input():
    with pytest.raises(ValueError):
        sizes_table(0)


def test_distribution_k3_probabilities():
    # exactly the pairs with j*d < 3, so no other pair can be drawn
    assert sorted(row_pairs(3)) == [(1, 1, 0.25), (1, 2, 0.5), (2, 1, 0.25)]


def test_distribution_rows_sum_to_one():
    for k in range(3, 41):
        total = sum(p for _, _, p in row_pairs(k))
        assert abs(total - 1.0) <= 1e-12


def test_draw_tables_match_draw():
    # ranrut looks its draws up in per-size tables; they must map every
    # uniform, the rounding tail included, to the pair that inverse
    # transform sampling over row_pairs picks, clamped to the last pair
    trees._grow_rows(40)
    for k in range(3, 41):
        row = row_pairs(k)
        sums = list(itertools.accumulate(p for _, _, p in row))
        cumulative, outcomes, _ = trees._ROWS[k]
        uniforms = [0.0, 1.0 - 2.0**-53]
        for c in cumulative:
            uniforms += [c, min(c + 2.0**-53, 1.0 - 2.0**-53)]
        for u in uniforms:
            j, d, _ = row[min(bisect.bisect_left(sums, u), len(row) - 1)]
            rest, sub_sizes = outcomes[bisect.bisect_left(cumulative, u)]
            assert (rest, sub_sizes) == (k - j * d, (d,) * j)


def test_ranrut_tiny_sizes():
    rng = random.Random(0)
    one = ranrut(1, rng)
    assert one.parents == [-1]
    two = ranrut(2, rng)
    assert two.parents == [-1, 0]


@pytest.mark.parametrize("variant", ["paper-literal", "same-copy"])
def test_ranrut_vertex_and_edge_counts(variant):
    rng = random.Random(11)
    for n in range(1, 26):
        for _ in range(5):
            tree = ranrut(n, rng, variant)
            validate_tree(tree)
            assert tree.nodes == n


def test_ranrut_deterministic_per_seed():
    a = ranrut(20, random.Random(5), "paper-literal")
    b = ranrut(20, random.Random(5), "paper-literal")
    assert a.parents == b.parents
    c = ranrut(20, random.Random(6), "paper-literal")
    assert a.parents != c.parents


def test_ranrut_validation():
    with pytest.raises(ValueError):
        ranrut(0, random.Random(0))
    with pytest.raises(ValueError):
        ranrut(5, random.Random(0), variant="bogus")


def test_ranrut_same_copy_uniformity_smoke():
    # 4 isomorphism classes at n=4; expect ~2500 each out of 10k draws
    rng = random.Random(2024)
    counts = {}
    for _ in range(10000):
        form = canonical_form(ranrut(4, rng, "same-copy"))
        counts[form] = counts.get(form, 0) + 1
    assert len(counts) == 4
    for form, cnt in counts.items():
        assert abs(cnt - 2500) < 250, (form, cnt)


def test_prune_star5_delta2_yields_path():
    star5 = RootedTree([-1, 0, 0, 0, 0])
    pruned = prune(star5, 2, random.Random(0))
    validate_tree(pruned)
    assert pruned.nodes == 5
    assert max_graph_degree(pruned) <= 2
    # the only degree-<=2 tree on 5 vertices is the path; the root keeps
    # exactly delta children, so it sits in the interior of that path
    assert is_path_graph(tree_to_topology(pruned))
    assert pruned.parents.count(0) == 2
    assert tree_depth(pruned) >= tree_depth(star5)


def test_prune_noop_returns_input_unchanged():
    tree = RootedTree([-1, 0, 1, 0])
    assert prune(tree, 3, random.Random(0)) is tree
    assert prune(tree, 10, random.Random(0)) is tree


def test_prune_rejects_infeasible_bound():
    star4 = RootedTree([-1, 0, 0, 0])
    with pytest.raises(InfeasibleDegreeBound):
        prune(star4, 1, random.Random(0))


def test_prune_small_trees_with_delta1():
    pair = RootedTree([-1, 0])
    assert prune(pair, 1, random.Random(0)) is pair
    single = RootedTree([-1])
    assert prune(single, 1, random.Random(0)) is single


def test_prune_properties_random_trees():
    # depth never decreases, degrees bounded, vertex count preserved, the
    # output is in preorder, and the input tree is never modified
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 40)
        tree = ranrut(n, rng, "paper-literal")
        delta = rng.randint(2, 6)
        validate_tree(tree)
        before_depth = tree_depth(tree)
        before_parents = list(tree.parents)
        within_bound = max_graph_degree(tree) <= delta
        pruned = prune(tree, delta, rng)
        assert tree.parents == before_parents
        assert (pruned is tree) == within_bound
        validate_tree(pruned)
        assert pruned.nodes == n
        assert max_graph_degree(pruned) <= delta
        assert tree_depth(pruned) >= before_depth


def test_validate_tree_requires_preorder():
    validate_tree(RootedTree([-1, 0, 1, 0]))
    for parents in ([], [0], [-1, -1], [-1, 1], [-1, 0, 0, 1], [-1, 0, 3, 0]):
        with pytest.raises(ValueError):
            validate_tree(RootedTree(parents))


def test_tree_to_topology_matches_validating_constructor():
    # the snapshot of a tree is its parent edges, through the checked path
    rng = random.Random(17)
    energies = np.random.default_rng(17)
    for variant in RANRUT_VARIANTS:
        for delta in range(2, 7):
            for n in range(1, 41):
                tree = ranrut(n, rng, variant)
                # the unpruned tree's bound is its largest possible degree
                for t, bound in ((tree, max(n - 1, 1)), (prune(tree, delta, rng), delta)):
                    checked = Topology(n, [(p, v) for v, p in enumerate(t.parents) if v])
                    assert_same_snapshot(tree_to_topology(t), checked, bound, energies)


def test_canonical_form_separates_shapes():
    path3 = RootedTree([-1, 0, 1])
    star3 = RootedTree([-1, 0, 0])
    assert canonical_form(path3) != canonical_form(star3)
    # the same shape with the root's two children in the other order
    assert canonical_form(RootedTree([-1, 0, 1, 0])) == canonical_form(RootedTree([-1, 0, 0, 2]))


def test_enumeration_counts():
    assert [len(enumerate_rooted_trees(i)) for i in range(1, 9)] == [
        1, 1, 2, 4, 9, 20, 48, 115,
    ]


def test_check_tables_pass():
    ok, lines = check_tables(8)
    assert ok
    assert lines[-1] == "PASS"
    assert lines[0] == "sizes: 1,1,2,4,9,20,48,115"
    ok1, _ = check_tables(1)
    assert ok1


def test_check_tables_detects_corruption(monkeypatch):
    bad = sizes_table(8)
    bad[5] = 999  # size 6 entry
    monkeypatch.setattr(trees, "sizes_table", lambda n_max: bad)
    ok, lines = check_tables(8)
    assert not ok
    assert lines[-1] == "FAIL"
    assert any("sizes_table[6]" in line for line in lines)
