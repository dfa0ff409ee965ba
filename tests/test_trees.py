"""Tree pipeline: counting recurrence, subtree tables, sampler, pruning."""

import bisect
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adncount import (
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
    assert ranrut(1, rng) == [-1]
    assert ranrut(2, rng) == [-1, 0]


@pytest.mark.parametrize("variant", ["paper-literal", "same-copy"])
def test_ranrut_vertex_and_edge_counts(variant):
    rng = random.Random(11)
    for n in range(1, 26):
        for _ in range(5):
            tree = ranrut(n, rng, variant)
            validate_tree(tree)
            assert len(tree) == n


def test_ranrut_deterministic_per_seed():
    a = ranrut(20, random.Random(5), "paper-literal")
    b = ranrut(20, random.Random(5), "paper-literal")
    assert a == b
    assert a != ranrut(20, random.Random(6), "paper-literal")


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
    star5 = [-1, 0, 0, 0, 0]
    pruned = prune(star5, 2, random.Random(0))
    validate_tree(pruned)
    assert len(pruned) == 5
    assert max_graph_degree(pruned) <= 2
    # the only degree-<=2 tree on 5 vertices is the path; the root keeps
    # exactly delta children, so it sits in the interior of that path
    assert is_path_graph(tree_to_topology(pruned))
    assert pruned.count(0) == 2
    assert tree_depth(pruned) >= tree_depth(star5)


def assert_prune_keeps(parents, delta):
    """``prune`` returns a tree within the bound unchanged and draws nothing."""
    rng = random.Random(0)
    state = rng.getstate()
    assert prune(parents, delta, rng) == parents
    assert rng.getstate() == state


def test_prune_noop_returns_input_unchanged():
    assert_prune_keeps([-1, 0, 1, 0], 3)
    assert_prune_keeps([-1, 0, 1, 0], 10)


def test_prune_rejects_infeasible_bound():
    with pytest.raises(InfeasibleDegreeBound):
        prune([-1, 0, 0, 0], 1, random.Random(0))


def test_prune_small_trees_with_delta1():
    assert_prune_keeps([-1, 0], 1)
    assert_prune_keeps([-1], 1)


def test_prune_properties_random_trees():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 40)
        tree = ranrut(n, rng, "paper-literal")
        validate_tree(tree)
        assert_prune_properties(tree, rng.randint(2, 6), rng)


def assert_prune_properties(parents, delta, rng):
    """Depth never decreases, degrees are bounded, the vertex count is kept,
    the output is in preorder and the input is never modified; a tree within
    the bound comes back equal, without a draw."""
    before = list(parents)
    state = rng.getstate()
    pruned = prune(parents, delta, rng)
    assert parents == before
    validate_tree(pruned)
    assert len(pruned) == len(parents)
    assert max_graph_degree(pruned) <= delta
    assert tree_depth(pruned) >= tree_depth(parents)
    if max_graph_degree(parents) <= delta:
        assert pruned == parents
        assert rng.getstate() == state


@st.composite
def preorder_parent_lists(draw):
    """A preorder parent list on at most 40 vertices: the parent of vertex v
    is v - 1 or an ancestor of v - 1."""
    parents = [-1]
    for v in range(1, draw(st.integers(1, 40))):
        ancestors = [v - 1]
        while parents[ancestors[-1]] >= 0:
            ancestors.append(parents[ancestors[-1]])
        parents.append(draw(st.sampled_from(ancestors)))
    return parents


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(preorder_parent_lists(), st.integers(2, 5), st.integers(0, 2**32))
def test_prune_properties_any_preorder_tree(parents, delta, seed):
    assert_prune_properties(parents, delta, random.Random(seed))


def test_validate_tree_requires_preorder():
    validate_tree([-1, 0, 1, 0])
    for parents in ([], [0], [-1, -1], [-1, 1], [-1, 0, 0, 1], [-1, 0, 3, 0]):
        with pytest.raises(ValueError):
            validate_tree(parents)


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
                    checked = Topology(n, [(p, v) for v, p in enumerate(t) if v])
                    assert_same_snapshot(tree_to_topology(t), checked, bound, energies)


def test_canonical_form_separates_shapes():
    assert canonical_form([-1, 0, 1]) != canonical_form([-1, 0, 0])  # path, star
    # the same shape with the root's two children in the other order
    assert canonical_form([-1, 0, 1, 0]) == canonical_form([-1, 0, 0, 2])


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
