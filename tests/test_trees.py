"""Tree pipeline: counting recurrence, subtree tables, sampler, pruning."""

import bisect
import dataclasses
import random

import pytest

from adncount import (
    RootedTree,
    SubtreeDistribution,
    canonical_form,
    check_tables,
    enumerate_rooted_trees,
    prune,
    ranrut,
    sizes_table,
    tree_to_topology,
)
from adncount.errors import InfeasibleDegreeBound
from adncount.trees import RANRUT_VARIANTS

from helpers import is_path_graph, max_graph_degree, tree_depth, validate_tree


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
    dist = SubtreeDistribution(sizes_table(3), 3)
    assert dist.prob(3, 1, 1) == pytest.approx(0.25, abs=0)
    assert dist.prob(3, 2, 1) == pytest.approx(0.25, abs=0)
    assert dist.prob(3, 1, 2) == pytest.approx(0.5, abs=0)
    # j*d >= k pairs have probability zero
    assert dist.prob(3, 3, 1) == 0.0
    assert dist.prob(3, 1, 3) == 0.0
    assert dist.prob(2, 1, 1) == 0.0


def test_distribution_rows_sum_to_one():
    dist = SubtreeDistribution(sizes_table(40), 40)
    for k in range(3, 41):
        total = sum(p for _, _, p in dist.row_pairs(k))
        assert abs(total - 1.0) <= 1e-12


class _FixedUniforms:
    """Stands in for random.Random: ``random()`` returns the given values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def test_draw_tables_match_draw():
    # ranrut looks its draws up in per-size tables instead of calling draw;
    # both must map every uniform, the rounding tail included, to one pair
    dist = SubtreeDistribution(sizes_table(40), 40)
    tables = dist._draw_tables_upto(40)
    for k in range(3, 41):
        cumulative, outcomes = tables[k]
        uniforms = [0.0, 1.0 - 2.0**-53]
        for c in cumulative:
            uniforms += [c, min(c + 2.0**-53, 1.0 - 2.0**-53)]
        for u in uniforms:
            j, d = dist.draw(k, _FixedUniforms([u]))
            rest, sub_sizes = outcomes[bisect.bisect_left(cumulative, u)]
            assert (rest, sub_sizes) == (k - j * d, (d,) * j)


def test_distribution_requires_coverage():
    with pytest.raises(ValueError):
        SubtreeDistribution(sizes_table(5), 9)


def test_ranrut_tiny_sizes():
    rng = random.Random(0)
    one = ranrut(1, None, rng)
    assert one.nodes == 1 and one.children == [[]]
    two = ranrut(2, None, rng)
    assert two.nodes == 2 and two.children == [[1], []]


@pytest.mark.parametrize("variant", ["paper-literal", "same-copy"])
def test_ranrut_vertex_and_edge_counts(variant):
    dist = SubtreeDistribution(sizes_table(25), 25)
    rng = random.Random(11)
    for n in range(1, 26):
        for _ in range(5):
            tree = ranrut(n, dist, rng, variant)
            validate_tree(tree)
            assert tree.nodes == n
            assert sum(len(kids) for kids in tree.children) == n - 1


def test_ranrut_deterministic_per_seed():
    dist = SubtreeDistribution(sizes_table(20), 20)
    a = ranrut(20, dist, random.Random(5), "paper-literal")
    b = ranrut(20, dist, random.Random(5), "paper-literal")
    assert a.children == b.children
    c = ranrut(20, dist, random.Random(6), "paper-literal")
    assert a.children != c.children


def test_ranrut_validation():
    dist = SubtreeDistribution(sizes_table(5), 5)
    with pytest.raises(ValueError):
        ranrut(6, dist, random.Random(0))
    with pytest.raises(ValueError):
        ranrut(3, None, random.Random(0))
    with pytest.raises(ValueError):
        ranrut(5, dist, random.Random(0), variant="bogus")


def test_ranrut_same_copy_uniformity_smoke():
    # 4 isomorphism classes at n=4; expect ~2500 each out of 10k draws
    dist = SubtreeDistribution(sizes_table(4), 4)
    rng = random.Random(2024)
    counts = {}
    for _ in range(10000):
        form = canonical_form(ranrut(4, dist, rng, "same-copy"))
        counts[form] = counts.get(form, 0) + 1
    assert len(counts) == 4
    for form, cnt in counts.items():
        assert abs(cnt - 2500) < 250, (form, cnt)


def test_prune_star5_delta2_yields_path():
    star5 = RootedTree(children=[[1, 2, 3, 4], [], [], [], []])
    pruned = prune(star5, 2, random.Random(0))
    validate_tree(pruned)
    assert pruned.nodes == 5
    assert max_graph_degree(pruned) <= 2
    # the only degree-<=2 tree on 5 vertices is the path; the root keeps
    # exactly delta children, so it sits in the interior of that path
    from adncount import tree_to_topology

    assert is_path_graph(tree_to_topology(pruned))
    assert len(pruned.children[pruned.root]) == 2
    assert tree_depth(pruned) >= tree_depth(star5)


def test_prune_noop_returns_input_unchanged():
    tree = RootedTree(children=[[1, 2], [3], [], []])
    assert prune(tree, 3, random.Random(0)) is tree
    assert prune(tree, 10, random.Random(0)) is tree


def test_prune_rejects_infeasible_bound():
    star4 = RootedTree(children=[[1, 2, 3], [], [], []])
    with pytest.raises(InfeasibleDegreeBound):
        prune(star4, 1, random.Random(0))


def test_prune_small_trees_with_delta1():
    pair = RootedTree(children=[[1], []])
    assert prune(pair, 1, random.Random(0)) is pair
    single = RootedTree(children=[[]])
    assert prune(single, 1, random.Random(0)) is single


def test_prune_properties_random_trees():
    # depth never decreases, degrees bounded, vertex count preserved, and
    # the input tree is never modified
    dist = SubtreeDistribution(sizes_table(40), 40)
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 40)
        tree = ranrut(n, dist, rng, "paper-literal")
        delta = rng.randint(2, 6)
        before_depth = tree_depth(tree)
        before_children = [list(kids) for kids in tree.children]
        within_bound = max_graph_degree(tree) <= delta
        pruned = prune(tree, delta, rng)
        assert tree.children == before_children
        assert (pruned is tree) == within_bound
        validate_tree(pruned)
        assert pruned.nodes == n
        assert max_graph_degree(pruned) <= delta
        assert tree_depth(pruned) >= before_depth


def test_preorder_parents_match_a_walk():
    # ranrut and prune hand on the preorder parent labels that
    # tree_to_topology would otherwise find by walking the tree
    dist = SubtreeDistribution(sizes_table(40), 40)
    rng = random.Random(17)
    for variant in RANRUT_VARIANTS:
        for delta in range(2, 7):
            for n in range(1, 41):
                tree = ranrut(n, dist, rng, variant)
                for t in (tree, prune(tree, delta, rng)):
                    # replace() starts from None, so tree_to_topology walks
                    walked = dataclasses.replace(t)
                    assert walked.preorder_parents is None
                    assert t.preorder_parents[0] == -1
                    assert tree_to_topology(t) == tree_to_topology(walked)


def test_canonical_form_separates_shapes():
    path3 = RootedTree(children=[[1], [2], []])
    star3 = RootedTree(children=[[1, 2], [], []])
    assert canonical_form(path3) != canonical_form(star3)
    relabeled = RootedTree(children=[[2, 1], [], []])
    assert canonical_form(star3) == canonical_form(relabeled)


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


def test_check_tables_detects_corruption():
    bad = sizes_table(8)
    bad[5] = 999  # size 6 entry
    ok, lines = check_tables(8, table=bad)
    assert not ok
    assert lines[-1] == "FAIL"
    assert any("sizes_table[6]" in line for line in lines)
