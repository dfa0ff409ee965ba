"""Tree pipeline: counting recurrence, subtree tables, sampler, pruning."""

import bisect
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adncount import (
    Topology,
    canonical_form,
    check_tables,
    collection_budget,
    collection_operands,
    enumerate_rooted_trees,
    gnp,
    path,
    prune,
    ranrut,
    row_pairs,
    sizes_table,
    star,
    tree_to_topology,
)
from adncount import trees
from adncount.errors import InvalidParameters
from adncount.trees import RANRUT_VARIANTS

from helpers import (assert_same_snapshot, is_path_graph, max_graph_degree,
                     prune_walk_oracle, tree_depth, validate_tree)


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
    with pytest.raises(InvalidParameters):
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


def over_bound_shape(parents, delta):
    """Which of three shapes ``parents`` has at ``delta``: its root over the
    bound, an over-bound vertex below another one (nested), and two
    over-bound vertices, neither below the other (disjoint)."""
    children = [0] * len(parents)
    for p in parents[1:]:
        children[p] += 1
    over = {v for v, k in enumerate(children) if k > (delta if v == 0 else delta - 1)}
    nested = False
    tops = set()
    for v in sorted(over):
        a = parents[v]
        while a >= 0 and a not in over:
            a = parents[a]
        nested |= a >= 0
        if a < 0:
            tops.add(v)
    return {"root": 0 in over, "nested": nested, "disjoint": len(tops) > 1}


def assert_prune_is_the_walk(parents, delta, rng):
    """``prune`` gives the whole-tree walk's result or exception, and leaves
    ``rng`` in the walk's state."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    try:
        want = prune_walk_oracle(parents, delta, twin)
    except InvalidParameters as error:
        with pytest.raises(InvalidParameters, match=f"^{re.escape(str(error))}$"):
            prune(parents, delta, rng)
    else:
        assert prune(parents, delta, rng) == want
    assert rng.getstate() == twin.getstate()


def test_prune_is_the_whole_tree_walk():
    seen = {"root": 0, "nested": 0, "disjoint": 0}
    for variant in RANRUT_VARIANTS:
        rng = random.Random(21)
        for n in [*range(2, 14), 30, 75]:
            for _ in range(40):
                tree = ranrut(n, rng, variant)
                for delta in range(1, 9):
                    for shape, hit in over_bound_shape(tree, delta).items():
                        seen[shape] += hit
                    assert_prune_is_the_walk(tree, delta, rng)
    # hand-made: a root over the bound with a nested chain of over-bound
    # vertices, and two disjoint over-bound subtrees below a root within it
    for tree, delta, shape in (
            ([-1, 0, 1, 1, 1, 2, 2, 2, 0, 0, 0], 2,
             {"root": True, "nested": True, "disjoint": False}),
            ([-1, 0, 1, 1, 1, 0, 5, 5, 5, 5], 3,
             {"root": False, "nested": False, "disjoint": True})):
        assert over_bound_shape(tree, delta) == shape
        assert_prune_is_the_walk(tree, delta, random.Random(4))
    assert min(seen.values()) > 100, seen


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(preorder_parent_lists(), st.integers(1, 6), st.integers(0, 2**32))
def test_prune_is_the_walk_on_any_preorder_tree(parents, delta, seed):
    assert_prune_is_the_walk(parents, delta, random.Random(seed))


def test_below_is_randrange():
    rng, twin = random.Random(8), random.Random(8)
    for m in range(1, 201):
        for _ in range(5):
            assert trees._below(rng.getrandbits, m) == twin.randrange(m)
        assert rng.getstate() == twin.getstate()


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


@pytest.mark.parametrize("call, message", [
    (lambda: Topology(0, []), "n must be >= 1"),
    (lambda: Topology(3, [(0, 0)]), "self-loop at 0"),
    (lambda: Topology(3, [(0,)]), re.escape("edge (0,) is not a pair of nodes")),
    (lambda: Topology.from_json_dict({"n": 2, "leader": 0, "edges": [[0]]}),
     re.escape("edge [0] is not a pair of nodes")),
    (lambda: Topology.from_json_dict({"n": 2, "leader": 0, "edges": [5]}),
     "edge 5 is not a pair of nodes"),
    (lambda: Topology.from_json_dict({"n": 3, "leader": 0, "edges": [[0, 1, 2]]}),
     re.escape("edge [0, 1, 2] is not a pair of nodes")),
    (lambda: Topology.from_json_dict({"n": 2, "leader": 1, "edges": [[0, 1]]}),
     "leader must be node 0"),
    (lambda: Topology.from_json_dict({"n": 2, "leader": False, "edges": [[0, 1]]}),
     "leader must be node 0"),
    (lambda: Topology.from_json_dict({"n": 2, "edges": [[0, 1]], "leader_id": 0}),
     "unknown topology keys: leader_id"),
    (lambda: star(1), "star requires n >= 2"),
    (lambda: path(1), "path requires n >= 2"),
    (lambda: gnp(1, 0.5, random.Random(0)), "gnp requires n >= 2"),
    (lambda: gnp(5, 1.5, random.Random(0)), re.escape("p must be in [0, 1]")),
    (lambda: ranrut(0, random.Random(0)), "n must be >= 1"),
    (lambda: ranrut(5, random.Random(0), "bogus"), "unknown variant 'bogus'"),
    (lambda: prune([-1, 0], 0, random.Random(0)), "delta must be >= 1"),
    (lambda: enumerate_rooted_trees(0), "n must be >= 1"),
    (lambda: collection_budget(64, 4), "exceeds 128 bits"),
    (lambda: collection_operands(star(4), 2), "max degree 3 exceeds delta=2"),
], ids=["topology-empty", "topology-self-loop", "edge-one-node", "json-edge-one-node",
        "json-edge-not-a-list", "json-edge-three-nodes", "leader-not-0", "leader-false",
        "topology-key-unknown", "star-one-node", "path-one-node", "gnp-one-node", "gnp-p-above-1",
        "ranrut-empty", "ranrut-variant-unknown", "prune-delta-0", "enumerate-empty",
        "budget-past-128-bits", "operands-over-delta"])
def test_library_refuses_bad_sizes(call, message):
    with pytest.raises(InvalidParameters, match=message):
        call()
