"""Schedules: T-stability, per-family change semantics, determinism."""

import math
import random

import numpy as np
import pytest

from adncount import (DynamicsSchedule, ScheduleParams, Topology, count, derive_seed, dynamics,
                      gnp, new_schedule, path, prune, ranrut, star, tree_to_topology)
from adncount.errors import InvalidParameters
from adncount.seeds import splitmix64
from adncount.trees import RANRUT_VARIANTS
from helpers import assert_same_snapshot, is_connected


def collect_snapshots(schedule, rounds):
    return [schedule.topology_at(r) for r in range(1, rounds + 1)]


def test_static_star_never_changes():
    sch = new_schedule("star", 5, 4, math.inf, 0)
    snaps = collect_snapshots(sch, 40)
    assert all(s is snaps[0] for s in snaps)


def test_path_T10_stability_window():
    sch = new_schedule("path", 4, 2, 10, 3)
    snaps = collect_snapshots(sch, 30)
    # snapshots are the same object within each T-window
    assert all(s is snaps[0] for s in snaps[:10])
    assert snaps[4] is snaps[8]  # rounds 5 and 9
    assert all(s is snaps[10] for s in snaps[10:20])
    assert all(s is snaps[20] for s in snaps[20:30])
    assert snaps[10] is not snaps[9]


def test_first_change_effective_at_round_T_plus_1():
    sch = new_schedule("random-tree", 8, 4, 7, 1)
    snaps = collect_snapshots(sch, 15)
    changes = [r for r in range(2, 16) if snaps[r - 1] is not snaps[r - 2]]
    assert changes == [8, 15]


def test_t_stability_gap_bound():
    sch = new_schedule("random-tree", 6, 2, 5, 9)
    snaps = collect_snapshots(sch, 60)
    changes = [r for r in range(2, 61) if snaps[r - 1] is not snaps[r - 2]]
    assert all(b - a >= 5 for a, b in zip(changes, changes[1:]))


def test_path_T1_leader_stays_endpoint():
    sch = new_schedule("path", 6, 2, 1, 4)
    seen = set()
    for r in range(1, 40):
        topo = sch.topology_at(r)
        assert topo.degrees[0] == 1
        assert len(topo.edges) == 5
        seen.add(topo.edges)
    assert len(seen) > 1  # labels actually get permuted


def test_star_leader_degree_every_round():
    sch = new_schedule("star", 7, 6, 3, 2)
    for r in range(1, 20):
        assert sch.topology_at(r).degrees[0] == 6


def test_star_serves_one_snapshot_every_epoch(monkeypatch):
    # a star looks the same under every relabeling of its leaves, so no
    # epoch draws anything
    def no_draws(*args):
        raise AssertionError("a star epoch derived a seed")

    monkeypatch.setattr(dynamics, "derive_seed", no_draws)
    T = 3
    sch = DynamicsSchedule(ScheduleParams(family="star", n=7, delta=6, T=T, seed=2))
    first = sch.topology_at(1)
    assert sch.topology_at(T + 1) is first
    assert sch.topology_at(2 * T + 1) is first


def test_tree_snapshots_respect_bound():
    sch = new_schedule("random-tree", 12, 4, 2, 8)
    for r in range(1, 30):
        topo = sch.topology_at(r)
        assert len(topo.edges) == 11
        assert topo.max_degree <= 4
        assert is_connected(topo)


def test_same_seed_same_sequence():
    a = new_schedule("random-tree", 10, 2, 3, 77)
    b = new_schedule("random-tree", 10, 2, 3, 77)
    for r in range(1, 25):
        assert a.topology_at(r) == b.topology_at(r)


def test_different_seed_differs():
    a = new_schedule("gnp", 10, 9, 1, 1, p=0.5)
    b = new_schedule("gnp", 10, 9, 1, 2, p=0.5)
    assert any(a.topology_at(r) != b.topology_at(r) for r in range(1, 10))


def test_round_zero_is_rejected():
    sch = new_schedule("path", 4, 2, 10, 0)
    for r in (0, -1):
        with pytest.raises(InvalidParameters):
            sch.topology_at(r)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="star", n=5, delta=3, T=10, seed=0),  # star needs n-1
        dict(family="gnp", n=5, delta=4, T=math.inf, seed=0, p=0.3),
        dict(family="gnp", n=5, delta=4, T=10, seed=0),  # p missing
        dict(family="gnp", n=5, delta=4, T=10, seed=0, p=1.5),
        dict(family="random-tree", n=5, delta=1, T=10, seed=0),
        dict(family="path", n=5, delta=1, T=10, seed=0),
        dict(family="path", n=5, delta=5, T=10, seed=0),  # delta > n-1
        dict(family="path", n=5, delta=2, T=0, seed=0),
        dict(family="path", n=1, delta=1, T=10, seed=0),
        dict(family="path", n=5, delta=2, T=10, seed=0, p=0.5),  # stray p
        dict(family="ring", n=5, delta=2, T=10, seed=0),
        # a bool or a float where the record holds an integer (and p a
        # number): RunRecord.from_json_dict would refuse the record
        dict(family="path", n=5, delta=2, T=True, seed=0),
        dict(family="path", n=5, delta=2.0, T=10, seed=0),
        dict(family="path", n=5, delta=2, T=10, seed=1.5),
        dict(family="path", n=5, delta=2, T=10, seed=True),
        dict(family="path", n=6.0, delta=2, T=10, seed=0),
        dict(family="gnp", n=5, delta=4, T=10, seed=0, p=True),
        dict(family="gnp", n=5, delta=4, T=10, seed=0, p="0.5"),
    ],
)
def test_invalid_parameters(kwargs):
    with pytest.raises(InvalidParameters):
        ScheduleParams(**kwargs)
    with pytest.raises(InvalidParameters):
        new_schedule(**kwargs)


@pytest.mark.parametrize("family, delta, T, period", [
    ("path", 2, 3, 3),
    ("random-tree", 3, 1, 1),
    ("path", 2, math.inf, None),
    ("star", 5, 7, None),  # a star serves one snapshot at any T
])
def test_period(family, delta, T, period):
    assert new_schedule(family, 6, delta, T, 0).period == period
    assert ScheduleParams(family, 6, delta, T, 0).period == period


@pytest.mark.parametrize("family, delta, T, p, key", [
    # a star serves star(n) at every epoch, so T is not part of its key
    ("star", 5, 1, None, ("star", 6, 5)),
    ("star", 5, math.inf, None, ("star", 6, 5)),
    # a static path serves the unpermuted path(n) of epoch 0
    ("path", 2, math.inf, None, ("path", 6, 2)),
    ("path", 2, 7, None, None),
    ("random-tree", 3, math.inf, None, None),  # epoch 0 draws its tree
    ("gnp", 5, 1, 0.3, None),
])
def test_stream_facts(family, delta, T, p, key):
    params = ScheduleParams(family, 6, delta, T, 0, p)
    assert params.seed_invariant_key == key
    assert ScheduleParams(family, 6, delta, T, 99, p).seed_invariant_key == key
    assert params.may_disconnect == (family == "gnp")


@pytest.mark.parametrize("family, delta, p", [
    ("random-tree", 3, None), ("path", 2, None), ("gnp", 5, 0.3), ("star", 5, None),
])
def test_unknown_ranrut_variant_is_rejected(family, delta, p):
    params = ScheduleParams(family, 6, delta, 1, 0, p)
    with pytest.raises(InvalidParameters, match="bogus"):
        DynamicsSchedule(params, ranrut_variant="bogus")


def test_n2_path_with_delta1_is_valid():
    sch = new_schedule("path", 2, 1, math.inf, 0)
    assert sch.topology_at(1).edges == ((0, 1),)


def epoch_snapshot(params, epoch, variant):
    """Epoch ``epoch`` of a schedule's stream, built on its own from the
    single-snapshot generators (permuted paths through the validating
    constructor)."""
    if params.family == "star":
        return star(params.n)
    if params.family == "path" and epoch == 0:
        return path(params.n)
    rng = random.Random(derive_seed(params.seed, epoch))
    if params.family == "path":
        labels = list(range(1, params.n))
        rng.shuffle(labels)
        order = [0] + labels
        return Topology(params.n, zip(order, order[1:]))
    if params.family == "gnp":
        return gnp(params.n, params.p, rng)
    tree = prune(ranrut(params.n, rng, variant), params.delta, rng)
    return tree_to_topology(tree)


# consecutive rounds through several look-ahead batches (1 + 2 + ... + 64
# epochs is 127), rounds that skip epochs, inside a batch and past it, and
# rounds out of order: backwards inside a batch, back before it, and back
# to round 1
CONSECUTIVE = list(range(1, 301))
SKIPPING = [1, 2, 2, 4, 9, 10, 11, 40, 41, 90, 300, 301, 302, 1000, 1003, 1010, 1200]
BACKWARDS = [300, 299, 5, 301, 1, 1000, 2, 64, 63, 1000, 1]


@pytest.mark.parametrize("rounds", [CONSECUTIVE, SKIPPING, BACKWARDS],
                         ids=["consecutive", "skipping", "backwards"])
@pytest.mark.parametrize("params,variant", [
    (ScheduleParams("random-tree", 20, delta, T, seed), variant)
    for delta in (2, 4) for variant in RANRUT_VARIANTS for T, seed in ((1, 3), (3, 4))
] + [
    (ScheduleParams("gnp", n, n - 1, T, seed, p), "paper-literal")
    for p in (0.0, 0.3, 1.0) for n, T, seed in ((3, 1, 5), (8, 3, 6))
] + [
    (ScheduleParams(family, 7, delta, T, 8), "paper-literal")
    for family, delta in (("path", 2), ("star", 6)) for T in (1, 3, 10)
])
def test_lookahead_serves_per_epoch_snapshots(params, variant, rounds):
    # batches build several epochs in one go; each served snapshot must
    # equal, in every array and in a collection round's bits, the one
    # built on its own for that epoch
    schedule = DynamicsSchedule(params, ranrut_variant=variant)
    energies = np.random.default_rng(params.seed)
    for r in rounds:
        epoch = (r - 1) // params.T
        assert_same_snapshot(schedule.topology_at(r), epoch_snapshot(params, epoch, variant),
                             params.delta, energies)


def count_ranrut_calls(monkeypatch):
    """Patch the schedule's ``ranrut`` to count its calls; returns the
    one-item list that holds the count."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return ranrut(*args)

    monkeypatch.setattr(dynamics, "ranrut", counted)
    return calls


@pytest.mark.parametrize("T,seeds", [(1, range(6)), (4, range(3))])
def test_lookahead_builds_at_most_63_unserved_epochs(monkeypatch, T, seeds):
    calls = count_ranrut_calls(monkeypatch)
    unserved = []
    for seed in seeds:
        calls[0] = 0
        record = count(new_schedule("random-tree", 12, 4, T, seed))
        epochs = (record.rounds_total - 1) // T + 1
        assert epochs <= calls[0] <= epochs + 63
        unserved.append(calls[0] - epochs)
    assert max(unserved) > 0  # the schedule does build ahead


def test_jumps_build_one_epoch_each(monkeypatch):
    # every read of BACKWARDS lies outside the batch before it and does not
    # follow it, so each builds its epoch alone: 11 builds, after the one of
    # epoch 0 that the schedule makes when it is created
    calls = count_ranrut_calls(monkeypatch)
    schedule = new_schedule("random-tree", 20, 4, 1, 3)
    for r in BACKWARDS:
        schedule.topology_at(r)
    assert calls[0] == 1 + len(BACKWARDS)


@pytest.mark.parametrize("seed", [0, -5, 2**64 + 3])
def test_batches_match_epoch_by_epoch_draws(seed):
    # a schedule folds its seed once and reseeds its own generators for
    # every batch, and it prunes only the trees over the bound; epoch e must
    # still be the tree drawn and pruned on Random(derive_seed(seed, e))
    epochs = 1 + 2 + 4 + 8 + 16 + 32 + 64 + 64  # ends with two full batches
    fold = derive_seed(seed)
    assert all(splitmix64(fold ^ e) == derive_seed(seed, e) for e in range(epochs))
    n = 20
    for delta in (3, n - 1):
        for variant in RANRUT_VARIANTS:
            schedule = new_schedule("random-tree", n, delta, 1, seed, ranrut_variant=variant)
            pruned = 0
            for e in range(epochs):
                rng = random.Random(derive_seed(seed, e))
                tree = ranrut(n, rng, variant)
                state = rng.getstate()
                bounded = prune(tree, delta, rng)
                # a tree within the bound comes back equal, without a draw
                pruned += bounded != tree or rng.getstate() != state
                assert schedule.topology_at(e + 1) == tree_to_topology(bounded)
            # at delta = n - 1 no tree is over the bound
            assert (pruned > 0) == (delta < n - 1)
