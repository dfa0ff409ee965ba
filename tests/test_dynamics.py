"""Schedules: T-stability, per-family change semantics, determinism."""

import math
import random

import numpy as np
import pytest

from adncount import (DynamicsSchedule, ScheduleParams, SubtreeDistribution, Topology, count,
                      derive_seed, dynamics, gnp, new_schedule, path, prune, ranrut,
                      sizes_table, star, tree_to_topology)
from adncount.errors import InvalidParameters, NonMonotoneAccess
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


def test_monotone_access():
    sch = new_schedule("path", 4, 2, 10, 0)
    sch.topology_at(5)
    sch.topology_at(5)  # same round is fine
    sch.topology_at(6)
    with pytest.raises(NonMonotoneAccess):
        sch.topology_at(4)
    with pytest.raises(NonMonotoneAccess):
        sch.topology_at(0)


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
    ],
)
def test_invalid_parameters(kwargs):
    with pytest.raises(InvalidParameters):
        new_schedule(**kwargs)


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
    dist = SubtreeDistribution(sizes_table(params.n), params.n)
    tree = prune(ranrut(params.n, dist, rng, variant), params.delta, rng)
    return tree_to_topology(tree)


# consecutive rounds through several look-ahead batches (1 + 2 + ... + 64
# epochs is 127), then rounds that skip epochs, inside a batch and past it
CONSECUTIVE = list(range(1, 301))
SKIPPING = [1, 2, 2, 4, 9, 10, 11, 40, 41, 90, 300, 301, 302, 1000, 1003, 1010, 1200]


@pytest.mark.parametrize("rounds", [CONSECUTIVE, SKIPPING], ids=["consecutive", "skipping"])
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


@pytest.mark.parametrize("T,seeds", [(1, range(6)), (4, range(3))])
def test_lookahead_builds_at_most_63_unserved_epochs(monkeypatch, T, seeds):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return ranrut(*args)

    monkeypatch.setattr(dynamics, "ranrut", counted)
    unserved = []
    for seed in seeds:
        calls = 0
        record = count(new_schedule("random-tree", 12, 4, T, seed))
        epochs = (record.rounds_total - 1) // T + 1
        assert epochs <= calls <= epochs + 63
        unserved.append(calls - epochs)
    assert max(unserved) > 0  # the schedule does build ahead
