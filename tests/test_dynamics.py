"""Schedules: T-stability, per-family change semantics, determinism."""

import math

import pytest

from adncount import DynamicsSchedule, ScheduleParams, dynamics, new_schedule
from adncount.errors import InvalidParameters, NonMonotoneAccess
from helpers import is_connected


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
