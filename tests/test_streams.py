"""The stream contract: ``count`` reads only a stream's ``params`` and
``topology_at``, so any stream of degree-bounded snapshots can drive it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adncount import DynamicsSchedule, ProtocolConfig, ScheduleParams, Topology, count, path, star
from adncount.protocol import record_inputs
from helpers import (ListSchedule, assert_kernels_match_oracles, checks, prufer_tree,
                     replay_stream)


@pytest.mark.parametrize("params", [
    ScheduleParams("random-tree", 10, 3, 1, 5),
    ScheduleParams("path", 8, 2, 3, 6),
    ScheduleParams("gnp", 10, 9, 10, 7, p=0.3),
], ids=lambda params: f"{params.family}-T{params.T}")
def test_list_of_served_snapshots_gives_the_same_record(params):
    config = ProtocolConfig(disconnection_tolerant=params.may_disconnect)
    record = count(DynamicsSchedule(params), config)
    schedule = DynamicsSchedule(params)
    served = [schedule.topology_at(r) for r in range(1, record.rounds_total + 1, params.T)]
    assert count(ListSchedule(params, served), config) == record


@pytest.mark.parametrize("params", [
    ScheduleParams("star", 4, 3, 2, 0),
    ScheduleParams("path", 4, 2, math.inf, 0),
], ids=["star", "static"])
def test_list_schedule_refuses_params_without_period_T(params):
    # count would open only epoch 0 and never serve path(4)
    with pytest.raises(ValueError, match="period is T"):
        ListSchedule(params, [star(4), path(4)])


def degree_bounded_trees(draw):
    """ScheduleParams and one to four trees on n nodes with degrees at most
    delta: each tree from a Prüfer sequence in which every label appears at
    most delta - 1 times."""
    n = draw(st.integers(3, 14))
    delta = draw(st.integers(2, min(4, n - 1)))
    T = draw(st.integers(1, 5))
    labels = [v for v in range(n) for _ in range(delta - 1)]
    sequences = draw(st.lists(st.permutations(labels), min_size=1, max_size=4))
    trees = [prufer_tree(n, sequence[:n - 2]) for sequence in sequences]
    # the family only labels the record: a ListSchedule serves any graphs
    return ScheduleParams("random-tree", n, delta, T, 0), trees


@st.composite
def tree_streams(draw):
    """A ListSchedule of ``degree_bounded_trees``."""
    return ListSchedule(*degree_bounded_trees(draw))


def connected_graphs(draw):
    """``degree_bounded_trees`` plus drawn extra edges: an edge is kept only
    if it is new and both its endpoints stay at degree at most delta, so
    every graph is connected and most have cycles."""
    params, trees = degree_bounded_trees(draw)
    n, delta = params.n, params.delta
    graphs = []
    for tree in trees:
        edges = set(tree.edges)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        node = st.integers(0, n - 1)
        for u, v in draw(st.lists(st.tuples(node, node), min_size=n // 2, max_size=2 * n)):
            edge = (min(u, v), max(u, v))
            if u != v and edge not in edges and max(degree[u], degree[v]) < delta:
                edges.add(edge)
                degree[u] += 1
                degree[v] += 1
        graphs.append(Topology(n, sorted(edges)))
    return params, graphs


@st.composite
def connected_streams(draw):
    """A ListSchedule of ``connected_graphs``."""
    return ListSchedule(*connected_graphs(draw))


def disconnecting_graphs(draw):
    """``connected_graphs`` with drawn edges dropped from every graph but
    the first, which stays whole, so the stream is connected once per pass
    over the list and may be disconnected in between."""
    params, graphs = connected_graphs(draw)
    for i, graph in enumerate(graphs[1:], 1):
        keep = draw(st.lists(st.booleans(), min_size=len(graph.edges),
                             max_size=len(graph.edges)))
        graphs[i] = Topology(params.n, [e for e, kept in zip(graph.edges, keep) if kept])
    return params, graphs


@st.composite
def disconnecting_streams(draw):
    """A ListSchedule of ``disconnecting_graphs``."""
    return ListSchedule(*disconnecting_graphs(draw))


def assert_stream_properties(stream, tolerant=False):
    config = ProtocolConfig(disconnection_tolerant=tolerant)
    record = count(stream, config)
    expect = record_inputs(stream.params, config) | {"tolerant": tolerant}
    assert checks.record_errors(record, expect) == []
    replayed = replay_stream(stream, record.c, tolerant, record.rounds_total)
    assert checks.reference_errors(replayed, record) == []


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(tree_streams())
def test_degree_bounded_tree_streams(stream):
    assert_stream_properties(stream)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(connected_streams())
def test_degree_bounded_connected_streams(stream):
    assert_stream_properties(stream)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(disconnecting_streams())
def test_disconnecting_streams_in_tolerant_mode(stream):
    assert_stream_properties(stream, tolerant=True)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([degree_bounded_trees, connected_graphs, disconnecting_graphs]),
       st.data(), st.integers(0, 2**32))
def test_kernels_match_oracles_on_stream_snapshots(graphs, data, seed):
    params, snapshots = graphs(data.draw)
    rng = np.random.default_rng(seed)
    for topology in snapshots:
        assert_kernels_match_oracles(topology, params.delta, rng)
