"""Shared test oracles, kept independent of the library's own update paths."""

import numpy as np

from adncount import Topology
from adncount.protocol import collection_round, notification_rounds, verification_rounds


def gnp_oracle(n, p, rng):
    """G(n, p) by one ``rng.random()`` call per pair (u, v), u < v, in
    row-major order, through the validating constructor."""
    return Topology(n, [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ])


def assert_same_snapshot(topo, checked, delta, energies):
    """Every field and kernel array of ``topo`` equals that of ``checked``,
    element for element and in the same order; one collection round on a
    random energy vector gives the same bits."""
    assert topo.edges == checked.edges
    assert topo.degrees.tolist() == checked.degrees.tolist()
    assert topo.max_degree == checked.max_degree
    assert neighbor_lists(topo) == neighbor_lists(checked)
    for got, want in zip(topo.symmetric_arrays() + topo.collection_arrays(),
                         checked.symmetric_arrays() + checked.collection_arrays()):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
    assert topo.retention(delta).tobytes() == checked.retention(delta).tobytes()
    energy = energies.random(topo.n)
    assert (collection_round(energy, topo, delta).tobytes()
            == collection_round(energy, checked, delta).tobytes())


def dense_share_matrix(topology, delta):
    """Share-fraction matrix built entry by entry from its definition.

    F[i][j] is the fraction of node j's energy that node i receives in one
    round: non-leader j keeps 1 - deg(j)/(2*delta) and gives 1/(2*delta) to
    each neighbor; the leader's column is the unit vector (it sends
    nothing). The dense product F @ e is the oracle for the sparse
    per-edge collection update.
    """
    n = topology.n
    share = 1.0 / (2.0 * delta)
    F = np.zeros((n, n))
    F[0, 0] = 1.0
    for j in range(1, n):
        F[j, j] = 1.0 - topology.degrees[j] * share
    for u, v in topology.edges:
        if v != 0:
            F[u, v] = share
        if u != 0:
            F[v, u] = share
    return F


def neighbor_lists(topology):
    """Each node's neighbours in sorted edge order."""
    lists = [[] for _ in range(topology.n)]
    for u, v in topology.edges:
        lists[u].append(v)
        lists[v].append(u)
    return tuple(tuple(ns) for ns in lists)


def is_connected(topology):
    if topology.n == 1:
        return True
    adjacent = neighbor_lists(topology)
    seen = [False] * topology.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in adjacent[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == topology.n


def validate_tree(parents):
    """Check that ``parents`` is a preorder parent list: vertex 0 is the
    root, with parent -1, and the parent of every other vertex v is v - 1 or
    an ancestor of v - 1."""
    if not parents or parents[0] != -1:
        raise ValueError("vertex 0 must be the root, with parent -1")
    for v in range(1, len(parents)):
        p = parents[v]
        if p < 0:
            raise ValueError(f"vertex {v} has parent {p}")
        a = v - 1
        while a > p:
            a = parents[a]
        if a != p:
            raise ValueError(f"vertex {v}: parent {p} is not v - 1 or an ancestor of it")


def tree_depth(parents):
    """Longest root-to-leaf path, in edges."""
    depth = [0] * len(parents)
    for v in range(1, len(parents)):
        depth[v] = depth[parents[v]] + 1
    return max(depth)


def graph_degree(parents, v):
    return parents.count(v) + (0 if v == 0 else 1)


def max_graph_degree(parents):
    return max(graph_degree(parents, v) for v in range(len(parents)))


def degree_sequence(topology):
    return sorted(int(d) for d in topology.degrees)


def is_path_graph(topology):
    n = topology.n
    if n == 1:
        return len(topology.edges) == 0
    if n == 2:
        return degree_sequence(topology) == [1, 1]
    return (
        is_connected(topology)
        and degree_sequence(topology) == [1, 1] + [2] * (n - 2)
    )


def verification_rounds_oracle(k, c):
    """High-precision evaluation of 1 + ceil(k / (1 - 1/k^c))."""
    import mpmath

    with mpmath.workdps(60):
        val = k / (1 - mpmath.mpf(k) ** (-mpmath.mpf(str(c))))
        return 1 + int(mpmath.ceil(val))


def collection_budget_oracle(k, delta):
    """High-precision evaluation of k * ceil((2*delta)^k * ln k)."""
    import mpmath

    with mpmath.workdps(60):
        return k * int(mpmath.ceil(mpmath.mpf((2 * delta) ** k) * mpmath.log(k)))


class ListSchedule:
    """A snapshot stream for ``count`` made of given snapshots: each is in
    force for ``params.T`` rounds (a finite T), in order, and the list
    starts over when it runs out. ``params`` gives n, delta and the record
    fields."""

    def __init__(self, params, snapshots):
        self.params = params
        self.period = params.T
        self._snapshots = list(snapshots)

    def topology_at(self, r):
        return self._snapshots[(r - 1) // self.period % len(self._snapshots)]


def prufer_tree(n, sequence):
    """The tree on 0..n-1 with the given Prüfer sequence (length n - 2);
    vertex v has degree 1 + (appearances of v in the sequence)."""
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    for v in sequence:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return Topology(n, edges)


def dense_phase_lengths(schedule, c):
    """Per-k (k, collection, verification, notification) rounds of the
    protocol without disconnection tolerance, replayed densely on
    ``schedule``: collection multiplies by ``dense_share_matrix``, and the
    max- and OR-gossips go over the closed adjacency matrix."""
    n, delta = schedule.params.n, schedule.params.delta
    slack = 1e-9 * n  # the engine's documented conservation tolerance
    dense = {}  # per snapshot: (share matrix, closed adjacency)
    r = 0

    def step():
        nonlocal r
        r += 1
        topology = schedule.topology_at(r)
        if topology not in dense:
            closed = np.eye(n, dtype=bool)
            for u, v in topology.edges:
                closed[u, v] = closed[v, u] = True
            dense[topology] = (dense_share_matrix(topology, delta), closed)
        return dense[topology]

    phases = []
    k = 1
    while True:
        k += 1
        energy = np.ones(n)
        energy[0] = 0.0
        collection = 0
        while energy[0] < k - 1 - k ** (-c):
            energy = step()[0] @ energy
            collection += 1
        correct = energy[0] <= k - 1 + slack
        residual = energy.copy()
        residual[0] = 0.0
        for _ in range(verification_rounds(k, c)):
            residual = np.where(step()[1], residual, -np.inf).max(axis=1)
        correct = correct and residual[0] <= k ** (-c) + slack
        halt = np.zeros(n, dtype=bool)
        halt[0] = correct
        for _ in range(notification_rounds(k)):
            halt = (step()[1] & halt).any(axis=1)
        phases.append((k, collection, verification_rounds(k, c), notification_rounds(k)))
        if correct:
            return phases
