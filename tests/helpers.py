"""Shared test oracles, kept independent of the library's own update paths."""

import importlib.util
import random
from pathlib import Path
from unittest import mock

import numpy as np

from adncount import Topology, derive_seed, gnp, path, prune, ranrut, star, tree_to_topology
from adncount.errors import InvalidParameters
from adncount.protocol import (_Diagnostics, collection_operands, collection_round,
                               heard_round, notification_round, verification_round)


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module: perfbench/ is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's dense replay of the three phases is the tests' one
# phase-length reference, and its record checks are theirs too.
reference = load_perfbench("reference")
checks = load_perfbench("checks")


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
    assert (collection_round(energy, collection_operands(topo, delta)).tobytes()
            == collection_round(energy, collection_operands(checked, delta)).tobytes())


def heard_oracle(heard, topology):
    """One heard round on Python-int origin sets, edge by edge: for every
    edge (u, v), u's set gains v's and v's gains u's."""
    new = list(heard)
    for u, v in topology.edges:
        new[u] |= heard[v]
        new[v] |= heard[u]
    return new


def heard_words(sets):
    """Python-int origin sets of n nodes as the (ceil(n/64), n) uint64
    words of ``heard_round``: origin j is bit j % 64 of word j // 64."""
    words = -(-len(sets) // 64)
    return np.array([[s >> 64 * w & (1 << 64) - 1 for s in sets] for w in range(words)],
                    dtype=np.uint64)


# Collection, notification and the diagnostics fold as first written, one
# numpy call per step with keyword outputs and ufunc.at scatters. The
# library's kernels must give the same bytes: they do the same
# floating-point operations in the same order, by cheaper call forms.
# Max-gossip and the heard union are checked against per-node references
# instead.

def collection_round_oracle(energy, operands, out=None):
    retain, src, dst, two_delta = operands
    new = np.multiply(retain, energy, out=out)
    if src.size:
        inflow = np.bincount(dst, energy[src], energy.size)
        inflow /= two_delta
        new += inflow
    return new


def notification_round_oracle(halt, pairs):
    new = halt.copy()
    src, dst = pairs
    if src.size:
        np.logical_or.at(new, dst, halt[src])
    return new


class DiagnosticsOracle(_Diagnostics):
    """``_Diagnostics`` with the leader gains taken by ``np.diff``."""

    def fold(self, block, prev_leader, n):
        if not len(block):
            return
        err = float(np.abs(block.sum(axis=1) - (n - 1.0)).max())
        self.max_conservation_error = max(self.max_conservation_error, err)
        nonleader = float(block[:, 1:].max())
        self.max_nonleader_energy = max(self.max_nonleader_energy, nonleader)
        self.min_energy = min(self.min_energy, float(block.min()))
        gain = float(np.diff(block[:, 0], prepend=prev_leader).min())
        self.min_leader_gain = min(self.min_leader_gain, gain)


def assert_kernels_match_oracles(topology, delta, rng):
    """Every round kernel, on ``topology``'s operands and random inputs
    from the numpy Generator ``rng``, gives the bytes of its oracle or
    reference; ``collection_round`` with and without ``out``, which it
    returns."""
    n = topology.n
    energy = rng.random(n)
    operands = collection_operands(topology, delta)
    want = collection_round_oracle(energy, operands).tobytes()
    assert collection_round(energy, operands).tobytes() == want
    row = np.full(n, np.nan)
    assert collection_round(energy, operands, row) is row
    assert row.tobytes() == want
    pairs = topology.symmetric_arrays()
    # max-gossip: each node's value and its neighbours', by max() per node
    maxima = [max(energy[[i, *ns]].tolist()) for i, ns in enumerate(neighbor_lists(topology))]
    assert verification_round(energy, pairs).tobytes() == np.array(maxima).tobytes()
    for halt in (rng.random(n) < 0.3, np.arange(n) == 0):
        assert (notification_round(halt, pairs).tobytes()
                == notification_round_oracle(halt, pairs).tobytes())
    heard = rng.integers(0, 2**64, (-(-n // 64), n), dtype=np.uint64)
    sets = [sum(int(word) << 64 * w for w, word in enumerate(column)) for column in heard.T]
    want = heard_words(heard_oracle(sets, topology))
    assert heard_round(heard, pairs).tobytes() == want.tobytes()


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


def spectral_collection_lengths(topology, delta, c, ks):
    """Experimental collection length of each k in ``ks`` on the static,
    connected snapshot ``topology``, predicted from a spectrum instead of
    by running rounds.

    Q, the non-leader block of ``dense_share_matrix``, is symmetric with
    eigenvalues in [0, 1), so after r rounds from (0, 1, ..., 1) the leader
    holds (n - 1) - sum_i w_i lambda_i^r, with w_i the square of
    eigenvector i's component along the all-ones vector. The length for k
    is the least r >= 1 at which this reaches k - 1 - k^-c; the leader's
    energy only grows, so a doubling and a bisection find it.

    Returns {k: length}. A k is undecided (None) when the predicted energy
    after its last round or the round before lies within
    16 (r + 1) n (n - 1) eps of the threshold: a generous bound on the
    eigensolver's error and on the float drift of r engine rounds.
    """
    n = topology.n
    lam, vectors = np.linalg.eigh(dense_share_matrix(topology, delta)[1:, 1:])
    weights = vectors.sum(axis=0) ** 2
    eps = np.finfo(float).eps

    def leader(r):
        return (n - 1) - float(weights @ lam ** r)

    lengths = {}
    for k in ks:
        threshold = k - 1 - k ** (-c)
        hi = 1
        while leader(hi) < threshold:
            hi *= 2
        lo = hi // 2  # leader(lo) < threshold <= leader(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if leader(mid) < threshold:
                lo = mid
            else:
                hi = mid
        close = any(abs(leader(r) - threshold) <= 16 * (r + 1) * n * (n - 1) * eps
                    for r in (hi - 1, hi))
        lengths[k] = None if close else hi
    return lengths


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


def prune_walk_oracle(parents, delta, rng):
    """``trees.prune`` as one depth-first walk over the whole tree, with
    its draws through ``rng.randrange``: the same feasibility checks, the
    same pruned parent list and the same generator consumption."""
    n = len(parents)
    if n >= 3 and delta < 2:
        raise InvalidParameters(
            f"no tree on {n} >= 3 vertices has max degree <= {delta}"
        )
    if delta < 1:
        raise InvalidParameters("delta must be >= 1")
    full = delta - 1  # a non-root vertex with this many children has no room
    children = [[] for _ in parents]
    for v in range(1, n):
        children[parents[v]].append(v)
    # Re-attaching only ever moves a subtree below a descendant of the
    # visited vertex, so each child list is final once its vertex is
    # visited: the visit order is the pruned tree's preorder.
    pruned = []
    stack = [0]
    above = [-1]  # preorder index of each stacked vertex's parent
    while stack:
        v = stack.pop()
        label = len(pruned)
        pruned.append(above.pop())
        kids = children[v]
        if not kids:
            continue
        limit = delta if v == 0 else full
        while len(kids) > limit:
            sub = kids.pop()  # rightmost subtree
            # v is still full: descend through uniform children until one
            # has room
            w = kids[rng.randrange(len(kids))]
            while len(children[w]) >= full:
                w = children[w][rng.randrange(len(children[w]))]
            children[w].append(sub)
        if len(kids) == 1:
            # the common case at small delta (every non-root vertex at
            # delta 2); a plain push is cheaper than the two extends
            stack.append(kids[0])
            above.append(label)
        else:
            stack.extend(reversed(kids))
            above.extend([label] * len(kids))
    return pruned


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
    fields. ``count`` opens epochs every ``params.period`` rounds, so params
    whose period is not T (a star, or T = inf) raise ValueError: the stream
    would serve its first snapshot alone."""

    def __init__(self, params, snapshots):
        if params.period != params.T:
            raise ValueError(f"a list stream needs params whose period is T, got {params}")
        self.params = params
        self._snapshots = list(snapshots)

    def topology_at(self, r):
        return self._snapshots[(r - 1) // self.params.T % len(self._snapshots)]


def epoch_snapshot(params, epoch, variant="paper-literal"):
    """Epoch ``epoch`` of a schedule's stream, built on its own from the
    single-snapshot generators (permuted paths through the validating
    constructor). Random trees are drawn in ranrut's ``variant``; a
    schedule's own are ``paper-literal``."""
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


class VariantSchedule:
    """The stream of a finite-T ``params`` with its random trees drawn in
    ranrut's ``variant``: epoch e's snapshot is ``epoch_snapshot(params, e,
    variant)``, built on every read."""

    def __init__(self, params, variant):
        self.params = params
        self.variant = variant

    def topology_at(self, r):
        return epoch_snapshot(self.params, (r - 1) // self.params.T, self.variant)


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


def replay_stream(stream, c, tolerant, max_rounds):
    """``reference.replay`` on any stream, not only a fresh schedule of its
    params: the replay builds its snapshots with ``DynamicsSchedule(params)``,
    which serves ``stream`` meanwhile (a renamed global fails the patch).
    Returns (estimate, [(k, collection, verification, notification)])."""
    with mock.patch.object(reference, "DynamicsSchedule", lambda params: stream):
        return reference.replay(stream.params, c, tolerant, max_rounds)
