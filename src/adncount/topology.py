"""Network snapshots: the graph families fed to the counting protocol.

A ``Topology`` is one round's undirected simple graph over node indices
0..n-1 with node 0 as the leader. The star, path and G(n, p) families are
generated here; random trees come from the ``trees`` pipeline and are
converted with ``tree_to_topology``. Paths, G(n, p) graphs and trees are
also built in batches (``path_topologies``, ``gnp_topologies``,
``tree_topologies``), with one array operation per field for the whole
batch; the single-snapshot generators are batches of one.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from .errors import INTEGER, LIST, InvalidParameters, read_fields


def _is_index(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Topology:
    """Immutable snapshot; holds the flat edge arrays used per round.

    Snapshots are built in batches by ``_fill``, from the concatenation of
    their C-contiguous (m, 2) intp arrays of normalised (u < v), sorted,
    distinct edges; every array a snapshot holds is a slice of an array
    shared by its batch. ``__init__`` validates arbitrary edges and fills a
    batch of one; the generators build the pair arrays directly and enter
    through ``_batch``.
    """

    __slots__ = ("n", "_edges", "degrees", "max_degree", "_coll_arrays",
                 "_sym_arrays", "_retention")

    def __init__(self, n: int, edges):
        if n < 1:
            raise InvalidParameters("n must be >= 1")
        normalized = []
        seen = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InvalidParameters(f"edge {edge!r} is not a pair of nodes") from None
            if not (_is_index(u) and _is_index(v)):
                raise InvalidParameters(f"edge ({u},{v}) has a non-integer endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameters(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidParameters(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidParameters(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        normalized.sort()
        pairs = np.array(normalized, dtype=np.intp).reshape(-1, 2)
        _fill((self,), n, pairs, (len(normalized),))

    @classmethod
    def _batch(cls, n: int, pairs, sizes, delta: int | None = None) -> list["Topology"]:
        """Snapshots on n nodes, the i-th of them from the next ``sizes[i]``
        rows of ``pairs``; no validation. See ``_fill``."""
        snapshots = [cls.__new__(cls) for _ in range(len(sizes))]
        _fill(snapshots, n, pairs, sizes, delta)
        return snapshots

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Normalised (u < v), sorted, distinct edges, built from the edge
        arrays on first use."""
        if self._edges is None:
            ends = self._sym_arrays[0]
            self._edges = tuple(zip(ends[0::2].tolist(), ends[1::2].tolist()))
        return self._edges

    def __eq__(self, other):
        return (
            isinstance(other, Topology)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Topology(n={self.n}, edges={len(self.edges)})"

    def collection_arrays(self):
        """Directed (src, dst) pairs with non-leader senders only: the
        ``symmetric_arrays`` pairs whose source is not node 0."""
        return self._coll_arrays

    def symmetric_arrays(self):
        """Directed (src, dst) pairs in both directions for every edge.

        Each edge (u, v) yields u -> v immediately followed by v -> u, in
        sorted edge order; the per-node float sums in the round kernels add
        inflows in this order.
        """
        return self._sym_arrays

    def retention(self, delta: int):
        """Per-node kept fraction 1 - deg/(2*delta); the leader keeps 1."""
        retain = self._retention.get(delta)
        if retain is None:
            retain = self._retention[delta] = _retain(self.degrees, delta)
        return retain

    def to_json_dict(self) -> dict:
        return {"n": self.n, "leader": 0, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Topology":
        data = read_fields(data, "topology", _TOPOLOGY_CHECKS, {"leader": 0})
        return cls(data["n"], data["edges"])


_TOPOLOGY_CHECKS = {"n": INTEGER, "edges": LIST,
                    "leader": (lambda value: _is_index(value) and value == 0, "node 0")}


def star(n: int) -> Topology:
    """Leader adjacent to all n-1 others; no other edges."""
    if n < 2:
        raise InvalidParameters("star requires n >= 2")
    pairs = np.zeros((n - 1, 2), dtype=np.intp)
    pairs[:, 1] = np.arange(1, n)
    return Topology._batch(n, pairs, (n - 1,))[0]


def path(n: int) -> Topology:
    """Edges {i, i+1}; the leader sits at one endpoint."""
    if n < 2:
        raise InvalidParameters("path requires n >= 2")
    return path_topologies((range(n),))[0]


def path_topologies(orders, delta: int | None = None) -> list[Topology]:
    """One path per node order, all of one length n: edges join the nodes
    that are adjacent in the order."""
    order = np.array(orders, dtype=np.intp)
    batch, n = order.shape
    before, after = order[:, :-1], order[:, 1:]
    # each edge (u, v), u < v, as the key u*n + v, so one sort per path
    # orders its edges by u, then v
    keys = np.sort(np.minimum(before, after) * n + np.maximum(before, after), axis=1)
    pairs = np.stack(np.divmod(keys, n), axis=2).reshape(-1, 2)
    return Topology._batch(n, pairs, (n - 1,) * batch, delta)


def gnp(n: int, p: float, rng: random.Random) -> Topology:
    """Erdos-Renyi G(n, p); may be disconnected. See ``gnp_topologies``."""
    return gnp_topologies(n, p, (rng,))[0]


def gnp_topologies(n: int, p: float, rngs, delta: int | None = None) -> list[Topology]:
    """One G(n, p) snapshot per generator.

    Pair (u, v), u < v, in row-major order is an edge exactly when the
    ``rng.random()`` call of its turn would return less than p, but each
    generator's m = n(n-1)/2 draws are taken in one ``getrandbits(64*m)``
    read, and the reads of the batch are joined and viewed at once:

    * ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` for two
      consecutive 32-bit outputs a, b, and ``getrandbits`` packs its
      outputs low word first, so the little-endian 64-bit word i holds
      draw i as ``k = (w & 0xFFFFFFFF) >> 5 << 26 | w >> 38``;
    * ``k / 2**53 < p`` holds exactly when ``k < ceil(p * 2**53)``: k is
      an integer below 2**53 and the scaling by a power of two is exact,
      so the test is the same for every p in [0, 1], the ends included;
    * the read consumes exactly the 2m outputs that m ``random()`` calls
      consume, so the generator's state afterwards is the same as well.
    """
    if n < 2:
        raise InvalidParameters("gnp requires n >= 2")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameters("p must be in [0, 1]")
    m = n * (n - 1) // 2
    words = np.frombuffer(
        b"".join([rng.getrandbits(64 * m).to_bytes(8 * m, "little") for rng in rngs]), "<u8")
    draws = (words & 0xFFFFFFFF) >> 5 << 26 | words >> 38
    keep = (draws < math.ceil(p * 2.0 ** 53)).reshape(-1, m)
    return Topology._batch(n, _upper_pairs(n)[np.flatnonzero(keep) % m],
                           np.count_nonzero(keep, axis=1), delta)


@lru_cache(maxsize=None)
def _upper_pairs(n: int):
    """Every pair (u, v), u < v, in row-major (sorted) order, read-only."""
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    pairs.flags.writeable = False
    return pairs


def tree_to_topology(parents: list[int]) -> Topology:
    """The snapshot of a rooted tree, from its preorder parent list (see
    ``trees``): vertex v becomes node v, so the root is the leader."""
    return tree_topologies(np.array([parents], dtype=np.intp))[0]


def tree_topologies(labels, delta: int | None = None) -> list[Topology]:
    """The snapshots of rooted trees, all on n vertices, from the (batch, n)
    intp array of their preorder parent lists; see ``tree_to_topology``.

    A stable sort by parent label puts each tree's edges (parent, child) in
    sorted order, since in a preorder every parent is below its child.
    """
    batch, n = labels.shape
    parents = labels[:, 1:]
    child = parents.argsort(axis=1, kind="stable")
    pairs = np.empty((batch, n - 1, 2), dtype=np.intp)
    pairs[..., 0] = np.sort(parents, axis=1)  # the labels in ``child`` order
    pairs[..., 1] = child + 1
    return Topology._batch(n, pairs.reshape(-1, 2), (n - 1,) * batch, delta)


def _retain(degrees, delta: int):
    """Kept fraction 1 - deg/(2*delta) per node, per row of ``degrees``;
    the leader (column 0) keeps 1."""
    retain = 1.0 - degrees / (2.0 * delta)
    retain[..., 0] = 1.0
    return retain


def _fill(snapshots, n: int, pairs, sizes, delta: int | None = None) -> None:
    """Set every slot of each snapshot from one batch's pair array.

    ``pairs`` is the C-contiguous intp concatenation of each snapshot's
    (m, 2) array of normalised, sorted, distinct edges, ``sizes`` the m of
    each. Each field is computed once for the whole batch, and every
    snapshot gets its slice; with ``delta`` the retention row for it is
    filled too. ``edges`` follows on first use.
    """
    batch = len(snapshots)
    sizes = np.asarray(sizes, dtype=np.intp)
    src = pairs.ravel()
    dst = pairs[:, ::-1].ravel()
    # each node's count lands in its snapshot's row of a (batch, n) table
    rows = np.repeat(np.arange(0, batch * n, n), 2 * sizes)
    degrees = np.bincount(src + rows, minlength=batch * n).reshape(batch, n)
    max_degrees = degrees.max(axis=1).tolist()
    keep = src != 0
    coll_src, coll_dst = src[keep], dst[keep]
    # a snapshot holds 2m directed pairs, deg(0) of them sent by the leader
    sym_ends = np.cumsum(2 * sizes)
    coll_ends = (sym_ends - np.cumsum(degrees[:, 0])).tolist()
    sym_ends = sym_ends.tolist()
    retain = None if delta is None else _retain(degrees, delta)
    sym_start = coll_start = 0
    for i, snapshot in enumerate(snapshots):
        sym_end, coll_end = sym_ends[i], coll_ends[i]
        snapshot.n = n
        snapshot._edges = None
        snapshot.degrees = degrees[i]
        snapshot.max_degree = max_degrees[i]
        snapshot._sym_arrays = (src[sym_start:sym_end], dst[sym_start:sym_end])
        snapshot._coll_arrays = (coll_src[coll_start:coll_end], coll_dst[coll_start:coll_end])
        snapshot._retention = {} if retain is None else {delta: retain[i]}
        sym_start, coll_start = sym_end, coll_end
