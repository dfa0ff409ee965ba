"""Network snapshots: the graph families fed to the counting protocol.

A ``Topology`` is one round's undirected simple graph over node indices
0..n-1 with node 0 as the leader. The star, path and G(n, p) families are
generated here; random trees come from the ``trees`` pipeline and are
converted with ``tree_to_topology``.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from .trees import RootedTree


def _is_index(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Topology:
    """Immutable snapshot; caches the flat edge arrays used per round.

    Every snapshot is filled by ``_fill`` from a C-contiguous (m, 2) intp
    array of normalised (u < v), sorted, distinct edges. ``__init__``
    validates arbitrary edges and builds that array; the generators build
    it directly and enter through ``_from_pairs``.
    """

    __slots__ = ("n", "_edges", "degrees", "max_degree", "_coll_arrays",
                 "_sym_arrays", "_retention")

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("n must be >= 1")
        normalized = []
        seen = set()
        for u, v in edges:
            if not (_is_index(u) and _is_index(v)):
                raise ValueError(f"edge ({u},{v}) has a non-integer endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        normalized.sort()
        self._fill(n, np.array(normalized, dtype=np.intp).reshape(-1, 2))

    @classmethod
    def _from_pairs(cls, n: int, pairs) -> "Topology":
        """Snapshot from a C-contiguous (m, 2) intp array of normalised,
        sorted, distinct edges; no validation."""
        topology = cls.__new__(cls)
        topology._fill(n, pairs)
        return topology

    def _fill(self, n: int, pairs) -> None:
        """Set every slot from the pair array; ``edges`` follows on first use."""
        ends = pairs.ravel()
        self.n = n
        self._edges = None
        self.degrees = np.bincount(ends, minlength=n)
        self.max_degree = int(self.degrees.max())
        self._coll_arrays = None
        self._sym_arrays = (ends, pairs[:, ::-1].ravel())
        self._retention = {}

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
        """Directed (src, dst) pairs with non-leader senders only."""
        if self._coll_arrays is None:
            src, dst = self.symmetric_arrays()
            keep = src != 0
            self._coll_arrays = (src[keep], dst[keep])
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
            retain = 1.0 - self.degrees / (2.0 * delta)
            retain[0] = 1.0
            self._retention[delta] = retain
        return retain

    def to_json_dict(self) -> dict:
        return {"n": self.n, "leader": 0, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Topology":
        if data.get("leader", 0) != 0:
            raise ValueError("leader must be node 0")
        return cls(data["n"], [tuple(e) for e in data["edges"]])


def star(n: int) -> Topology:
    """Leader adjacent to all n-1 others; no other edges."""
    if n < 2:
        raise ValueError("star requires n >= 2")
    pairs = np.zeros((n - 1, 2), dtype=np.intp)
    pairs[:, 1] = np.arange(1, n)
    return Topology._from_pairs(n, pairs)


def path(n: int) -> Topology:
    """Edges {i, i+1}; the leader sits at one endpoint."""
    if n < 2:
        raise ValueError("path requires n >= 2")
    pairs = np.arange(n - 1, dtype=np.intp)[:, None] + np.arange(2, dtype=np.intp)
    return Topology._from_pairs(n, pairs)


def gnp(n: int, p: float, rng: random.Random) -> Topology:
    """Erdos-Renyi G(n, p); may be disconnected.

    Pair (u, v), u < v, in row-major order is an edge exactly when the
    ``rng.random()`` call of its turn would return less than p, but all
    m = n(n-1)/2 draws are taken in one ``getrandbits(64*m)`` read:

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
        raise ValueError("gnp requires n >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    m = n * (n - 1) // 2
    words = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u8")
    draws = (words & 0xFFFFFFFF) >> 5 << 26 | words >> 38
    keep = draws < math.ceil(p * 2.0 ** 53)
    return Topology._from_pairs(n, _upper_pairs(n).compress(keep, axis=0))


@lru_cache(maxsize=None)
def _upper_pairs(n: int):
    """Every pair (u, v), u < v, in row-major (sorted) order, read-only."""
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    pairs.flags.writeable = False
    return pairs


def tree_to_topology(tree: RootedTree) -> Topology:
    """Relabel a rooted tree in preorder (root -> leader index 0).

    Uses the preorder parent labels that ``ranrut`` and ``prune`` hand on;
    any other tree is walked once, depth first and left to right. A stable
    sort by parent label puts the edges (parent, child) in sorted order,
    since in a preorder every parent is below its child.
    """
    parents = tree.preorder_parents
    if parents is None:
        parents = []
        stack = [(tree.root, -1)]
        while stack:
            v, parent = stack.pop()
            label = len(parents)
            parents.append(parent)
            # reversed so the leftmost child gets the next preorder index
            stack.extend((c, label) for c in reversed(tree.children[v]))
    n = len(parents)
    par = np.array(parents[1:], dtype=np.intp)
    child = np.argsort(par, kind="stable")
    pairs = np.empty((n - 1, 2), dtype=np.intp)
    pairs[:, 0] = par[child]
    pairs[:, 1] = child + 1
    return Topology._from_pairs(n, pairs)
