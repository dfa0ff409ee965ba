"""T-stable streams of topology snapshots.

A schedule serves the snapshot in force at each round. Links are redrawn
after the exchange of every round r with r = 0 mod T, so a new snapshot
takes effect at rounds m*T + 1: the first change is visible at round
T + 1 and every snapshot persists for exactly T rounds. T = inf means a
static network.

Per family, a change means: a fresh uniform rooted tree (pruned to the
degree bound) or a fresh G(n, p) draw, or, for star and path, a uniform
relabeling of the non-leader positions with the leader pinned to the
star center / path endpoint. Every snapshot of epoch e is generated from
the sub-seed derive_seed(seed, e), so sequences are reproducible and
independent of anything else that consumes randomness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameters, NonMonotoneAccess
from .seeds import derive_seed
from .topology import Topology, gnp, path, star, tree_to_topology
from .trees import SubtreeDistribution, prune, ranrut, sizes_table

FAMILIES = ("random-tree", "star", "path", "gnp")
_FAMILY_ALIASES = {"tree": "random-tree"}


def canonical_family(name):
    """The ``FAMILIES`` name for a family given on input: CLI flags and spec
    files accept ``tree`` for ``random-tree``; outputs use the canonical name."""
    return _FAMILY_ALIASES.get(name, name) if isinstance(name, str) else name


@dataclass(frozen=True)
class ScheduleParams:
    """Inputs that define one dynamic-network instance."""

    family: str
    n: int
    delta: int
    T: float  # positive int, or math.inf for static
    seed: int
    p: float | None = None


def validate_params(params: ScheduleParams) -> None:
    f = params.family
    n = params.n
    delta = params.delta
    T = params.T
    if f not in FAMILIES:
        raise InvalidParameters(f"unknown family {f!r}")
    if n < 2:
        raise InvalidParameters("n must be >= 2")
    if T != math.inf and (not isinstance(T, int) or T < 1):
        raise InvalidParameters("T must be a positive integer or inf")
    if not 1 <= delta <= n - 1:
        raise InvalidParameters(f"delta must be in [1, n-1], got {delta}")
    if f in ("star", "gnp"):
        if delta != n - 1:
            raise InvalidParameters(f"{f} requires delta = n-1")
    else:
        if n >= 3 and delta < 2:
            raise InvalidParameters(f"{f} with n >= 3 requires delta >= 2")
    if f == "gnp":
        if params.p is None or not 0.0 <= params.p <= 1.0:
            raise InvalidParameters("gnp requires p in [0, 1]")
        if T == math.inf:
            raise InvalidParameters(
                "gnp with T = inf is rejected: a statically disconnected "
                "graph would never complete"
            )
    elif params.p is not None:
        raise InvalidParameters(f"p is only meaningful for gnp, not {f}")


class DynamicsSchedule:
    """Stateful snapshot stream owned by exactly one protocol run.

    Access is monotone: ``topology_at(r)`` may only be called with r at or
    beyond every previously served round.
    """

    def __init__(self, params: ScheduleParams, ranrut_variant: str = "paper-literal"):
        validate_params(params)
        self.params = params
        self._variant = ranrut_variant
        self._dist = None
        if params.family == "random-tree":
            self._dist = _subtree_tables(params.n)
        self._topology = None  # read by _generate: a star serves its first snapshot again
        self._topology = self._generate(0)
        self._epoch = 0
        self._served = 1

    def topology_at(self, r: int) -> Topology:
        """Snapshot in force at round r (r >= 1, monotone)."""
        if r < 1 or r < self._served:
            raise NonMonotoneAccess(
                f"round {r} precedes already-served round {self._served}"
            )
        self._served = r
        T = self.params.T
        epoch = 0 if T == math.inf else (r - 1) // int(T)
        if epoch != self._epoch:
            self._epoch = epoch
            self._topology = self._generate(epoch)
        return self._topology

    def _generate(self, epoch: int) -> Topology:
        # seed_invariant_stream below depends on which branches draw nothing
        p = self.params
        if p.family == "star":
            # relabeling the leaves of a star is the identity on adjacency,
            # so every epoch serves the first snapshot and its cached arrays
            return star(p.n) if self._topology is None else self._topology
        if p.family == "path" and epoch == 0:
            return path(p.n)
        rng = random.Random(derive_seed(p.seed, epoch))
        if p.family == "path":
            return _permuted_path(p.n, rng)
        if p.family == "gnp":
            return gnp(p.n, p.p, rng)
        tree = ranrut(p.n, self._dist, rng, self._variant)
        tree = prune(tree, p.delta, rng)
        return tree_to_topology(tree)


def seed_invariant_stream(family: str, n: int, delta: int, T: float) -> tuple | None:
    """A key shared by every schedule that serves the same snapshots at every
    round whatever its seed, or None when the stream depends on the seed.

    The rule follows ``DynamicsSchedule._generate``: a star draws nothing and
    serves ``star(n)`` at every epoch, so its key leaves ``T`` out; a path
    serves the unpermuted ``path(n)`` in epoch 0 and draws only from epoch 1
    on, so at T = inf it draws nothing. Every other stream draws from
    ``derive_seed(seed, epoch)``. Since the protocol is deterministic given
    the stream, runs with one ``ProtocolConfig`` whose schedules share a key
    give records that differ only in ``seed`` and ``T``. A generator change
    that makes a keyed stream draw must change this rule too.
    """
    if family == "star":
        return (family, n, delta)
    if family == "path" and T == math.inf:
        return (family, n, delta, T)
    return None


@lru_cache(maxsize=None)
def _subtree_tables(n: int) -> SubtreeDistribution:
    """The (j, d) tables for trees on up to n vertices, built once per n."""
    return SubtreeDistribution(sizes_table(n), n)


def _permuted_path(n: int, rng: random.Random) -> Topology:
    """Path with the leader at one end and the rest uniformly relabeled."""
    labels = list(range(1, n))
    rng.shuffle(labels)
    order = np.array([0] + labels, dtype=np.intp)
    pairs = np.sort(np.stack((order[:-1], order[1:]), axis=1), axis=1)  # u < v
    # lexsort's last key is the primary one: edges sorted by u, then v
    return Topology._from_pairs(n, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])


def new_schedule(family: str, n: int, delta: int, T: float, seed: int,
                 p: float | None = None, **kwargs) -> DynamicsSchedule:
    """Convenience constructor mirroring the schedule parameter list."""
    return DynamicsSchedule(
        ScheduleParams(family=family, n=n, delta=delta, T=T, seed=seed, p=p),
        **kwargs,
    )
