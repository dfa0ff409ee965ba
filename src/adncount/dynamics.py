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
independent of anything else that consumes randomness. Since a snapshot
depends on nothing else, a schedule builds the epochs it serves ahead, in
batches.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidParameters, NonMonotoneAccess
from .seeds import derive_seed
# gnp and tree_to_topology, the batches of one, stay names of this module
# for perfbench/spans.py, which wraps them here
from .topology import (Topology, gnp, gnp_topologies, path, path_topologies, star,  # noqa: F401
                       tree_to_topology, tree_topologies)
from .trees import SubtreeDistribution, prune, ranrut, sizes_table

FAMILIES = ("random-tree", "star", "path", "gnp")
_LOOKAHEAD = 64  # the most epochs a schedule builds in one batch
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

    Snapshots are built ahead in batches of consecutive epochs: a batch
    starts at the requested epoch whenever that epoch lies outside the
    current batch, and batch sizes double from 1 up to ``_LOOKAHEAD``. So
    a run that asks for every round builds at most ``_LOOKAHEAD - 1``
    epochs it never serves. Each epoch's draws are its own, so the
    snapshots are those of building the epochs one at a time.
    """

    def __init__(self, params: ScheduleParams, ranrut_variant: str = "paper-literal"):
        validate_params(params)
        self.params = params
        self._variant = ranrut_variant
        self._dist = None
        if params.family == "random-tree":
            self._dist = _subtree_tables(params.n)
        # relabeling the leaves of a star is the identity on adjacency, so
        # a star stream is static: it serves its first snapshot throughout
        static = params.T == math.inf or params.family == "star"
        self._period = None if static else int(params.T)
        self._size = 1
        self._first = 0  # the epoch of self._batch[0]
        self._batch = self._build(0)
        self._epoch = 0
        self._topology = self._batch[0]
        self._served = 1

    def topology_at(self, r: int) -> Topology:
        """Snapshot in force at round r (r >= 1, monotone)."""
        if r < 1 or r < self._served:
            raise NonMonotoneAccess(
                f"round {r} precedes already-served round {self._served}"
            )
        self._served = r
        epoch = 0 if self._period is None else (r - 1) // self._period
        if epoch != self._epoch:
            self._epoch = epoch
            i = epoch - self._first
            if i >= len(self._batch):
                self._first, i = epoch, 0
                self._batch = self._build(epoch)
            self._topology = self._batch[i]
        return self._topology

    def _build(self, first: int) -> list[Topology]:
        """Snapshots of the next batch: epochs first, first + 1, ..."""
        # seed_invariant_stream below depends on which branches draw nothing
        p = self.params
        epochs = range(first, first + self._size)
        self._size = min(2 * self._size, _LOOKAHEAD)
        if first == 0 and p.family in ("star", "path"):
            # the first batch holds epoch 0 alone, which these serve
            # unpermuted
            return [star(p.n) if p.family == "star" else path(p.n)]
        rngs = (random.Random(derive_seed(p.seed, epoch)) for epoch in epochs)
        if p.family == "path":
            return path_topologies([_path_order(p.n, rng) for rng in rngs], p.delta)
        if p.family == "gnp":
            return gnp_topologies(p.n, p.p, rngs, p.delta)
        trees = [prune(ranrut(p.n, self._dist, rng, self._variant), p.delta, rng)
                 for rng in rngs]
        return tree_topologies(trees, p.delta)


def seed_invariant_stream(family: str, n: int, delta: int, T: float) -> tuple | None:
    """A key shared by every schedule that serves the same snapshots at every
    round whatever its seed, or None when the stream depends on the seed.

    The rule follows ``DynamicsSchedule._build``: a star draws nothing and
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


def _path_order(n: int, rng: random.Random) -> list[int]:
    """Path node order with the leader at one end and the rest uniformly
    relabeled."""
    labels = list(range(1, n))
    rng.shuffle(labels)
    return [0] + labels


def new_schedule(family: str, n: int, delta: int, T: float, seed: int,
                 p: float | None = None, **kwargs) -> DynamicsSchedule:
    """Convenience constructor mirroring the schedule parameter list."""
    return DynamicsSchedule(
        ScheduleParams(family=family, n=n, delta=delta, T=T, seed=seed, p=p),
        **kwargs,
    )
