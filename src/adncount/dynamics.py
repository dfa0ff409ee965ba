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
batches, and serves rounds in any order.
"""

from __future__ import annotations

import _random
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameters, _is_int, _is_real
from .seeds import derive_seed, splitmix64
# gnp and tree_to_topology, the batches of one, stay names of this module
# for perfbench/spans.py, which wraps them here
from .topology import (Topology, gnp, gnp_topologies, path, path_topologies, star,  # noqa: F401
                       tree_to_topology, tree_topologies)
from .trees import RANRUT_VARIANTS, prune, ranrut

FAMILIES = ("random-tree", "star", "path", "gnp")
# families that take delta = n - 1: a star's leader, and any node of a
# G(n, p) draw, may have n - 1 neighbours
FULL_DEGREE_FAMILIES = ("star", "gnp")
# the epoch-0 snapshot of each family whose epoch 0 draws nothing
UNDRAWN_FIRST = {"star": star, "path": path}
_LOOKAHEAD = 64  # the most epochs a schedule builds in one batch
_FAMILY_ALIASES = {"tree": "random-tree"}
FAMILY_NAMES = (*_FAMILY_ALIASES, *FAMILIES)  # every name accepted on input


def canonical_family(name):
    """The ``FAMILIES`` name for a family given on input: CLI flags and spec
    files accept ``tree`` for ``random-tree``; outputs use the canonical name."""
    return _FAMILY_ALIASES.get(name, name) if isinstance(name, str) else name


@dataclass(frozen=True)
class ScheduleParams:
    """Inputs that define one dynamic-network instance, and the facts about
    its snapshot stream that follow from them. A parameter combination that
    no schedule can serve raises InvalidParameters here."""

    family: str
    n: int
    delta: int
    T: float  # positive int, or math.inf for static
    seed: int
    p: float | None = None

    def __post_init__(self):
        f, n, delta, T = self.family, self.n, self.delta, self.T
        if f not in FAMILIES:
            raise InvalidParameters(f"unknown family {f!r}")
        if not (_is_int(n) and n >= 2):
            raise InvalidParameters(f"n must be an integer >= 2, got {n!r}")
        if T != math.inf and not (_is_int(T) and T >= 1):
            raise InvalidParameters(f"T must be a positive integer or inf, got {T!r}")
        if not (_is_int(delta) and 1 <= delta <= n - 1):
            raise InvalidParameters(f"delta must be an integer in [1, n-1], got {delta!r}")
        if not _is_int(self.seed):
            raise InvalidParameters(f"seed must be an integer, got {self.seed!r}")
        if f in FULL_DEGREE_FAMILIES:
            if delta != n - 1:
                raise InvalidParameters(f"{f} requires delta = n-1")
        elif n >= 3 and delta < 2:
            raise InvalidParameters(f"{f} with n >= 3 requires delta >= 2")
        if f == "gnp":
            if not (_is_real(self.p) and 0.0 <= self.p <= 1.0):
                raise InvalidParameters("gnp requires p in [0, 1]")
            if T == math.inf:
                raise InvalidParameters(
                    "gnp with T = inf is rejected: a statically disconnected "
                    "graph would never complete"
                )
        elif self.p is not None:
            raise InvalidParameters(f"p is only meaningful for gnp, not {f}")

    @property
    def period(self) -> int | None:
        """Rounds per epoch: the snapshot can change only at rounds
        m * period + 1. None for a static stream, which serves one snapshot
        throughout: T = inf, or a star at any T (relabeling the leaves of a
        star is the identity on adjacency)."""
        return None if self.T == math.inf or self.family == "star" else self.T

    @property
    def seed_invariant_key(self) -> tuple | None:
        """A key shared by every stream that serves the same snapshots at
        every round whatever its seed and T, or None when the stream draws
        from its seed.

        Such a stream is static and its one snapshot, epoch 0's, draws
        nothing (``UNDRAWN_FIRST``, which ``DynamicsSchedule`` builds it
        from). Since the protocol is deterministic given the stream, runs
        with one ``ProtocolConfig`` whose streams share a key give records
        that differ only in ``seed`` and ``T``.
        """
        if self.period is None and self.family in UNDRAWN_FIRST:
            return (self.family, self.n, self.delta)
        return None

    @property
    def may_disconnect(self) -> bool:
        """Whether a snapshot may leave a node unreachable, so that a run
        needs disconnection tolerance to finish (G(n, p) draws)."""
        return self.family == "gnp"


class DynamicsSchedule:
    """Snapshot stream of one set of ``ScheduleParams``.

    A snapshot depends only on its epoch, so ``topology_at(r)`` serves any
    round r >= 1, in any order. Snapshots are built ahead in batches of
    consecutive epochs: a batch starts at the requested epoch whenever that
    epoch lies outside the current batch. Batch sizes double up to
    ``_LOOKAHEAD`` while each batch starts right after the one before, and
    start again at 1 after a jump. So a run that asks for its rounds in
    order builds at most ``_LOOKAHEAD - 1`` epochs it never serves, and a
    jump builds one.
    """

    def __init__(self, params: ScheduleParams, ranrut_variant: str = "paper-literal"):
        if ranrut_variant not in RANRUT_VARIANTS:
            raise InvalidParameters(f"unknown ranrut variant {ranrut_variant!r}")
        self.params = params
        self._variant = ranrut_variant
        self._period = params.period
        self._rngs: list[random.Random] = []  # reseeded for every batch
        self._size = 1
        self._first = 0  # the epoch of self._batch[0]
        self._batch = self._build(0)

    @property
    def period(self) -> int | None:
        """``params.period``: the rounds per epoch, None when static."""
        return self._period

    def topology_at(self, r: int) -> Topology:
        """Snapshot in force at round r >= 1."""
        if r < 1:
            raise InvalidParameters(f"round must be >= 1, got {r}")
        epoch = 0 if self._period is None else (r - 1) // self._period
        i = epoch - self._first
        if not 0 <= i < len(self._batch):
            if i != len(self._batch):
                self._size = 1
            self._first, i = epoch, 0
            self._batch = ()  # free the old batch's arrays before the new ones
            self._batch = self._build(epoch)
        return self._batch[i]

    @cached_property
    def _fold(self) -> int:
        """``derive_seed(seed)``: epoch e's sub-seed ``derive_seed(seed, e)``
        is ``splitmix64(_fold ^ e)``."""
        return derive_seed(self.params.seed)

    def _generators(self, epochs: range) -> list[random.Random]:
        """The schedule's generators, one per epoch, each seeded as
        ``random.Random(derive_seed(seed, epoch))``."""
        seeds = [splitmix64(self._fold ^ epoch) for epoch in epochs]
        pool = self._rngs
        for rng, seed in zip(pool, seeds):
            # the C seeding alone: random.Random.seed adds type checks and
            # clears the gauss() cache, which no draw here reads
            _random.Random.seed(rng, seed)
        pool.extend(map(random.Random, seeds[len(pool):]))
        return pool[:len(seeds)]

    def _build(self, first: int) -> list[Topology]:
        """Snapshots of a batch: epochs first, first + 1, ..."""
        p = self.params
        epochs = range(first, first + self._size)
        self._size = min(2 * self._size, _LOOKAHEAD)
        if first == 0 and p.family in UNDRAWN_FIRST:
            # the first batch holds epoch 0 alone
            return [UNDRAWN_FIRST[p.family](p.n)]
        rngs = self._generators(epochs)
        if p.family == "path":
            return path_topologies([_path_order(p.n, rng) for rng in rngs], p.delta)
        if p.family == "gnp":
            return gnp_topologies(p.n, p.p, rngs, p.delta)
        parents = [ranrut(p.n, rng, self._variant) for rng in rngs]
        labels = np.array(parents, dtype=np.intp)
        # every tree's degrees at once: its children, plus the parent edge
        # of each vertex but the root; only trees over the bound are pruned
        batch, n = labels.shape
        rows = np.arange(0, batch * n, n)[:, None]
        degrees = np.bincount((labels[:, 1:] + rows).ravel(), minlength=batch * n)
        degrees = degrees.reshape(batch, n)
        degrees[:, 1:] += 1
        for i in np.flatnonzero(degrees.max(axis=1) > p.delta).tolist():
            labels[i] = prune(parents[i], p.delta, rngs[i])
        return tree_topologies(labels, p.delta)


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
