"""Dense share-matrix replay of the counting protocol.

Written from the protocol's definitions, independently of
``adncount.protocol``: each snapshot becomes a dense adjacency matrix A
and a share matrix W (W[i, j] is the fraction of node j's energy that
node i holds after one collection round), and the three phases run as
matrix products. Only the snapshot stream is shared with the engine: a
fresh ``DynamicsSchedule`` with the run's parameters replays it.

Sums run in another order than the engine's sparse update, so energies
may differ in the last bits; the estimate and the per-k phase lengths
must still agree.
"""

from __future__ import annotations

import math

import numpy as np

from adncount import DynamicsSchedule, ScheduleParams


class _Snapshots:
    """Dense matrices of the snapshot in force, rebuilt when it changes."""

    def __init__(self, params: ScheduleParams):
        self.schedule = DynamicsSchedule(params)
        self.n = params.n
        self.delta = params.delta
        self._topology = None

    def at(self, r: int):
        topo = self.schedule.topology_at(r)
        if topo is not self._topology:
            self._topology = topo
            n, delta = self.n, self.delta
            adj = np.zeros((n, n), dtype=bool)
            for u, v in topo.edges:
                adj[u, v] = adj[v, u] = True
            deg = adj.sum(axis=1)
            if deg.max() > delta:
                raise ValueError(f"snapshot at round {r} exceeds delta={delta}")
            share = adj / (2.0 * delta)
            share[:, 0] = 0.0  # the leader sends nothing
            share[np.arange(n), np.arange(n)] = 1.0 - deg / (2.0 * delta)
            share[0, 0] = 1.0  # ... and keeps everything
            closed = adj | np.eye(n, dtype=bool)  # neighbours and self
            self.share = share
            self.closed = closed
            self.closed_int = closed.astype(np.int64)
        return self


def replay(params: ScheduleParams, c: float, tolerant: bool, max_rounds: int):
    """Run the protocol densely; returns (estimate, [(k, coll, ver, notif)])."""
    snaps = _Snapshots(params)
    n = params.n
    slack = 1e-9 * n  # the engine's documented conservation tolerance
    r = 1
    phases = []

    def step():
        nonlocal r
        if r > max_rounds:
            raise RuntimeError(f"reference passed the round limit {max_rounds}")
        snap = snaps.at(r)
        r += 1
        return snap

    k = 1
    while True:
        k += 1
        # collection
        energy = np.ones(n)
        energy[0] = 0.0
        target = k - 1 - k ** (-c)
        coll = 0
        while energy[0] < target:
            energy = step().share @ energy
            coll += 1
        # verification: leader check, then max-gossip of the residuals
        correct = energy[0] <= k - 1 + slack
        residual = energy.copy()
        residual[0] = 0.0
        heard = np.eye(n, dtype=bool)  # heard[i, o]: i has heard from o
        ver = 0
        fixed = 1 + math.ceil(k / (1.0 - k ** (-c)))
        while ver < fixed or (tolerant and not heard[0].all()):
            snap = step()
            residual = np.where(snap.closed, residual[None, :], -np.inf).max(axis=1)
            if tolerant:
                heard = (snap.closed_int @ heard) > 0
            ver += 1
        correct = correct and residual[0] <= k ** (-c) + slack
        # notification: OR-gossip of the verdict
        halt = np.zeros(n, dtype=bool)
        halt[0] = correct
        notif = 0
        while notif < k or (tolerant and halt[0] and not halt.all()):
            halt = (step().closed_int @ halt) > 0
            notif += 1
        phases.append((k, coll, ver, notif))
        if correct:
            return k, phases
