"""Incremental counting engine.

For candidate sizes k = 2, 3, ... each iteration runs three phases over a
shared global round counter r that also drives the topology schedule:

* collection: non-leaders send a 1/(2*delta) fraction of their energy to
  each neighbor; the leader keeps everything it has and receives and sends
  nothing. Experimental mode loops until the leader holds at least
  k - 1 - 1/k^c; theoretical mode runs the fixed budget
  tau(k) = k * ceil((2*delta)^k * ln k) regardless of the energy level.
* verification: the leader is checked against k - 1, then the maximum
  residual energy is max-gossiped for 1 + ceil(k / (1 - 1/k^c)) rounds and
  compared with 1/k^c. With disconnection tolerance the phase keeps going
  until the leader has heard from every node. Who has heard from whom is a
  (W, n) uint64 array, W = ceil(n/64): column i holds node i's set of
  origins, and origin j is bit j % 64 of word j // 64.
* notification: the leader's verdict is OR-gossiped for k rounds, plus,
  with disconnection tolerance, until a positive verdict has reached all
  nodes.

The candidate is confirmed exactly when k equals the true size, which is
the headline correctness property checked by the test suite.

Threshold comparisons are raw float comparisons with no epsilon. One
literal deviation from the reference pseudocode: the notification OR
includes the node's own flag (as the verification max already does), so
halting is monotone even when a halted node is momentarily isolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .dynamics import STATIC_T, DynamicsSchedule, ScheduleParams, read_T, write_T
from .errors import (ANY, COUNT, INTEGER, LIST, NUMBER, InvalidParameters, RoundLimitExceeded,
                     _is_int, _is_real, read_fields)
from .topology import Topology

LOG2_5 = math.log2(5.0)

MODES = ("experimental", "theoretical")  # the first is the default


@dataclass(frozen=True)
class ProtocolConfig:
    """Engine knobs; defaults follow the simulation setup (c = 1.01)."""

    c: float = 1.01
    mode: str = MODES[0]
    max_rounds: int | None = None  # None -> 10 * delta * n**4
    disconnection_tolerant: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameters(f"unknown mode {self.mode!r}")
        if not (_is_real(self.c) and self.c > 1.0):
            raise InvalidParameters(f"c must be a number > 1, got {self.c!r}")
        if self.mode == "theoretical" and not self.c > LOG2_5:
            raise InvalidParameters(
                f"theoretical mode requires c > log2(5) ~ {LOG2_5:.4f}"
            )
        if self.max_rounds is not None and not (_is_int(self.max_rounds)
                                                and self.max_rounds >= 1):
            raise InvalidParameters(
                f"max_rounds must be an integer >= 1, got {self.max_rounds!r}")
        if not isinstance(self.disconnection_tolerant, bool):
            raise InvalidParameters("disconnection_tolerant must be true or false")

    def effective_max_rounds(self, n: int, delta: int) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        return 10 * delta * n**4


@dataclass(frozen=True)
class PhaseTrace:
    k: int
    collection: int
    verification: int
    notification: int


@dataclass(frozen=True)
class RunDiagnostics:
    """Worst-case per-round statistics gathered during collection.

    They are reduced over blocks of up to 256 collection rounds, once per
    full block and once at the end of each collection phase, and equal the
    extremes of per-round reductions.
    """

    max_conservation_error: float
    max_nonleader_energy: float
    min_energy: float
    min_leader_gain: float


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one full execution, including every input of its run."""

    family: str
    n: int
    delta: int
    T: float
    p: float | None
    mode: str
    c: float
    seed: int
    max_rounds: int
    disconnection_tolerant: bool
    estimate: int | None
    rounds_total: int
    rounds_collection: int
    rounds_verification: int
    rounds_notification: int
    status: str  # "ok" | "round_limit"
    per_k_trace: tuple[PhaseTrace, ...]
    diagnostics: RunDiagnostics

    def to_json_dict(self) -> dict:
        # a dataclass instance's __dict__ holds its fields in declaration order
        return vars(self) | {"T": write_T(self.T),
                             "per_k_trace": [vars(t).copy() for t in self.per_k_trace],
                             "diagnostics": vars(self.diagnostics).copy()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunRecord":
        """Parse an exported record. A malformed field, a missing or unknown
        key, or a round total that is not the sum of its per-k trace raises
        InvalidParameters."""
        values = read_fields(data, "record", _RECORD_CHECKS)
        trace = tuple(PhaseTrace(**read_fields(t, "per_k_trace entry", _TRACE_CHECKS))
                      for t in values["per_k_trace"])
        for key, total in _round_totals(trace).items():
            if values[key] != total:
                raise InvalidParameters(
                    f"record {key} is {values[key]}, but its per_k_trace sums to {total}")
        return cls(**values | {
            "T": read_T(values["T"]),
            "per_k_trace": trace,
            "diagnostics": RunDiagnostics(
                **read_fields(values["diagnostics"], "diagnostics", _DIAGNOSTICS_CHECKS)),
        })


_TEXT = (lambda value: isinstance(value, str), "a string")
_RECORD_CHECKS = {
    "family": _TEXT, "n": INTEGER, "delta": INTEGER,
    "T": (lambda value: value == STATIC_T or _is_int(value), f'an integer or "{STATIC_T}"'),
    "p": (lambda value: value is None or _is_real(value), "a number or null"),
    "mode": _TEXT, "c": NUMBER, "seed": INTEGER, "max_rounds": INTEGER,
    "disconnection_tolerant": (lambda value: isinstance(value, bool), "true or false"),
    "estimate": (lambda value: value is None or _is_int(value), "an integer or null"),
    "rounds_total": COUNT, "rounds_collection": COUNT, "rounds_verification": COUNT,
    "rounds_notification": COUNT,
    "status": (lambda value: value in ("ok", "round_limit"), '"ok" or "round_limit"'),
    "per_k_trace": LIST, "diagnostics": ANY,
}
_TRACE_CHECKS = dict.fromkeys((f.name for f in fields(PhaseTrace)), COUNT)
_DIAGNOSTICS_CHECKS = dict.fromkeys((f.name for f in fields(RunDiagnostics)), NUMBER)


def verification_rounds(k: int, c: float) -> int:
    """Fixed verification length: 1 + ceil(k / (1 - 1/k^c))."""
    return 1 + math.ceil(k / (1.0 - k ** (-c)))


def notification_rounds(k: int) -> int:
    """Fixed notification length: k rounds."""
    return k


def collection_budget(k: int, delta: int) -> int:
    """Theoretical collection length tau(k) = k * ceil((2*delta)^k * ln k).
    A tau(k) of 128 bits or more raises InvalidParameters."""
    base = (2 * delta) ** k  # exact integer
    try:
        rho = math.ceil(base * math.log(k))
    except OverflowError:
        raise InvalidParameters(f"tau({k}) overflows for delta={delta}") from None
    tau = k * rho
    if tau >= 1 << 128:
        raise InvalidParameters(f"tau({k}) = {tau} exceeds 128 bits")
    return tau


def admit(params: ScheduleParams, config: ProtocolConfig) -> None:
    """Refuse, with InvalidParameters, a run that can end only at the round
    cap. In theoretical mode each candidate k runs at least tau(k) plus its
    fixed verification and notification rounds, so the run is refused at
    the first k where that sum over 2..k passes the cap. In experimental
    mode a c whose collection stop k - 1 - k^-c is k - 1 in floats at
    k = n (c = inf included) is refused: the leader only approaches k - 1
    from below. Every k < n keeps a threshold when n does."""
    n, delta, c = params.n, params.delta, config.c
    if config.mode == "experimental":
        if (n - 1) - n ** -c == n - 1:
            raise InvalidParameters(
                f"c={c!r} leaves no collection threshold at n={n}: n - 1 - n^-c rounds to n - 1")
        return
    cap, need = config.effective_max_rounds(n, delta), 0
    for k in range(2, n + 1):
        need += collection_budget(k, delta) + verification_rounds(k, c) + notification_rounds(k)
        if need > cap:
            raise InvalidParameters(
                f"theoretical mode at n={n}, delta={delta} needs more rounds than the "
                f"cap {cap}: k = 2..{k} take {need}")


def collection_operands(topology: Topology, delta: int) -> tuple:
    """What ``collection_round`` needs of a snapshot under the degree bound
    delta: (retention row, src, dst, 2*delta), with src and dst the
    ``collection_arrays`` pairs. Raises InvalidParameters when a degree
    of the snapshot exceeds delta."""
    if topology.max_degree > delta:
        raise InvalidParameters(f"max degree {topology.max_degree} exceeds delta={delta}")
    return (topology.retention(delta), *topology.collection_arrays(), _two_delta(delta))


@lru_cache(maxsize=None)
def _two_delta(delta: int) -> np.ndarray:
    """2*delta as a read-only 0-d array: numpy divides by it faster than by
    a Python float, with the same result."""
    divisor = np.array(2.0 * delta)
    divisor.flags.writeable = False
    return divisor


# The kernels' numpy calls, bound once: a module global is found faster
# than an attribute of np, and outputs go in place, passed positionally.
# bincount is numpy's C function itself (NEP 18's ``_implementation``),
# which skips the Python-level dispatcher on every call; a numpy without
# it keeps the public function.
_multiply, _divide, _add = np.multiply, np.divide, np.add
_bincount = getattr(np.bincount, "_implementation", np.bincount)
_maximum_at, _bitwise_or_at = np.maximum.at, np.bitwise_or.at


def collection_round(energy: np.ndarray, operands: tuple,
                     out: np.ndarray | None = None) -> np.ndarray:
    """One energy-exchange round as a sparse per-edge update, on the
    ``collection_operands`` of the snapshot in force.

    Equivalent to multiplying by the share-fraction matrix: each non-leader
    j keeps energy[j] * (1 - deg(j)/(2*delta)) and sends energy[j]/(2*delta)
    to each neighbor; the leader retains everything and sends nothing.

    The new energies go to ``out`` when given (it is returned), else to a
    new array; ``out`` must not share memory with ``energy``.
    """
    retain, src, dst, two_delta = operands
    new = _multiply(retain, energy, out)
    # without pairs bincount returns int64 zeros, which cannot take the
    # float quotient in place
    if src.size:
        inflow = _bincount(dst, energy[src], energy.size)
        _divide(inflow, two_delta, inflow)
        _add(new, inflow, new)
    return new


def verification_round(values: np.ndarray, pairs: tuple) -> np.ndarray:
    """Max-gossip round over neighbors and self; ``pairs`` is the snapshot's
    ``symmetric_arrays()``."""
    new = values.copy()
    src, dst = pairs
    if src.size:
        _maximum_at(new, dst, values[src])
    return new


def notification_round(halt: np.ndarray, pairs: tuple) -> np.ndarray:
    """OR-gossip round over neighbors and self; ``pairs`` is the snapshot's
    ``symmetric_arrays()``. An OR does not depend on order, so one
    assignment to the neighbors of every raised flag gives its bits."""
    new = halt.copy()
    src, dst = pairs
    new[dst[halt[src]]] = True
    return new


def heard_round(heard: np.ndarray, pairs: tuple) -> np.ndarray:
    """Union each node's origin set with its neighbors' sets.

    ``heard`` is a (W, n) uint64 array, W = ceil(n/64): column i is node
    i's set, with origin j at bit j % 64 of word j // 64. The OR goes over
    ``pairs``, the snapshot's ``symmetric_arrays()`` as in max-gossip, one
    word row at a time.
    """
    new = heard.copy()
    src, dst = pairs
    if src.size:
        for word, row in zip(new, heard):
            _bitwise_or_at(word, dst, row[src])
    return new


_PHASES = ("collection", "verification", "notification")

_BLOCK = 256  # collection rounds per fold of the diagnostics


class _Diagnostics:
    """Running extremes of the per-round collection statistics.

    ``count`` folds in blocks of up to ``_BLOCK`` post-round energy vectors,
    one row per round. Row-wise sums use the same pairwise summation as a
    1-D ``energy.sum()``, and max, min and each leader gain are exact, so
    the extremes equal those of per-round reductions.
    """

    __slots__ = ("max_conservation_error", "max_nonleader_energy", "min_energy",
                 "min_leader_gain")

    def __init__(self):
        self.max_conservation_error = 0.0
        self.max_nonleader_energy = 0.0
        self.min_energy = math.inf
        self.min_leader_gain = math.inf

    def fold(self, block: np.ndarray, prev_leader: float, n: int) -> None:
        """Fold rows of post-round energies; ``prev_leader`` is the leader's
        energy before the first row's round."""
        if not len(block):
            return
        err = float(np.abs(block.sum(axis=1) - (n - 1.0)).max())
        self.max_conservation_error = max(self.max_conservation_error, err)
        nonleader = float(block[:, 1:].max())
        self.max_nonleader_energy = max(self.max_nonleader_energy, nonleader)
        self.min_energy = min(self.min_energy, float(block.min()))
        leader = block[:, 0]
        gain = leader[0] - prev_leader
        if len(leader) > 1:
            gain = min(gain, (leader[1:] - leader[:-1]).min())
        self.min_leader_gain = min(self.min_leader_gain, float(gain))

    def freeze(self) -> RunDiagnostics:
        return RunDiagnostics(
            max_conservation_error=self.max_conservation_error,
            max_nonleader_energy=self.max_nonleader_energy,
            min_energy=0.0 if self.min_energy == math.inf else self.min_energy,
            min_leader_gain=0.0 if self.min_leader_gain == math.inf else self.min_leader_gain,
        )


def count(schedule: DynamicsSchedule, config: ProtocolConfig | None = None) -> RunRecord:
    """Run the full protocol until the candidate size is confirmed.

    Accepts any n >= 2; note that n <= 3 lies outside the regime of the
    proven verification guarantee (which needs n > 3) and is covered
    empirically by the test grids instead.

    Raises RoundLimitExceeded with the partial record attached when the
    safety cap is hit (e.g. a G(n, p) stream that stays disconnected).

    Raises InvalidParameters when a snapshot over the degree bound comes
    into force, in any phase, and before the first round for a run that
    ``admit`` refuses.

    Each round is one kernel call plus a little bookkeeping. The schedule
    is asked for a snapshot only at the first round of each epoch (every
    ``params.period`` rounds; once when static), and the round cap is
    tested only at those points and at the round past the cap. The
    kernels' operands (``collection_operands`` and ``symmetric_arrays``)
    are read there too, once per epoch. Each collection round writes its
    energies straight into the next row of the diagnostics block.
    """
    if config is None:
        config = ProtocolConfig()
    params = schedule.params
    n, delta, c = params.n, params.delta, config.c
    admit(params, config)
    theoretical = config.mode == "theoretical"
    tolerant = config.disconnection_tolerant
    limit = config.effective_max_rounds(n, delta)
    # Both rejection tests get the conservation tolerance 1e-9*n as slack.
    # Only theoretical mode needs it: after tau(n) rounds the exact leader
    # lies at most 1.3e-31 below k-1 at k = n in the runs measured, and a
    # float run can end an ulp above it. In experimental mode collection
    # stops once the leader passes k-1-k^-c, so at k = n the leader ended
    # 0.040-0.097 below k-1 and the largest residual 0.038-0.080 below
    # k^-c in the runs measured; for k < n the detection margins exceed
    # the slack by orders of magnitude.
    drift_tol = 1e-9 * n
    if tolerant:
        # the start of every verification: each node has heard only itself
        nodes = np.arange(n, dtype=np.uint64)
        origins = np.zeros((-(-n // 64), n), dtype=np.uint64)
        origins[nodes // 64, nodes] = np.uint64(1) << nodes % 64
        everyone = np.bitwise_or.reduce(origins, axis=1).tolist()
    topology_at = schedule.topology_at
    period = params.period
    diagnostics = _Diagnostics()
    block = np.empty((_BLOCK, n))
    block_rows = list(block)  # row views, made once
    traces: list[PhaseTrace] = []
    r = 1  # the next global round
    stop = 1  # the next round that opens an epoch or passes the cap
    coll = pairs = None  # the kernel operands of the snapshot in force
    spent = [0, 0, 0]  # rounds of the current k, per phase

    def fetch(r: int, phase: int) -> None:
        """Open round r == stop in ``phase``: set the snapshot in force from
        r on, and the next stop."""
        nonlocal coll, pairs, stop
        if r > limit:
            raise RoundLimitExceeded(f"round limit {limit} exceeded during {_PHASES[phase]}")
        next_epoch = math.inf if period is None else r - (r - 1) % period + period
        # the old operands view their batch's arrays: let them go before a
        # new batch is built
        coll = pairs = None
        topology = topology_at(r)
        coll = collection_operands(topology, delta)
        pairs = topology.symmetric_arrays()
        stop = min(next_epoch, limit + 1)

    k = 1
    try:
        while True:
            k += 1
            spent[:] = (0, 0, 0)
            is_correct = True

            # collection, from (0, 1, ..., 1): the leader starts empty
            energy = np.zeros(n)
            energy[1:] = 1.0
            budget = collection_budget(k, delta) if theoretical else 0
            threshold = k - 1 - k ** (-c)
            first = r
            rows = 0
            prev_leader = 0.0
            try:
                while (r - first < budget) if theoretical else (energy[0] < threshold):
                    if r == stop:
                        fetch(r, 0)
                    # out is the next block row, never the previous one
                    energy = collection_round(energy, coll, block_rows[rows])
                    r += 1
                    rows += 1
                    if rows == _BLOCK:
                        diagnostics.fold(block, prev_leader, n)
                        prev_leader = energy[0]
                        rows = 0
            finally:
                # also on a round cap, before the partial record is built
                spent[0] = r - first
                diagnostics.fold(block[:rows], prev_leader, n)

            # verification: leader level, then max-gossip of the residuals
            if energy[0] > k - 1 + drift_tol:
                is_correct = False
            max_heard = energy.copy()
            max_heard[0] = 0.0
            if tolerant:
                heard = origins
            fixed = verification_rounds(k, c)
            while spent[1] < fixed or (tolerant and heard[:, 0].tolist() != everyone):
                if r == stop:
                    fetch(r, 1)
                r += 1
                spent[1] += 1
                max_heard = verification_round(max_heard, pairs)
                if tolerant:
                    heard = heard_round(heard, pairs)
            if max_heard[0] > k ** (-c) + drift_tol:
                is_correct = False

            # notification: OR-gossip of the leader's verdict
            halt = np.zeros(n, dtype=bool)
            halt[0] = is_correct
            fixed = notification_rounds(k)
            while spent[2] < fixed or (tolerant and halt[0] and not halt.all()):
                if r == stop:
                    fetch(r, 2)
                r += 1
                spent[2] += 1
                halt = notification_round(halt, pairs)

            traces.append(PhaseTrace(k, *spent))
            if is_correct:
                break
    except RoundLimitExceeded as exc:
        traces.append(PhaseTrace(k, *spent))
        record = _assemble(params, config, r, traces, diagnostics, None, "round_limit")
        raise RoundLimitExceeded(str(exc), record=record) from None
    return _assemble(params, config, r, traces, diagnostics, k, "ok")


def record_inputs(params: ScheduleParams, config: ProtocolConfig) -> dict:
    """The ten fields of a ``RunRecord`` that its run's inputs fix."""
    return dict(
        family=params.family, n=params.n, delta=params.delta, T=params.T, p=params.p,
        mode=config.mode, c=config.c, seed=params.seed,
        max_rounds=config.effective_max_rounds(params.n, params.delta),
        disconnection_tolerant=config.disconnection_tolerant,
    )


def _round_totals(trace) -> dict:
    """The ``rounds_*`` fields of a record with this per-k trace."""
    totals = {f"rounds_{phase}": sum(map(attrgetter(phase), trace)) for phase in _PHASES}
    return totals | {"rounds_total": sum(totals.values())}


def _assemble(params, config, r, traces, diagnostics, estimate, status) -> RunRecord:
    totals = _round_totals(traces)
    assert totals["rounds_total"] == r - 1, "phase accounting out of sync"
    return RunRecord(
        **record_inputs(params, config),
        estimate=estimate,
        **totals,
        status=status,
        per_k_trace=tuple(traces),
        diagnostics=diagnostics.freeze(),
    )
