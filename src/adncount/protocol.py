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
  until the leader has heard from every node (per-node origin bitmasks).
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

import numpy as np

from .dynamics import DynamicsSchedule, ScheduleParams
from .errors import (
    BudgetOverflow,
    DegreeBoundViolated,
    InvalidParameters,
    RoundLimitExceeded,
    _is_int,
    _is_real,
)
from .topology import Topology

LOG2_5 = math.log2(5.0)

_THEORETICAL_N_GATE = 8
_THEORETICAL_DELTA_GATE = 4


@dataclass(frozen=True)
class ProtocolConfig:
    """Engine knobs; defaults follow the simulation setup (c = 1.01)."""

    c: float = 1.01
    mode: str = "experimental"
    max_rounds: int | None = None  # None -> 10 * delta * n**4
    disconnection_tolerant: bool = False

    def __post_init__(self):
        if self.mode not in ("experimental", "theoretical"):
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
    """Outcome of one full execution, including all input parameters."""

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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.T == math.inf:
            out["T"] = "inf"
        # a dataclass instance's __dict__ holds its fields in declaration order
        out["per_k_trace"] = [vars(t).copy() for t in self.per_k_trace]
        out["diagnostics"] = vars(self.diagnostics).copy()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunRecord":
        """Parse an exported record; a field of the wrong type raises
        InvalidParameters, a missing key KeyError."""

        def get(obj, key, ok, what):
            value = obj[key]
            if not ok(value):
                raise InvalidParameters(f"record field {key} must be {what}, got {value!r}")
            return value

        def integer(key, obj=data):
            return get(obj, key, _is_int, "an integer")

        trace = get(data, "per_k_trace", lambda v: isinstance(v, list)
                    and all(isinstance(t, dict) for t in v), "a list of objects")
        diagnostic_keys = [f.name for f in fields(RunDiagnostics)]
        diagnostics = get(data, "diagnostics", lambda v: isinstance(v, dict)
                          and sorted(v) == sorted(diagnostic_keys),
                          "an object of " + ", ".join(diagnostic_keys))
        T = get(data, "T", lambda v: v == "inf" or _is_int(v), "an integer or \"inf\"")
        return cls(
            family=get(data, "family", lambda v: isinstance(v, str), "a string"),
            n=integer("n"),
            delta=integer("delta"),
            T=math.inf if T == "inf" else T,
            p=get(data, "p", lambda v: v is None or _is_real(v), "a number or null"),
            mode=get(data, "mode", lambda v: isinstance(v, str), "a string"),
            c=get(data, "c", _is_real, "a number"),
            seed=integer("seed"),
            max_rounds=integer("max_rounds"),
            disconnection_tolerant=get(data, "disconnection_tolerant",
                                       lambda v: isinstance(v, bool), "true or false"),
            estimate=get(data, "estimate", lambda v: v is None or _is_int(v),
                         "an integer or null"),
            rounds_total=integer("rounds_total"),
            rounds_collection=integer("rounds_collection"),
            rounds_verification=integer("rounds_verification"),
            rounds_notification=integer("rounds_notification"),
            status=get(data, "status", lambda v: v in ("ok", "round_limit"),
                       '"ok" or "round_limit"'),
            per_k_trace=tuple(
                PhaseTrace(*(integer(f.name, t) for f in fields(PhaseTrace))) for t in trace
            ),
            diagnostics=RunDiagnostics(**{
                key: get(diagnostics, key, _is_real, "a number") for key in diagnostic_keys
            }),
        )


def verification_rounds(k: int, c: float) -> int:
    """Fixed verification length: 1 + ceil(k / (1 - 1/k^c))."""
    return 1 + math.ceil(k / (1.0 - k ** (-c)))


def notification_rounds(k: int) -> int:
    """Fixed notification length: k rounds."""
    return k


def collection_budget(k: int, delta: int) -> int:
    """Theoretical collection length tau(k) = k * ceil((2*delta)^k * ln k)."""
    base = (2 * delta) ** k  # exact integer
    try:
        rho = math.ceil(base * math.log(k))
    except OverflowError:
        raise BudgetOverflow(f"tau({k}) overflows for delta={delta}") from None
    tau = k * rho
    if tau >= 1 << 128:
        raise BudgetOverflow(f"tau({k}) = {tau} exceeds 128 bits")
    return tau


def check_theoretical_gate(n: int, delta: int) -> None:
    """Reject a theoretical-mode run beyond n <= 8, delta <= 4, where the
    budgets tau(k) grow as (2*delta)^k and no run would finish."""
    if n > _THEORETICAL_N_GATE or delta > _THEORETICAL_DELTA_GATE:
        raise InvalidParameters(
            f"theoretical mode is gated to n <= {_THEORETICAL_N_GATE} and "
            f"delta <= {_THEORETICAL_DELTA_GATE}, got n={n}, delta={delta}"
        )


def collection_round(energy: np.ndarray, topology: Topology, delta: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """One energy-exchange round as a sparse per-edge update.

    Equivalent to multiplying by the share-fraction matrix: each non-leader
    j keeps energy[j] * (1 - deg(j)/(2*delta)) and sends energy[j]/(2*delta)
    to each neighbor; the leader retains everything and sends nothing.

    The new energies go to ``out`` when given (it is returned), else to a
    new array; ``out`` must not share memory with ``energy``.
    """
    if topology.max_degree > delta:
        raise DegreeBoundViolated(
            f"max degree {topology.max_degree} exceeds delta={delta}"
        )
    new = np.multiply(topology.retention(delta), energy, out=out)
    src, dst = topology.collection_arrays()
    if src.size:
        inflow = np.bincount(dst, energy[src], topology.n)
        inflow /= _two_delta(delta)
        new += inflow
    return new


@lru_cache(maxsize=None)
def _two_delta(delta: int) -> np.ndarray:
    """2*delta as a read-only 0-d array: numpy divides by it faster than by
    a Python float, with the same result."""
    divisor = np.array(2.0 * delta)
    divisor.flags.writeable = False
    return divisor


def verification_round(values: np.ndarray, topology: Topology) -> np.ndarray:
    """Max-gossip round over neighbors and self."""
    new = values.copy()
    src, dst = topology.symmetric_arrays()
    if src.size:
        np.maximum.at(new, dst, values[src])
    return new


def notification_round(halt: np.ndarray, topology: Topology) -> np.ndarray:
    """OR-gossip round over neighbors and self."""
    new = halt.copy()
    src, dst = topology.symmetric_arrays()
    if src.size:
        np.logical_or.at(new, dst, halt[src])
    return new


def heard_round(heard: list[int], topology: Topology) -> list[int]:
    """Union each node's origin bitmask with its neighbors' bitmasks."""
    new = list(heard)
    for u, v in topology.edges:
        new[u] |= heard[v]
        new[v] |= heard[u]
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
        gain = float(np.diff(block[:, 0], prepend=prev_leader).min())
        self.min_leader_gain = min(self.min_leader_gain, gain)

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

    Each round is one kernel call plus a little bookkeeping. The schedule
    is asked for a snapshot only at the first round of each epoch (every
    ``schedule.period`` rounds; once when static), and the round cap is
    tested only at those points and at the round past the cap. Each
    collection round writes its energies straight into the next row of
    the diagnostics block.
    """
    if config is None:
        config = ProtocolConfig()
    params = schedule.params
    n, delta, c = params.n, params.delta, config.c
    theoretical = config.mode == "theoretical"
    if theoretical:
        check_theoretical_gate(n, delta)
    tolerant = config.disconnection_tolerant
    limit = config.effective_max_rounds(n, delta)
    # Both rejection tests have zero real-arithmetic margin at k = n (the
    # leader's energy converges to exactly k-1 and the residuals to 1/k^c
    # from below), so they get the conservation tolerance 1e-9*n as slack;
    # for k < n the detection margins exceed it by orders of magnitude.
    drift_tol = 1e-9 * n
    everyone = (1 << n) - 1
    topology_at = schedule.topology_at
    period = schedule.period
    diagnostics = _Diagnostics()
    block = np.empty((_BLOCK, n))
    block_rows = list(block)  # row views, made once
    traces: list[PhaseTrace] = []
    r = 1  # the next global round
    stop = 1  # the next round that opens an epoch or passes the cap
    topology = None  # the snapshot in force
    spent = [0, 0, 0]  # rounds of the current k, per phase

    def fetch(r: int, phase: int) -> None:
        """Open round r == stop in ``phase``: set the snapshot in force from
        r on, and the next stop."""
        nonlocal topology, stop
        if r > limit:
            raise RoundLimitExceeded(f"round limit {limit} exceeded during {_PHASES[phase]}")
        next_epoch = math.inf if period is None else r - (r - 1) % period + period
        # the old snapshot views its batch's arrays: let them go before a
        # new batch is built
        topology = None
        topology = topology_at(r)
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
                    energy = collection_round(energy, topology, delta, block_rows[rows])
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
                heard = [1 << i for i in range(n)]
            fixed = verification_rounds(k, c)
            while spent[1] < fixed or (tolerant and heard[0] != everyone):
                if r == stop:
                    fetch(r, 1)
                r += 1
                spent[1] += 1
                max_heard = verification_round(max_heard, topology)
                if tolerant:
                    heard = heard_round(heard, topology)
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
                halt = notification_round(halt, topology)

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


def _assemble(params, config, r, traces, diagnostics, estimate, status) -> RunRecord:
    rounds_collection = sum(t.collection for t in traces)
    rounds_verification = sum(t.verification for t in traces)
    rounds_notification = sum(t.notification for t in traces)
    rounds_total = rounds_collection + rounds_verification + rounds_notification
    assert rounds_total == r - 1, "phase accounting out of sync"
    return RunRecord(
        **record_inputs(params, config),
        estimate=estimate,
        rounds_total=rounds_total,
        rounds_collection=rounds_collection,
        rounds_verification=rounds_verification,
        rounds_notification=rounds_notification,
        status=status,
        per_k_trace=tuple(traces),
        diagnostics=diagnostics.freeze(),
    )
