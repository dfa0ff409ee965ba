"""Protocol engine: round updates, phase lengths, end-to-end counting."""

import itertools
import math
import random
import time
from dataclasses import astuple, fields

import numpy as np
import pytest

from adncount import (
    DynamicsSchedule,
    PhaseTrace,
    ProtocolConfig,
    RunDiagnostics,
    RunRecord,
    ScheduleParams,
    SweepSpec,
    Topology,
    collection_budget,
    collection_operands,
    collection_round,
    count,
    gnp,
    heard_round,
    notification_round,
    notification_rounds,
    path,
    star,
    verification_round,
    verification_rounds,
)
from adncount import protocol
from adncount.errors import InvalidParameters, RoundLimitExceeded
from adncount.protocol import _Diagnostics, record_inputs

from helpers import (DiagnosticsOracle, ListSchedule, assert_kernels_match_oracles, checks,
                     dense_share_matrix, heard_oracle, heard_words, reference,
                     spectral_collection_lengths)


# ---------------------------------------------------------------- rounds

def test_collection_round_matches_dense_matrix():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 9)
        topo = gnp(n, 0.5, rng)
        delta = max(1, topo.max_degree + rng.randint(0, 2))
        energy = np.array([rng.random() for _ in range(n)])
        got = collection_round(energy, collection_operands(topo, delta))
        want = dense_share_matrix(topo, delta) @ energy
        assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_collection_round_two_nodes_closed_form():
    operands = collection_operands(path(2), 1)
    energy = np.array([0.0, 1.0])
    for r in range(1, 40):
        energy = collection_round(energy, operands)
        assert energy[0] == 1.0 - 2.0**-r  # dyadic, exact
        assert energy[1] == 2.0**-r


def test_collection_round_complete_graph_shares():
    topo = Topology(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    # energy concentrated at node 1: retention 1 - 3/6 = 1/2, share 1/6
    energy = np.array([0.0, 1.0, 0.0, 0.0])
    out = collection_round(energy, collection_operands(topo, 3))
    assert out[1] == pytest.approx(0.5, abs=1e-15)
    assert out[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert out[2] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert out[3] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_collection_round_isolated_node_unchanged():
    topo = Topology(3, [(0, 1)])
    energy = np.array([0.2, 0.3, 0.7])
    out = collection_round(energy, collection_operands(topo, 2))
    assert out[2] == 0.7


def test_collection_operands_reject_degree_violation():
    with pytest.raises(InvalidParameters, match=r"^max degree 3 exceeds delta=2$"):
        collection_operands(star(4), 2)


def test_collection_operands_are_the_snapshot_arrays():
    topo = gnp(9, 0.4, random.Random(2))
    retain, src, dst, two_delta = collection_operands(topo, 8)
    assert retain is topo.retention(8)
    coll_src, coll_dst = topo.collection_arrays()
    assert src is coll_src and dst is coll_dst
    assert two_delta.shape == () and two_delta == 16.0
    assert not two_delta.flags.writeable


@pytest.mark.parametrize("topo, delta", [
    (path(9), 2),
    (star(9), 8),
    (DynamicsSchedule(ScheduleParams("random-tree", 9, 3, 1, 4)).topology_at(1), 3),
    (gnp(9, 0.4, random.Random(2)), 8),
    (Topology(9, []), 2),
], ids=["path", "star", "tree", "gnp", "no-edges"])
def test_collection_round_out_row(topo, delta):
    energy = np.random.default_rng(5).random(9)
    before = energy.tobytes()
    block = np.full((2, 9), np.nan)
    row = block[1]
    operands = collection_operands(topo, delta)
    assert collection_round(energy, operands, row) is row
    assert row.tobytes() == collection_round(energy, operands).tobytes()
    assert energy.tobytes() == before
    assert np.isnan(block[0]).all()


def test_verification_round_max_with_self():
    topo = path(3)
    values = np.array([0.0, 5.0, 1.0])
    out = verification_round(values, topo.symmetric_arrays())
    assert out.tolist() == [5.0, 5.0, 5.0]
    # values never decrease at any node
    assert (out >= values).all()


def test_notification_round_keeps_own_flag_when_isolated():
    # node 0 halted but disconnected: the flag must not be lost
    topo = Topology(3, [(1, 2)])
    halt = np.array([True, False, False])
    out = notification_round(halt, topo.symmetric_arrays())
    assert out.tolist() == [True, False, False]


def test_heard_round_unions_neighbors():
    heard = np.array([[0b001, 0b010, 0b100]], dtype=np.uint64)
    out = heard_round(heard, path(3).symmetric_arrays())
    assert out.dtype == np.uint64
    assert out.tolist() == [[0b011, 0b111, 0b110]]
    assert heard.tolist() == [[0b001, 0b010, 0b100]]  # the input is kept


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 75])
def test_heard_round_matches_int_oracle(n, p):
    # chained rounds over fresh G(n, p) snapshots, from the origin sets and
    # from random sets, so every bit of both words is exercised; p = 0
    # gives edgeless snapshots, n = 64 and 65 the word boundary
    rng = random.Random(n)
    for sets in ([1 << i for i in range(n)], [rng.getrandbits(n) for _ in range(n)]):
        words = heard_words(sets)
        for _ in range(4):
            topology = gnp(n, p, rng)
            sets = heard_oracle(sets, topology)
            words = heard_round(words, topology.symmetric_arrays())
            assert words.shape == (-(-n // 64), n)
            assert words.tolist() == heard_words(sets).tolist()


EDGE_CASES = pytest.mark.parametrize("topo, delta", [
    (Topology(5, []), 2),
    (Topology(4, [(0, 1), (1, 2)]), 2),
    (path(2), 1),
    (Topology(2, []), 1),
    (star(9), 8),
    (gnp(75, 0.3, random.Random(3)), 74),
], ids=["no-pairs", "isolated-node", "n2", "n2-no-edges", "star", "two-words"])


@EDGE_CASES
def test_kernels_match_oracles_on_edge_cases(topo, delta):
    # without pairs bincount gives int64 zeros, which must not reach the
    # in-place float divide
    assert_kernels_match_oracles(topo, delta, np.random.default_rng(11))


@EDGE_CASES
def test_public_bincount_fallback_matches_oracles(monkeypatch, topo, delta):
    # collection calls bincount's C function where numpy has one; a numpy
    # without it keeps the public function, which must give the same bits
    if hasattr(np.bincount, "_implementation"):
        assert protocol._bincount is np.bincount._implementation
    monkeypatch.setattr(protocol, "_bincount", np.bincount)
    assert_kernels_match_oracles(topo, delta, np.random.default_rng(11))


@pytest.mark.parametrize("rows", [1, 2, 256])
def test_fold_matches_oracle(rows):
    # leader energies from three levels, two of them 2^-40 apart, so
    # consecutive rows often repeat one and the first row's gain over
    # prev_leader is sometimes the least
    rng = np.random.default_rng(rows)
    levels = [0.5, 0.75, 0.75 + 2**-40]
    for _ in range(20):
        block = rng.random((rows, 9))
        block[:, 0] = rng.choice(levels, rows)
        prev_leader = float(rng.choice(levels))
        folded, oracle = _Diagnostics(), DiagnosticsOracle()
        for diagnostics in (folded, oracle):
            diagnostics.fold(block, prev_leader, 9)
            diagnostics.fold(block[::-1], block[-1, 0], 9)
        assert (np.array(astuple(folded.freeze())).tobytes()
                == np.array(astuple(oracle.freeze())).tobytes())


# ---------------------------------------------------------- phase lengths

def test_verification_rounds_values():
    assert verification_rounds(2, 1.01) == 5
    assert verification_rounds(10, 1.01) == 13
    assert verification_rounds(2, 2.4) == 4
    assert verification_rounds(3, 2.4) == 5
    assert verification_rounds(4, 2.4) == 6


def test_notification_rounds_is_k():
    for k in (2, 5, 11):
        assert notification_rounds(k) == k


def test_collection_budget_values():
    assert collection_budget(2, 1) == 6
    assert collection_budget(2, 2) == 24
    assert collection_budget(3, 2) == 213
    assert collection_budget(4, 2) == 1420


def test_collection_budget_overflow():
    with pytest.raises(InvalidParameters):
        collection_budget(64, 4)
    with pytest.raises(InvalidParameters):
        collection_budget(2000, 512)


# ------------------------------------------------------------ phase runs

def collect_to_threshold(topo, delta, k, c=1.01):
    """The energies of an experimental collection from (0, 1, ..., 1) on a
    static topology, once the leader reaches k - 1 - k^-c."""
    operands = collection_operands(topo, delta)
    energy = np.ones(topo.n)
    energy[0] = 0.0
    while energy[0] < k - 1 - k ** (-c):
        energy = collection_round(energy, operands)
    return energy


def max_gossip(values, topo, rounds):
    pairs = topo.symmetric_arrays()
    for _ in range(rounds):
        values = verification_round(values, pairs)
    return values


def test_run_collection_n2_takes_two_rounds():
    # the leader holds 1 - 2**-r after r rounds, so one round leaves it at
    # 1/2, below the k = 2 threshold 1 - 2**-1.01, and these are two rounds;
    # count's trace length is pinned by test_count_n2_golden_trace
    assert collect_to_threshold(path(2), 1, 2).tolist() == [0.75, 0.25]


def test_run_collection_theoretical_ignores_threshold():
    params = ScheduleParams("path", 2, 1, math.inf, 0)
    rec = count(DynamicsSchedule(params), ProtocolConfig(c=2.4, mode="theoretical"))
    # the threshold is reached in 3 rounds, and tau(2) with delta = 1 runs 6
    assert reference.replay(params, 2.4, False, rec.rounds_total) == (2, [(2, 3, 4, 2)])
    assert rec.per_k_trace == (PhaseTrace(k=2, collection=6, verification=4, notification=2),)


def test_run_verification_n2_trace():
    energy = collect_to_threshold(path(2), 1, 2)
    residual = energy.copy()
    residual[0] = 0.0
    heard = max_gossip(residual, path(2), verification_rounds(2, 1.01))
    assert heard[0] == 0.25  # residual energy, below 1/2^1.01
    assert heard[0] <= 2 ** -1.01


def test_run_verification_detects_undersized_candidate():
    # on 5 nodes the k = 2 collection leaves residuals above 1/2^c, and the
    # max-gossip carries one of them to the leader
    topo = path(5)
    energy = collect_to_threshold(topo, 2, 2)
    residual = energy.copy()
    residual[0] = 0.0
    heard = max_gossip(residual, topo, verification_rounds(2, 1.01))
    assert energy[0] <= 1 + 1e-9 * 5
    assert heard[0] > 2 ** -1.01 + 1e-9 * 5


def test_max_heard_reaches_leader_on_static_topology():
    # at k = n the leader must hear the global maximum residual
    topo = path(6)
    energy = collect_to_threshold(topo, 2, 6)
    residual = energy.copy()
    residual[0] = 0.0
    heard = max_gossip(residual, topo, verification_rounds(6, 1.01))
    assert heard[0] == residual.max()
    assert heard[0] <= 6 ** -1.01 + 1e-9 * 6


def test_run_notification_false_verdict_fixed_length():
    halt = np.zeros(4, dtype=bool)
    for _ in range(notification_rounds(3)):
        halt = notification_round(halt, path(4).symmetric_arrays())
    assert not halt.any()
    # a rejected k is never spread, so tolerance adds no notification rounds
    rec = count(DynamicsSchedule(ScheduleParams("gnp", 6, 5, 2, 3, p=0.5)),
                ProtocolConfig(disconnection_tolerant=True))
    assert len(rec.per_k_trace) == 5
    assert all(t.notification == t.k for t in rec.per_k_trace[:-1])


def test_run_notification_star_one_round_suffices():
    halt = np.zeros(6, dtype=bool)
    halt[0] = True
    assert notification_round(halt, star(6).symmetric_arrays()).all()


def test_notification_spread_is_one_hop_per_round():
    pairs = path(10).symmetric_arrays()
    halt = np.zeros(10, dtype=bool)
    halt[0] = True
    for r in range(1, 10):
        halt = notification_round(halt, pairs)
        assert halt[:r + 1].all()
        assert not halt[r + 1:].any()


# ------------------------------------------------------------ end to end

def test_count_n2_golden_trace():
    # k=2: collection 2 rounds, verification 1+ceil(2/(1-2^-1.01)) = 5,
    # notification 2; total 9
    rec = count(DynamicsSchedule(ScheduleParams("path", 2, 1, math.inf, 0)))
    assert rec.estimate == 2
    assert rec.per_k_trace == (PhaseTrace(k=2, collection=2, verification=5, notification=2),)
    assert rec.rounds_total == 9
    assert rec.status == "ok"
    star_rec = count(DynamicsSchedule(ScheduleParams("star", 2, 1, math.inf, 0)))
    assert star_rec.per_k_trace == rec.per_k_trace


def test_count_n5_static_path_golden():
    rec = count(DynamicsSchedule(ScheduleParams("path", 5, 2, math.inf, 0)))
    assert rec.estimate == 5
    # engine-produced golden values, frozen for regression
    assert rec.rounds_total == 188
    assert rec.per_k_trace == (
        PhaseTrace(k=2, collection=3, verification=5, notification=2),
        PhaseTrace(k=3, collection=15, verification=6, notification=3),
        PhaseTrace(k=4, collection=35, verification=7, notification=4),
        PhaseTrace(k=5, collection=95, verification=8, notification=5),
    )


@pytest.mark.parametrize("family,delta,T,p", [
    ("path", 2, math.inf, None),
    ("star", None, math.inf, None),
    ("random-tree", 3, 1, None),
    ("random-tree", 4, 40, None),
    ("gnp", None, 5, 0.4),
])
def test_count_small_grid_exact(family, delta, T, p):
    for n in range(3, 9):
        d = (n - 1) if delta is None else min(delta, n - 1)
        params = ScheduleParams(family, n, d, T, 1234 + n, p=p)
        cfg = ProtocolConfig(disconnection_tolerant=(family == "gnp"))
        rec = count(DynamicsSchedule(params), cfg)
        expect = record_inputs(params, cfg) | {"tolerant": cfg.disconnection_tolerant}
        assert checks.record_errors(rec, expect) == []
        ref = reference.replay(params, rec.c, cfg.disconnection_tolerant, rec.rounds_total)
        assert checks.reference_errors(ref, rec) == []


STATIC_STREAMS = [("path", 12, 2), ("path", 30, 2), ("path", 13, 4), ("star", 30, 29)] + [
    ("random-tree", n, delta) for n in (10, 20, 30) for delta in (2, 4)]


def test_static_collection_lengths_match_spectral_prediction():
    # every per-k collection length of a static run is the least round at
    # which the spectral leader energy reaches the threshold; a k too close
    # to call is replayed densely instead
    for family, n, delta in STATIC_STREAMS:
        schedule = DynamicsSchedule(ScheduleParams(family, n, delta, math.inf, 0))
        rec = count(schedule)
        lengths = {t.k: t.collection for t in rec.per_k_trace}
        predicted = spectral_collection_lengths(schedule.topology_at(1), delta, rec.c, lengths)
        undecided = [k for k, length in predicted.items() if length is None]
        if undecided:
            dense = {k: collection for k, collection, _, _ in
                     reference.replay(schedule.params, rec.c, False, rec.rounds_total)[1]}
            predicted.update((k, dense[k]) for k in undecided)
        assert predicted == lengths, (family, n, delta)


def test_spectral_prediction_reports_a_tie_as_undecided():
    # on path(2) at delta 1 the leader holds exactly 1 - 2^-r after r
    # rounds, and at c = 1 the k = 2 threshold 1/2 is reached exactly
    assert spectral_collection_lengths(path(2), 1, 1.01, [2]) == {2: 2}
    assert spectral_collection_lengths(path(2), 1, 1.0, [2]) == {2: None}


def test_count_deterministic():
    a = count(DynamicsSchedule(ScheduleParams("random-tree", 9, 4, 10, 31)))
    b = count(DynamicsSchedule(ScheduleParams("random-tree", 9, 4, 10, 31)))
    assert a == b


def test_count_round_limit_partial_record():
    cfg = ProtocolConfig(max_rounds=40, disconnection_tolerant=True)
    with pytest.raises(RoundLimitExceeded) as info:
        count(DynamicsSchedule(ScheduleParams("gnp", 3, 2, 1, 5, p=0.0)), cfg)
    rec = info.value.record
    assert rec.status == "round_limit"
    assert rec.estimate is None
    assert rec.rounds_total == 40
    assert rec.per_k_trace == (PhaseTrace(k=2, collection=40, verification=0, notification=0),)


KERNELS = ("collection_round", "verification_round", "notification_round", "heard_round")


def count_kernel_calls(monkeypatch):
    """Wrap the round kernels where ``count`` looks them up; the dict
    returned counts the calls of each."""
    from adncount import protocol

    calls = dict.fromkeys(KERNELS, 0)
    for name in calls:
        def counted(*args, _kernel=getattr(protocol, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(protocol, name, counted)
    return calls


def assert_calls_match_rounds(calls, rec):
    assert calls["collection_round"] == rec.rounds_collection
    assert calls["verification_round"] == rec.rounds_verification
    assert calls["notification_round"] == rec.rounds_notification


def test_kernel_calls_match_phase_rounds(monkeypatch):
    # one kernel call per simulated round, and heard_round on exactly the
    # tolerant verification rounds; span tracers count rounds this way
    calls = count_kernel_calls(monkeypatch)

    def run(schedule, cfg):
        calls.update(dict.fromkeys(calls, 0))
        rec = count(schedule, cfg)
        assert_calls_match_rounds(calls, rec)
        return rec

    tolerant = run(DynamicsSchedule(ScheduleParams("gnp", 7, 6, 3, 11, p=0.3)),
                   ProtocolConfig(disconnection_tolerant=True))
    assert calls["heard_round"] == tolerant.rounds_verification
    # this stream keeps k = 2 verifying past its fixed length
    assert tolerant.per_k_trace[0].verification > verification_rounds(2, 1.01)
    run(DynamicsSchedule(ScheduleParams("path", 6, 2, math.inf, 0)), ProtocolConfig())
    assert calls["heard_round"] == 0


@pytest.mark.parametrize("params", [
    ScheduleParams("path", 8, 2, math.inf, 0),
    ScheduleParams("random-tree", 8, 3, 3, 4),
    ScheduleParams("gnp", 7, 6, 3, 11, p=0.3),
], ids=lambda params: f"{params.family}-T{params.T}")
def test_operands_read_once_per_epoch(monkeypatch, params):
    # count reads a snapshot's kernel operands when it comes into force,
    # not in every round of its epoch
    reads = dict.fromkeys(("retention", "collection_arrays", "symmetric_arrays"), 0)
    for name in reads:
        def counted(topology, *args, _method=getattr(Topology, name), _name=name):
            reads[_name] += 1
            return _method(topology, *args)
        monkeypatch.setattr(Topology, name, counted)
    calls = count_kernel_calls(monkeypatch)
    rec = count(DynamicsSchedule(params),
                ProtocolConfig(disconnection_tolerant=params.may_disconnect))
    epochs = 1 if params.T == math.inf else -(-rec.rounds_total // params.T)
    assert epochs < rec.rounds_total
    assert reads == dict.fromkeys(reads, epochs)
    assert_calls_match_rounds(calls, rec)


def test_degree_bound_checked_when_a_snapshot_comes_into_force(monkeypatch):
    # a star over the bound comes into force at the first verification
    # round of k = 2, where no collection round runs on it
    params = ScheduleParams("path", 4, 2, math.inf, 0)
    first = count(DynamicsSchedule(params)).per_k_trace[0].collection
    stream = ListSchedule(ScheduleParams("path", 4, 2, first, 0), [path(4), star(4)])
    calls = count_kernel_calls(monkeypatch)
    with pytest.raises(InvalidParameters, match=r"^max degree 3 exceeds delta=2$"):
        count(stream)
    assert calls == dict(collection_round=first, verification_round=0, notification_round=0,
                         heard_round=0)


def record_operands(monkeypatch):
    """Wrap the three round kernels where ``count`` looks them up; the list
    returned gets (kernel name, operands) of every global round, in round
    order."""
    from adncount import protocol

    seen = []
    for name in KERNELS[:3]:
        def recorded(*args, _kernel=getattr(protocol, name), _name=name):
            seen.append((_name, args[1]))
            return _kernel(*args)
        monkeypatch.setattr(protocol, name, recorded)
    return seen


def assert_in_force(seen, stream):
    """Round r ran on the operands of ``topology_at(r)`` of a fresh schedule
    of ``stream``, byte for byte: ``collection_operands`` in collection,
    ``symmetric_arrays`` otherwise."""
    family, delta, T, p = stream
    fresh = DynamicsSchedule(ScheduleParams(family, 6, delta, T, 3, p=p))
    for r, (kernel, operands) in enumerate(seen, start=1):
        topology = fresh.topology_at(r)
        if kernel == "collection_round":
            want = collection_operands(topology, delta)
        else:
            want = topology.symmetric_arrays()
        assert len(operands) == len(want), f"round {r}"
        for got, expected in zip(operands, want):
            assert got.dtype == expected.dtype, f"round {r}"
            assert got.tobytes() == expected.tobytes(), f"round {r}"


STREAMS = [(family, delta, T, p)
           for family, delta, p in (("path", 2, None), ("star", 5, None),
                                    ("random-tree", 3, None), ("gnp", 5, 0.4))
           for T in (1, 2, 3, 7, math.inf) if not (family == "gnp" and T == math.inf)]


@pytest.mark.parametrize("stream", STREAMS, ids=lambda s: f"{s[0]}-T{s[2]}")
def test_snapshot_in_force_each_round(monkeypatch, stream):
    seen = record_operands(monkeypatch)
    family, delta, T, p = stream
    cfg = ProtocolConfig(disconnection_tolerant=(family == "gnp"))
    rec = count(DynamicsSchedule(ScheduleParams(family, 6, delta, T, 3, p=p)), cfg)
    assert len(seen) == rec.rounds_total
    assert_in_force(seen, stream)


@pytest.mark.parametrize("phase", [0, 1, 2], ids=["collection", "verification", "notification"])
@pytest.mark.parametrize("stream", [("path", 2, 7, None), ("random-tree", 3, 3, None),
                                    ("gnp", 5, 7, 0.4), ("path", 2, math.inf, None)],
                         ids=lambda s: f"{s[0]}-T{s[2]}")
def test_snapshot_in_force_up_to_round_cap(monkeypatch, stream, phase):
    # the cap lets the given phase of k = 3 run one or two rounds, and the
    # first round past it is not the first of an epoch
    family, delta, T, p = stream
    tolerant = family == "gnp"
    full = count(DynamicsSchedule(ScheduleParams(family, 6, delta, T, 3, p=p)),
                 ProtocolConfig(disconnection_tolerant=tolerant))
    done, second = full.per_k_trace[:2]
    lengths = (second.collection, second.verification, second.notification)
    start = done.collection + done.verification + done.notification + sum(lengths[:phase]) + 1
    cap = start if T == math.inf or start % T else start + 1
    assert cap + 1 < start + lengths[phase]
    seen = record_operands(monkeypatch)
    name = ("collection", "verification", "notification")[phase]
    with pytest.raises(RoundLimitExceeded, match=f"during {name}$") as info:
        count(DynamicsSchedule(ScheduleParams(family, 6, delta, T, 3, p=p)),
              ProtocolConfig(max_rounds=cap, disconnection_tolerant=tolerant))
    rec = info.value.record
    assert rec.rounds_total == cap == len(seen)
    assert rec.per_k_trace == (done, PhaseTrace(3, *lengths[:phase], cap + 1 - start,
                                                *(0,) * (2 - phase)))
    assert_in_force(seen, stream)


def scalar_diagnostics(rec, energies):
    """The four collection extremes, reduced round by round from the
    post-round energies of every collection round of ``rec``."""
    n = rec.n
    err = nonleader = 0.0
    low = gain = math.inf
    rounds = iter(energies)
    for t in rec.per_k_trace:
        prev_leader = 0.0  # each collection phase starts from (0, 1, ..., 1)
        for energy in itertools.islice(rounds, t.collection):
            e = abs(float(energy.sum()) - (n - 1.0))
            if e > err:
                err = e
            top = float(energy[1:].max())
            if top > nonleader:
                nonleader = top
            bottom = float(energy.min())
            if bottom < low:
                low = bottom
            g = float(energy[0]) - prev_leader
            if g < gain:
                gain = g
            prev_leader = float(energy[0])
    assert next(rounds, None) is None, "more collection rounds than the trace"
    return RunDiagnostics(err, nonleader, 0.0 if low == math.inf else low,
                          0.0 if gain == math.inf else gain)


@pytest.mark.parametrize("schedule, config, last_k", [
    (("path", 30, 2, math.inf, 0), {}, None),
    (("star", 30, 29, math.inf, 0), {}, None),
    (("random-tree", 16, 4, 1, 7), {}, None),
    (("gnp", 12, 11, 3, 5, 0.3), {"disconnection_tolerant": True}, None),
    (("path", 4, 2, math.inf, 0), {"c": 2.4, "mode": "theoretical"}, None),
    # round caps: after 3 full 256-round blocks and 232 rows of the k = 20
    # collection; on the first row of the second block of the last star
    # collection, whose leader gain is the smallest of the run so far
    (("path", 30, 2, math.inf, 0), {"max_rounds": 7544 + 1000}, (20, 1000)),
    (("star", 30, 29, math.inf, 0), {"max_rounds": 2470 + 257}, (30, 257)),
    (("gnp", 3, 2, 1, 5, 0.0), {"max_rounds": 40, "disconnection_tolerant": True},
     (2, 40)),
], ids=["path", "star", "tree-T1", "gnp-tolerant", "theoretical", "path-cap", "star-cap",
        "gnp-cap"])
def test_diagnostics_match_per_round_reduction(monkeypatch, schedule, config, last_k):
    from adncount import protocol

    energies = []

    def recorded(*args, _kernel=protocol.collection_round):
        energy = _kernel(*args)
        energies.append(energy.copy())
        return energy

    monkeypatch.setattr(protocol, "collection_round", recorded)
    cfg = ProtocolConfig(**config)
    if last_k is None:
        rec = count(DynamicsSchedule(ScheduleParams(*schedule)), cfg)
    else:
        with pytest.raises(RoundLimitExceeded) as info:
            count(DynamicsSchedule(ScheduleParams(*schedule)), cfg)
        rec = info.value.record
        assert rec.per_k_trace[-1] == PhaseTrace(*last_k, 0, 0)
    assert len(energies) == rec.rounds_collection
    assert rec.diagnostics == scalar_diagnostics(rec, energies)


def test_count_theoretical_full_run():
    cfg = ProtocolConfig(c=2.4, mode="theoretical")
    rec = count(DynamicsSchedule(ScheduleParams("path", 4, 2, math.inf, 0)), cfg)
    assert rec.estimate == 4
    assert [t.collection for t in rec.per_k_trace] == [24, 213, 1420]


def theoretical_need(n, delta, c):
    """The per-k phases of a theoretical run that confirms k = n: each k
    runs tau(k) and its fixed verification and notification rounds."""
    return tuple(PhaseTrace(k, collection_budget(k, delta), verification_rounds(k, c),
                            notification_rounds(k)) for k in range(2, n + 1))


def one_point_spec(family, n, delta):
    """A theoretical SweepSpec whose grid is the one point (family, n,
    delta), or None where no delta rule yields delta at n."""
    if delta == n - 1:
        rule = dict(delta_rule="fixed-n-minus-1")
    elif delta & (delta - 1) == 0:
        rule = dict(delta_rule="largest-power-of-two", delta_cap=delta)
    else:
        return None
    return lambda: SweepSpec(families=(family,), n_range=(n, n), T_set=(math.inf,),
                             repetitions=1, master_seed=0, mode="theoretical", c=2.4, **rule)


ADMITTED = {("path", 2, 1), ("path", 3, 2), ("path", 4, 2), ("path", 5, 2), ("star", 3, 2)}


@pytest.mark.parametrize("family, n, delta", [
    ("path", n, delta) for n in range(2, 11) for delta in range(1, 5)
    if (delta == 1 if n == 2 else 2 <= delta < n)
] + [("star", 3, 2), ("star", 4, 3)])
def test_theoretical_admission(family, n, delta):
    # at the default cap a run is admitted exactly when the rounds it needs
    # fit, and then it takes exactly those; a refusal comes before round 1
    params = ScheduleParams(family, n, delta, math.inf, 0)
    cfg = ProtocolConfig(c=2.4, mode="theoretical")
    need = theoretical_need(n, delta, 2.4)
    total = sum(t.collection + t.verification + t.notification for t in need)
    if (family, n, delta) in ADMITTED:
        assert total <= cfg.effective_max_rounds(n, delta)
        rec = count(DynamicsSchedule(params), cfg)
        assert (rec.status, rec.estimate, rec.per_k_trace, rec.rounds_total) == (
            "ok", n, need, total)
        return
    assert total > cfg.effective_max_rounds(n, delta)
    refusals = [lambda: count(DynamicsSchedule(params), cfg), one_point_spec(family, n, delta)]
    for refuse in filter(None, refusals):
        start = time.perf_counter()
        with pytest.raises(InvalidParameters, match=f"theoretical mode at n={n}, delta={delta} "):
            refuse()
        assert time.perf_counter() - start < 1.0


def test_theoretical_admission_follows_max_rounds():
    # star n = 4 needs 7976 rounds: past the default cap 7680, within 8000
    params = ScheduleParams("star", 4, 3, math.inf, 0)
    need = theoretical_need(4, 3, 2.4)
    rec = count(DynamicsSchedule(params), ProtocolConfig(c=2.4, mode="theoretical",
                                                         max_rounds=8000))
    assert (rec.status, rec.estimate, rec.per_k_trace) == ("ok", 4, need)
    assert rec.rounds_total == 7976


def test_config_validation():
    with pytest.raises(InvalidParameters):
        ProtocolConfig(c=1.0)
    with pytest.raises(InvalidParameters):
        ProtocolConfig(c=0.5)
    with pytest.raises(InvalidParameters):
        ProtocolConfig(c=1.01, mode="theoretical")  # needs c > log2(5)
    with pytest.raises(InvalidParameters):
        ProtocolConfig(mode="hybrid")
    with pytest.raises(InvalidParameters):
        ProtocolConfig(max_rounds=0)
    # a record of these would not load back (RunRecord.from_json_dict)
    for bad in ({"max_rounds": 2.5}, {"max_rounds": True}, {"c": "2"}, {"c": True},
                {"disconnection_tolerant": 1}):
        with pytest.raises(InvalidParameters):
            ProtocolConfig(**bad)
    ProtocolConfig(c=2.4, mode="theoretical")  # fine


def test_run_record_json_round_trip():
    rec = count(DynamicsSchedule(ScheduleParams("gnp", 6, 5, 10, 3, p=0.5)),
                ProtocolConfig(disconnection_tolerant=True))
    again = RunRecord.from_json_dict(rec.to_json_dict())
    assert again == rec
    static = count(DynamicsSchedule(ScheduleParams("path", 4, 2, math.inf, 2)))
    assert RunRecord.from_json_dict(static.to_json_dict()) == static  # T=inf survives


@pytest.mark.parametrize("params, config", [
    (ScheduleParams("random-tree", 8, 3, 1, 5), ProtocolConfig()),
    (ScheduleParams("path", 8, 2, math.inf, 6), ProtocolConfig()),
    (ScheduleParams("star", 6, 5, 4, 7), ProtocolConfig()),
    (ScheduleParams("gnp", 8, 7, 10, 8, p=0.3), ProtocolConfig(disconnection_tolerant=True)),
], ids=["random-tree-T1", "path-static", "star", "gnp-tolerant"])
def test_record_names_and_rebuilds_its_run(params, config):
    # every stream and engine input is a record field, so a record's own
    # fields rebuild its run, and the rebuilt run gives the same record
    names = {f.name for f in fields(ScheduleParams) + fields(ProtocolConfig)}
    assert names <= record_inputs(params, config).keys()
    rec = count(DynamicsSchedule(params), config)
    rebuilt = ScheduleParams(**{f.name: getattr(rec, f.name) for f in fields(ScheduleParams)})
    assert rebuilt == params
    rebuilt_config = ProtocolConfig(**{f.name: getattr(rec, f.name)
                                       for f in fields(ProtocolConfig)})
    assert count(DynamicsSchedule(rebuilt), rebuilt_config) == rec
