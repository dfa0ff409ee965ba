"""Pinned output digests: any change to these bytes is a behaviour change.

The sweep and tree digests were recorded from the implementation before
the snapshot pipeline was refactored, the path, theoretical and round-cap
record digests before the collection diagnostics were reduced in blocks,
the random-tree record digests before each tree snapshot was built in
one draw pass and one walk, and the gnp, star and T = 1 path digests
before each G(n, p) snapshot was drawn in one bulk read, the n = 70
tolerant gnp digests before the heard sets became uint64 words, and the
n = 75 tree digest before prune walked only its over-bound subtrees. A
refactor or speed-up must leave them unchanged; a deliberate behaviour
change must update them and say so in CHANGES.md.
"""

import hashlib
import json
import math
import random

import pytest

from adncount import (
    DynamicsSchedule,
    PhaseTrace,
    ProtocolConfig,
    ScheduleParams,
    SweepSpec,
    count,
    export_csv,
    export_json,
    gnp,
    prune,
    ranrut,
    run_sweep,
    tree_to_topology,
)
from adncount.errors import RoundLimitExceeded
from helpers import VariantSchedule

# Four families in one grid: random-tree at delta 2 and 4 (prune fires) with
# fresh trees every round (T = 1) and every 7 rounds; path at finite T, so
# the relabeled paths of later epochs are drawn; star; and gnp at p = 0.3,
# which runs the disconnection-tolerant engine.
PINNED_SPEC = SweepSpec(
    families=("random-tree", "path", "star", "gnp"),
    n_range=(5, 9),
    T_set=(1, 5, 7),
    repetitions=2,
    master_seed=2024,
    delta_cap=4,
    p_set=(0.3,),
)

SWEEP_CSV_SHA256 = "4d38869247e9707b0556296df214fb55297504f42b61bc3044e5834d0e5dda2a"
SWEEP_JSON_SHA256 = "4850333f260f79578a80a52e5e04587e20b13f42cc51a4469bc64b27d93adc32"
TREE_SNAPSHOTS_SHA256 = "73c2a4088db127daa2f8b2674818e2afbfeaebcf45bcb23c53f62f872e5073af"
# 20 pruned trees at n = 75 per delta in {2, 4, 8}, in both ranrut variants,
# drawn from one shared Random(31) per variant; recorded before prune walked
# only its over-bound subtrees and drew without randrange.
TREE75_SNAPSHOTS_SHA256 = "116ec09735c66609fa05af1dc28e2f79e4f272f8a4917dca7c471e20d56fd94a"

# Single records, diagnostics included, whose collection phases are long:
# (a) a static path at n = 30, 40 769 rounds, 39 755 of them collection;
# (b) theoretical mode, fixed budgets of 24, 213 and 1420 collection rounds;
# (c) the partial record of a round cap that fires in the 1000th round of
#     the k = 20 collection phase of (a), which starts after round 7544.
PATH30_RECORD_SHA256 = "79d341005fe13d0b638c1591e2ca02f33f87c4c38a9fa0dd41dcb05aa5c56a58"
THEORETICAL_RECORD_SHA256 = "6d07b490c5658f28c85bf1d3750be864a79bd0267e9fee4bd1b4a5e6f6f4bd36"
ROUND_LIMIT_RECORD_SHA256 = "203c2334382e03bbf2abea33d0d57932559327db4befdf966c95eb63e927f906"

# Random-tree records at n = 30 with a fresh tree every round (T = 1), so
# thousands of snapshots each: delta 4 in both ranrut variants (prune
# reshapes about 70 % of the trees) and delta 2 (prune reshapes every tree
# into a path).
TREE_RECORDS_SHA256 = {
    (4, "paper-literal"): "47d575d53be3be00854f898a3abd17186b4bddb49d7474eae4c73b36560ea13b",
    (4, "same-copy"): "51bc95f52dacd2e63b90749fa559e89afc4c523eae25efaef5097a4fffe92b60",
    (2, "paper-literal"): "5331d48b18f059cdd28ce2159dde29ab05aeb46d10668ea7eaace8a505b361c7",
}

# Records at n = 30 with a fresh snapshot every epoch: gnp at p = 0.3 and
# T = 10 in the disconnection-tolerant engine, and star and path at T = 1.
GNP_TOLERANT_RECORD_SHA256 = "bbd317d08e022331f4558960ca8cf7df06de121772d62df39d850782d4365b7c"
STAR_T1_RECORD_SHA256 = "f91b0bca1e31c9d8cfc9b853840ff71ecf5f2c46fe1061a8a719dcee7cebd72d"
PATH_T1_RECORD_SHA256 = "f99947b5167db7624bfba56d303d66a9f8daf9a79ea35d0333272efc227d394f"

# Disconnection-tolerant gnp records at n = 70 and T = 10, where each node's
# heard set spans two 64-bit words: at p = 0.3 no verification outlasts its
# fixed length, at p = 0.05 those of k = 2, 3 and 4 do.
GNP70_TOLERANT_RECORDS_SHA256 = {
    0.3: "279ad5cf0564a78e7fd22e645cbaa58a589d74cbf24d650f98375a64a2dcd979",
    0.05: "3f40ed5094d30a6d0016762a2e3f2c05a01f556dc4079961227e2b95cea77cbd",
}

# 400 gnp(30, 0.3) snapshots drawn from one shared generator, so each
# draw's consumption of the stream is pinned as well as its edges.
GNP_SNAPSHOTS_SHA256 = "c0d421e0e1791a390cb7dae53878f73426329525f71109f9397046b2d1eb9584"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_sha256(record) -> str:
    return sha256(json.dumps(record.to_json_dict()).encode())


def test_pinned_static_path_record():
    rec = count(DynamicsSchedule(ScheduleParams("path", 30, 2, math.inf, 0)))
    assert (rec.rounds_total, rec.rounds_collection) == (40769, 39755)
    assert record_sha256(rec) == PATH30_RECORD_SHA256


def test_pinned_theoretical_record():
    cfg = ProtocolConfig(c=2.4, mode="theoretical")
    rec = count(DynamicsSchedule(ScheduleParams("path", 4, 2, math.inf, 0)), cfg)
    assert record_sha256(rec) == THEORETICAL_RECORD_SHA256


def test_pinned_round_limit_record():
    cfg = ProtocolConfig(max_rounds=7544 + 1000)
    with pytest.raises(RoundLimitExceeded) as info:
        count(DynamicsSchedule(ScheduleParams("path", 30, 2, math.inf, 0)), cfg)
    rec = info.value.record
    assert rec.per_k_trace[-1] == PhaseTrace(k=20, collection=1000, verification=0,
                                             notification=0)
    assert record_sha256(rec) == ROUND_LIMIT_RECORD_SHA256


@pytest.mark.parametrize("delta,variant", sorted(TREE_RECORDS_SHA256))
def test_pinned_random_tree_record(delta, variant):
    params = ScheduleParams("random-tree", 30, delta, 1, 0)
    # schedules draw paper-literal trees; a stream of the same epochs in
    # the other variant is built test-side
    if variant == "paper-literal":
        stream = DynamicsSchedule(params)
    else:
        stream = VariantSchedule(params, variant)
    rec = count(stream)
    assert rec.estimate == 30
    assert record_sha256(rec) == TREE_RECORDS_SHA256[delta, variant]


def test_pinned_gnp_tolerant_record():
    cfg = ProtocolConfig(disconnection_tolerant=True)
    rec = count(DynamicsSchedule(ScheduleParams("gnp", 30, 29, 10, 0, p=0.3)), cfg)
    assert rec.estimate == 30
    assert record_sha256(rec) == GNP_TOLERANT_RECORD_SHA256


@pytest.mark.parametrize("p", sorted(GNP70_TOLERANT_RECORDS_SHA256))
def test_pinned_gnp_two_word_record(p):
    cfg = ProtocolConfig(disconnection_tolerant=True)
    rec = count(DynamicsSchedule(ScheduleParams("gnp", 70, 69, 10, 0, p=p)), cfg)
    assert rec.estimate == 70
    assert record_sha256(rec) == GNP70_TOLERANT_RECORDS_SHA256[p]


@pytest.mark.parametrize("family,delta,digest", [
    ("star", 29, STAR_T1_RECORD_SHA256),
    ("path", 2, PATH_T1_RECORD_SHA256),
])
def test_pinned_T1_record(family, delta, digest):
    rec = count(DynamicsSchedule(ScheduleParams(family, 30, delta, 1, 0)))
    assert rec.estimate == 30
    assert record_sha256(rec) == digest


def test_pinned_sweep_csv_and_json(tmp_path):
    result = run_sweep(PINNED_SPEC)
    export_csv(result, tmp_path / "runs.csv")
    export_json(result, tmp_path / "runs.json")
    assert sha256((tmp_path / "runs.csv").read_bytes()) == SWEEP_CSV_SHA256
    assert sha256((tmp_path / "runs.json").read_bytes()) == SWEEP_JSON_SHA256


def test_pinned_tree_snapshots():
    lines = []
    for variant in ("paper-literal", "same-copy"):
        rng = random.Random(31)
        for n in range(1, 41):
            for delta in range(2, 7):
                tree = prune(ranrut(n, rng, variant), delta, rng)
                lines.append(json.dumps(tree_to_topology(tree).to_json_dict()))
    assert sha256("\n".join(lines).encode()) == TREE_SNAPSHOTS_SHA256


def test_pinned_tree_snapshots_n75():
    lines = []
    for variant in ("paper-literal", "same-copy"):
        rng = random.Random(31)
        for delta in (2, 4, 8):
            for _ in range(20):
                tree = prune(ranrut(75, rng, variant), delta, rng)
                lines.append(json.dumps(tree_to_topology(tree).to_json_dict()))
    assert sha256("\n".join(lines).encode()) == TREE75_SNAPSHOTS_SHA256


def test_pinned_gnp_snapshots():
    rng = random.Random(31)
    lines = [json.dumps(gnp(30, 0.3, rng).to_json_dict()) for _ in range(400)]
    assert sha256("\n".join(lines).encode()) == GNP_SNAPSHOTS_SHA256
