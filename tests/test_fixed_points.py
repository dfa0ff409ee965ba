"""Collection fixed points: once a round under the operands in force leaves
the energies bitwise unchanged, ``count`` accounts the rounds up to the
next stop without running them. The records must keep their bytes.

The digests were recorded by running every collection round, before the
skip existed. The stalled runs lie in the band where the float leader can
never pass n - 1 - n^-c at k = n, so they end only at the round cap."""

import hashlib
import importlib.util
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import pytest

from adncount import (DynamicsSchedule, ProtocolConfig, ScheduleParams, collection_budget, count,
                      notification_rounds, verification_rounds)
from adncount import protocol
from adncount.errors import RoundLimitExceeded

ROOT = Path(__file__).resolve().parent.parent

# (params, config, status, rounds_total, collection rounds run, digest)
FIXED_POINT_RUNS = {
    "star-n30-c9": (ScheduleParams("star", 30, 29, math.inf, 0),
                    ProtocolConfig(c=9, max_rounds=300_000), "round_limit", 300_000, 44_284,
                    "1b98ce96bfcacd2f2294228863659f49f3e27e4bcc8ba0a085575d97a73b4214"),
    "star-n3-c33": (ScheduleParams("star", 3, 2, math.inf, 0),
                    ProtocolConfig(c=33, max_rounds=300_000), "round_limit", 300_000, 2819,
                    "e4856465d85855ecd663d2959c7b982d17509b48af67c5c02295b3ba5397f1e6"),
    "path-n10-c14": (ScheduleParams("path", 10, 2, math.inf, 0),
                     ProtocolConfig(c=14, max_rounds=300_000), "round_limit", 300_000, 109_144,
                     "a900de0b0725a362163cb0a365353308991d774a19e95189103226150c919552"),
    "theoretical-star-n4": (ScheduleParams("star", 4, 3, math.inf, 0),
                            ProtocolConfig(c=2.4, mode="theoretical", max_rounds=10**6),
                            "ok", 7976, 4860,
                            "52e3d002f2240589cf9ac39202fb80978085282799bb71ca250b5ae2e1dec22f"),
    "theoretical-path-n8": (ScheduleParams("path", 8, 2, math.inf, 0),
                            ProtocolConfig(c=2.4, mode="theoretical", max_rounds=10**7),
                            "ok", 1_367_432, 189_110,
                            "aafa047df51d01ec42783e797b454ec32e55400b3e133983f642f24bd9a43786"),
}


def run(params, config):
    """``count``'s record, or the partial record of its round cap."""
    try:
        return count(DynamicsSchedule(params), config)
    except RoundLimitExceeded as exc:
        return exc.record


@pytest.mark.parametrize("name", FIXED_POINT_RUNS)
def test_skipped_fixed_points_keep_the_record(monkeypatch, name):
    params, config, status, total, computed, digest = FIXED_POINT_RUNS[name]
    calls = [0]

    def counted(*args, _kernel=protocol.collection_round):
        calls[0] += 1
        return _kernel(*args)

    monkeypatch.setattr(protocol, "collection_round", counted)
    record = run(params, config)
    assert (record.status, record.rounds_total) == (status, total)
    assert record.estimate == (params.n if status == "ok" else None)
    # most collection rounds were accounted, not run
    assert calls[0] == computed < record.rounds_collection
    assert hashlib.sha256(json.dumps(record.to_json_dict()).encode()).hexdigest() == digest


def test_stalled_static_run_ends_at_once_at_the_default_cap():
    params, config, *_ = FIXED_POINT_RUNS["star-n30-c9"]
    default = replace(config, max_rounds=None)
    start = time.perf_counter()
    record = run(params, default)
    assert time.perf_counter() - start < 1.0
    cap = default.effective_max_rounds(params.n, params.delta)
    assert (record.status, record.max_rounds, record.rounds_total) == ("round_limit", cap, cap)
    # the same run as at the 300 000 cap, except for where the cap cut it
    short = run(params, config)
    last = short.per_k_trace[-1]
    extra = cap - short.rounds_total
    assert record == replace(
        short, max_rounds=cap, rounds_total=cap,
        rounds_collection=short.rounds_collection + extra,
        per_k_trace=(*short.per_k_trace[:-1], replace(last, collection=last.collection + extra)))


def test_theoretical_static_bench(tmp_path, capsys):
    # bench/theoretical_static.py on small sizes: every estimate is n, and
    # star n = 6 runs 1.2e7 rounds, far past its default cap of 10 * 5 * 6^4
    spec = importlib.util.spec_from_file_location(
        "theoretical_static", ROOT / "bench" / "theoretical_static.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--path-n", "3,5", "--star-n", "3,6", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "BENCH_theoretical.json").read_text())
    runs = {(run["family"], run["n"]): run for run in report["runs"]}
    assert list(runs) == [("path", 3), ("path", 5), ("star", 3), ("star", 6)]
    assert all(run["estimate"] == n for (_, n), run in runs.items())
    # a theoretical run's phases have fixed lengths
    assert runs["star", 6]["rounds_total"] == sum(
        collection_budget(k, 5) + verification_rounds(k, bench.C) + notification_rounds(k)
        for k in range(2, 7)) == 11_614_219
