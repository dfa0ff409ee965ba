"""Output checks: properties of the counting method, not stored outputs.

Every function returns a list of human-readable errors; empty means the
output passed. Phase lengths are recomputed here from the protocol's
definitions, never read back from the library.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math

from adncount import RunDiagnostics, RunRecord


def verification_length(k: int, c: float) -> int:
    """1 + ceil(k / (1 - k^-c)) rounds of max-gossip."""
    return 1 + math.ceil(k / (1.0 - k ** (-c)))


def record_errors(rec: RunRecord, expect: dict) -> list[str]:
    """Check one record against the method's guarantees.

    ``expect`` holds the run's inputs: family, n, delta, T, p, c, seed and
    tolerant (disconnection tolerance, which relaxes the phase lengths to
    lower bounds).
    """
    errs = []
    n = expect["n"]
    tag = f"seed {rec.seed}"
    for key in ("family", "n", "delta", "T", "p", "c", "seed"):
        if getattr(rec, key) != expect[key]:
            errs.append(f"{tag}: {key} = {getattr(rec, key)!r}, expected {expect[key]!r}")
    if rec.disconnection_tolerant != expect["tolerant"]:
        errs.append(f"{tag}: disconnection_tolerant = {rec.disconnection_tolerant}")
    if rec.status != "ok":
        errs.append(f"{tag}: status {rec.status!r}")
    if rec.estimate != n:
        errs.append(f"{tag}: estimate {rec.estimate} != n = {n}")
    ks = [t.k for t in rec.per_k_trace]
    if ks != list(range(2, n + 1)):
        errs.append(f"{tag}: per_k_trace covers k = {ks}, expected 2..{n}")
    sums = {
        "collection": sum(t.collection for t in rec.per_k_trace),
        "verification": sum(t.verification for t in rec.per_k_trace),
        "notification": sum(t.notification for t in rec.per_k_trace),
    }
    for phase, total in sums.items():
        if getattr(rec, f"rounds_{phase}") != total:
            errs.append(f"{tag}: rounds_{phase} {getattr(rec, f'rounds_{phase}')} "
                        f"!= per-k sum {total}")
    if rec.rounds_total != sum(sums.values()):
        errs.append(f"{tag}: rounds_total {rec.rounds_total} != phase sum {sum(sums.values())}")
    for t in rec.per_k_trace:
        ver, notif = verification_length(t.k, expect["c"]), t.k
        if t.collection < 1:
            errs.append(f"{tag}: k={t.k} collection ran {t.collection} rounds")
        if expect["tolerant"]:
            bad = t.verification < ver or t.notification < notif
        else:
            bad = t.verification != ver or t.notification != notif
        if bad:
            errs.append(f"{tag}: k={t.k} verification/notification "
                        f"{t.verification}/{t.notification}, expected "
                        f"{'at least ' if expect['tolerant'] else ''}{ver}/{notif}")
    d = rec.diagnostics
    if not d.max_conservation_error <= 1e-9 * n:
        errs.append(f"{tag}: conservation error {d.max_conservation_error!r} > 1e-9*n")
    if not d.max_nonleader_energy <= 1.0:
        errs.append(f"{tag}: non-leader energy {d.max_nonleader_energy!r} > 1")
    if not d.min_energy >= 0.0:
        errs.append(f"{tag}: min_energy {d.min_energy!r} < 0")
    if not d.min_leader_gain >= 0.0:
        errs.append(f"{tag}: min_leader_gain {d.min_leader_gain!r} < 0")
    return errs


def row_errors(rec: RunRecord, row: dict) -> list[str]:
    """A ``count`` record must equal the exported sweep row with its seed."""
    if rec.to_json_dict() != row:
        return [f"seed {rec.seed}: count record differs from the sweep row"]
    return []


def csv_errors(text: str, rows: list[dict]) -> list[str]:
    """The CSV lists the JSON rows in order, with the same fields."""
    table = list(csv.DictReader(io.StringIO(text, newline="")))
    if len(table) != len(rows):
        return [f"CSV has {len(table)} rows, JSON {len(rows)}"]
    errs = []
    for rep, (line, row) in enumerate(zip(table, rows)):
        rec = row["record"]
        want = {
            "seed": str(rec["seed"]),
            "rep": str(rep),
            "estimate": str(rec["estimate"]),
            "status": rec["status"],
            "rounds_total": str(rec["rounds_total"]),
            "rounds_collection": str(rec["rounds_collection"]),
            "rounds_verification": str(rec["rounds_verification"]),
            "rounds_notification": str(rec["rounds_notification"]),
        }
        got = {key: line.get(key) for key in want}
        if got != want or row["rep"] != rep:
            errs.append(f"CSV row {rep}: {got} != JSON {want}")
    return errs


def bound_errors(report: str) -> list[str]:
    """Every configuration of the check-bound report lies within delta*n^4."""
    lines = report.splitlines()
    if not lines:
        return ["check-bound printed nothing"]
    return [f"check-bound: {line}" for line in lines if not line.endswith("within=True")]


def reference_errors(ref, rec: RunRecord) -> list[str]:
    """The dense replay must give the same estimate and per-k lengths."""
    estimate, phases = ref
    mine = [(t.k, t.collection, t.verification, t.notification) for t in rec.per_k_trace]
    errs = []
    if estimate != rec.estimate:
        errs.append(f"seed {rec.seed}: reference estimate {estimate} != {rec.estimate}")
    if phases != mine:
        at = next((i for i, (a, b) in enumerate(zip(phases, mine)) if a != b),
                  min(len(phases), len(mine)))
        errs.append(f"seed {rec.seed}: reference phases {phases[at:at + 1]} "
                    f"differ from the engine's {mine[at:at + 1]}")
    return errs


def negative_control(rec: RunRecord, row: dict, ref, expect: dict) -> list[str]:
    """Corrupt a valid record in several ways; each must be caught.

    Returns the names of corruptions that passed the checks unnoticed.
    """
    first = rec.per_k_trace[0]
    cut = first.verification - (verification_length(first.k, expect["c"]) - 1)
    shorter = dataclasses.replace(first, verification=first.verification - cut)
    later = dataclasses.replace(first, collection=first.collection + 1)
    corrupted = {
        "estimate": dataclasses.replace(rec, estimate=rec.n - 1),
        "verification_length": dataclasses.replace(
            rec, per_k_trace=(shorter,) + rec.per_k_trace[1:],
            rounds_verification=rec.rounds_verification - cut,
            rounds_total=rec.rounds_total - cut),
        "phase_sum": dataclasses.replace(rec, rounds_total=rec.rounds_total + 1),
        "negative_energy": dataclasses.replace(
            rec, diagnostics=RunDiagnostics(
                **{**dataclasses.asdict(rec.diagnostics), "min_energy": -1e-3})),
    }
    missed = [name for name, bad in corrupted.items() if not record_errors(bad, expect)]
    collection = dataclasses.replace(
        rec, per_k_trace=(later,) + rec.per_k_trace[1:],
        rounds_collection=rec.rounds_collection + 1, rounds_total=rec.rounds_total + 1)
    if not reference_errors(ref, collection):
        missed.append("reference_collection_length")
    if not row_errors(collection, row):
        missed.append("sweep_row")
    return missed
