"""Parameter sweeps: grid enumeration, parallel runs, aggregation, export.

Per-run seeds are derived as derive_seed(master_seed, config_index,
rep_index), so a sweep's output is bit-identical regardless of worker
count or scheduling order. Runs that hit the round cap become explicit
error rows (status ``round_limit``); nothing is dropped silently.
"""

from __future__ import annotations

import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .dynamics import (
    FAMILIES,
    DynamicsSchedule,
    ScheduleParams,
    canonical_family,
    seed_invariant_stream,
)
from .errors import InvalidParameters, RoundLimitExceeded
from .protocol import (ProtocolConfig, RunRecord, _is_int, _is_real, check_theoretical_gate,
                       count)
from .seeds import derive_seed

DELTA_RULES = ("powers-of-two", "fixed-n-minus-1", "largest-power-of-two")

CSV_HEADER = (
    "family,n,delta,T,p,mode,c,seed,rep,estimate,rounds_total,"
    "rounds_collection,rounds_verification,rounds_notification,status"
)


@dataclass(frozen=True)
class RunSetting:
    """One grid point of a sweep."""

    family: str
    n: int
    delta: int
    T: float
    p: float | None = None


@dataclass(frozen=True)
class SweepSpec:
    """A §-style parameter grid plus execution parameters.

    ``delta_rule`` applies to the tree and path families (star and gnp
    always use delta = n - 1): ``powers-of-two`` takes every 2^i <= n - 1,
    ``largest-power-of-two`` only the largest such power, and
    ``fixed-n-minus-1`` uses n - 1. ``delta_cap`` further caps the rule.
    """

    families: tuple[str, ...]
    n_range: tuple[int, int]
    T_set: tuple[float, ...]
    repetitions: int
    master_seed: int
    mode: str = "experimental"
    c: float = 1.01
    delta_rule: str = "powers-of-two"
    delta_cap: int | None = None
    p_set: tuple[float, ...] = ()
    max_rounds: int | None = None

    def __post_init__(self):
        for f in self.families:
            if f not in FAMILIES:
                raise InvalidParameters(f"unknown family {f!r}")
        if not self.families:
            raise InvalidParameters("families must be non-empty")
        if len(self.n_range) != 2 or not all(map(_is_int, self.n_range)):
            raise InvalidParameters(f"n_range must be two integers, got {self.n_range!r}")
        lo, hi = self.n_range
        if not (2 <= lo <= hi):
            raise InvalidParameters("n_range must satisfy 2 <= lo <= hi")
        if not _is_int(self.repetitions) or self.repetitions < 1:
            raise InvalidParameters("repetitions must be an integer >= 1")
        if not _is_int(self.master_seed):
            raise InvalidParameters("master_seed must be an integer")
        if self.delta_rule not in DELTA_RULES:
            raise InvalidParameters(f"unknown delta_rule {self.delta_rule!r}")
        if self.delta_cap is not None and not _is_int(self.delta_cap):
            raise InvalidParameters("delta_cap must be an integer or null")
        if not self.T_set:
            raise InvalidParameters("T_set must be non-empty")
        for T in self.T_set:
            if T != math.inf and not (_is_real(T) and T >= 1 and int(T) == T):
                raise InvalidParameters(f"bad T value {T!r}")
        if "gnp" in self.families:
            if not self.p_set:
                raise InvalidParameters("gnp sweeps require a non-empty p_set")
            if math.inf in self.T_set:
                raise InvalidParameters("gnp cannot be swept with T = inf")
            for p in self.p_set:
                if not (_is_real(p) and 0.0 <= p <= 1.0):
                    raise InvalidParameters(f"bad p value {p!r}")
        if not _is_real(self.c):
            raise InvalidParameters(f"bad c value {self.c!r}")
        if self.max_rounds is not None and not _is_int(self.max_rounds):
            raise InvalidParameters("max_rounds must be an integer or null")
        # c and mode are validated by ProtocolConfig
        ProtocolConfig(c=self.c, mode=self.mode, max_rounds=self.max_rounds)
        unfit = [f for f in self.families
                 if not any(self._deltas(f, n) for n in range(lo, hi + 1))]
        if unfit:
            raise InvalidParameters(
                f"no power-of-two degree bound fits n_range and delta_cap for "
                f"{', '.join(unfit)}"
            )
        if self.mode == "theoretical":
            # refuse the whole grid before any run starts
            for setting in self.settings():
                check_theoretical_gate(setting.n, setting.delta)

    def _deltas(self, family: str, n: int) -> list[int]:
        if family in ("star", "gnp"):
            return [n - 1]
        if self.delta_rule == "fixed-n-minus-1":
            return [n - 1]
        cap = n - 1 if self.delta_cap is None else min(self.delta_cap, n - 1)
        powers = []
        d = 2
        while d <= cap:
            powers.append(d)
            d *= 2
        if self.delta_rule == "largest-power-of-two":
            return powers[-1:]
        return powers

    def settings(self) -> list[RunSetting]:
        """Deterministic grid enumeration; config_index = list position."""
        out = []
        lo, hi = self.n_range
        for family in self.families:
            for n in range(lo, hi + 1):
                for delta in self._deltas(family, n):
                    for T in self.T_set:
                        T = math.inf if T == math.inf else int(T)
                        if family == "gnp":
                            for p in self.p_set:
                                out.append(RunSetting(family, n, delta, T, p))
                        else:
                            out.append(RunSetting(family, n, delta, T, None))
        return out

    def to_json_dict(self) -> dict:
        return {
            "families": list(self.families),
            "n_range": list(self.n_range),
            "T_set": ["inf" if T == math.inf else int(T) for T in self.T_set],
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "mode": self.mode,
            "c": self.c,
            "delta_rule": self.delta_rule,
            "delta_cap": self.delta_cap,
            "p_set": list(self.p_set),
            "max_rounds": self.max_rounds,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepSpec":
        """Parse a spec file's JSON object; malformed fields raise
        InvalidParameters, missing required keys KeyError. Families may use
        the CLI alias ``tree``."""
        if not isinstance(data, dict):
            raise InvalidParameters("a sweep spec must be a JSON object")

        def items(key, default=None):
            value = data[key] if default is None else data.get(key, default)
            if not isinstance(value, list):
                raise InvalidParameters(f"{key} must be a JSON list, got {value!r}")
            return tuple(value)

        return cls(
            families=tuple(map(canonical_family, items("families"))),
            n_range=items("n_range"),
            T_set=tuple(math.inf if T == "inf" else T for T in items("T_set")),
            repetitions=data["repetitions"],
            master_seed=data["master_seed"],
            mode=data.get("mode", "experimental"),
            c=data.get("c", 1.01),
            delta_rule=data.get("delta_rule", "powers-of-two"),
            delta_cap=data.get("delta_cap"),
            p_set=items("p_set", []),
            max_rounds=data.get("max_rounds"),
        )


_STUDY_T_SET = (1, 10, 20, 40, 80, 160, 320, 640, 1280, math.inf)
_STUDY_P_SET = (0.1, 0.2, 0.3, 0.4, 0.5)


def standard_grid(family: str, full: bool = False) -> SweepSpec:
    """The simulation-study grid for one family.

    Desk scale (default) covers n in [3, 30] with 10 repetitions and is
    meant for CI; ``full`` switches to n in [3, 75] with 100 repetitions,
    which is a cluster-sized workload. T spans 1..1280 plus static, except
    for gnp where static networks are excluded; tree and path take every
    power-of-two degree bound, star and gnp always n - 1.
    """
    if family not in FAMILIES:
        raise InvalidParameters(f"unknown family {family!r}")
    n_hi, reps, seed_base = (75, 100, 7500) if full else (30, 10, 3000)
    seed = seed_base + FAMILIES.index(family)
    if family == "gnp":
        return SweepSpec(
            families=("gnp",),
            n_range=(3, n_hi),
            T_set=_STUDY_T_SET[:-1],
            repetitions=reps,
            master_seed=seed,
            p_set=_STUDY_P_SET,
        )
    return SweepSpec(
        families=(family,),
        n_range=(3, n_hi),
        T_set=_STUDY_T_SET,
        repetitions=reps,
        master_seed=seed,
    )


@dataclass(frozen=True)
class RunRow:
    config_index: int
    rep: int
    record: RunRecord


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[RunRow, ...]

    def aggregates(self) -> list[dict]:
        """Per-configuration summary of rounds_total over ok rows."""
        groups: dict[int, list[RunRow]] = {}
        for row in self.rows:
            groups.setdefault(row.config_index, []).append(row)
        out = []
        for ci, setting in enumerate(self.spec.settings()):
            rows = groups.get(ci, [])
            totals = [r.record.rounds_total for r in rows if r.record.status == "ok"]
            out.append(
                {
                    "config_index": ci,
                    "setting": setting,
                    "runs": len(rows),
                    "errors": sum(1 for r in rows if r.record.status != "ok"),
                    "mean": statistics.fmean(totals) if totals else None,
                    "min": min(totals) if totals else None,
                    "max": max(totals) if totals else None,
                    "std": statistics.pstdev(totals) if totals else None,
                }
            )
        return out

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "rows": [
                {
                    "config_index": row.config_index,
                    "rep": row.rep,
                    "record": row.record.to_json_dict(),
                }
                for row in self.rows
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepResult":
        """Parse an exported sweep; a malformed structure, a row outside
        the spec's grid or a second row for one (config_index, rep) raises
        InvalidParameters, a missing key KeyError."""
        if not isinstance(data, dict):
            raise InvalidParameters("a sweep result must be a JSON object")
        spec = SweepSpec.from_json_dict(data["spec"])
        if not isinstance(data["rows"], list):
            raise InvalidParameters("rows must be a JSON list")
        configs = len(spec.settings())
        rows = []
        seen = set()
        for row in data["rows"]:
            if not isinstance(row, dict) or not isinstance(row["record"], dict):
                raise InvalidParameters(f"each row must be an object with a record, got {row!r}")
            ci, rep = row["config_index"], row["rep"]
            if not (_is_int(ci) and 0 <= ci < configs):
                raise InvalidParameters(
                    f"config_index {ci!r} is outside the spec's {configs} configurations")
            if not (_is_int(rep) and 0 <= rep < spec.repetitions):
                raise InvalidParameters(
                    f"rep {rep!r} is outside the spec's {spec.repetitions} repetitions")
            if (ci, rep) in seen:
                raise InvalidParameters(f"duplicate row for config_index {ci}, rep {rep}")
            seen.add((ci, rep))
            rows.append(RunRow(config_index=ci, rep=rep,
                               record=RunRecord.from_json_dict(row["record"])))
        return cls(spec=spec, rows=tuple(rows))


def run_one(setting: RunSetting, seed: int, mode: str, c: float,
            max_rounds: int | None = None) -> RunRecord:
    """Execute a single run; round-limit failures become error records."""
    params = ScheduleParams(
        family=setting.family,
        n=setting.n,
        delta=setting.delta,
        T=setting.T,
        seed=seed,
        p=setting.p,
    )
    config = ProtocolConfig(
        c=c,
        mode=mode,
        max_rounds=max_rounds,
        disconnection_tolerant=(setting.family == "gnp"),
    )
    try:
        return count(DynamicsSchedule(params), config)
    except RoundLimitExceeded as exc:
        return exc.record


def _run_job(job) -> RunRecord:
    setting_tuple, seed, mode, c, max_rounds = job
    return run_one(RunSetting(*setting_tuple), seed, mode, c, max_rounds)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the whole grid; output is independent of the worker count.

    Runs of a seed-invariant stream (``seed_invariant_stream``) are run once
    per stream key, at their lowest (config_index, rep); the other rows of
    that key are copies of its record with ``seed`` and ``T`` replaced, the
    only fields in which their own runs would differ. ``mode``, ``c`` and
    ``max_rounds`` are the same for every run of a sweep.
    """
    if workers < 1:
        raise InvalidParameters("workers must be >= 1")
    jobs = []
    plan = []  # per row: config_index, rep, seed, T, index into jobs, is a copy
    first_job = {}
    for ci, setting in enumerate(spec.settings()):
        key = seed_invariant_stream(setting.family, setting.n, setting.delta, setting.T)
        for rep in range(spec.repetitions):
            seed = derive_seed(spec.master_seed, ci, rep)
            if key in first_job:
                plan.append((ci, rep, seed, setting.T, first_job[key], True))
                continue
            if key is not None:
                first_job[key] = len(jobs)
            plan.append((ci, rep, seed, setting.T, len(jobs), False))
            jobs.append(
                (
                    (setting.family, setting.n, setting.delta, setting.T, setting.p),
                    seed,
                    spec.mode,
                    spec.c,
                    spec.max_rounds,
                )
            )
    if workers == 1:
        records = [_run_job(job) for job in jobs]
    else:
        chunk = max(1, len(jobs) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_job, jobs, chunksize=chunk))
    rows = tuple(
        RunRow(ci, rep, replace(records[i], seed=seed, T=T) if copy else records[i])
        for ci, rep, seed, T, i, copy in plan
    )
    return SweepResult(spec=spec, rows=rows)


def check_bound(result: SweepResult) -> list[dict]:
    """Compare each configuration's mean rounds with the delta * n^4 bound.

    ``within`` is strict (mean < bound) and False whenever a configuration
    has any error row or no successful runs at all.
    """
    if not result.rows:
        raise InvalidParameters("check_bound requires a non-empty result")
    out = []
    for agg in result.aggregates():
        setting = agg["setting"]
        bound = setting.delta * setting.n**4
        mean = agg["mean"]
        within = agg["errors"] == 0 and mean is not None and mean < bound
        out.append(
            {
                "config_index": agg["config_index"],
                "setting": setting,
                "rounds_mean": mean,
                "bound": bound,
                "within": within,
            }
        )
    return out


def _csv_value(value) -> str:
    if value is None:
        return ""
    if value == math.inf:
        return "inf"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_csv(result: SweepResult, path) -> None:
    """Write the flat run table (exact header, LF line endings)."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(csv_text(result))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def csv_text(result: SweepResult) -> str:
    """The CSV payload as a string (used for byte-level determinism checks)."""
    lines = [CSV_HEADER]
    for row in result.rows:
        rec = row.record
        lines.append(
            ",".join(
                [
                    rec.family,
                    str(rec.n),
                    str(rec.delta),
                    _csv_value(rec.T),
                    _csv_value(rec.p),
                    rec.mode,
                    _csv_value(rec.c),
                    str(rec.seed),
                    str(row.rep),
                    _csv_value(rec.estimate),
                    str(rec.rounds_total),
                    str(rec.rounds_collection),
                    str(rec.rounds_verification),
                    str(rec.rounds_notification),
                    rec.status,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def export_json(result: SweepResult, path) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write JSON to {path}: {exc}") from exc


def load_json(path) -> SweepResult:
    try:
        with open(path) as fh:
            return SweepResult.from_json_dict(json.load(fh))
    except OSError as exc:
        raise OSError(f"cannot read JSON from {path}: {exc}") from exc
