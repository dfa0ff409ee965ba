"""Parameter sweeps: grid enumeration, parallel runs, aggregation, export.

Per-run seeds are derived as derive_seed(master_seed, config_index,
rep_index), so a sweep's output is bit-identical regardless of worker
count or scheduling order. Runs that hit the round cap become explicit
error rows (status ``round_limit``); nothing is dropped silently.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial

from .dynamics import (
    FAMILIES,
    FULL_DEGREE_FAMILIES,
    DynamicsSchedule,
    ScheduleParams,
    canonical_family,
    read_T,
    write_T,
)
from .errors import (ANY, LIST, InvalidParameters, RoundLimitExceeded, _is_int, _is_real, below,
                     read_fields)
from .protocol import ProtocolConfig, RunRecord, admit, count, record_inputs
from .seeds import derive_seed

DELTA_RULES = ("powers-of-two", "fixed-n-minus-1", "largest-power-of-two")

# RunRecord fields, and the row's rep
CSV_COLUMNS = (
    "family", "n", "delta", "T", "p", "mode", "c", "seed", "rep", "estimate", "rounds_total",
    "rounds_collection", "rounds_verification", "rounds_notification", "status",
)
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class SweepSpec:
    """A §-style parameter grid plus execution parameters.

    ``delta_rule`` applies to the tree and path families (the
    ``FULL_DEGREE_FAMILIES``, star and gnp, always use delta = n - 1):
    ``powers-of-two`` takes every 2^i <= n - 1, ``largest-power-of-two``
    only the largest such power, and ``fixed-n-minus-1`` uses n - 1.
    ``delta_cap`` further caps the two power rules; it cannot be combined
    with ``fixed-n-minus-1`` or given to star and gnp alone. No family, T
    or p may be given twice, and ``p_set`` is for the gnp family alone.
    ``config`` is the ``ProtocolConfig`` of ``c``, ``mode`` and
    ``max_rounds``; ``protocol.admit`` must pass every grid point under it.
    """

    families: tuple[str, ...]
    n_range: tuple[int, int]
    T_set: tuple[float, ...]
    repetitions: int
    master_seed: int
    mode: str = ProtocolConfig.mode
    c: float = ProtocolConfig.c
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
        if self.delta_cap is not None:
            if not _is_int(self.delta_cap):
                raise InvalidParameters("delta_cap must be an integer or null")
            if self.delta_rule == "fixed-n-minus-1":
                raise InvalidParameters("delta_cap does not apply to delta_rule fixed-n-minus-1")
            if set(self.families) <= set(FULL_DEGREE_FAMILIES):
                raise InvalidParameters("delta_cap does not apply to star or gnp, which use n - 1")
        if not self.T_set:
            raise InvalidParameters("T_set must be non-empty")
        for T in self.T_set:
            if T != math.inf and not (_is_real(T) and T >= 1 and int(T) == T):
                raise InvalidParameters(f"bad T value {T!r}")
        if "gnp" in self.families and not self.p_set:
            raise InvalidParameters("gnp sweeps require a non-empty p_set")
        if self.p_set and "gnp" not in self.families:
            raise InvalidParameters("p_set applies only to the gnp family")
        # a repeated grid point would run twice under two config indices
        for key in ("families", "T_set", "p_set"):
            values = getattr(self, key)
            repeated = [v for i, v in enumerate(values) if values.index(v) < i]
            if repeated:
                raise InvalidParameters(f"{key} repeats {repeated[0]!r}")
        object.__setattr__(self, "config", ProtocolConfig(self.c, self.mode, self.max_rounds))
        # the grid, built once: building it validates every point before any run
        points = tuple(
            ScheduleParams(family, n, delta, T if T == math.inf else int(T), 0, p)
            for family in self.families
            for n in range(lo, hi + 1)
            for delta in self._deltas(family, n)
            for T in self.T_set
            for p in (self.p_set if family == "gnp" else (None,))
        )
        object.__setattr__(self, "_points", points)
        built = {point.family for point in points}
        unfit = [f for f in self.families if f not in built]
        if unfit:
            raise InvalidParameters(
                f"no power-of-two degree bound fits n_range and delta_cap for "
                f"{', '.join(unfit)}"
            )
        for point in points:
            admit(point, self.config)

    def _deltas(self, family: str, n: int) -> list[int]:
        if family in FULL_DEGREE_FAMILIES or self.delta_rule == "fixed-n-minus-1":
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

    def settings(self) -> list[ScheduleParams]:
        """The grid points built with the spec, each with seed 0, in
        deterministic order; config_index = list position."""
        return list(self._points)

    def to_json_dict(self) -> dict:
        """One key per field, in field order, with T written by ``write_T``."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["T_set"] = list(map(write_T, self.T_set))
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in data.items()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepSpec":
        """Parse a spec file's JSON object: one key per field, which may be
        left out where the field has a default. A malformed field, or a key
        missing or naming no field, raises InvalidParameters. Families may
        use the CLI alias ``tree``."""
        values = read_fields(
            data, "sweep spec",
            {f.name: LIST if f.type.startswith("tuple") else ANY for f in fields(cls)},
            {f.name: f.default for f in fields(cls) if f.default is not MISSING})
        values = {key: tuple(value) if isinstance(value, list) else value
                  for key, value in values.items()}
        return cls(**values | {"families": tuple(map(canonical_family, values["families"])),
                               "T_set": tuple(map(read_T, values["T_set"]))})


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
    gnp = family == "gnp"
    return SweepSpec(
        families=(family,),
        n_range=(3, n_hi),
        T_set=_STUDY_T_SET[:-1] if gnp else _STUDY_T_SET,
        repetitions=reps,
        master_seed=seed_base + FAMILIES.index(family),
        p_set=_STUDY_P_SET if gnp else (),
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
        import statistics  # loads fractions and decimal, so only when used

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
            "rows": [vars(row) | {"record": row.record.to_json_dict()} for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepResult":
        """Parse an exported sweep; a malformed structure, a missing or
        unknown key, a row outside the spec's grid, a record whose inputs
        are not those of its row's run, or a second row for one
        (config_index, rep) raises InvalidParameters."""
        data = read_fields(data, "sweep result", {"spec": ANY, "rows": LIST})
        spec = SweepSpec.from_json_dict(data["spec"])
        settings = spec.settings()
        row_checks = {"config_index": below(len(settings)), "rep": below(spec.repetitions),
                      "record": ANY}
        rows = {}  # by (config_index, rep), in file order
        for row in data["rows"]:
            row = read_fields(row, "row", row_checks)
            ci, rep = row["config_index"], row["rep"]
            if (ci, rep) in rows:
                raise InvalidParameters(f"duplicate row for config_index {ci}, rep {rep}")
            record = RunRecord.from_json_dict(row["record"])
            params = replace(settings[ci], seed=derive_seed(spec.master_seed, ci, rep))
            for key, value in record_inputs(params, run_config(params, spec.config)).items():
                if getattr(record, key) != value:
                    raise InvalidParameters(
                        f"the record of config_index {ci}, rep {rep} has {key} "
                        f"{getattr(record, key)!r}, but its run has {value!r}")
            rows[ci, rep] = RunRow(config_index=ci, rep=rep, record=record)
        return cls(spec=spec, rows=tuple(rows.values()))


def run_config(params: ScheduleParams, config: ProtocolConfig) -> ProtocolConfig:
    """``config`` for the run of ``params``: it is disconnection-tolerant
    exactly when its stream may disconnect."""
    return replace(config, disconnection_tolerant=params.may_disconnect)


def run_one(params: ScheduleParams, config: ProtocolConfig) -> RunRecord:
    """Execute a single run; round-limit failures become error records."""
    try:
        return count(DynamicsSchedule(params), run_config(params, config))
    except RoundLimitExceeded as exc:
        return exc.record


def check_workers(workers) -> None:
    """Refuse a worker count ``run_sweep`` cannot use."""
    if not (_is_int(workers) and workers >= 1):
        raise InvalidParameters(f"workers must be an integer >= 1, got {workers!r}")


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the whole grid; output is independent of the worker count.

    Each distinct stream is run once: a seed-invariant stream
    (``ScheduleParams.seed_invariant_key``) at its key's lowest
    (config_index, rep), any other at its own row. Every row is its
    stream's record with ``seed`` and ``T`` replaced by its own, the only
    fields in which its own run would differ. Every run of a sweep is
    made under ``spec.config``. The pool has at most one worker per job
    and per CPU, and a pool of one runs in this process.
    """
    check_workers(workers)
    jobs = []
    job_of = {}  # stream -> index into jobs
    plan = []  # per row: config_index, rep, params, index into jobs
    for ci, point in enumerate(spec.settings()):
        for rep in range(spec.repetitions):
            params = replace(point, seed=derive_seed(spec.master_seed, ci, rep))
            job = job_of.setdefault(params.seed_invariant_key or params, len(jobs))
            if job == len(jobs):
                jobs.append(params)
            plan.append((ci, rep, params, job))
    run = partial(run_one, config=spec.config)
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers == 1:
        records = list(map(run, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor  # a pool of one needs none

        chunk = max(1, len(jobs) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run, jobs, chunksize=chunk))
    rows = tuple(
        RunRow(ci, rep, replace(records[job], seed=params.seed, T=params.T))
        for ci, rep, params, job in plan
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
    return "" if value is None else str(value)  # a float's str is its repr


@contextmanager
def open_file(path, action: str, mode: str, **options):
    """``open``, with an OSError re-raised as ``cannot <action> <path>: <error>``."""
    try:
        with open(path, mode, **options) as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot {action} {path}: {exc}") from exc


def export_csv(result: SweepResult, path) -> None:
    """Write the flat run table (exact header, LF line endings)."""
    with open_file(path, "write CSV to", "w", newline="") as fh:
        fh.write(csv_text(result))


def csv_text(result: SweepResult) -> str:
    """The CSV payload as a string (used for byte-level determinism checks)."""
    lines = [CSV_HEADER]
    for row in result.rows:
        values = vars(row.record) | {"rep": row.rep, "T": write_T(row.record.T)}
        lines.append(",".join(_csv_value(values[column]) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def export_json(result: SweepResult, path) -> None:
    with open_file(path, "write JSON to", "w") as fh:
        json.dump(result.to_json_dict(), fh, indent=1)
        fh.write("\n")


def read_json(path):
    """The JSON value in the file at ``path``, read as UTF-8. A file that
    cannot be opened raises OSError, and one that is not UTF-8, not JSON,
    or nested past the parser's recursion limit raises InvalidParameters;
    both messages start ``cannot read JSON from <path>:``."""
    try:
        with open_file(path, "read JSON from", "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise InvalidParameters(f"cannot read JSON from {path}: {exc}") from exc


def load_json(path) -> SweepResult:
    return SweepResult.from_json_dict(read_json(path))
