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
from dataclasses import dataclass, fields, replace
from functools import partial

from .dynamics import (
    FAMILIES,
    FULL_DEGREE_FAMILIES,
    DynamicsSchedule,
    ScheduleParams,
    canonical_family,
)
from .errors import InvalidParameters, RoundLimitExceeded, _is_int, _is_real
from .protocol import ProtocolConfig, RunRecord, check_theoretical_gate, count, record_inputs
from .seeds import derive_seed

DELTA_RULES = ("powers-of-two", "fixed-n-minus-1", "largest-power-of-two")

# RunRecord fields, and the row's rep
CSV_COLUMNS = (
    "family", "n", "delta", "T", "p", "mode", "c", "seed", "rep", "estimate", "rounds_total",
    "rounds_collection", "rounds_verification", "rounds_notification", "status",
)
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class RunSetting:
    """One grid point of a sweep."""

    family: str
    n: int
    delta: int
    T: float
    p: float | None = None

    def schedule_params(self, seed: int) -> ScheduleParams:
        return ScheduleParams(self.family, self.n, self.delta, self.T, seed, self.p)


@dataclass(frozen=True)
class SweepSpec:
    """A §-style parameter grid plus execution parameters.

    ``delta_rule`` applies to the tree and path families (the
    ``FULL_DEGREE_FAMILIES``, star and gnp, always use delta = n - 1):
    ``powers-of-two`` takes every 2^i <= n - 1, ``largest-power-of-two``
    only the largest such power, and ``fixed-n-minus-1`` uses n - 1.
    ``delta_cap`` further caps the two power rules; it cannot be combined
    with ``fixed-n-minus-1``. No family, T or p may be given twice, and
    ``p_set`` is for the gnp family alone.
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
        if self.delta_cap is not None:
            if not _is_int(self.delta_cap):
                raise InvalidParameters("delta_cap must be an integer or null")
            if self.delta_rule == "fixed-n-minus-1":
                raise InvalidParameters("delta_cap does not apply to delta_rule fixed-n-minus-1")
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
        # c, mode and max_rounds are validated by ProtocolConfig
        ProtocolConfig(c=self.c, mode=self.mode, max_rounds=self.max_rounds)
        unfit = [f for f in self.families
                 if not any(self._deltas(f, n) for n in range(lo, hi + 1))]
        if unfit:
            raise InvalidParameters(
                f"no power-of-two degree bound fits n_range and delta_cap for "
                f"{', '.join(unfit)}"
            )
        # refuse the whole grid before any run starts
        for setting in self.settings():
            setting.schedule_params(seed=0)
            if self.mode == "theoretical":
                check_theoretical_gate(setting.n, setting.delta)

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
        """Parse a spec file's JSON object; malformed fields and keys that
        name no field raise InvalidParameters, missing required keys
        KeyError. Families may use the CLI alias ``tree``."""
        if not isinstance(data, dict):
            raise InvalidParameters("a sweep spec must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidParameters(f"unknown sweep spec keys: {', '.join(sorted(unknown))}")

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
        the spec's grid, a record whose inputs are not those of its row's
        run, or a second row for one (config_index, rep) raises
        InvalidParameters, a missing key KeyError."""
        if not isinstance(data, dict):
            raise InvalidParameters("a sweep result must be a JSON object")
        spec = SweepSpec.from_json_dict(data["spec"])
        if not isinstance(data["rows"], list):
            raise InvalidParameters("rows must be a JSON list")
        settings = spec.settings()
        configs = len(settings)
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
            record = RunRecord.from_json_dict(row["record"])
            params = settings[ci].schedule_params(derive_seed(spec.master_seed, ci, rep))
            config = run_config(params, spec.mode, spec.c, spec.max_rounds)
            for key, value in record_inputs(params, config).items():
                if getattr(record, key) != value:
                    raise InvalidParameters(
                        f"the record of config_index {ci}, rep {rep} has {key} "
                        f"{getattr(record, key)!r}, but its run has {value!r}")
            rows.append(RunRow(config_index=ci, rep=rep, record=record))
        return cls(spec=spec, rows=tuple(rows))


def run_config(params: ScheduleParams, mode: str, c: float,
               max_rounds: int | None) -> ProtocolConfig:
    """The protocol settings of the run of ``params``: it is
    disconnection-tolerant exactly when its stream may disconnect."""
    return ProtocolConfig(c=c, mode=mode, max_rounds=max_rounds,
                          disconnection_tolerant=params.may_disconnect)


def run_one(params: ScheduleParams, mode: str, c: float,
            max_rounds: int | None = None) -> RunRecord:
    """Execute a single run; round-limit failures become error records."""
    try:
        return count(DynamicsSchedule(params), run_config(params, mode, c, max_rounds))
    except RoundLimitExceeded as exc:
        return exc.record


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the whole grid; output is independent of the worker count.

    Runs of a seed-invariant stream (``ScheduleParams.seed_invariant_key``)
    are run once per stream key, at their lowest (config_index, rep); the
    other rows of that key are copies of its record with ``seed`` and ``T``
    replaced, the only fields in which their own runs would differ.
    ``mode``, ``c`` and ``max_rounds`` are the same for every run of a
    sweep. The pool has at most one worker per job, and a single job runs
    in this process.
    """
    if not (_is_int(workers) and workers >= 1):
        raise InvalidParameters(f"workers must be an integer >= 1, got {workers!r}")
    jobs = []
    plan = []  # per row: config_index, rep, seed, T, index into jobs, is a copy
    first_job = {}
    for ci, setting in enumerate(spec.settings()):
        key = setting.schedule_params(seed=0).seed_invariant_key
        for rep in range(spec.repetitions):
            seed = derive_seed(spec.master_seed, ci, rep)
            if key in first_job:
                plan.append((ci, rep, seed, setting.T, first_job[key], True))
                continue
            if key is not None:
                first_job[key] = len(jobs)
            plan.append((ci, rep, seed, setting.T, len(jobs), False))
            jobs.append(setting.schedule_params(seed))
    run = partial(run_one, mode=spec.mode, c=spec.c, max_rounds=spec.max_rounds)
    workers = min(workers, len(jobs))
    if workers == 1:
        records = list(map(run, jobs))
    else:
        chunk = max(1, len(jobs) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run, jobs, chunksize=chunk))
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
        values = vars(row.record) | {"rep": row.rep}
        lines.append(",".join(_csv_value(values[column]) for column in CSV_COLUMNS))
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
