"""Sweep harness: grid enumeration, determinism, aggregation, export."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from adncount import (
    RunRow,
    ScheduleParams,
    SweepResult,
    SweepSpec,
    check_bound,
    csv_text,
    derive_seed,
    export_csv,
    export_json,
    load_json,
    run_sweep,
    standard_grid,
)
from adncount import experiment
from adncount.experiment import CSV_HEADER, run_one
from adncount.errors import InvalidParameters
from adncount.protocol import RunDiagnostics, RunRecord


def tiny_spec(**overrides):
    base = dict(
        families=("path",),
        n_range=(3, 3),
        T_set=(math.inf,),
        repetitions=2,
        master_seed=42,
        delta_rule="largest-power-of-two",
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_settings_enumeration_order_and_constraints():
    spec = SweepSpec(
        families=("star", "path"),
        n_range=(3, 5),
        T_set=(math.inf, 10),
        repetitions=1,
        master_seed=0,
        delta_rule="powers-of-two",
    )
    settings = spec.settings()
    # stars always use delta = n-1; paths get every power of two <= n-1
    assert settings[0] == ScheduleParams("star", 3, 2, math.inf, 0)
    assert ScheduleParams("path", 5, 2, 10, 0) in settings
    assert ScheduleParams("path", 5, 4, math.inf, 0) in settings
    assert not any(s.family == "path" and s.delta == 3 for s in settings)
    # deterministic: same spec enumerates identically
    assert settings == spec.settings()


def test_settings_are_built_once():
    # the grid is built with the spec; each call copies the list, not the points
    spec = standard_grid("gnp")
    first, second = spec.settings(), spec.settings()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))


def test_delta_rules():
    largest = SweepSpec(
        families=("random-tree",), n_range=(9, 9), T_set=(1,), repetitions=1,
        master_seed=0, delta_rule="largest-power-of-two",
    ).settings()
    assert [s.delta for s in largest] == [8]
    capped = SweepSpec(
        families=("random-tree",), n_range=(9, 9), T_set=(1,), repetitions=1,
        master_seed=0, delta_rule="largest-power-of-two", delta_cap=4,
    ).settings()
    assert [s.delta for s in capped] == [4]
    fixed = SweepSpec(
        families=("path",), n_range=(6, 6), T_set=(1,), repetitions=1,
        master_seed=0, delta_rule="fixed-n-minus-1",
    ).settings()
    assert [s.delta for s in fixed] == [5]


def test_spec_validation():
    with pytest.raises(InvalidParameters):
        tiny_spec(families=("gnp",), T_set=(math.inf,), p_set=(0.3,))
    with pytest.raises(InvalidParameters):
        tiny_spec(families=("gnp",), T_set=(10,))  # p_set missing
    with pytest.raises(InvalidParameters):
        tiny_spec(families=("mesh",))
    with pytest.raises(InvalidParameters):
        tiny_spec(repetitions=0)
    with pytest.raises(InvalidParameters):
        tiny_spec(delta_rule="all")
    with pytest.raises(InvalidParameters):
        tiny_spec(n_range=(1, 5))
    with pytest.raises(InvalidParameters):
        tiny_spec(c=0.9)
    with pytest.raises(InvalidParameters):
        tiny_spec(T_set=(1.5,))
    # grids with no run: no power-of-two degree bound fits
    with pytest.raises(InvalidParameters):
        tiny_spec(n_range=(3, 4), delta_cap=1)
    with pytest.raises(InvalidParameters):
        tiny_spec(families=("random-tree",), n_range=(2, 2), T_set=(1,))
    # a family with no run is named even when another family has runs
    with pytest.raises(InvalidParameters, match=r"for random-tree, path$"):
        tiny_spec(families=("random-tree", "star", "path"), n_range=(2, 2), T_set=(1,))


@pytest.mark.parametrize("overrides, first_refused", [
    # path takes delta 4 from n = 5
    pytest.param(dict(n_range=(3, 9)), "n=5, delta=4", id="overrides0"),
    pytest.param(dict(families=("star",), n_range=(3, 6)), "n=4, delta=3", id="overrides1"),
])
def test_theoretical_spec_beyond_gate_is_refused(overrides, first_refused):
    # the spec is refused as a whole, at its first point that needs more
    # rounds than the cap, so no run of its grid starts
    with pytest.raises(InvalidParameters, match=f"theoretical mode at {first_refused} needs"):
        tiny_spec(mode="theoretical", c=2.4, **overrides)
    tiny_spec(mode="theoretical", c=2.4, n_range=(3, 4))  # every point fits the default cap
    # star n = 4 needs 7976 rounds, past its default cap 7680
    tiny_spec(mode="theoretical", c=2.4, families=("star",), n_range=(3, 4), max_rounds=8000)


def test_spec_json_round_trip():
    spec = SweepSpec(
        families=("random-tree", "gnp"),
        n_range=(3, 12),
        T_set=(1, 1280),
        repetitions=5,
        master_seed=7,
        delta_rule="largest-power-of-two",
        delta_cap=4,
        p_set=(0.3,),
    )
    assert SweepSpec.from_json_dict(spec.to_json_dict()) == spec
    static = tiny_spec()
    assert SweepSpec.from_json_dict(static.to_json_dict()) == static


def test_sweep_reps_get_distinct_seeds():
    result = run_sweep(tiny_spec(repetitions=3))
    seeds = [row.record.seed for row in result.rows]
    assert len(set(seeds)) == 3
    assert seeds == [derive_seed(42, 0, rep) for rep in range(3)]


def test_sweep_worker_count_independence():
    spec = tiny_spec(n_range=(3, 5), repetitions=2)
    solo = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=3)
    assert solo == pooled
    assert csv_text(solo) == csv_text(pooled)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and runs the jobs in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize("spec, workers, sizes", [
    # a static path is one job after dedup, whatever its repetitions
    (tiny_spec(repetitions=3), 3, []),
    (tiny_spec(T_set=(1,), repetitions=2), 3, [2]),
    (tiny_spec(T_set=(1,), repetitions=4), 2, [2]),
])
def test_sweep_pool_is_never_larger_than_the_work(monkeypatch, spec, workers, sizes):
    assert_pool_sizes(monkeypatch, spec, workers, 64, sizes)


@pytest.mark.parametrize("cpus, sizes", [(3, [3]), (1, []), (None, [])])
def test_sweep_pool_is_never_larger_than_the_cpus(monkeypatch, cpus, sizes):
    # 4 jobs; os.cpu_count() may be None
    assert_pool_sizes(monkeypatch, tiny_spec(T_set=(1,), repetitions=4), 8, cpus, sizes)


def assert_pool_sizes(monkeypatch, spec, workers, cpus, sizes):
    """``run_sweep(spec, workers)`` on ``cpus`` CPUs asks for the pools of
    ``sizes`` and gives the bytes of ``workers=1``; no process is started."""
    seen = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(seen, max_workers))
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
    assert run_sweep(spec, workers=workers) == run_sweep(spec, workers=1)
    assert seen == sizes


def test_one_process_sweep_loads_no_pool_statistics_or_fractions():
    # a fresh interpreter, as the import cost is paid once per process; a
    # random-tree sweep still loads fractions when it grows its tables
    child = f"""
import math, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})
import adncount, adncount.cli
from adncount import SweepSpec, run_sweep
spec = SweepSpec(families=("path",), n_range=(3, 3), T_set=(math.inf,), repetitions=2,
                 master_seed=42, delta_rule="largest-power-of-two")
assert len(run_sweep(spec, workers=1).rows) == 2
deferred = ("concurrent.futures", "multiprocessing", "statistics", "fractions", "decimal")
print(*(name for name in deferred if name in sys.modules))
"""
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("workers", [0, -1, 2.5, 2.0, True, "2"])
def test_sweep_rejects_bad_worker_counts(workers):
    with pytest.raises(InvalidParameters, match="workers"):
        run_sweep(tiny_spec(), workers=workers)


def test_sweep_correctness_small_grid():
    spec = SweepSpec(
        families=("random-tree",),
        n_range=(3, 7),
        T_set=(1,),
        repetitions=2,
        master_seed=5,
        delta_rule="largest-power-of-two",
        delta_cap=4,
    )
    result = run_sweep(spec)
    assert len(result.rows) == 10
    assert all(row.record.estimate == row.record.n for row in result.rows)


def test_error_rows_are_kept():
    spec = SweepSpec(
        families=("gnp",),
        n_range=(3, 3),
        T_set=(1,),
        repetitions=2,
        master_seed=1,
        p_set=(0.0,),  # never connects
        max_rounds=30,
    )
    result = run_sweep(spec)
    assert len(result.rows) == 2
    assert all(row.record.status == "round_limit" for row in result.rows)
    assert all(row.record.estimate is None for row in result.rows)
    bound_rows = check_bound(result)
    assert bound_rows[0]["within"] is False
    assert bound_rows[0]["rounds_mean"] is None


# Grids that mix seed-invariant streams (star at every T, path at T = inf)
# with streams that draw: a round cap that the larger stars and static paths
# hit, so round_limit records are copied too; gnp; and theoretical mode.
DEDUP_SPECS = {
    "mixed-round-cap": SweepSpec(
        families=("star", "path", "random-tree"), n_range=(3, 6),
        T_set=(1, 10, math.inf), repetitions=3, master_seed=9, delta_cap=4,
        max_rounds=100,
    ),
    "gnp": SweepSpec(
        families=("star", "path", "gnp"), n_range=(3, 5), T_set=(1, 10),
        repetitions=3, master_seed=10, p_set=(0.3,),
    ),
    "theoretical": SweepSpec(
        families=("star", "path", "random-tree"), n_range=(3, 4),
        T_set=(1, math.inf), repetitions=2, master_seed=11, mode="theoretical",
        c=2.4, max_rounds=8000,  # star n = 4 needs 7976 rounds
    ),
}


def run_row_by_row(spec):
    rows = tuple(
        RunRow(ci, rep, run_one(replace(point, seed=derive_seed(spec.master_seed, ci, rep)),
                                spec.config))
        for ci, point in enumerate(spec.settings())
        for rep in range(spec.repetitions)
    )
    return SweepResult(spec=spec, rows=rows)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(DEDUP_SPECS))
def test_sweep_equals_row_by_row_runs(name, workers):
    spec = DEDUP_SPECS[name]
    expected = run_row_by_row(spec)
    result = run_sweep(spec, workers=workers)
    assert csv_text(result) == csv_text(expected)
    assert json.dumps(result.to_json_dict()) == json.dumps(expected.to_json_dict())
    if name == "mixed-round-cap":
        statuses = {(row.record.family, row.record.status) for row in result.rows}
        assert {("star", "round_limit"), ("path", "round_limit"), ("star", "ok")} <= statuses


@pytest.mark.parametrize("family, T_set", [("path", (math.inf,)), ("star", (1, 10, math.inf))])
def test_seed_invariant_grid_counts_once_per_stream(monkeypatch, family, T_set):
    # a static path runs once per (n, delta), a star once per n whatever T
    calls = []
    real_count = experiment.count

    def counting(schedule, config):
        calls.append(schedule.params)
        return real_count(schedule, config)

    monkeypatch.setattr(experiment, "count", counting)
    spec = tiny_spec(families=(family,), n_range=(3, 6), T_set=T_set,
                     repetitions=10, delta_rule="powers-of-two")
    result = run_sweep(spec)
    streams = list(dict.fromkeys((s.n, s.delta) for s in spec.settings()))
    assert len(streams) == (6 if family == "path" else 4)
    assert [(p.n, p.delta) for p in calls] == streams
    assert len(result.rows) == 10 * len(spec.settings())
    assert [row.record.seed for row in result.rows] == [
        derive_seed(42, ci, rep)
        for ci in range(len(spec.settings())) for rep in range(10)
    ]


def fake_record(rounds_total, n=3, delta=2):
    return RunRecord(
        family="path", n=n, delta=delta, T=math.inf, p=None, mode="experimental",
        c=1.01, seed=0, max_rounds=10 * delta * n**4, disconnection_tolerant=False,
        estimate=n, rounds_total=rounds_total, rounds_collection=rounds_total,
        rounds_verification=0, rounds_notification=0, status="ok",
        per_k_trace=(), diagnostics=RunDiagnostics(0.0, 0.0, 0.0, 0.0),
    )


def test_check_bound_is_strict():
    spec = tiny_spec(repetitions=1)
    bound = 2 * 3**4
    at_bound = SweepResult(spec=spec, rows=(RunRow(0, 0, fake_record(bound)),))
    assert check_bound(at_bound)[0]["within"] is False
    below = SweepResult(spec=spec, rows=(RunRow(0, 0, fake_record(bound - 1)),))
    row = check_bound(below)[0]
    assert row["within"] is True
    assert row["bound"] == bound


def test_check_bound_on_real_run():
    result = run_sweep(tiny_spec())
    row = check_bound(result)[0]
    assert row["bound"] == 2 * 81
    assert row["within"] is True


def test_check_bound_requires_rows():
    with pytest.raises(InvalidParameters):
        check_bound(SweepResult(spec=tiny_spec(), rows=()))


def test_csv_empty_result_is_header_only():
    assert csv_text(SweepResult(spec=tiny_spec(), rows=())) == CSV_HEADER + "\n"


def test_csv_single_record_schema():
    result = run_sweep(tiny_spec(repetitions=1))
    lines = csv_text(result).splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "path"
    assert fields[1] == "3"
    assert fields[3] == "inf"
    assert fields[4] == ""  # p is empty outside gnp
    assert fields[6] == "1.01"
    assert fields[9] == "3"  # estimate
    assert fields[14] == "ok"


def test_readme_formats_are_the_code_formats():
    # the README's spec file example is a spec the reader accepts, and its
    # CSV schema block is the header the export writes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    spec = SweepSpec.from_json_dict(json.loads(example))
    assert spec.families == ("random-tree",)
    schema = readme.split("### CSV schema\n", 1)[1].split("```")[1]
    assert schema.strip() == CSV_HEADER


@pytest.mark.parametrize("name", sorted(DEDUP_SPECS))
def test_csv_and_json_files_round_trip(tmp_path, name):
    # the loader checks every row's inputs: tolerant gnp rows, copies of
    # seed-invariant runs, round_limit rows and theoretical mode
    result = run_sweep(DEDUP_SPECS[name])
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    export_csv(result, csv_path)
    export_json(result, json_path)
    assert csv_path.read_text() == csv_text(result)
    assert load_json(json_path) == result


def test_aggregates_consistent_with_rows():
    result = run_sweep(tiny_spec(n_range=(3, 4), repetitions=3))
    for agg in result.aggregates():
        rows = [row for row in result.rows if row.config_index == agg["config_index"]]
        totals = [r.record.rounds_total for r in rows]
        assert agg["runs"] == 3
        assert agg["errors"] == 0
        assert agg["mean"] == pytest.approx(sum(totals) / 3)
        assert agg["min"] == min(totals)
        assert agg["max"] == max(totals)
        variance = sum((t - agg["mean"]) ** 2 for t in totals) / 3
        assert agg["std"] == pytest.approx(variance**0.5)


def test_standard_grid_shapes():
    desk = standard_grid("path")
    assert desk.n_range == (3, 30)
    assert desk.repetitions == 10
    assert math.inf in desk.T_set
    assert len(desk.T_set) == 10
    full = standard_grid("path", full=True)
    assert full.n_range == (3, 75)
    assert full.repetitions == 100
    g = standard_grid("gnp")
    assert math.inf not in g.T_set
    assert g.p_set == (0.1, 0.2, 0.3, 0.4, 0.5)
    # configurations at desk scale and --full
    sizes = {"random-tree": (900, 3240), "star": (280, 730), "path": (900, 3240),
             "gnp": (1260, 3285)}
    for family, (desk_size, full_size) in sizes.items():
        desk, full = standard_grid(family), standard_grid(family, full=True)
        assert (len(desk.settings()), len(full.settings())) == (desk_size, full_size)
        assert (desk.p_set == ()) == (full.p_set == ()) == (family != "gnp")
    # degree bounds follow the family rules
    settings = standard_grid("random-tree").settings()
    deltas_n20 = sorted({s.delta for s in settings if s.n == 20})
    assert deltas_n20 == [2, 4, 8, 16]
    with pytest.raises(InvalidParameters):
        standard_grid("mesh")


def test_derive_seed_round_trip_stability():
    # frozen values: changing the mixing function breaks reproducibility
    assert derive_seed(0) == 16294208416658607535
    assert derive_seed(42, 0, 0) == 7138415436909018950
    assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)
