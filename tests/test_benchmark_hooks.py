"""The benchmark's span tracer (``perfbench/spans.py``) wraps adncount
functions where the engine looks them up, by reading
``owner.__dict__[attr]``. A renamed or deleted name would surface only as a
KeyError under ``perfbench/run.py --trace 1``, so every name is checked
here, without installing the tracer. A name the engine no longer calls
would leave its span at 0, so small traced sweeps check which spans fire,
and that the kernels are called once per simulated round, as
``perfbench/run.py --trace 1`` requires.
The benchmark's own sweep specs are checked to stay valid, one grid point
each, and to pass its set-up probe."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import adncount
from adncount import DynamicsSchedule, ProtocolConfig, ScheduleParams, SweepSpec, cli, derive_seed
from helpers import load_perfbench

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_exists():
    spans = load_perfbench("spans")
    hooks = [(owner, attr) for owner, attr, _ in (*spans.LOOKUPS, *spans.FIRST_BUILDS)]
    assert len(hooks) > 20
    missing = [f"{owner.__name__}.{attr}" for owner, attr in hooks if attr not in vars(owner)]
    assert missing == []


# Why a span reads 0 in a sweep that does not reach it.
ZERO_REASONS = {
    "topology.Topology": "schedules build snapshots in batches, not through the checked constructor",
    "topology.tree_to_topology": "schedules convert a batch of trees at once (tree_topologies)",
    "topology.gnp": "schedules draw a batch of G(n, p) snapshots at once (gnp_topologies)",
    "topology.edge_arrays": "a drawn batch fills every snapshot's arrays, retention included",
    "trees.ranrut": "only random-tree streams draw trees",
    "trees.prune": "only random-tree streams prune",
    "protocol.heard_round": "only disconnection-tolerant (gnp) runs track who was heard",
}
# One small sweep per benchmark family, as the benchmark runs it, and the
# spans that read 0 in it. A static path's one snapshot, path(n), is built
# without a degree bound, so its retention row is a first build.
SWEEPS = {
    "random-tree": ({"families": ["random-tree"], "T_set": [1], "delta_cap": 2},
                    {"topology.Topology", "topology.tree_to_topology", "topology.gnp",
                     "topology.edge_arrays", "protocol.heard_round"}),
    "gnp": ({"families": ["gnp"], "T_set": [3], "p_set": [0.3]},
            {"topology.Topology", "topology.tree_to_topology", "topology.gnp",
             "topology.edge_arrays", "trees.ranrut", "trees.prune"}),
    "path": ({"families": ["path"], "T_set": ["inf"], "delta_cap": 2},
             {"topology.Topology", "topology.tree_to_topology", "topology.gnp",
              "trees.ranrut", "trees.prune", "protocol.heard_round"}),
}


@pytest.mark.parametrize("family", SWEEPS)
def test_spans_that_read_zero(tmp_path, capsys, family):
    # a span that stops firing (its function is no longer looked up where
    # the tracer wraps it) changes this set
    overrides, zero = SWEEPS[family]
    assert zero <= set(ZERO_REASONS)
    spec = {"n_range": [12, 12], "repetitions": 2, "master_seed": 5,
            "delta_rule": "largest-power-of-two", **overrides}
    paths = {name: str(tmp_path / name) for name in ("spec.json", "runs.csv", "runs.json")}
    with open(paths["spec.json"], "w") as fh:
        json.dump(spec, fh)
    spans = load_perfbench("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["sweep", "--spec", paths["spec.json"], "--workers", "1",
                         "--out-csv", paths["runs.csv"], "--out-json", paths["runs.json"]]) == 0
        assert cli.main(["check-bound", "--in-json", paths["runs.json"]]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.per_layer()
    assert {span for span in spans.SPAN_NAMES if calls[f"{span}.calls"][0] == 0} == zero
    # perfbench/run.py --trace 1 reads correct: false without one kernel
    # call per simulated round (a kernel inlined, reached through a local
    # alias, or a round skipped)
    assert tracer.kernel_calls() == tracer.rounds


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` as a module."""
    # it pins BLAS to one thread through the environment when it loads;
    # setting the variables here first restores them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_run_every_round(bench):
    # count skips the collection rounds of a fixed point; on the benchmark's
    # own streams (n = 30, the first run of --seed 1) no round may be
    # skipped, or perfbench/run.py --trace 1 would read correct: false
    spans = load_perfbench("spans")
    for name, wl in bench.WORKLOADS.items():
        params = ScheduleParams(wl.family, bench.N, wl.delta, wl.T,
                                derive_seed(bench.master_seed(name, 1, 0), 0, 0), wl.p)
        config = ProtocolConfig(c=bench.C, disconnection_tolerant=wl.tolerant)
        tracer = spans.Tracer()
        tracer.install()
        try:
            # through the package, where the tracer wraps count
            record = adncount.count(DynamicsSchedule(params), config)
        finally:
            tracer.uninstall()
        assert record.estimate == bench.N
        assert tracer.kernel_calls() == tracer.rounds == record.rounds_total, name


def test_benchmark_specs_are_one_valid_point(tmp_path, bench):
    for name, wl in bench.WORKLOADS.items():
        data = wl.spec(bench.master_seed(name, 1, 0))
        assert SweepSpec.from_json_dict(data).settings() == [
            ScheduleParams(wl.family, bench.N, wl.delta, wl.T, 0, wl.p)]
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(data))
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(ROOT), str(spec_path)],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        float(done.stdout.split()[-1])  # the probe's clock reading
