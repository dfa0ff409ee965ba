"""The benchmark's span tracer (``perfbench/spans.py``) wraps adncount
functions where the engine looks them up, by reading
``owner.__dict__[attr]``. A renamed or deleted name would surface only as a
KeyError under ``perfbench/run.py --trace 1``, so every name is checked
here, without installing the tracer. A name the engine no longer calls
would leave its span at 0, so small traced sweeps check which spans fire."""

import importlib.util
import json
from pathlib import Path

import pytest

from adncount import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_spans()
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
    spans = load_spans()
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
