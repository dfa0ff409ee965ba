"""Pinned output digests: any change to these bytes is a behaviour change.

The digests were recorded from the implementation before the snapshot
pipeline was refactored. A refactor or speed-up must leave them unchanged;
a deliberate behaviour change must update them and say so in CHANGES.md.
"""

import hashlib
import json
import random

from adncount import (
    SubtreeDistribution,
    SweepSpec,
    export_csv,
    export_json,
    prune,
    ranrut,
    run_sweep,
    sizes_table,
    tree_to_topology,
)

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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pinned_sweep_csv_and_json(tmp_path):
    result = run_sweep(PINNED_SPEC)
    export_csv(result, tmp_path / "runs.csv")
    export_json(result, tmp_path / "runs.json")
    assert sha256((tmp_path / "runs.csv").read_bytes()) == SWEEP_CSV_SHA256
    assert sha256((tmp_path / "runs.json").read_bytes()) == SWEEP_JSON_SHA256


def test_pinned_tree_snapshots():
    dist = SubtreeDistribution(sizes_table(40), 40)
    lines = []
    for variant in ("paper-literal", "same-copy"):
        rng = random.Random(31)
        for n in range(1, 41):
            for delta in range(2, 7):
                tree = prune(ranrut(n, dist, rng, variant), delta, rng)
                lines.append(json.dumps(tree_to_topology(tree).to_json_dict()))
    assert sha256("\n".join(lines).encode()) == TREE_SNAPSHOTS_SHA256
