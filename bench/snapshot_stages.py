"""Per-stage cost of a random-tree and a G(n, p) snapshot, of a T = 1 tree
``count``, and of one pass over each acceptance grid.

Run from the root of a checkout; it imports ``adncount`` from that
checkout's ``src/``:

    python3 bench/snapshot_stages.py --tag before
    python3 bench/snapshot_stages.py --tag after --out results

For n = 30 and each degree bound it builds ``SNAPSHOTS`` snapshots the
way ``DynamicsSchedule`` does, in five stages:

1. ``seed``: ``random.Random(derive_seed(seed, epoch))``;
2. ``ranrut``: the paper-literal draw;
3. ``prune``: the degree bound, with the same generator;
4. ``tree_to_topology``;
5. ``arrays``: the first ``collection_arrays()`` and ``retention(delta)``,
   which the first collection round of a snapshot builds.

For G(n, p) at n = 30 and p = ``GNP_P`` it times three stages the same
way: ``seed``, ``gnp`` and ``arrays`` (with delta = n - 1, the only
degree bound a gnp schedule takes).

Snapshots are built one at a time and each stage is timed around its
call (two ``perf_counter`` reads, a fraction of a microsecond, included);
the batch (epochs from master seed ``SEED``) is rebuilt ``REPEATS`` times
and the fastest and median batch are reported, in microseconds per
snapshot. ``count_T1_delta4`` times ``COUNT_RUNS`` whole ``count`` runs of
a random-tree stream at delta = 4 and T = 1 (a fresh snapshot every
round), one per seed from 0, and reports total wall time over total
rounds.

``acceptance_grids`` runs each grid of ``GRID_SPECS`` in
``tests/test_acceptance.py`` once through ``run_sweep`` with one worker,
and reports its rows, its ``count`` calls (a sweep runs each
seed-invariant stream once and copies the record to the other rows) and
its wall time in seconds.

It writes ``BENCH_<tag>.json`` (next to ``bench/`` unless ``--out`` says
otherwise) with the machine's core count and the Python and numpy
versions, and prints the same object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N = 30
DELTAS = (2, 4, 8)
SNAPSHOTS = 2000  # per batch
REPEATS = 7  # batches per degree bound
COUNT_RUNS = 5
SEED = 7
STAGES = ("seed", "ranrut", "prune", "tree_to_topology", "arrays")
GNP_P = 0.3
GNP_STAGES = ("seed", "gnp", "arrays")


def load_library():
    """Import adncount from this checkout's src/, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import adncount

    if not os.path.abspath(adncount.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"snapshot_stages: imported adncount from {adncount.__file__}, not {src}")
    return adncount


def time_batch(adn, dist, delta, epochs, master):
    """Seconds spent in each stage over one batch of snapshots.

    Snapshots are built one at a time, as a schedule builds them, so only
    one is alive at once and garbage collection sees the same small heap
    as in a run.
    """
    derive_seed, ranrut, prune = adn.derive_seed, adn.ranrut, adn.prune
    tree_to_topology = adn.tree_to_topology
    totals = [0.0] * len(STAGES)
    for epoch in epochs:
        t0 = perf_counter()
        rng = random.Random(derive_seed(master, epoch))
        t1 = perf_counter()
        tree = ranrut(N, dist, rng, "paper-literal")
        t2 = perf_counter()
        tree = prune(tree, delta, rng)
        t3 = perf_counter()
        topology = tree_to_topology(tree)
        t4 = perf_counter()
        topology.collection_arrays()
        topology.retention(delta)
        t5 = perf_counter()
        for i, (start, end) in enumerate(((t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5))):
            totals[i] += end - start
    return dict(zip(STAGES, totals))


def time_gnp_batch(adn, epochs, master):
    """Seconds spent in each G(n, p) stage over one batch, as ``time_batch``."""
    derive_seed, gnp = adn.derive_seed, adn.gnp
    totals = [0.0] * len(GNP_STAGES)
    for epoch in epochs:
        t0 = perf_counter()
        rng = random.Random(derive_seed(master, epoch))
        t1 = perf_counter()
        topology = gnp(N, GNP_P, rng)
        t2 = perf_counter()
        topology.collection_arrays()
        topology.retention(N - 1)
        t3 = perf_counter()
        for i, (start, end) in enumerate(((t0, t1), (t1, t2), (t2, t3))):
            totals[i] += end - start
    return dict(zip(GNP_STAGES, totals))


def summarise(batches, snapshots):
    """Fastest and median batch per stage and in total, in µs per snapshot."""
    per_stage = {}
    for stage in batches[0]:
        us = [b[stage] / snapshots * 1e6 for b in batches]
        per_stage[stage] = {"min_us": round(min(us), 2),
                            "median_us": round(statistics.median(us), 2)}
    totals = [sum(b.values()) / snapshots * 1e6 for b in batches]
    per_stage["total"] = {"min_us": round(min(totals), 2),
                          "median_us": round(statistics.median(totals), 2)}
    return per_stage


def stage_costs(adn, snapshots, repeats, master):
    dist = adn.SubtreeDistribution(adn.sizes_table(N), N)
    result = {}
    for delta in DELTAS:
        batches = [time_batch(adn, dist, delta, range(i * snapshots, (i + 1) * snapshots),
                              master) for i in range(repeats)]
        result[f"delta={delta}"] = summarise(batches, snapshots)
    return result


def gnp_stage_costs(adn, snapshots, repeats, master):
    batches = [time_gnp_batch(adn, range(i * snapshots, (i + 1) * snapshots), master)
               for i in range(repeats)]
    return {f"p={GNP_P}": summarise(batches, snapshots)}


def count_cost(adn, seeds):
    per_run = []
    rounds = seconds = 0
    for seed in seeds:
        schedule = adn.new_schedule("random-tree", N, 4, 1, seed)
        t0 = perf_counter()
        record = adn.count(schedule)
        elapsed = perf_counter() - t0
        per_run.append(elapsed / record.rounds_total * 1e6)
        rounds += record.rounds_total
        seconds += elapsed
    return {"runs": len(per_run), "rounds": rounds,
            "us_per_round": round(seconds / rounds * 1e6, 2),
            "min_run_us_per_round": round(min(per_run), 2),
            "median_run_us_per_round": round(statistics.median(per_run), 2)}


def acceptance_grid_passes(adn):
    """One timed ``run_sweep`` pass per acceptance grid, counting ``count`` calls."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from test_acceptance import GRID_SPECS

    experiment = adn.experiment
    real_count = experiment.count
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_count(*args, **kwargs)

    result = {}
    experiment.count = counted
    try:
        for name, spec in GRID_SPECS.items():
            calls = 0
            t0 = perf_counter()
            sweep = adn.run_sweep(spec, workers=1)
            elapsed = perf_counter() - t0
            result[name] = {"rows": len(sweep.rows), "count_calls": calls,
                            "seconds": round(elapsed, 2)}
    finally:
        experiment.count = real_count
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--out", default=ROOT, help="directory for BENCH_<tag>.json")
    args = parser.parse_args(argv)
    adn = load_library()
    import numpy as np

    report = {
        "tag": args.tag,
        "n": N,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "snapshots": SNAPSHOTS,
        "repeats": REPEATS,
        "stages_us_per_snapshot": stage_costs(adn, SNAPSHOTS, REPEATS, SEED),
        "gnp_stages_us_per_snapshot": gnp_stage_costs(adn, SNAPSHOTS, REPEATS, SEED),
        "count_T1_delta4": count_cost(adn, range(COUNT_RUNS)),
        "acceptance_grids": acceptance_grid_passes(adn),
    }
    text = json.dumps(report, indent=2) + "\n"
    with open(os.path.join(args.out, f"BENCH_{args.tag}.json"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
