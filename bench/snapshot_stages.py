"""Per-stage cost of a random-tree and a G(n, p) snapshot, of each round
kernel, of a T = 1 tree and a static path ``count``, of a served epoch per
family, and of one pass over each acceptance grid.

Run from the root of a checkout; it imports ``adncount`` from that
checkout's ``src/``:

    python3 bench/snapshot_stages.py --tag before
    python3 bench/snapshot_stages.py --tag after --out results

For n = 30 and each degree bound it builds ``SNAPSHOTS`` snapshots one
at a time through the single-snapshot generators, in five stages:

1. ``seed``: ``random.Random(derive_seed(seed, epoch))``;
2. ``ranrut``: the paper-literal draw;
3. ``prune``: the degree bound, with the same generator (every tree is
   walked, also one already within the bound; a schedule prunes only the
   trees over it);
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

``kernels_us_per_call`` times each round kernel at n = 30 on ``path(30)``
(delta = 2) and on one G(n, p) snapshot at p = ``GNP_P`` (delta = n - 1):
``collection_round`` writing into a preallocated row, as ``count`` calls
it, ``verification_round``, ``notification_round`` and ``heard_round``.
Each batch is ``KERNEL_CALLS`` calls on one input; the fastest and median
of ``REPEATS`` batches are reported. ``count_static_path`` times
``COUNT_RUNS`` static path runs at n = 30 and delta = 2 (every run has the
same 40 769 rounds) and reports µs per round, and the engine's overhead per
round: that figure minus the median path kernel time of each round's phase.

``schedule_epochs`` times ``topology_at`` over ``EPOCHS`` consecutive
rounds of a T = 1 schedule of each family at n = 30 (random-tree and path
at delta = 4 and 2, gnp at p = ``GNP_P``), with the first
``collection_arrays()`` and ``retention(delta)`` of every snapshot, and
reports the fastest and median of ``REPEATS`` schedules (seeds from
``SEED``) in microseconds per served epoch. The schedule is built outside
the timed loop. This is the per-epoch snapshot cost of a run, look-ahead
included.

``acceptance_grids`` runs each grid of ``GRID_SPECS`` in
``tests/test_acceptance.py`` once through ``run_sweep`` with one worker,
and reports its rows, its ``count`` calls (a sweep runs each
seed-invariant stream once and copies the record to the other rows) and
its wall time in seconds.

Every timed sample (a batch, a run, a schedule or a grid pass) is
scaled, as in ``perfbench/run.py``, by ``CAL_REF_S`` over the mean of the
calibration slices just before and just after it (``calibrate`` and
``CAL_REF_S``, loaded from ``perfbench/run.py``), so the figures read in
µs or seconds of a machine on which the slice takes 10 ms. A grid pass
lasts far longer than the machine holds one speed, so its scaling is
coarser.

It writes ``BENCH_<tag>.json`` (next to ``bench/`` unless ``--out`` says
otherwise) with the machine's core count and the Python and numpy
versions, and prints the same object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
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
EPOCHS = 2000  # served epochs per schedule
KERNEL_CALLS = 5000  # per batch
SCHEDULES = (("random-tree", 4, None), ("star", N - 1, None), ("path", 2, None),
             ("gnp", N - 1, GNP_P))


def load_library():
    """Import adncount from this checkout's src/, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import adncount

    if not os.path.abspath(adncount.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"snapshot_stages: imported adncount from {adncount.__file__}, not {src}")
    return adncount


def load_benchmark():
    """``perfbench/run.py`` as a module, loaded by file path (registered
    first: its dataclasses look their module up in ``sys.modules``).
    Loading it also pins BLAS to one thread, as in the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's calibration slice and scale, so the two cannot drift
_BENCHMARK = load_benchmark()
calibrate, CAL_REF_S = _BENCHMARK.calibrate, _BENCHMARK.CAL_REF_S


def scaled(sample):
    """``sample()`` between two calibration slices: its result and the
    factor that scales its timings."""
    before = calibrate()
    result = sample()
    return result, 2 * CAL_REF_S / (before + calibrate())


def time_batch(adn, delta, epochs, master):
    """Seconds spent in each stage over one batch of snapshots.

    Snapshots are built one at a time, so only one is alive at once and
    garbage collection sees the same small heap as in a run.
    """
    derive_seed, ranrut, prune = adn.derive_seed, adn.ranrut, adn.prune
    tree_to_topology = adn.tree_to_topology
    totals = [0.0] * len(STAGES)
    for epoch in epochs:
        t0 = perf_counter()
        rng = random.Random(derive_seed(master, epoch))
        t1 = perf_counter()
        tree = ranrut(N, rng, "paper-literal")
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


def scaled_batch(time_one):
    """A batch's per-stage seconds, scaled."""
    totals, scale = scaled(time_one)
    return {stage: t * scale for stage, t in totals.items()}


def stage_costs(adn, snapshots, repeats, master):
    result = {}
    for delta in DELTAS:
        batches = [scaled_batch(lambda: time_batch(
            adn, delta, range(i * snapshots, (i + 1) * snapshots), master))
            for i in range(repeats)]
        result[f"delta={delta}"] = summarise(batches, snapshots)
    return result


def gnp_stage_costs(adn, snapshots, repeats, master):
    batches = [scaled_batch(lambda: time_gnp_batch(
        adn, range(i * snapshots, (i + 1) * snapshots), master)) for i in range(repeats)]
    return {f"p={GNP_P}": summarise(batches, snapshots)}


def per_call_us(call, args, calls, repeats):
    """Scaled µs per ``call(*args)``, fastest and median of ``repeats``
    batches of ``calls`` calls."""
    def batch():
        t0 = perf_counter()
        for _ in range(calls):
            call(*args)
        return perf_counter() - t0

    us = []
    for _ in range(repeats):
        seconds, scale = scaled(batch)
        us.append(seconds * scale / calls * 1e6)
    return {"min_us": round(min(us), 3), "median_us": round(statistics.median(us), 3)}


def kernel_costs(adn, calls, repeats):
    """Scaled µs per call of each round kernel, per snapshot."""
    import numpy as np

    protocol = adn.protocol
    energy = np.random.default_rng(SEED).random(N)
    halt = np.zeros(N, dtype=bool)
    halt[0] = True
    heard = [1 << i for i in range(N)]
    result = {}
    for name, topology, delta in (("path", adn.path(N), 2),
                                  (f"gnp p={GNP_P}", adn.gnp(N, GNP_P, random.Random(SEED)), N - 1)):
        collection = (energy, topology, delta, np.empty(N))
        try:
            protocol.collection_round(*collection)
        except TypeError:  # a kernel without ``out``, as in older checkouts
            collection = collection[:3]
        result[name] = {"edges": len(topology.edges)}
        for kernel, args in (("collection_round", collection),
                             ("verification_round", (energy, topology)),
                             ("notification_round", (halt, topology)),
                             ("heard_round", (heard, topology))):
            result[name][kernel] = per_call_us(getattr(protocol, kernel), args, calls, repeats)
    return result


def count_cost(adn, schedules):
    """Scaled µs per round of one ``count`` per schedule."""
    per_run = []
    rounds = seconds = 0
    for schedule in schedules:
        def run():
            t0 = perf_counter()
            record = adn.count(schedule)
            return perf_counter() - t0, record.rounds_total

        (elapsed, run_rounds), scale = scaled(run)
        elapsed *= scale
        per_run.append(elapsed / run_rounds * 1e6)
        rounds += run_rounds
        seconds += elapsed
    return {"runs": len(per_run), "rounds": rounds,
            "us_per_round": round(seconds / rounds * 1e6, 2),
            "min_run_us_per_round": round(min(per_run), 2),
            "median_run_us_per_round": round(statistics.median(per_run), 2)}


def static_path_cost(adn, kernels):
    """``count_cost`` of static paths, plus the engine overhead per round:
    the median µs per round less the median path kernel time of each
    round's phase (every static path run has the same rounds)."""
    def schedule(seed):
        return adn.new_schedule("path", N, 2, math.inf, seed)

    result = count_cost(adn, map(schedule, range(COUNT_RUNS)))
    record = adn.count(schedule(0))
    path_us = kernels["path"]
    kernel_us = sum(getattr(record, f"rounds_{phase}") * path_us[f"{phase}_round"]["median_us"]
                    for phase in ("collection", "verification", "notification"))
    result["overhead_us_per_round"] = round(
        result["median_run_us_per_round"] - kernel_us / record.rounds_total, 2)
    return result


def schedule_epoch_costs(adn, epochs, repeats, master):
    """µs per served epoch of ``topology_at`` at T = 1, per family."""
    result = {}
    for family, delta, p in SCHEDULES:
        us = []
        for i in range(repeats):
            schedule = adn.new_schedule(family, N, delta, 1, master + i, p=p)

            def serve():
                t0 = perf_counter()
                for r in range(1, epochs + 1):
                    topology = schedule.topology_at(r)
                    topology.collection_arrays()
                    topology.retention(delta)
                return perf_counter() - t0

            seconds, scale = scaled(serve)
            us.append(seconds * scale / epochs * 1e6)
        result[family] = {"delta": delta, "min_us": round(min(us), 2),
                          "median_us": round(statistics.median(us), 2)}
    return result


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

            def sweep():
                t0 = perf_counter()
                rows = len(adn.run_sweep(spec, workers=1).rows)
                return perf_counter() - t0, rows

            (elapsed, rows), scale = scaled(sweep)
            result[name] = {"rows": rows, "count_calls": calls,
                            "seconds": round(elapsed * scale, 2)}
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

    kernels = kernel_costs(adn, KERNEL_CALLS, REPEATS)
    report = {
        "tag": args.tag,
        "n": N,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_ref_s": CAL_REF_S,
        "snapshots": SNAPSHOTS,
        "repeats": REPEATS,
        "stages_us_per_snapshot": stage_costs(adn, SNAPSHOTS, REPEATS, SEED),
        "gnp_stages_us_per_snapshot": gnp_stage_costs(adn, SNAPSHOTS, REPEATS, SEED),
        "kernel_calls": KERNEL_CALLS,
        "kernels_us_per_call": kernels,
        "count_T1_delta4": count_cost(
            adn, (adn.new_schedule("random-tree", N, 4, 1, seed) for seed in range(COUNT_RUNS))),
        "count_static_path": static_path_cost(adn, kernels),
        "epochs": EPOCHS,
        "schedule_epochs_us_T1": schedule_epoch_costs(adn, EPOCHS, REPEATS, SEED),
        "acceptance_grids": acceptance_grid_passes(adn),
    }
    text = json.dumps(report, indent=2) + "\n"
    with open(os.path.join(args.out, f"BENCH_{args.tag}.json"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
