"""Per-stage cost of a random-tree and a G(n, p) snapshot, of each round
kernel, of a T = 1 tree and a static path ``count``, of a served epoch per
family, and of one pass over each acceptance grid, for one checkout or for
two side by side.

Run from the root of a checkout; it imports ``adncount`` from that
checkout's ``src/``:

    python3 bench/snapshot_stages.py --tag before
    python3 bench/snapshot_stages.py --tag after --out results
    python3 bench/snapshot_stages.py --tag pair --parent ../parent

With ``--parent PATH`` it also loads ``PATH/src/adncount``, under the
package name ``adncount_parent``, and measures both: every repeat of every
measurement below runs once for each side, the parent first in even
repeats and the change first in odd ones, so that drift in the machine's
speed does not favour one side. The parent must offer the functions the
stages call. The report then holds one object per side, ``change`` and
``parent``, and ``median_change``: the change's figure over the parent's,
as a percentage, for every median and every grid pass.

For each (n, delta) of ``TREE_POINTS`` it builds ``SNAPSHOTS`` snapshots
one at a time through the single-snapshot generators, in five stages:

1. ``seed``: ``random.Random(derive_seed(seed, epoch))``;
2. ``ranrut``: the paper-literal draw;
3. ``prune``: the degree bound, with the same generator, called only on
   trees over the bound, as a schedule does; ``over_bound_share`` is
   their share of the snapshots, and ``prune`` is averaged over all of
   them;
4. ``tree_to_topology``;
5. ``arrays``: the kernel operands ``count`` reads when a snapshot comes
   into force, ``collection_operands(topology, delta)`` and
   ``symmetric_arrays()``.

Snapshots are built one at a time and each stage is timed around its
call (two ``perf_counter`` reads, a fraction of a microsecond, included).

For G(n, p) at n = 30 and p = ``GNP_P`` it times three stages per batch
of ``GNP_BATCH`` epochs, as a schedule builds them: ``seed`` (one
generator per epoch), ``gnp`` (one ``gnp_topologies`` call with
delta = n - 1, the only degree bound a gnp schedule takes) and
``arrays`` (the operands of each snapshot, as above).

The ``SNAPSHOTS`` epochs from master seed ``SEED`` are rebuilt
``REPEATS`` times, and the fastest and median pass are reported, in
microseconds per snapshot. ``count_T1_delta4`` times ``COUNT_RUNS``
whole ``count`` runs of a random-tree stream at n = 30, delta = 4 and
T = 1 (a fresh snapshot every round), one per seed from 0, and reports
total wall time over total rounds.

``kernels_us_per_call`` times each round kernel at n = 30 on ``path(30)``
(delta = 2) and on one G(n, p) snapshot at p = ``GNP_P`` (delta = n - 1),
and on one at n = ``GNP_WIDE_N``, where each heard set spans two words:
``collection_round`` writing into a preallocated row, as ``count`` calls
it, ``verification_round``, ``notification_round`` and ``heard_round``
(on the start of a verification, in which node i has heard only itself).
Each kernel gets the snapshot's operands, read once before the batch, as
``count`` reads them once per epoch.
Each batch is ``KERNEL_CALLS`` calls on one input; the fastest and median
of ``REPEATS`` batches are reported. ``count_static_path`` times
``COUNT_RUNS`` static path runs at n = 30 and delta = 2 (every run has the
same 40 769 rounds) and reports µs per round, and the engine's overhead per
round: that figure minus the median path kernel time of each round's phase.

``schedule_epochs`` times ``topology_at`` over ``EPOCHS`` consecutive
rounds of a T = 1 schedule of each family at n = 30 (random-tree and path
at delta = 4 and 2, gnp at p = ``GNP_P``), with the kernel operands of
every snapshot, and reports the fastest and median of ``REPEATS``
schedules (seeds from ``SEED``) in microseconds per served epoch. The schedule is built outside
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
TREE_POINTS = ((N, 2), (N, 4), (N, 8), (75, 2), (75, 4))  # (n, delta)
SNAPSHOTS = 2000  # per batch
REPEATS = 7  # batches per degree bound
COUNT_RUNS = 5
SEED = 7
STAGES = ("seed", "ranrut", "prune", "tree_to_topology", "arrays")
GNP_P = 0.3
GNP_STAGES = ("seed", "gnp", "arrays")
GNP_BATCH = 64  # epochs per gnp_topologies call, as in a schedule
GNP_WIDE_N = 75
EPOCHS = 2000  # served epochs per schedule
KERNEL_CALLS = 5000  # per batch
SCHEDULES = (("random-tree", 4, None), ("star", N - 1, None), ("path", 2, None),
             ("gnp", N - 1, GNP_P))
MEDIANS = ("median_us", "median_run_us_per_round", "seconds")


def load_benchmark():
    """``perfbench/run.py`` as a module, loaded by file path (registered
    first: its dataclasses look their module up in ``sys.modules``).
    Loading it also pins BLAS to one thread, as in the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's calibration slice and scale, so the two cannot drift, and
# its import of adncount from this checkout's src/ and from nowhere else
_BENCHMARK = load_benchmark()
calibrate, CAL_REF_S = _BENCHMARK.calibrate, _BENCHMARK.CAL_REF_S
load_library = _BENCHMARK.load_library


def load_parent(checkout):
    """``checkout/src/adncount`` as the package ``adncount_parent``; its
    modules import each other relatively, so none of them reads the
    change's ``adncount``."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "adncount")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"snapshot_stages: {pkg} not found")
    spec = importlib.util.spec_from_file_location(
        "adncount_parent", os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def alternate(sides, repeats, sample):
    """``sample(side, i)`` for each repeat i and each side, the sides in
    turn, in reversed order in odd repeats: per side, the list of
    results."""
    results = {side: [] for side in sides}
    for i in range(repeats):
        for side in sides if i % 2 == 0 else reversed(sides):
            results[side].append(sample(side, i))
    return results


def scaled(sample):
    """``sample()`` between two calibration slices: its result and the
    factor that scales its timings."""
    before = calibrate()
    result = sample()
    return result, 2 * CAL_REF_S / (before + calibrate())


def over_bound(parents, delta):
    """Whether a tree's graph degree exceeds delta somewhere."""
    degrees = [1] * len(parents)
    degrees[0] = 0
    for p in parents[1:]:
        degrees[p] += 1
    return max(degrees) > delta


def time_batch(adn, n, delta, epochs, master):
    """Seconds spent in each stage over one batch of snapshots, and the
    number of trees over the bound.

    Snapshots are built one at a time, so only one is alive at once and
    garbage collection sees the same small heap as in a run.
    """
    derive_seed, ranrut, prune = adn.derive_seed, adn.ranrut, adn.prune
    tree_to_topology, operands = adn.tree_to_topology, adn.collection_operands
    totals = [0.0] * len(STAGES)
    pruned = 0
    for epoch in epochs:
        t0 = perf_counter()
        rng = random.Random(derive_seed(master, epoch))
        t1 = perf_counter()
        tree = ranrut(n, rng, "paper-literal")
        t2 = perf_counter()
        over = over_bound(tree, delta)  # a schedule's bound test, untimed
        pruned += over
        t3 = perf_counter()
        if over:
            tree = prune(tree, delta, rng)
        t4 = perf_counter()
        topology = tree_to_topology(tree)
        t5 = perf_counter()
        operands(topology, delta)
        topology.symmetric_arrays()
        t6 = perf_counter()
        for i, (start, end) in enumerate(((t0, t1), (t1, t2), (t3, t4), (t4, t5), (t5, t6))):
            totals[i] += end - start
    return dict(zip(STAGES, totals)), pruned


def time_gnp_batch(adn, epochs, master):
    """Seconds spent in each G(n, p) stage over ``epochs``, built
    ``GNP_BATCH`` at a time; only one batch is alive at once."""
    derive_seed, operands = adn.derive_seed, adn.collection_operands
    gnp_topologies = adn.topology.gnp_topologies
    totals = [0.0] * len(GNP_STAGES)
    for first in range(epochs.start, epochs.stop, GNP_BATCH):
        t0 = perf_counter()
        rngs = [random.Random(derive_seed(master, epoch))
                for epoch in range(first, min(first + GNP_BATCH, epochs.stop))]
        t1 = perf_counter()
        topologies = gnp_topologies(N, GNP_P, rngs, N - 1)
        t2 = perf_counter()
        for topology in topologies:
            operands(topology, N - 1)
            topology.symmetric_arrays()
        t3 = perf_counter()
        for i, (start, end) in enumerate(((t0, t1), (t1, t2), (t2, t3))):
            totals[i] += end - start
    return dict(zip(GNP_STAGES, totals))


def fastest_and_median(values, digits=2):
    return {"min_us": round(min(values), digits),
            "median_us": round(statistics.median(values), digits)}


def summarise(batches, snapshots):
    """Fastest and median batch per stage and in total, in µs per snapshot."""
    per_stage = {stage: fastest_and_median([b[stage] / snapshots * 1e6 for b in batches])
                 for stage in batches[0]}
    per_stage["total"] = fastest_and_median(
        [sum(b.values()) / snapshots * 1e6 for b in batches])
    return per_stage


def scaled_batch(time_one):
    """A batch's per-stage seconds, scaled."""
    totals, scale = scaled(time_one)
    return {stage: t * scale for stage, t in totals.items()}


def stage_costs(libs, snapshots, repeats, master):
    result = {side: {} for side in libs}
    for n, delta in TREE_POINTS:
        def sample(side, i):
            (totals, pruned), scale = scaled(lambda: time_batch(
                libs[side], n, delta, range(i * snapshots, (i + 1) * snapshots), master))
            return {stage: t * scale for stage, t in totals.items()}, pruned

        for side, runs in alternate(list(libs), repeats, sample).items():
            point = summarise([totals for totals, _ in runs], snapshots)
            # every repeat rebuilds the same epochs, so their shares are equal
            point["over_bound_share"] = round(runs[0][1] / snapshots, 3)
            result[side][f"n={n} delta={delta}"] = point
    return result


def gnp_stage_costs(libs, snapshots, repeats, master):
    batches = alternate(list(libs), repeats, lambda side, i: scaled_batch(lambda: time_gnp_batch(
        libs[side], range(i * snapshots, (i + 1) * snapshots), master)))
    return {side: {f"p={GNP_P}": summarise(runs, snapshots)} for side, runs in batches.items()}


def per_call_us(calls_by_side, calls, repeats):
    """Per side, scaled µs per ``call(*args)`` of its ``(call, args)``:
    fastest and median of ``repeats`` batches of ``calls`` calls."""
    def batch(side, _):
        call, args = calls_by_side[side]

        def timed():
            t0 = perf_counter()
            for _ in range(calls):
                call(*args)
            return perf_counter() - t0

        seconds, scale = scaled(timed)
        return seconds * scale / calls * 1e6

    return {side: fastest_and_median(us, 3)
            for side, us in alternate(list(calls_by_side), repeats, batch).items()}


def origin_words(n):
    """The heard sets ``heard_round`` starts from: a (ceil(n/64), n) uint64
    array in which node i holds only bit i % 64 of word i // 64."""
    import numpy as np

    nodes = np.arange(n, dtype=np.uint64)
    heard = np.zeros((-(-n // 64), n), dtype=np.uint64)
    heard[nodes // 64, nodes] = np.uint64(1) << nodes % 64
    return heard


def kernel_calls(adn):
    """Per snapshot, its edge count and, per round kernel, the kernel and
    its arguments: that snapshot's operands."""
    import numpy as np

    protocol = adn.protocol
    result = {}
    for name, topology, delta in (
            ("path", adn.path(N), 2),
            (f"gnp p={GNP_P}", adn.gnp(N, GNP_P, random.Random(SEED)), N - 1),
            (f"gnp n={GNP_WIDE_N} p={GNP_P}",
             adn.gnp(GNP_WIDE_N, GNP_P, random.Random(SEED)), GNP_WIDE_N - 1)):
        n = topology.n
        energy = np.random.default_rng(SEED).random(n)
        halt = np.zeros(n, dtype=bool)
        halt[0] = True
        collection = (energy, adn.collection_operands(topology, delta), np.empty(n))
        pairs = topology.symmetric_arrays()
        result[name] = len(topology.edges), {
            kernel: (getattr(protocol, kernel), args)
            for kernel, args in (("collection_round", collection),
                                 ("verification_round", (energy, pairs)),
                                 ("notification_round", (halt, pairs)),
                                 ("heard_round", (origin_words(n), pairs)))}
    return result


def kernel_costs(libs, calls, repeats):
    """Per side, scaled µs per call of each round kernel, per snapshot."""
    made = {side: kernel_calls(adn) for side, adn in libs.items()}
    result = {side: {} for side in libs}
    for name, (edges, kernels) in made["change"].items():
        for side in libs:
            result[side][name] = {"edges": edges}
        for kernel in kernels:
            timed = per_call_us({side: made[side][name][1][kernel] for side in libs},
                                calls, repeats)
            for side, us in timed.items():
                result[side][name][kernel] = us
    return result


def count_cost(libs, schedule):
    """Per side, scaled µs per round of one ``count`` per seed, on
    ``schedule(adn, seed)`` for seeds 0 .. COUNT_RUNS - 1."""
    def run(side, seed):
        adn = libs[side]
        built = schedule(adn, seed)

        def timed():
            t0 = perf_counter()
            record = adn.count(built)
            return perf_counter() - t0, record.rounds_total

        (elapsed, rounds), scale = scaled(timed)
        return elapsed * scale, rounds

    result = {}
    for side, runs in alternate(list(libs), COUNT_RUNS, run).items():
        seconds = sum(elapsed for elapsed, _ in runs)
        rounds = sum(r for _, r in runs)
        per_run = [elapsed / r * 1e6 for elapsed, r in runs]
        result[side] = {"runs": len(runs), "rounds": rounds,
                        "us_per_round": round(seconds / rounds * 1e6, 2),
                        "min_run_us_per_round": round(min(per_run), 2),
                        "median_run_us_per_round": round(statistics.median(per_run), 2)}
    return result


def tree_T1_schedule(adn, seed):
    return adn.DynamicsSchedule(adn.ScheduleParams("random-tree", N, 4, 1, seed))


def static_path_schedule(adn, seed):
    return adn.DynamicsSchedule(adn.ScheduleParams("path", N, 2, math.inf, seed))


def static_path_cost(libs, kernels):
    """``count_cost`` of static paths, plus the engine overhead per round:
    the median µs per round less the median path kernel time of each
    round's phase (every static path run has the same rounds)."""
    result = count_cost(libs, static_path_schedule)
    for side, adn in libs.items():
        record = adn.count(static_path_schedule(adn, 0))
        path_us = kernels[side]["path"]
        kernel_us = sum(getattr(record, f"rounds_{phase}") * path_us[f"{phase}_round"]["median_us"]
                        for phase in ("collection", "verification", "notification"))
        result[side]["overhead_us_per_round"] = round(
            result[side]["median_run_us_per_round"] - kernel_us / record.rounds_total, 2)
    return result


def schedule_epoch_costs(libs, epochs, repeats, master):
    """Per side, µs per served epoch of ``topology_at`` at T = 1, per family."""
    result = {side: {} for side in libs}
    for family, delta, p in SCHEDULES:
        def serve(side, i):
            adn = libs[side]
            schedule = adn.DynamicsSchedule(adn.ScheduleParams(family, N, delta, 1, master + i, p=p))

            def timed():
                t0 = perf_counter()
                for r in range(1, epochs + 1):
                    topology = schedule.topology_at(r)
                    adn.collection_operands(topology, delta)
                    topology.symmetric_arrays()
                return perf_counter() - t0

            seconds, scale = scaled(timed)
            return seconds * scale / epochs * 1e6

        for side, us in alternate(list(libs), repeats, serve).items():
            result[side][family] = {"delta": delta, **fastest_and_median(us)}
    return result


def acceptance_grid_passes(libs):
    """Per side, one timed ``run_sweep`` pass per acceptance grid, counting
    ``count`` calls."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from test_acceptance import GRID_SPECS

    def sweep(side, i):
        adn = libs[side]
        experiment = adn.experiment
        real_count = experiment.count
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real_count(*args, **kwargs)

        # the spec in this side's own types
        spec = adn.SweepSpec.from_json_dict(specs[i].to_json_dict())
        experiment.count = counted
        try:
            def timed():
                t0 = perf_counter()
                rows = len(adn.run_sweep(spec, workers=1).rows)
                return perf_counter() - t0, rows

            (elapsed, rows), scale = scaled(timed)
        finally:
            experiment.count = real_count
        return {"rows": rows, "count_calls": calls, "seconds": round(elapsed * scale, 2)}

    names, specs = list(GRID_SPECS), list(GRID_SPECS.values())
    passes = alternate(list(libs), len(names), sweep)
    return {side: dict(zip(names, runs)) for side, runs in passes.items()}


def median_change(parent, change):
    """The change's figure over the parent's, as a signed percentage, for
    every median and grid pass of two sides' reports, nested as they
    are."""
    result = {}
    for key, value in change.items():
        if isinstance(value, dict) and isinstance(parent.get(key), dict):
            nested = median_change(parent[key], value)
            if nested:
                result[key] = nested
        elif key in MEDIANS and parent.get(key):
            result[key] = f"{100 * (value / parent[key] - 1):+.1f} %"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--out", default=ROOT, help="directory for BENCH_<tag>.json")
    parser.add_argument("--parent", help="a parent checkout to measure side by side")
    args = parser.parse_args(argv)
    libs = {"change": load_library()}
    if args.parent:
        libs = {"parent": load_parent(args.parent), **libs}
    import numpy as np

    kernels = kernel_costs(libs, KERNEL_CALLS, REPEATS)
    sections = {
        "stages_us_per_snapshot": stage_costs(libs, SNAPSHOTS, REPEATS, SEED),
        "gnp_stages_us_per_snapshot": gnp_stage_costs(libs, SNAPSHOTS, REPEATS, SEED),
        "kernels_us_per_call": kernels,
        "count_T1_delta4": count_cost(libs, tree_T1_schedule),
        "count_static_path": static_path_cost(libs, kernels),
        "schedule_epochs_us_T1": schedule_epoch_costs(libs, EPOCHS, REPEATS, SEED),
        "acceptance_grids": acceptance_grid_passes(libs),
    }
    report = {
        "tag": args.tag,
        "parent_checkout": args.parent,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_ref_s": CAL_REF_S,
        "snapshots": SNAPSHOTS,
        "repeats": REPEATS,
        "kernel_calls": KERNEL_CALLS,
        "epochs": EPOCHS,
    }
    for side in libs:
        report[side] = {name: section[side] for name, section in sections.items()}
    if args.parent:
        report["median_change"] = median_change(report["parent"], report["change"])
    text = json.dumps(report, indent=2) + "\n"
    with open(os.path.join(args.out, f"BENCH_{args.tag}.json"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
