"""Per-stage cost of a served snapshot epoch per family, of each round
kernel, of a T = 1 tree and a static path ``count``, and of one pass over
each acceptance grid, for one checkout or for two side by side.

Run from the root of a checkout; it imports ``adncount`` from that
checkout's ``src/``:

    python3 bench/snapshot_stages.py --tag before
    python3 bench/snapshot_stages.py --tag after --out results
    python3 bench/snapshot_stages.py --tag pair --parent ../parent

With ``--parent PATH`` it also loads ``PATH/src/adncount``, under the
package name ``adncount_parent``, and measures both: every repeat of every
measurement below runs once for each side, the parent first in even
repeats and the change first in odd ones, so that drift in the machine's
speed does not favour one side. Each side's timers wrap its own modules,
so the parent must have every ``hook_points`` name. The report then holds one
object per side, ``change`` and ``parent``, and ``median_change``: the
change's figure over the parent's, as a percentage, for every median and
every grid pass.

``served_epochs_us_T1`` serves ``EPOCHS`` consecutive epochs of a real
T = 1 ``DynamicsSchedule`` per point (random-tree at each (n, delta) of
``TREE_POINTS``; at n = 30, gnp at p = ``GNP_P``, path at delta = 2 and
star), built outside the timed loop with seeds from ``SEED``, and reads
each snapshot's kernel operands as ``count`` does. Each repeat serves
twice, on two schedules of the same params: ``plain`` untimed inside, and
``total`` with a timer on each of the schedule's own lookup points
(``hook_points``) and on the operand reads. ``schedule`` is the rest of
``total``, so the stages plus ``schedule`` equal it in every repeat
(integer nanoseconds, before scaling). A point reports the stages its
family fires, in µs per served epoch; a random-tree point adds
``over_bound_share``, ``prune`` calls over ``ranrut`` calls (look-ahead
epochs included).

``count_T1_delta4`` times ``COUNT_RUNS`` whole ``count`` runs of a
random-tree stream at n = 30, delta = 4 and T = 1 (a fresh snapshot every
round), one per seed from 0, and reports total wall time over total
rounds.

``kernels_us_per_call`` times each round kernel at n = 30 on ``path(30)``
(delta = 2) and on one G(n, p) snapshot at p = ``GNP_P`` (delta = n - 1),
and on one at n = ``GNP_WIDE_N``, where each heard set spans two words:
``collection_round`` writing into a preallocated row, as ``count`` calls
it, ``verification_round``, ``notification_round`` and ``heard_round``
(on the start of a verification, in which node i has heard only itself).
Each kernel gets the snapshot's operands, read once before the batch, as
``count`` reads them once per epoch.
Each batch is ``KERNEL_CALLS`` calls on one input; the fastest and median
of ``REPEATS`` batches are reported. ``fold_us_per_block`` times, in the
same batches, the diagnostics fold of one full block of post-round
energies at n = 30, as ``count`` folds one per block of collection
rounds. ``count_static_path`` times
``COUNT_RUNS`` static path runs at n = 30 and delta = 2 (every run has the
same 40 769 rounds) and reports µs per round, and the engine's overhead per
round: that figure minus the median path kernel time of each round's phase.
The overhead splits into ``fold_us_per_round``, the run's non-empty folds
each at the median full-block time (a partial block costs at most that),
and ``loop_us_per_round``, the rest.

``acceptance_grids`` runs each grid of ``GRID_SPECS`` in
``tests/test_acceptance.py`` once through ``run_sweep`` with one worker,
and reports its rows, its ``count`` calls (a sweep runs each
seed-invariant stream once and copies the record to the other rows) and
its wall time in seconds.

``startup`` starts fresh interpreters on each side's ``src/``:
``modules`` is the sorted list of top-level modules that ``import
adncount.cli`` adds on top of ``import numpy`` in one of them, and
``median_ms`` the median wall time of ``STARTUP_RUNS`` interpreters that
only run ``import adncount.cli`` (numpy included), the sides alternating.

Every timed sample (a batch, a run, a served pass, a grid pass or a fresh
interpreter) is
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
import subprocess
import sys
from time import perf_counter, perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N = 30
TREE_POINTS = ((N, 2), (N, 4), (N, 8), (75, 2), (75, 4))  # (n, delta)
REPEATS = 7  # batches, served passes or runs per measurement
COUNT_RUNS = 5
SEED = 7
GNP_P = 0.3
GNP_WIDE_N = 75
EPOCHS = 2000  # served epochs per schedule
KERNEL_CALLS = 5000  # per batch
STARTUP_RUNS = 21  # fresh interpreters per side
# (family, n, delta, p) of each served point
SERVED_POINTS = (*(("random-tree", n, delta, None) for n, delta in TREE_POINTS),
                 ("gnp", N, N - 1, GNP_P), ("path", N, 2, None), ("star", N, N - 1, None))
STAGES = ("seed", "ranrut", "prune", "shuffle", "convert", "operands")
MEDIANS = ("median_us", "median_run_us_per_round", "seconds", "median_ms")


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


def fastest_and_median(values, digits=2):
    return {"min_us": round(min(values), digits),
            "median_us": round(statistics.median(values), digits)}


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


def fold_cost(libs, calls, repeats):
    """Per side, scaled µs per diagnostics fold of a full block of random
    energies at n = N."""
    def fold_call(adn):
        import numpy as np

        protocol = adn.protocol
        block = np.random.default_rng(SEED).random((protocol._BLOCK, N))
        return protocol._Diagnostics().fold, (block, 0.0, N)

    return per_call_us({side: fold_call(adn) for side, adn in libs.items()}, calls, repeats)


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


def static_path_cost(libs, kernels, fold):
    """``count_cost`` of static paths, plus the engine overhead per round:
    the median µs per round less the median path kernel time of each
    round's phase (every static path run has the same rounds), split into
    the folds' share and the loop's."""
    result = count_cost(libs, static_path_schedule)
    for side, adn in libs.items():
        record = adn.count(static_path_schedule(adn, 0))
        path_us = kernels[side]["path"]
        kernel_us = sum(getattr(record, f"rounds_{phase}") * path_us[f"{phase}_round"]["median_us"]
                        for phase in ("collection", "verification", "notification"))
        rows = adn.protocol._BLOCK
        folds = sum(-(-t.collection // rows) for t in record.per_k_trace)
        overhead = result[side]["median_run_us_per_round"] - kernel_us / record.rounds_total
        fold_us = folds * fold[side]["median_us"] / record.rounds_total
        result[side].update(overhead_us_per_round=round(overhead, 2),
                            fold_us_per_round=round(fold_us, 2),
                            loop_us_per_round=round(overhead - fold_us, 2))
    return result


def hook_points(adn):
    """The schedule's own lookup points in ``adn``'s modules, as
    (owner, attribute, stage)."""
    dynamics = adn.dynamics
    return ((dynamics.DynamicsSchedule, "_generators", "seed"),
            (dynamics, "ranrut", "ranrut"),
            (dynamics, "prune", "prune"),
            (dynamics, "_path_order", "shuffle"),
            (dynamics, "tree_topologies", "convert"),
            (dynamics, "gnp_topologies", "convert"),
            (dynamics, "path_topologies", "convert"))


def operand_reads(adn, delta):
    """What ``count`` reads of a snapshot when it comes into force."""
    operands = adn.collection_operands

    def read(topology):
        operands(topology, delta)
        topology.symmetric_arrays()

    return read


def serve(schedule, epochs, read):
    """Rounds 1 .. epochs of a T = 1 schedule, each snapshot passed to read."""
    topology_at = schedule.topology_at
    for r in range(1, epochs + 1):
        read(topology_at(r))


def staged_serve(adn, schedule, epochs, read):
    """``serve`` with a timer on every hook point of ``adn`` and on ``read``:
    per stage its nanoseconds (``schedule`` the rest) and its calls, and
    the total nanoseconds. Every hooked attribute is restored on return."""
    spent = dict.fromkeys(STAGES, 0)
    calls = dict.fromkeys(STAGES, 0)

    def timed(stage, fn):
        def wrapper(*args):
            t0 = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                spent[stage] += perf_counter_ns() - t0
                calls[stage] += 1
        return wrapper

    points = hook_points(adn)
    originals = [vars(owner)[attr] for owner, attr, _ in points]
    try:
        for (owner, attr, stage), original in zip(points, originals):
            setattr(owner, attr, timed(stage, original))
        t0 = perf_counter_ns()
        serve(schedule, epochs, timed("operands", read))
        total = perf_counter_ns() - t0
    finally:
        for (owner, attr, _), original in zip(points, originals):
            setattr(owner, attr, original)
    spent["schedule"] = total - sum(spent.values())
    return spent, calls, total


def served_epoch_costs(libs, epochs, repeats, master):
    """Per side and point, scaled µs per served epoch of T = 1 schedules:
    the plain and staged totals and each stage that fires."""
    result = {side: {} for side in libs}
    for family, n, delta, p in SERVED_POINTS:
        def sample(side, i):
            adn = libs[side]
            params = adn.ScheduleParams(family, n, delta, 1, master + i, p=p)
            plain, staged = adn.DynamicsSchedule(params), adn.DynamicsSchedule(params)
            read = operand_reads(adn, delta)

            def timed():
                t0 = perf_counter_ns()
                serve(plain, epochs, read)
                return perf_counter_ns() - t0

            plain_ns, plain_scale = scaled(timed)
            (spent, calls, total), scale = scaled(
                lambda: staged_serve(adn, staged, epochs, read))
            us = {stage: ns * scale / epochs / 1e3 for stage, ns in spent.items()}
            us.update(total=total * scale / epochs / 1e3,
                      plain=plain_ns * plain_scale / epochs / 1e3)
            return us, calls

        for side, runs in alternate(list(libs), repeats, sample).items():
            calls = {stage: sum(c[stage] for _, c in runs) for stage in STAGES}
            fired = [stage for stage in STAGES if calls[stage]]
            point = {stage: fastest_and_median([us[stage] for us, _ in runs])
                     for stage in ("plain", "total", *fired, "schedule")}
            if family == "random-tree":
                point["over_bound_share"] = round(calls["prune"] / calls["ranrut"], 3)
            key = f"{family} n={n} delta={delta}" + ("" if p is None else f" p={p}")
            result[side][key] = point
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


def startup_costs(sources):
    """Per side, of fresh interpreters importing from its ``src`` in
    ``sources``: the top-level modules ``import adncount.cli`` adds to
    numpy's, and the scaled median milliseconds of the import."""
    def python(side, body):
        return [sys.executable, "-c", f"import sys; sys.path.insert(0, {sources[side]!r}); {body}"]

    top_level = "{name.partition('.')[0] for name in sys.modules}"

    def start(side, _):
        def timed():
            t0 = perf_counter()
            subprocess.run(python(side, "import adncount.cli"), check=True)
            return perf_counter() - t0

        seconds, scale = scaled(timed)
        return seconds * scale * 1e3

    result = {}
    for side, ms in alternate(list(sources), STARTUP_RUNS, start).items():
        added = subprocess.run(
            python(side, f"import numpy; before = {top_level}; import adncount.cli; "
                         f"print(*sorted({top_level} - before))"),
            check=True, capture_output=True, text=True).stdout.split()
        result[side] = {"modules": added, "median_ms": round(statistics.median(ms), 1)}
    return result


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
    sources = {"change": os.path.join(ROOT, "src")}
    if args.parent:
        libs = {"parent": load_parent(args.parent), **libs}
        sources = {"parent": os.path.join(os.path.abspath(args.parent), "src"), **sources}
    import numpy as np

    kernels = kernel_costs(libs, KERNEL_CALLS, REPEATS)
    fold = fold_cost(libs, KERNEL_CALLS, REPEATS)
    sections = {
        "served_epochs_us_T1": served_epoch_costs(libs, EPOCHS, REPEATS, SEED),
        "kernels_us_per_call": kernels,
        "fold_us_per_block": fold,
        "count_T1_delta4": count_cost(libs, tree_T1_schedule),
        "count_static_path": static_path_cost(libs, kernels, fold),
        "acceptance_grids": acceptance_grid_passes(libs),
        "startup": startup_costs(sources),
    }
    report = {
        "tag": args.tag,
        "parent_checkout": args.parent,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_ref_s": CAL_REF_S,
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
