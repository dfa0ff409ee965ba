"""Paired benchmark runs of two checkouts: ``perfbench/run.py`` in each,
alternately, over a list of seeds.

Run from anywhere; each side runs in its own checkout, importing that
checkout's ``src/``:

    python3 bench/perf_pairs.py --parent ../parent --change . \\
        --workload static-path,tree-churn --seeds 521-530 --seconds 10

For each workload W of the comma-separated list, in turn, pair i runs
``perfbench/run.py --workload W --seed SEEDS[i] --seconds S --trace 0``
once in each checkout; even pairs run the parent first, odd pairs the
change, so that drift in the machine's speed does not favour one side.
Each run's metrics are printed as it ends. At the end, per workload and
for every end-to-end metric of ``BENCHMARK.json`` (read from the change's
checkout, for the direction in which each metric is better), it prints
the medians and quartiles of both sides, the change of the median, and
the number of pairs the change won (ties count for neither side), and a
verdict under the rules by which a change is accepted (``verdict``). A run
that is not ``correct`` or that reports failed runs is flagged, and so is
a pair whose two sides print different ``csv_sha256 ... (round 0)``
lines (``OUTPUT DIFFERS``); either makes the exit status 1, and the
metrics of the runs still count. After the pairs, each side runs each
workload once more with ``--trace 1 --seconds 1`` on the first seed: the
traced run checks, besides the outputs, one kernel call per simulated
round, and one that is not ``correct`` makes the exit status 1 too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """Seeds from ``"521-530"``, ``"1,4,9"`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[dict, str]:
    """One ``perfbench/run.py`` run in ``checkout``: its final JSON object,
    and its ``csv_sha256`` line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run in {checkout} exited {done.returncode}:\n{done.stderr}")
    digest = next((line for line in lines if ": csv_sha256 " in line), None)
    return json.loads(lines[-1]), digest


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is better; a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's verdict over paired runs, ``better`` being "higher" or
    "lower" and ``bound`` the metric's relative bound in BENCHMARK.json:

    - ``gain``: the change wins at least 9 of every 10 pairs, and its median
      is better than the parent's by more than the parent's quartile
      distance;
    - ``regression``: the change's median is worse than the parent's by
      more than ``bound`` of the parent's median;
    - ``unresolved``: neither, and the parent's quartile distance exceeds
      ``bound`` of its median, so a regression could hide in its spread;
    - ``flat``: anything else.
    """
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if 10 * wins(parent, change, better) >= 9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return "gain"
    if sign * (cm - pm) < -bound * abs(pm):
        return "regression"
    if p3 - p1 > bound * abs(pm):
        return "unresolved"
    return "flat"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, type=lambda text: text.split(","),
                        help="one workload, or several: static-path,tree-churn")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one pair per seed: 521-530, or 1,4,9")
    parser.add_argument("--seconds", required=True, type=float)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bound = {m["name"]: m["bound"] for m in end_to_end}
    sides = {"parent": args.parent, "change": args.change}
    flagged = 0
    # per workload, side and metric: the values of every pair
    values = {w: {side: {m: [] for m in better} for side in sides} for w in args.workload}
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            digests = {}
            for side in order:
                result, digests[side] = run_once(sides[side], workload, seed, args.seconds)
                metrics = {m: result["metrics"][m]["value"] for m in better}
                ok = result["correct"] and result["failed"] == 0
                flagged += not ok
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{m} {v:.6g}" for m, v in metrics.items())
                      + ("" if ok else "  NOT CORRECT"), flush=True)
                for m, v in metrics.items():
                    values[workload][side][m].append(v)
            if digests["parent"] is None or digests["parent"] != digests["change"]:
                flagged += 1
                print(f"{workload} seed {seed}: OUTPUT DIFFERS: parent {digests['parent']!r}, "
                      f"change {digests['change']!r}", flush=True)

    for workload in args.workload:
        for side, checkout in sides.items():
            result, _ = run_once(checkout, workload, args.seeds[0], 1, trace=1)
            ok = result["correct"] and result["failed"] == 0
            flagged += not ok
            print(f"{workload} seed {args.seeds[0]} {side} --trace 1: "
                  + ("correct" if ok else "NOT CORRECT"), flush=True)

    pairs = len(args.seeds)
    for workload in args.workload:
        print(f"{workload}: {pairs} pairs, --seconds {args.seconds}")
        for m, direction in better.items():
            parent, change = values[workload]["parent"][m], values[workload]["change"][m]
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            won = wins(parent, change, direction)
            print(f"  {m} ({direction} is better): parent {pm:.6g} [{p1:.6g}, {p3:.6g}], "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}], median {100 * (cm / pm - 1):+.1f} %, "
                  f"change wins {won}/{pairs}, parent quartile distance {p3 - p1:.6g}")
            print(f"    verdict: {verdict(parent, change, direction, bound[m])}")
    if flagged:
        print(f"{flagged} runs (traced ones included) were not correct or reported failed "
              "runs, or pairs whose outputs differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
