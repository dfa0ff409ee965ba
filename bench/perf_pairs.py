"""Paired benchmark runs of two checkouts: ``perfbench/run.py`` in each,
alternately, over a list of seeds.

Run from anywhere; each side runs in its own checkout, importing that
checkout's ``src/``:

    python3 bench/perf_pairs.py --parent ../parent --change . \\
        --workload tree-churn --seeds 521-530 --seconds 10

Pair i runs ``perfbench/run.py --workload W --seed SEEDS[i] --seconds S
--trace 0`` once in each checkout; even pairs run the parent first, odd
pairs the change, so that drift in the machine's speed does not favour
one side. Each run's metrics are printed as it ends. At the end, for every
end-to-end metric of ``BENCHMARK.json`` (read from the change's checkout,
for the direction in which each metric is better), it prints the medians
and quartiles of both sides, the change of the median, and the number of
pairs the change won (ties count for neither side). A run that is not
``correct`` or that reports failed runs is flagged; its metrics still count.
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


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its final JSON object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one pair per seed: 521-530, or 1,4,9")
    parser.add_argument("--seconds", required=True, type=float)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {side: {m: [] for m in better} for side in sides}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            metrics = {m: result["metrics"][m]["value"] for m in better}
            flag = "" if result["correct"] and result["failed"] == 0 else "  NOT CORRECT"
            print(f"seed {seed} {side}: "
                  + " ".join(f"{m} {v:.6g}" for m, v in metrics.items()) + flag, flush=True)
            for m, v in metrics.items():
                values[side][m].append(v)

    pairs = len(args.seeds)
    print(f"{args.workload}: {pairs} pairs, --seconds {args.seconds}")
    for m, direction in better.items():
        parent, change = values["parent"][m], values["change"][m]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        print(f"  {m} ({direction} is better): parent {pm:.6g} [{p1:.6g}, {p3:.6g}], "
              f"change {cm:.6g} [{c1:.6g}, {c3:.6g}], median {100 * (cm / pm - 1):+.1f} %, "
              f"change wins {wins}/{pairs}, parent quartile distance {p3 - p1:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
