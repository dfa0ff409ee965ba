"""Theoretical mode on static streams, far past the sizes that its fixed
collection budgets let it reach at the default round cap.

Run from the root of a checkout; it imports ``adncount`` from that
checkout's ``src/``:

    python3 bench/theoretical_static.py
    python3 bench/theoretical_static.py --path-n 3,8 --star-n 3,4 --out results

Each run is one ``count`` in theoretical mode, at c = ``C`` and
``max_rounds = MAX_ROUNDS``, on a static stream: a path at delta = 2 and
T = inf for every n of ``--path-n``, and a star (delta = n - 1) for every
n of ``--star-n``. Star n = 22 is the largest star whose tau(n) fits in
128 bits. The budget tau(k) = k * ceil((2*delta)^k * ln k) makes such a
run take up to 1e37 rounds; ``count`` runs only those up to each
collection's float fixed point and accounts the rest.

It writes ``BENCH_theoretical.json`` (next to ``bench/`` unless ``--out``
says otherwise) with the machine's core count, the Python and numpy
versions, and per run the family, n, delta, estimate, ``rounds_total``
and wall time in seconds, and prints the same object. It exits 1 when an
estimate is not n.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
C = 2.4  # theoretical mode needs c > log2(5)
MAX_ROUNDS = 10**40
PATH_N = (3, 5, 10, 15, 20, 25, 30)
STAR_N = tuple(range(3, 23))


def sizes(text: str) -> tuple[int, ...]:
    return tuple(int(n) for n in text.split(","))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--path-n", type=sizes, default=PATH_N,
                        help="comma-separated path sizes, delta 2")
    parser.add_argument("--star-n", type=sizes, default=STAR_N,
                        help="comma-separated star sizes")
    parser.add_argument("--out", default=ROOT, help="directory for BENCH_theoretical.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from adncount import DynamicsSchedule, ProtocolConfig, ScheduleParams, count

    config = ProtocolConfig(c=C, mode="theoretical", max_rounds=MAX_ROUNDS)
    runs = []
    for family, ns in (("path", args.path_n), ("star", args.star_n)):
        for n in ns:
            params = ScheduleParams(family, n, 2 if family == "path" else n - 1, math.inf, 0)
            start = perf_counter()
            record = count(DynamicsSchedule(params), config)
            runs.append({"family": family, "n": n, "delta": params.delta,
                         "estimate": record.estimate, "rounds_total": record.rounds_total,
                         "wall_s": round(perf_counter() - start, 3)})
    report = {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "c": C,
        "max_rounds": MAX_ROUNDS,
        "runs": runs,
    }
    text = json.dumps(report, indent=2) + "\n"
    with open(os.path.join(args.out, "BENCH_theoretical.json"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0 if all(run["estimate"] == run["n"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
