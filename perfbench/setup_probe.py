"""Set-up probe: one fresh process does what precedes a sweep's first run.

Usage: python3 setup_probe.py ROOT SPEC_JSON

Imports adncount from ROOT/src as ``adncount sweep`` does, parses the
spec, derives every run seed, then prints ``time.monotonic()``. The
parent reads the clock before starting this process; the difference is
the set-up time. CLOCK_MONOTONIC is shared by all processes on Linux.
"""

import json
import os
import sys
import time

root, spec_path = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))

import adncount.cli  # noqa: E402  (the console script's entry module)
from adncount import SweepSpec, derive_seed  # noqa: E402

with open(spec_path) as fh:
    spec = SweepSpec.from_json_dict(json.load(fh))
seeds = [
    derive_seed(spec.master_seed, ci, rep)
    for ci, _ in enumerate(spec.settings())
    for rep in range(spec.repetitions)
]
print(repr(time.monotonic()))
