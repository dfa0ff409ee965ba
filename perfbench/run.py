"""adncount benchmark: sweep throughput, single-run latency, set-up time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tree-churn --seed 1 --seconds 30 --trace 0

Each workload runs whole rounds until ``--seconds`` have passed. A round
is one sweep at n = 30 through ``adncount.cli.main`` (``sweep`` with CSV
and JSON export, then ``check-bound`` on the JSON), followed by one
``count(DynamicsSchedule(...), ProtocolConfig(...))`` call per sweep run
with the same derived seed. Everything runs in this one process with
``--workers 1``. Each timed step is scaled by the machine's speed at that
moment (see ``calibrate``). Outputs are checked after every round,
untimed; see README.md for the checks and the metrics.

``--trace 1`` runs the first two rounds untraced, then with spans around
every layer's public functions, then untraced again, and reports
per-layer calls and self time and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# One BLAS thread, set before numpy loads and inherited by the set-up
# probes. adncount never calls BLAS on its timed paths, but an idle pool
# thread spinning at import made set-up times bimodal on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

N = 30
C = 1.01
SETUP_REPEATS = 9  # fresh processes per run; setup_s is their median
TRACE_ROUNDS = 2  # rounds per pass of a traced run
CAL_LOOPS = 1800  # size of one calibration slice, about 10 ms
CAL_REF_S = 0.010  # calibration time at which scaled timings are expressed


@dataclass(frozen=True)
class Workload:
    family: str
    delta: int
    T: float
    p: float | None
    reps: int  # runs per sweep: one sweep lasts 1 to 3 s, see calibrate()

    @property
    def tolerant(self) -> bool:
        return self.family == "gnp"

    def spec(self, master_seed: int) -> dict:
        return {
            "families": [self.family],
            "n_range": [N, N],
            "T_set": ["inf" if self.T == math.inf else self.T],
            "repetitions": self.reps,
            "master_seed": master_seed,
            "mode": "experimental",
            "c": C,
            "delta_rule": "largest-power-of-two",
            "delta_cap": None if self.family == "gnp" else self.delta,
            "p_set": [] if self.p is None else [self.p],
        }

    def expect(self, seed: int) -> dict:
        return {"family": self.family, "n": N, "delta": self.delta, "T": self.T,
                "p": self.p, "c": C, "seed": seed, "tolerant": self.tolerant}


WORKLOADS = {
    # a fresh random tree every round: the snapshot pipeline dominates
    "tree-churn": Workload("random-tree", 4, 1, None, reps=2),
    # one snapshot per run, 40 769 rounds: the kernels and engine loop dominate
    "static-path": Workload("path", 2, math.inf, None, reps=2),
    # G(n, p) redrawn every 10 rounds: the disconnection-tolerant path
    "gnp-tolerant": Workload("gnp", N - 1, 10, 0.3, reps=4),
}


def master_seed(workload: str, seed: int, index: int) -> int:
    """The sweep's master seed, derived here so inputs never depend on the program."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def load_library():
    """Import adncount from this checkout's src/, and from nowhere else."""
    pkg = os.path.join(SRC, "adncount")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"perfbench: {pkg} not found; run from the root of an adncount checkout")
    sys.path.insert(0, SRC)
    import adncount
    import adncount.cli  # noqa: F401  (the sweep path goes through the CLI)

    if os.path.dirname(os.path.abspath(adncount.__file__)) != pkg:
        sys.exit(f"perfbench: imported adncount from {adncount.__file__}, not {pkg}")
    return adncount


def calibrate() -> float:
    """Wall time of a fixed slice of interpreter and small-array work.

    It never touches adncount, so it tracks only how fast the machine runs
    at the moment. A shared 2-core virtual machine was seen to change speed
    by up to 1.6x within minutes (other tenants, clock boost), so every
    timed sample is scaled by CAL_REF_S over the mean of the calibrations
    just before and just after it. Samples are kept to a few seconds each,
    so that the two calibrations see the speed the sample saw.
    """
    values = np.arange(N, dtype=float)
    idx = np.arange(2 * N) % N
    acc = 0
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        row = {j: (j, i) for j in range(16)}
        acc += len(sorted(row, reverse=True))
        acc += np.bincount(idx, weights=values[idx], minlength=N).size
    return time.perf_counter() - t0


def scales(cal: list[float]) -> list[float]:
    """Scale factor of each sample between consecutive calibrations."""
    return [2 * CAL_REF_S / (a + b) for a, b in zip(cal, cal[1:])]


def measure_setup(spec_path: str) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh processes, after one warm-up.

    They are not scaled: start-up is partly kernel work (exec, mapping
    numpy's libraries), which the calibration slice does not track. On the
    2-core machine of README.md, scaling moved set-up times as far as the
    machine's speed did, in the opposite direction.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, probe, ROOT, spec_path],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        if i:
            times.append(float(done.stdout.split()[-1]) - t0)
    return times


@dataclass
class Round:
    """Timed results of one round, plus what the checks need."""

    master_seed: int
    sweep_s: float  # raw wall time
    count_s: list[float]
    sweep_scale: float
    count_scale: list[float]
    records: list  # RunRecord per count call, in rep order
    failed: int
    csv_path: str
    json_path: str
    report: str  # check-bound output

    @property
    def timed_s(self) -> float:
        """Scaled time of the sweep and count steps."""
        return self.sweep_s * self.sweep_scale + sum(
            t * k for t, k in zip(self.count_s, self.count_scale))


def run_round(lib, name: str, wl: Workload, seed: int, index: int) -> Round:
    """One sweep through the CLI, then the same runs as single ``count`` calls."""
    base = os.path.join(OUT, name)
    spec_path, csv_path, json_path = base + ".spec.json", base + ".csv", base + ".json"
    ms = master_seed(name, seed, index)
    with open(spec_path, "w") as fh:
        json.dump(wl.spec(ms), fh)
    report = io.StringIO()
    cal = [calibrate()]
    t0 = time.perf_counter()
    rc = lib.cli.main(["sweep", "--spec", spec_path, "--workers", "1",
                       "--out-csv", csv_path, "--out-json", json_path])
    with contextlib.redirect_stdout(report):
        rc = rc or lib.cli.main(["check-bound", "--in-json", json_path])
    sweep_s = time.perf_counter() - t0
    cal.append(calibrate())
    if rc != 0:
        sys.exit(f"perfbench: adncount sweep/check-bound exited {rc}")

    count_s, records, failed = [], [], 0
    config = lib.ProtocolConfig(c=C, disconnection_tolerant=wl.tolerant)
    for rep in range(wl.reps):
        params = lib.ScheduleParams(family=wl.family, n=N, delta=wl.delta, T=wl.T,
                                    seed=lib.derive_seed(ms, 0, rep), p=wl.p)
        t0 = time.perf_counter()
        try:
            rec = lib.count(lib.DynamicsSchedule(params), config)
        except lib.RoundLimitExceeded as exc:
            rec = exc.record
            failed += 1
        count_s.append(time.perf_counter() - t0)
        cal.append(calibrate())
        records.append(rec)
    sweep_scale, *count_scale = scales(cal)
    return Round(ms, sweep_s, count_s, sweep_scale, count_scale, records, failed,
                 csv_path, json_path, report.getvalue())


def check_round(lib, checks, reference, wl: Workload, rnd: Round,
                sample: bool) -> tuple[list[str], int, str]:
    """Check every output of a round; returns (errors, failed sweep rows, CSV SHA-256).

    With ``sample``, one run chosen by the master seed is also replayed
    through the dense reference, and corrupted copies of it must fail the
    checks (the negative control).
    """
    with open(rnd.csv_path, "rb") as fh:
        csv_bytes = fh.read()
    with open(rnd.json_path) as fh:
        rows = json.load(fh)["rows"]
    errs = checks.csv_errors(csv_bytes.decode(), rows)
    errs += checks.bound_errors(rnd.report)
    if len(rows) != wl.reps:
        errs.append(f"sweep produced {len(rows)} rows, expected {wl.reps}")
    failed = 0
    for rep, (row, rec) in enumerate(zip(rows, rnd.records)):
        swept = lib.RunRecord.from_json_dict(row["record"])
        failed += swept.status != "ok"
        expect = wl.expect(lib.derive_seed(rnd.master_seed, 0, rep))
        # a run that hit the round cap is counted as failed, not checked
        errs += [e for r in (swept, rec) if r.status == "ok"
                 for e in checks.record_errors(r, expect)]
        errs += checks.row_errors(rec, row["record"])
    rep = rnd.master_seed % wl.reps
    if sample and rep < len(rows):
        rec = rnd.records[rep]
        params = lib.ScheduleParams(family=wl.family, n=N, delta=wl.delta, T=wl.T,
                                    seed=rec.seed, p=wl.p)
        ref = reference.replay(params, C, wl.tolerant, rec.max_rounds)
        errs += checks.reference_errors(ref, rec)
        missed = checks.negative_control(rec, rows[rep]["record"], ref, wl.expect(rec.seed))
        errs += [f"negative control: corrupted {m} passed the checks" for m in missed]
    return errs, failed, hashlib.sha256(csv_bytes).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    import checks
    import reference
    import spans

    name, wl = args.workload, WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    errors: list[str] = []
    attempted = failed = 0
    metrics: dict[str, tuple[float, str]] = {}

    def account(rnd: Round, sample: bool) -> str:
        nonlocal attempted, failed
        errs, failed_rows, digest = check_round(lib, checks, reference, wl, rnd, sample)
        errors.extend(errs)
        attempted += 2 * wl.reps
        failed += failed_rows + rnd.failed
        return digest

    if args.trace:
        # rounds 0..TRACE_ROUNDS-1 untraced, traced, then untraced again: the
        # two untraced passes bracket the traced one for the overhead figure
        # (each round is checked before the next one overwrites its files;
        # the checks call no traced function)
        def one_pass(sample: bool) -> tuple[list[Round], list[str]]:
            rounds, digests = [], []
            for i in range(TRACE_ROUNDS):
                rounds.append(run_round(lib, name, wl, args.seed, i))
                digests.append(account(rounds[-1], sample=sample and i == 0))
            return rounds, digests

        def records(rounds: list[Round]) -> list[dict]:
            return [rec.to_json_dict() for rnd in rounds for rec in rnd.records]

        plain, digests = one_pass(sample=True)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_digests = one_pass(sample=False)
        finally:
            tracer.uninstall()
        again, again_digests = one_pass(sample=False)
        for rounds, other in ((traced, traced_digests), (again, again_digests)):
            if other != digests:
                errors.append("a repeated sweep gave another CSV")
            if records(rounds) != records(plain):
                errors.append("repeated count calls gave other records")
        if tracer.kernel_calls() != tracer.rounds:
            errors.append(f"trace saw {tracer.kernel_calls()} kernel calls "
                          f"for {tracer.rounds} simulated rounds")
        tracer.write_csv(os.path.join(OUT, f"{name}.trace.csv.gz"))
        metrics.update(tracer.per_layer())
        untraced_s = sum(rnd.timed_s for rnd in plain + again) / 2
        metrics["trace.overhead_s"] = (sum(rnd.timed_s for rnd in traced) - untraced_s, "s")
        digest = digests[0]
    else:
        spec_path = os.path.join(OUT, f"{name}.setup.json")
        with open(spec_path, "w") as fh:
            json.dump(wl.spec(master_seed(name, args.seed, 0)), fh)
        setup = measure_setup(spec_path)
        rounds, digests = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rnd = run_round(lib, name, wl, args.seed, len(rounds))
            digests.append(account(rnd, sample=not rounds))
            rounds.append(rnd)
        digest = digests[0]
        sweep_runs = wl.reps * len(rounds)
        count_s = [t for rnd in rounds for t in rnd.count_s]
        count_scale = [k for rnd in rounds for k in rnd.count_scale]
        # every sweep has wl.reps runs: throughput of the median sweep
        raw = {
            "sweep_runs_per_s": wl.reps / statistics.median(r.sweep_s for r in rounds),
            "count_s_p50": statistics.median(count_s),
        }
        metrics["sweep_runs_per_s"] = (
            wl.reps / statistics.median(r.sweep_s * r.sweep_scale for r in rounds), "runs/s")
        metrics["count_s_p50"] = (
            statistics.median(t * k for t, k in zip(count_s, count_scale)), "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        all_scales = [r.sweep_scale for r in rounds] + count_scale
        print(f"{name}: {len(rounds)} rounds, {sweep_runs} sweep runs, "
              f"{len(count_s)} count calls, {len(setup)} set-ups; machine speed "
              f"{statistics.median(all_scales):.4f} of the reference (median scale)")
        for metric, value in raw.items():
            print(f"{name}: unscaled {metric} {value} {metrics[metric][1]}")

    print(f"{name}: attempted {attempted}, failed {failed}")
    print(f"{name}: csv_sha256 {digest} (round 0)")
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} {value} {unit}")
    for err in errors[:20]:
        print(f"perfbench: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
