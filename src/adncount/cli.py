"""Command-line interface.

Subcommands: generate (topology JSON), run (single counting execution),
sweep (parameter grid to CSV/JSON), check-tables (tree-count self check),
check-bound (delta * n^4 envelope over an exported sweep).

Exit codes: 0 success, 2 usage or parameter error, 3 round limit hit.
All output is a pure function of the flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import experiment
from .dynamics import (FAMILY_NAMES, FULL_DEGREE_FAMILIES, STATIC_T, UNDRAWN_FIRST,
                       DynamicsSchedule, ScheduleParams, canonical_family, read_T, write_T)
from .errors import CountingError, InvalidParameters
from .protocol import MODES, ProtocolConfig
from .trees import CHECK_TABLES_N_MAX, check_tables

def _parse_T(value: str):
    try:
        T = math.inf if read_T(value) == math.inf else int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"T must be a positive integer or {STATIC_T!r}, got {value!r}")
    if T < 1:
        raise argparse.ArgumentTypeError("T must be >= 1")
    return T


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adncount",
        description="Incremental counting on anonymous dynamic networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit one topology snapshot as JSON")
    g.add_argument("--family", required=True, choices=FAMILY_NAMES)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--delta", type=int, default=None)
    g.add_argument("--p", type=float, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="output file (default stdout)")

    r = sub.add_parser("run", help="run one counting execution")
    r.add_argument("--family", required=True, choices=FAMILY_NAMES)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--delta", type=int, default=None)
    r.add_argument("--T", type=_parse_T, default=math.inf)
    r.add_argument("--p", type=float, default=None)
    r.add_argument("--c", type=float, default=ProtocolConfig.c)
    r.add_argument("--mode", choices=MODES, default=ProtocolConfig.mode)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--max-rounds", type=int, default=None)
    r.add_argument("--json", action="store_true", help="print the full record as JSON")

    s = sub.add_parser("sweep", help="run a parameter sweep")
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="SweepSpec JSON file")
    source.add_argument("--grid", choices=FAMILY_NAMES,
                        help="one family's standard study grid")
    s.add_argument("--full", action="store_true",
                   help="with --grid: n up to 75 and 100 repetitions instead "
                        "of the desk-scale n <= 30 with 10")
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out-csv", default=None)
    s.add_argument("--out-json", default=None)

    t = sub.add_parser("check-tables", help="verify tree counts against enumeration")
    t.add_argument("--n-max", type=int, default=8,
                   help=f"largest tree size to enumerate (at most {CHECK_TABLES_N_MAX})")

    b = sub.add_parser("check-bound", help="check mean rounds against delta * n^4")
    b.add_argument("--in-json", required=True, help="exported sweep JSON")

    return parser


def _params_from_flags(args, T, delta_defaults) -> ScheduleParams:
    """Schedule parameters from the flags; --delta may be omitted for the
    families in ``delta_defaults``, where it becomes n - 1."""
    family = canonical_family(args.family)
    delta = args.delta
    if delta is None and family in delta_defaults:
        delta = args.n - 1
    if delta is None:
        raise InvalidParameters(f"{family} requires --delta")
    return ScheduleParams(family=family, n=args.n, delta=delta, T=T, seed=args.seed, p=args.p)


def _cmd_generate(args) -> int:
    # The round-1 snapshot is epoch 0 for every T; T = 1 is merely a value
    # that every family accepts. An undrawn epoch 0 depends on no degree
    # bound, so --delta may be omitted for those families too.
    params = _params_from_flags(args, 1, (*FULL_DEGREE_FAMILIES, *UNDRAWN_FIRST))
    text = json.dumps(DynamicsSchedule(params).topology_at(1).to_json_dict()) + "\n"
    if args.out:
        with experiment.open_file(args.out, "write JSON to", "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    params = _params_from_flags(args, args.T, FULL_DEGREE_FAMILIES)
    record = experiment.run_one(params, ProtocolConfig(args.c, args.mode, args.max_rounds))
    if args.json:
        sys.stdout.write(json.dumps(record.to_json_dict()) + "\n")
    else:
        sys.stdout.write(
            f"estimate: {record.estimate}\n"
            f"status: {record.status}\n"
            f"rounds_total: {record.rounds_total} "
            f"(collection {record.rounds_collection}, "
            f"verification {record.rounds_verification}, "
            f"notification {record.rounds_notification})\n"
        )
    return 3 if record.status == "round_limit" else 0


def _cmd_sweep(args) -> int:
    if args.grid:
        spec = experiment.standard_grid(canonical_family(args.grid), full=args.full)
    elif args.full:
        raise InvalidParameters("--full applies to --grid only; a spec file sets its own grid")
    else:
        spec = experiment.SweepSpec.from_json_dict(experiment.read_json(args.spec))
    experiment.check_workers(args.workers)
    # refuse an unwritable output before the first run; appending keeps the
    # bytes of an existing file until the export writes it
    for path, action in ((args.out_csv, "write CSV to"), (args.out_json, "write JSON to")):
        if path:
            with experiment.open_file(path, action, "a"):
                pass
    result = experiment.run_sweep(spec, workers=args.workers)
    if args.out_csv:
        experiment.export_csv(result, args.out_csv)
    if args.out_json:
        experiment.export_json(result, args.out_json)
    if not args.out_csv and not args.out_json:
        sys.stdout.write(experiment.csv_text(result))
    return 0


def _cmd_check_tables(args) -> int:
    ok, lines = check_tables(args.n_max)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def _cmd_check_bound(args) -> int:
    result = experiment.load_json(args.in_json)
    rows = experiment.check_bound(result)
    for row in rows:
        s = row["setting"]
        mean = "n/a" if row["rounds_mean"] is None else repr(row["rounds_mean"])
        sys.stdout.write(
            f"{s.family} n={s.n} delta={s.delta} "
            f"T={write_T(s.T)}"
            f"{'' if s.p is None else f' p={s.p!r}'}: "
            f"mean={mean} bound={row['bound']} within={row['within']}\n"
        )
    return 0


_DISPATCH = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "check-tables": _cmd_check_tables,
    "check-bound": _cmd_check_bound,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (CountingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
