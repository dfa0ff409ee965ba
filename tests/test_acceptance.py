"""Acceptance suite: one pass/fail line per criterion.

Run with: pytest tests/test_acceptance.py -v -s

The heavyweight fixture executes the full correctness grid (static path,
static star, random trees at T in {1, 1280}, G(n, 0.3) at T = 10, each for
n in [3, 30] with 10 derived seeds) once and shares it across criteria 1,
2 and 10.
"""

import math
import random

import pytest

from adncount import (
    DynamicsSchedule,
    ProtocolConfig,
    ScheduleParams,
    SweepSpec,
    canonical_form,
    check_bound,
    collection_budget,
    collection_operands,
    collection_round,
    count,
    csv_text,
    enumerate_rooted_trees,
    notification_round,
    notification_rounds,
    path,
    ranrut,
    run_sweep,
    sizes_table,
    verification_rounds,
)

from helpers import collection_budget_oracle, verification_rounds_oracle

GRID_SPECS = {
    "path-static": SweepSpec(
        families=("path",), n_range=(3, 30), T_set=(math.inf,), repetitions=10,
        master_seed=101, delta_rule="largest-power-of-two", delta_cap=2,
    ),
    "star-static": SweepSpec(
        families=("star",), n_range=(3, 30), T_set=(math.inf,), repetitions=10,
        master_seed=102,
    ),
    "tree-dynamic": SweepSpec(
        families=("random-tree",), n_range=(3, 30), T_set=(1, 1280),
        repetitions=10, master_seed=103, delta_rule="largest-power-of-two",
        delta_cap=4,
    ),
    "gnp-T10": SweepSpec(
        families=("gnp",), n_range=(3, 30), T_set=(10,), repetitions=10,
        master_seed=104, p_set=(0.3,),
    ),
}


def report(num, name, ok, detail):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def grid_results():
    return {name: run_sweep(spec, workers=1) for name, spec in GRID_SPECS.items()}


def test_criterion_01_exact_count(grid_results):
    total = 0
    wrong = 0
    for result in grid_results.values():
        for row in result.rows:
            total += 1
            if row.record.status != "ok" or row.record.estimate != row.record.n:
                wrong += 1
    report(1, "exact count", total == 1400 and wrong == 0,
           f"{total - wrong}/{total} runs returned the true n")


def test_criterion_02_collection_invariants(grid_results):
    violations = 0
    worst_cons = 0.0
    worst_energy = 0.0
    for result in grid_results.values():
        for row in result.rows:
            d = row.record.diagnostics
            n = row.record.n
            worst_cons = max(worst_cons, d.max_conservation_error / (1e-9 * n))
            worst_energy = max(worst_energy, d.max_nonleader_energy)
            if d.max_conservation_error > 1e-9 * n:
                violations += 1
            if d.max_nonleader_energy > 1.0 + 1e-12:
                violations += 1
            if d.min_energy < 0.0:
                violations += 1
    report(2, "conservation and unit-energy bound", violations == 0,
           f"0 violations; worst conservation at {worst_cons:.2e} of tolerance, "
           f"max non-leader energy {worst_energy!r}")


def test_criterion_03_polynomial_envelope():
    details = []
    ok = True
    for n in (10, 20, 30, 40):
        spec = SweepSpec(
            families=("path",), n_range=(n, n), T_set=(math.inf,),
            repetitions=10, master_seed=300 + n,
            delta_rule="largest-power-of-two", delta_cap=2,
        )
        row = check_bound(run_sweep(spec))[0]
        ok = ok and row["within"]
        details.append(f"n={n}: mean {row['rounds_mean']:.0f} < {row['bound']}")
    report(3, "mean rounds below delta*n^4 on static paths", ok, "; ".join(details))


def test_criterion_04_dynamics_speedup():
    spec = SweepSpec(
        families=("random-tree",), n_range=(25, 25), T_set=(1, 1280),
        repetitions=30, master_seed=404, delta_rule="largest-power-of-two",
        delta_cap=4,
    )
    aggs = run_sweep(spec).aggregates()
    by_T = {agg["setting"].T: agg["mean"] for agg in aggs}
    ok = by_T[1] < by_T[1280]
    report(4, "frequent changes speed up counting", ok,
           f"mean rounds T=1: {by_T[1]:.1f} < T=1280: {by_T[1280]:.1f}, 30 seeds")


def test_criterion_05_sizes_oracle():
    expected = [len(enumerate_rooted_trees(i)) for i in range(1, 9)]
    got = sizes_table(8)
    report(5, "tree counts equal brute-force enumeration", got == expected,
           f"sizes_table(8) = {got}")


def test_criterion_06_ranrut_uniformity():
    from scipy.stats import chi2

    n = 5
    draws = 90000
    classes = enumerate_rooted_trees(n)
    rng = random.Random(2025)
    counts = dict.fromkeys(classes, 0)
    for _ in range(draws):
        counts[canonical_form(ranrut(n, rng, "same-copy"))] += 1
    expected = draws / len(classes)
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    critical = chi2.ppf(1.0 - 0.001, df=len(classes) - 1)
    report(6, "same-copy sampler uniform over the 9 classes",
           statistic < critical,
           f"chi-square {statistic:.2f} < {critical:.2f} over {draws} draws")


def test_criterion_07_phase_length_formulas():
    checks = []
    ok = True
    for k, expect in ((2, 5), (10, 13)):
        got = verification_rounds(k, 1.01)
        oracle = verification_rounds_oracle(k, 1.01)
        ok = ok and got == oracle == expect
        checks.append(f"verification(k={k})={got}")
    for k in (2, 7):
        ok = ok and notification_rounds(k) == k
    got_tau = collection_budget(2, 1)
    ok = ok and got_tau == collection_budget_oracle(2, 1) == 6
    checks.append(f"tau(k=2,delta=1)={got_tau}")
    # the engine uses exactly these lengths
    rec = count(DynamicsSchedule(ScheduleParams("path", 2, 1, math.inf, 0)))
    ok = ok and rec.per_k_trace[0].verification == 5
    ok = ok and rec.per_k_trace[0].notification == 2
    report(7, "phase lengths match the independent oracle", ok,
           "; ".join(checks) + "; note: k=2 verification is 5, the quoted 6 "
           "contradicts the formula (see decisions ledger)")


def test_criterion_08_theoretical_budget_sound():
    import numpy as np

    cfg = ProtocolConfig(c=2.4, mode="theoretical")
    operands = collection_operands(path(4), 2)
    energy = np.array([0.0, 1.0, 1.0, 1.0])
    for _ in range(collection_budget(4, 2)):
        energy = collection_round(energy, operands)
    leader_after = float(energy[0])
    threshold = 4 - 1 - 4 ** (-2.4)
    rec = count(DynamicsSchedule(ScheduleParams("path", 4, 2, math.inf, 0)), cfg)
    report(8, "theoretical budget collects enough energy",
           leader_after >= threshold and rec.estimate == 4,
           f"e_leader {leader_after:.12f} >= {threshold:.12f} after "
           f"tau(4)={collection_budget(4, 2)} rounds; full run outputs {rec.estimate}")


def test_criterion_09_broadcast_bound():
    import numpy as np

    details = []
    ok = True
    for n in (3, 10, 25):
        pairs = path(n).symmetric_arrays()
        halt = np.zeros(n, dtype=bool)
        halt[0] = True
        rounds = 0
        while not halt[n - 1]:
            halt = notification_round(halt, pairs)
            rounds += 1
        ok = ok and rounds == n - 1 and halt.all()
        details.append(f"n={n}: {rounds} rounds")
    report(9, "halt reaches the far endpoint in exactly n-1 rounds", ok,
           "; ".join(details))


def test_criterion_10_byte_determinism(grid_results):
    # the pooled run is a re-run of the fixture's: its workers are forked
    # from this warm process, and on one CPU it runs in-process
    ok = True
    for name, spec in GRID_SPECS.items():
        baseline = csv_text(grid_results[name])
        pooled = csv_text(run_sweep(spec, workers=4))
        ok = ok and baseline == pooled
    report(10, "re-runs byte-identical across worker counts", ok,
           f"{len(GRID_SPECS)} grids, the fixture's workers 1 and a re-run at 4")
