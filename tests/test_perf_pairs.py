"""``bench/perf_pairs.py`` prints one verdict per workload and metric under
the rules by which a change is accepted; the rule is checked here on
synthetic paired values, without starting a run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# ten parent runs: median 1.045, quartile distance 0.045
PARENT = [1.0 + i / 100 for i in range(10)]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "bench" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("change, better, want", [
    # every pair 10 % lower: wins 10/10, median 0.1045 below, past 0.045
    ([0.9 * p for p in PARENT], "lower", "gain"),
    # 9 of 10 is enough
    ([0.9 * p for p in PARENT[:9]] + [1.5], "lower", "gain"),
    # 8 of 10 is not, however far the median moves
    ([0.5 * p for p in PARENT[:8]] + [1.5, 1.5], "lower", "flat"),
    # 10 of 10, but the median moves 0.03, inside the quartile distance
    ([p - 0.03 for p in PARENT], "lower", "flat"),
    # the same figures where higher is better: the change loses every pair
    ([0.9 * p for p in PARENT], "higher", "flat"),
    ([1.1 * p for p in PARENT], "higher", "gain"),
    # worse by 30 % of the median, past the 25 % bound, in either direction
    ([1.3 * p for p in PARENT], "lower", "regression"),
    ([0.7 * p for p in PARENT], "higher", "regression"),
    # worse by 20 %: inside the bound
    ([1.2 * p for p in PARENT], "lower", "flat"),
])
def test_verdict_on_a_tight_parent(pairs, change, better, want):
    assert pairs.verdict(PARENT, change, better, 0.25) == want


def test_verdict_on_a_spread_parent(pairs):
    # quartiles 0.7 and 1.3 around a median of 1.0: a distance of 60 % of
    # the median, past the 25 % bound, hides anything short of a regression
    parent = [0.5, 0.7, 0.7, 0.7, 1.0, 1.0, 1.3, 1.3, 1.3, 1.5]
    assert pairs.verdict(parent, [1.2 * p for p in parent], "lower", 0.25) == "unresolved"
    assert pairs.verdict(parent, parent, "lower", 0.25) == "unresolved"
    assert pairs.verdict(parent, parent, "lower", 0.75) == "flat"
    assert pairs.verdict(parent, [1.3 * p for p in parent], "lower", 0.25) == "regression"
    assert pairs.verdict(parent, [0.3 * p for p in parent], "lower", 0.25) == "gain"
