"""``bench/snapshot_stages.py`` times served epochs by wrapping the
schedule's own lookup points (``hook_points``). A renamed hook point would
surface only as a KeyError in the bench, and one the schedule no longer
calls would leave its stage at 0, so both are checked here on short
staged serves, together with what the wrapping must not change: the
served snapshots, and every hooked attribute once the serve returns or
raises."""

import importlib.util
import sys
from pathlib import Path

import pytest

import adncount
from adncount import DynamicsSchedule, ScheduleParams, dynamics

ROOT = Path(__file__).resolve().parent.parent
EPOCHS = 64
# (n, delta, p) per family, and the stages its served epochs fire
POINTS = {
    "random-tree": ((12, 2, None), {"seed", "ranrut", "prune", "convert", "operands"}),
    "gnp": ((12, 11, 0.3), {"seed", "convert", "operands"}),
    "path": ((12, 2, None), {"seed", "shuffle", "convert", "operands"}),
    "star": ((12, 11, None), {"operands"}),
}


@pytest.fixture
def stages(monkeypatch):
    # the bench loads perfbench/run.py, which pins BLAS to one thread
    # through the environment and registers itself in sys.modules: setting
    # both here first restores them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(sys.modules, "perfbench_run", None)
    spec = importlib.util.spec_from_file_location(
        "snapshot_stages", ROOT / "bench" / "snapshot_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked_attributes(stages):
    return {(owner, attr): vars(owner)[attr] for owner, attr, _ in stages.hook_points(adncount)}


def test_every_hooked_name_exists(stages):
    points = stages.hook_points(adncount)
    assert {stage for _, _, stage in points} | {"operands"} == set(stages.STAGES)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in points if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("family", POINTS)
def test_staged_serve(stages, family):
    (n, delta, p), fired = POINTS[family]
    params = ScheduleParams(family, n, delta, 1, 3, p=p)
    originals = hooked_attributes(stages)
    served = []
    read = stages.operand_reads(adncount, delta)

    def record(topology):
        served.append(topology)
        read(topology)

    spent, calls, total = stages.staged_serve(adncount, DynamicsSchedule(params), EPOCHS, record)
    assert all(vars(owner)[attr] is original for (owner, attr), original in originals.items())
    unwrapped = DynamicsSchedule(params)
    assert served == [unwrapped.topology_at(r) for r in range(1, EPOCHS + 1)]
    assert calls["operands"] == EPOCHS
    assert {stage for stage, count in calls.items() if count} == fired
    assert sum(spent.values()) == total
    assert min(spent.values()) >= 0


def test_hooks_are_restored_after_an_exception(stages, monkeypatch):
    schedule = DynamicsSchedule(ScheduleParams("random-tree", 12, 4, 1, 3))

    def failing(*args):
        raise RuntimeError("no tree")

    # epoch 0 is built already; epoch 1's batch reaches the failing draw
    monkeypatch.setattr(dynamics, "ranrut", failing)
    originals = hooked_attributes(stages)
    with pytest.raises(RuntimeError, match="no tree"):
        stages.staged_serve(adncount, schedule, EPOCHS, stages.operand_reads(adncount, 4))
    assert all(vars(owner)[attr] is original for (owner, attr), original in originals.items())
