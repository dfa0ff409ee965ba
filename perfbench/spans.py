"""In-memory span tracer installed around adncount's public functions.

Each layer function is wrapped where the engine looks it up (a module
global or a class attribute), only inside the benchmark process and only
between ``install`` and ``uninstall``. A span is (name, start, end,
parent, run id); spans live in flat arrays until ``write_csv`` writes
them out, gzipped, at the end.
A span's self time is its duration minus the durations of its direct
children, which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter_ns

import numpy as np

import adncount
from adncount import cli, dynamics, experiment, protocol
from adncount.dynamics import DynamicsSchedule
from adncount.experiment import SweepResult
from adncount.topology import Topology

_MISSING = object()


def _not_cached(slot, keyed=False):
    """Predicate "this call builds the cache": True when the slot is empty.

    If the slot is gone (the cache was reorganised), every call counts as
    a build rather than none.
    """

    def first_build(obj, *args):
        value = getattr(obj, slot, _MISSING)
        if value is _MISSING:
            return True
        if keyed:
            return args[0] not in value
        return value is None

    return first_build


# (owner, attribute, span name): the engine's lookup points per layer.
LOOKUPS = (
    (dynamics, "ranrut", "trees.ranrut"),
    (dynamics, "prune", "trees.prune"),
    (Topology, "__init__", "topology.Topology"),
    (dynamics, "tree_to_topology", "topology.tree_to_topology"),
    (dynamics, "gnp", "topology.gnp"),
    (DynamicsSchedule, "topology_at", "dynamics.topology_at"),
    (DynamicsSchedule, "__init__", "dynamics.schedule_init"),
    (protocol, "collection_round", "protocol.collection_round"),
    (protocol, "verification_round", "protocol.verification_round"),
    (protocol, "notification_round", "protocol.notification_round"),
    (protocol, "heard_round", "protocol.heard_round"),
    (adncount, "count", "protocol.count"),
    (experiment, "count", "protocol.count"),
    (experiment, "run_sweep", "experiment.run_sweep"),
    (experiment, "export_csv", "experiment.export_csv"),
    (experiment, "export_json", "experiment.export_json"),
    (SweepResult, "aggregates", "experiment.aggregates"),
    (experiment, "check_bound", "experiment.check_bound"),
    (cli, "main", "cli.main"),
    (dynamics, "derive_seed", "seeds.derive_seed"),
    (experiment, "derive_seed", "seeds.derive_seed"),
)

# Cached edge arrays: only the call that fills the cache is a span.
FIRST_BUILDS = (
    (Topology, "collection_arrays", _not_cached("_coll_arrays")),
    (Topology, "symmetric_arrays", _not_cached("_sym_arrays")),
    (Topology, "retention", _not_cached("_retention", keyed=True)),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in LOOKUPS] + ["topology.edge_arrays"]
))


class Tracer:
    """Collects spans; one instance per traced pass."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._run = -1
        self._runs = 0
        self._last_schedule = None
        self._last_topology = None
        self._saved: list[tuple[object, str, object]] = []
        self.snapshots = 0
        self.rounds = 0

    # -- wrapping ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, span_name):
        name_id = self._ids[span_name]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1

        return traced

    def _wrap_first_build(self, fn, first_build):
        traced = self._wrap(fn, "topology.edge_arrays")

        def maybe_traced(obj, *args):
            if first_build(obj, *args):
                return traced(obj, *args)
            return fn(obj, *args)

        return maybe_traced

    def _wrap_schedule_init(self, fn):
        traced = self._wrap(fn, "dynamics.schedule_init")
        tracer = self

        def new_run(*args, **kwargs):
            # every run starts by building its schedule
            tracer._run = tracer._runs
            tracer._runs += 1
            return traced(*args, **kwargs)

        return new_run

    def _wrap_topology_at(self, fn):
        traced = self._wrap(fn, "dynamics.topology_at")
        tracer = self

        def served(schedule, r):
            topo = traced(schedule, r)
            if schedule is not tracer._last_schedule or topo is not tracer._last_topology:
                tracer.snapshots += 1
                tracer._last_schedule = schedule
                tracer._last_topology = topo
            return topo

        return served

    def _wrap_count(self, fn):
        traced = self._wrap(fn, "protocol.count")
        tracer = self

        def counted(*args, **kwargs):
            try:
                record = traced(*args, **kwargs)
            finally:
                tracer._run = -1
            tracer.rounds += record.rounds_total
            return record

        return counted

    def install(self) -> None:
        """Wrap every lookup point; ``uninstall`` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped_counts = {}
        for owner, attr, span_name in LOOKUPS:
            original = owner.__dict__[attr]
            if span_name == "protocol.count":
                # one wrapper shared by every name the function is reached by
                if original not in wrapped_counts:
                    wrapped_counts[original] = self._wrap_count(original)
                new = wrapped_counts[original]
            elif span_name == "dynamics.schedule_init":
                new = self._wrap_schedule_init(original)
            elif span_name == "dynamics.topology_at":
                new = self._wrap_topology_at(original)
            else:
                new = self._wrap(original, span_name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, new)
        for owner, attr, first_build in FIRST_BUILDS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_first_build(original, first_build))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._last_schedule = self._last_topology = None

    # -- results ----------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        return name, parent, dur, self_ns

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """``<span>.calls`` and ``<span>.self_s`` per span name, plus counts."""
        if self._stack:
            raise RuntimeError("spans still open")
        name, _, _, self_ns = self._arrays()
        k = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_ns, minlength=k) / 1e9
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = (int(calls[i]), "count")
            out[f"{span}.self_s"] = (float(self_s[i]), "s")
        out["dynamics.snapshots.calls"] = (self.snapshots, "count")
        out["protocol.rounds.calls"] = (self.rounds, "count")
        return out

    def kernel_calls(self) -> int:
        """Calls of the three per-round kernels: one per simulated round."""
        name = np.frombuffer(self.name, dtype=np.int64)
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        return int(sum(calls[self._ids[f"protocol.{phase}_round"]]
                       for phase in ("collection", "verification", "notification")))

    def write_csv(self, path) -> None:
        name, parent, dur, self_ns = self._arrays()
        start = np.frombuffer(self.start, dtype=np.int64)
        start = start - (start.min() if len(start) else 0)
        columns = zip(name.tolist(), self.run.tolist(), parent.tolist(),
                      start.tolist(), dur.tolist(), self_ns.astype(np.int64).tolist())
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,run,parent,start_ns,dur_ns,self_ns\n")
            fh.writelines(f"{i},{SPAN_NAMES[n]},{r},{p},{s},{d},{x}\n"
                          for i, (n, r, p, s, d, x) in enumerate(columns))
