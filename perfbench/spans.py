"""Outside-in tracing of trofey: wrap layer functions, record spans, analyse.

The tracer runs inside a query process.  It replaces each traced function
object in every ``trofey.*`` namespace that holds it (patching by identity,
so ``cli``'s ``quasimodular_fit`` alias, ``covers``' imported
``multidegrees`` and the re-exports in ``trofey/__init__`` are all caught),
keeps one span stack per thread and records finished spans in memory.  The
query process dumps them with :meth:`Tracer.dump` when it ends; the
benchmark runner (run.py) turns them into per-layer numbers with :func:`analyse`
and :func:`layer_metrics`.

A span record is ``(fid, sid, parent, tid, t0, t1, obs, err)``: function
index into ``names``, span id, parent span id, thread id, start and end on
the monotonic clock, an observation of the call (see ``OBSERVERS``), and
whether an exception left the function.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable

# Layer boundaries that get a span.  Per-element helpers (edge_orientation,
# divisors, ...) run 10^5-10^6 times per query; they stay inside their
# callers' self time, which keeps the tracing overhead small.
TRACED: dict[str, tuple[str, ...]] = {
    "graphs": ("enumerate_labeled_graphs", "validate_assignment", "automorphism_count"),
    "integrals": (
        "multidegrees",
        "refined_sweep",
        "refined_coeff",
        "integral_series_q",
        "integral_series_all_orders",
        "mirror_total_series",
    ),
    "covers": (
        "enumerate_tuples",
        "cover_count",
        "descendant_contribution",
        "one_point_mult",
        "invariant_fixed_order",
        "invariant",
        "invariant_series",
    ),
    "fock": (
        "fock_cover_count",
        "labeled_matrix_element",
        "labeled_series_product",
        "labeled_series_product_check",
        "cut_join",
        "elliptic_hurwitz_disconnected",
    ),
    "quasimodular": ("basis", "fit"),
    "propagators": ("eisenstein_coefficients",),
    "series": ("invert",),
}
LAYERS = ("cli",) + tuple(TRACED)
ROOT = "cli.query"  # one per query process: cli.main, or the library call
TASK = "cli.task"  # one per task handed to cli._run_tasks

# Generator spans cover one resume each; their obs holds these bits.
FIRST_RESUME, YIELDED = 2, 1


def _nonzero(args: tuple, result: Any) -> int:
    return int(result != 0)


# How a traced call is observed from outside: (args, result) -> obs.
OBSERVERS: dict[str, Callable[[tuple, Any], Any]] = {
    "integrals.refined_sweep": lambda args, r: (sum(1 for c in r.values() if c != 0), len(r)),
    "covers.enumerate_tuples": lambda args, r: len(r),
    "covers.descendant_contribution": _nonzero,
    "covers.one_point_mult": lambda args, r: (tuple(args[0]), tuple(args[1]), args[2]),
    "fock.labeled_matrix_element": _nonzero,
    "fock.cut_join": lambda args, r: len(r),
    "quasimodular.basis": lambda args, r: len(r),
    "quasimodular.fit": lambda args, r: args[2] + 1,
}


class Tracer:
    """Span recorder for one query process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.records: list[tuple] = []
        self.root = 0
        self.main_tid = threading.get_ident()
        self.generators: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _fid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, thread_cpu: bool = False) -> Callable:
        """A span per call; with ``thread_cpu`` the obs is the call's thread CPU time."""
        fid = self._fid(name)
        observe = OBSERVERS.get(name)
        stack_of, new_id, record = self._stack, self._ids.__next__, self.records.append
        clock, thread_clock, get_ident = time.perf_counter, time.thread_time, threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else self.root  # pool threads start at the root
            sid = new_id()
            stack.append(sid)
            err = True
            cpu0 = thread_clock() if thread_cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                err = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                if thread_cpu:
                    obs = thread_clock() - cpu0
                elif observe is not None and not err:
                    obs = observe(args, result)
                else:
                    obs = None
                record((fid, sid, parent, get_ident(), t0, t1, obs, err))

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A span per resume, so the consumer's work between yields stays its own."""
        fid = self._fid(name)
        self.generators.append(fid)
        stack_of, new_id, record = self._stack, self._ids.__next__, self.records.append
        clock, get_ident = time.perf_counter, threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            it = fn(*args, **kwargs)
            first = FIRST_RESUME
            while True:
                stack = stack_of()
                parent = stack[-1] if stack else self.root
                sid = new_id()
                stack.append(sid)
                yielded, err = 0, True
                t0 = clock()
                try:
                    value = next(it)
                    yielded, err = YIELDED, False
                except StopIteration:
                    err = False
                finally:
                    t1 = clock()
                    stack.pop()
                    record((fid, sid, parent, get_ident(), t0, t1, first | yielded, err))
                if not yielded:
                    return
                first = 0
                yield value

        return traced

    def install(self) -> None:
        """Patch every traced function in every trofey namespace holding it,
        and give each task that ``cli._run_tasks`` runs a span of its own."""
        import trofey.cli

        replacement: dict[int, Callable] = {}
        for layer, funcs in TRACED.items():
            module = sys.modules[f"trofey.{layer}"]
            for func in funcs:
                fn = getattr(module, func)
                wrap = self.wrap_generator if inspect.isgeneratorfunction(fn) else self.wrap
                replacement[id(fn)] = wrap(f"{layer}.{func}", fn)
        for name, module in list(sys.modules.items()):
            if name == "trofey" or name.startswith("trofey."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replacement:
                        setattr(module, attr, replacement[id(value)])

        run_tasks = trofey.cli._run_tasks

        def traced_run_tasks(tasks, threads):
            return run_tasks([self.wrap(TASK, t, thread_cpu=True) for t in tasks], threads)

        trofey.cli._run_tasks = traced_run_tasks

    def run_root(self, fn: Callable[[], Any]) -> Any:
        """Run one query under the root span."""
        fid = self._fid(ROOT)
        self.root = next(self._ids)
        stack = self._stack()
        stack.append(self.root)
        err = True
        t0 = time.perf_counter()
        try:
            result = fn()
            err = False
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.records.append((fid, self.root, 0, self.main_tid, t0, t1, None, err))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "records": self.records,
            "main_tid": self.main_tid,
            "root": self.root,
            "generators": self.generators,
        }


def _self_times(records: list[tuple], root: int) -> dict[int, float]:
    """Self time of every span: at each instant the wall clock goes to the
    innermost open span of each thread, split equally among threads, and
    to the root only while no other thread is inside a span.  The self
    times of a query therefore sum to its root span's duration."""
    events = []
    for _, sid, _, tid, t0, t1, _, _ in records:
        events.append((t0, 1, sid, tid))  # at a tie: closes first, parents open first
        events.append((t1, 0, -sid, tid))
    events.sort()
    own: dict[int, float] = dict.fromkeys((r[1] for r in records), 0.0)
    stacks: dict[int, list[int]] = {}
    top: dict[int, int] = {}
    last = events[0][0]
    for t, opening, sid, tid in events:
        if t > last and top:
            leaves = list(top.values())
            if len(leaves) > 1 and root in leaves:
                leaves.remove(root)
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        stack = stacks.setdefault(tid, [])
        if opening:
            stack.append(sid)
        else:
            stack.pop()
        if stack:
            top[tid] = stack[-1]
        else:
            top.pop(tid, None)
    return own


# Observations summed as they are, under the name of their raw counter.
SUMMED = {
    "covers.enumerate_tuples": "covers.enumerate_tuples.tuples",
    "covers.descendant_contribution": "covers.descendant_contribution.nonzero",
    "fock.labeled_matrix_element": "fock.labeled_matrix_element.nonzero",
    "fock.cut_join": "fock.cut_join.states",
    "quasimodular.fit": "quasimodular.fit.rows",
}


def analyse(trace: dict) -> tuple[Counter, float]:
    """Raw per-layer sums for one query, and the root duration minus the
    sum of all self times (zero up to rounding)."""
    names, records, root = trace["names"], trace["records"], trace["root"]
    own = _self_times(records, root)
    name_of = {r[1]: names[r[0]] for r in records}
    raw: Counter = Counter()
    distinct_points = set()
    for fid, sid, parent, tid, t0, t1, obs, err in records:
        name = names[fid]
        raw[f"{name}.self_s"] += own[sid]
        raw[f"{name.split('.')[0]}.errors"] += err
        if fid in trace["generators"]:
            raw[f"{name}.calls"] += bool(obs & FIRST_RESUME)
            raw[f"{name}.yielded"] += obs & YIELDED
            continue
        raw[f"{name}.calls"] += 1
        if obs is None:
            continue
        if name in SUMMED:
            raw[SUMMED[name]] += obs
        elif name == TASK and tid != trace["main_tid"]:
            raw["cli.tasks.wait_s"] += (t1 - t0) - obs
        elif name == "integrals.refined_sweep":
            raw[f"{name}.nonzero"] += obs[0]
            raw[f"{name}.entries"] += obs[1]
        elif name == "covers.one_point_mult":
            distinct_points.add(obs)
        elif name == "quasimodular.basis" and name_of.get(parent) == "quasimodular.fit":
            raw["quasimodular.fit.cols"] += obs
    raw["covers.one_point_mult.distinct"] += len(distinct_points)
    root_record = next(r for r in records if r[1] == root)
    return raw, (root_record[5] - root_record[4]) - sum(own.values())


# (metric, unit, better) for every per-layer metric the traced run reports.
PER_LAYER: list[tuple[str, str, str]] = (
    [("cli.query.self_s", "s", "lower"), ("cli.task.calls", "count", "lower"),
     ("cli.task.self_s", "s", "lower"), ("cli.tasks.wait_s", "s", "lower")]
    + [
        (f"{layer}.{func}.{stat}", unit, "lower")
        for layer, funcs in TRACED.items()
        for func in funcs
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("integrals.multidegrees.yielded", "count", "lower"),
        ("integrals.refined_sweep.nonzero_ratio", "ratio", "higher"),
        ("covers.enumerate_tuples.tuples", "count", "lower"),
        ("covers.descendant_contribution.nonzero_ratio", "ratio", "higher"),
        ("covers.descendant_contribution.multidegree_share", "ratio", "higher"),
        ("covers.one_point_mult.distinct_ratio", "ratio", "higher"),
        ("fock.labeled_matrix_element.nonzero_ratio", "ratio", "higher"),
        ("fock.cut_join.states", "count", "lower"),
        ("quasimodular.fit.rows", "count", "lower"),
        ("quasimodular.fit.cols", "count", "lower"),
    ]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def layer_metrics(raw: Counter) -> dict[str, float]:
    """Per-layer metrics (all of PER_LAYER but the overhead) from the raw
    sums of one round of queries."""
    out = {name: float(raw[name]) for name, _, _ in PER_LAYER if name != "trace.overhead_ratio"}
    for metric, num, den in (
        ("integrals.refined_sweep.nonzero_ratio",
         "integrals.refined_sweep.nonzero", "integrals.refined_sweep.entries"),
        ("covers.descendant_contribution.nonzero_ratio",
         "covers.descendant_contribution.nonzero", "covers.descendant_contribution.calls"),
        ("covers.descendant_contribution.multidegree_share",
         "covers.descendant_contribution.calls", "integrals.multidegrees.yielded"),
        ("covers.one_point_mult.distinct_ratio",
         "covers.one_point_mult.distinct", "covers.one_point_mult.calls"),
        ("fock.labeled_matrix_element.nonzero_ratio",
         "fock.labeled_matrix_element.nonzero", "fock.labeled_matrix_element.calls"),
    ):
        out[metric] = raw[num] / raw[den] if raw[den] else 0.0
    return out
