"""Spans around the calls into each gadgetforge layer.

The spans are recorded from the benchmark's own files: ``installed`` swaps
the public functions of ``machine``, ``lower``, ``gadgets``, ``reach`` and
``verify`` (and the ``SystemIndex.successors`` method) for timing wrappers
and puts the originals back afterwards.  Nothing in the package changes.

Each span keeps its name, start, end, parent span and case id, in columns
held in memory and written out once the run ends.  A span's self time is
its duration minus the durations of its children; the calls are sequential,
so the children never overlap.  Spans that descend from a ``harness.case``
span are timed work; the rest (witness replays in the checks) are not.
"""

from __future__ import annotations

import gc
import tracemalloc
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("machine", "lower", "gadgets", "reach", "verify", "harness")
CASE = "harness.case"

# the per-layer metrics, in the order they are reported
UNITS = {
    "machine.parse_s": "s", "machine.self_s": "s",
    "lower.pipeline_s": "s", "lower.substitute_s": "s", "lower.instances": "count",
    "lower.edges": "count", "lower.self_s": "s",
    "gadgets.serialize_s": "s", "gadgets.json_bytes": "bytes",
    "gadgets.parse_system_s": "s", "gadgets.canonicalize_s": "s",
    "gadgets.successors_s": "s", "gadgets.successors_calls": "count", "gadgets.self_s": "s",
    "reach.bfs_reach_s": "s", "reach.sweep_self_s": "s", "reach.sweeps": "count",
    "reach.configs": "count", "reach.configs_per_s": "1/s", "reach.frontier_peak": "count",
    "reach.visited": "count", "reach.new_per_successor": "ratio",
    "reach.bytes_per_config": "bytes", "reach.replay_s": "s", "reach.self_s": "s",
    "verify.check_bisimulation_s": "s", "verify.spec_closure_s": "s", "verify.derive_s": "s",
    "verify.refine_self_s": "s", "verify.relation_size": "count",
    "verify.impl_states": "count", "verify.lts_transitions": "count",
    "verify.interval_invariant_s": "s", "verify.self_s": "s",
    "harness.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_pct": "%",
}


def _targets(gf) -> list[tuple[object, str]]:
    m, lo, g, r, v = gf.machine, gf.lower, gf.gadgets, gf.reach, gf.verify
    return [
        (m, "parse_program"),
        # pipeline reaches substitute and the sim_* builders through the
        # lower module's globals, so patching the module attribute covers it
        (lo, "pipeline"), (lo, "substitute"), (lo, "emit_initializer"),
        (lo, "sim_incdecjz_via_incjzdec"), (lo, "sim_incdecnzpz_via_incab"),
        (g, "serialize_system"), (g, "parse_system"), (g, "catalog"),
        (g.SystemIndex, "successors"),
        # reach and verify bind canonicalize, and verify binds sweep, by
        # import: each binding is patched where it is looked up
        (g, "canonicalize"), (r, "canonicalize"), (v, "canonicalize"),
        (r, "bfs_reach"), (r, "sweep"), (v, "sweep"), (r, "replay"),
        (v, "check_bisimulation"), (v, "spec_closure_lts"), (v, "derive_boundary_lts"),
        (v, "check_interval_invariant"), (v, "interval_step"),
    ]


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# Hooks take the numbers a metric needs from a result right away, so no
# result (a sweep's visited map above all) outlives its call.

def _on_sweep(t: "Tracer", sid: int, result, args, kwargs) -> None:
    visited = len(result.visited)
    t.numbers[sid] = (result.stats.explored, result.stats.frontier_peak, visited,
                      len(set(args[1])))
    if t.largest_sweep is None or visited > t.largest_sweep[0]:
        t.largest_sweep = (visited, args, kwargs)


def _on_pipeline(t: "Tracer", sid: int, result, args, kwargs) -> None:
    t.numbers[sid] = (len(result.system.instances), len(result.system.edges))


def _on_serialize(t: "Tracer", sid: int, result, args, kwargs) -> None:
    t.numbers[sid] = (len(result.encode()),)


def _on_bisim(t: "Tracer", sid: int, result, args, kwargs) -> None:
    t.numbers[sid] = (result.relation_size, result.impl_states)


def _on_derive(t: "Tracer", sid: int, result, args, kwargs) -> None:
    t.numbers[sid] = (len(result.transitions),)


_HOOKS = {
    "reach.sweep": _on_sweep,
    "lower.pipeline": _on_pipeline,
    "gadgets.serialize_system": _on_serialize,
    "verify.check_bisimulation": _on_bisim,
    "verify.derive_boundary_lts": _on_derive,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.case = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")  # successors returned, on successors spans
        self.numbers: dict[int, tuple] = {}  # span id -> numbers from its result
        self.largest_sweep: tuple | None = None  # (visited, args, kwargs)
        self.case_id = -1
        self._stack = [-1]

    def _enter(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.case.append(self.case_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def wrap(self, name: str, fn):
        enter, exit_, hook = self._enter, self._exit, _HOOKS.get(name)

        if name == "gadgets.successors":  # the hot one: count inline, no hook call
            def traced_successors(*args, **kwargs):
                sid = enter(name)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(sid, t0, perf_counter())
                self.count[sid] = len(result)
                return result
            return traced_successors

        def traced(*args, **kwargs):
            sid = enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(sid, t0, perf_counter())
            if hook is not None:
                hook(self, sid, result, args, kwargs)
            return result
        return traced

    def run_case(self, fn):
        """Run one case's timed calls under a ``harness.case`` root span."""
        return self.wrap(CASE, fn)()

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines, in raw seconds from the
        start of the first span."""
        t_first = self.start[0] if self.names else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\tcase\tname\tstart_s\tend_s\tsuccessors\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parent[i]}\t{self.case[i]}\t{name}\t"
                         f"{self.start[i] - t_first:.9f}\t{self.end[i] - t_first:.9f}\t"
                         f"{self.count[i]}\n")


@contextmanager
def installed(tracer: Tracer, gf):
    saved = []
    try:
        for owner, attr in _targets(gf):
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(_span_name(fn), fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _net_durations(t: Tracer, scale: list[float], probes: list[tuple[float, float]]
                   ) -> list[float]:
    """Span durations in reference seconds (``scale`` of the span's case),
    minus the speed-probe samples that ran inside them.  A sample belongs
    to the innermost span that contains it: an ancestor of the last span
    started before it, since calls nest."""
    n = len(t.names)
    net = [(e - s) * scale[c] for s, e, c in zip(t.start, t.end, t.case)]
    inside = [0.0] * n
    for p0, dt in probes:
        i = bisect_right(t.start, p0) - 1
        while i >= 0 and t.end[i] < p0 + dt:
            i = t.parent[i]
        if i >= 0:
            inside[i] += dt * scale[t.case[i]]
    for i in range(n - 1, -1, -1):  # children come after their parents
        if inside[i]:
            net[i] -= inside[i]
            if t.parent[i] >= 0:
                inside[t.parent[i]] += inside[i]
    return net


def layer_metrics(t: Tracer, scale: list[float], probes: list[tuple[float, float]]
                  ) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  ``*_s`` of a function is the
    total time inside its calls, children included; ``*.self_s`` of a layer
    is the self time of all its spans, so the layer self times add up to
    ``trace.wall_s``.  Times are in reference seconds, without the probe."""
    n = len(t.names)
    dur = _net_durations(t, scale, probes)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * n
    timed = [False] * n
    names, parent = t.names, t.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            timed[i] = timed[p]
        else:
            timed[i] = names[i] == CASE
    replay_s = 0.0
    successors_in_sweeps = 0
    sums: dict[str, list] = {}
    frontier_peak = 0
    for i in range(n):
        name = names[i]
        if not timed[i]:
            if name == "reach.replay":
                replay_s += dur[i]
            continue
        total[name] = total.get(name, 0.0) + dur[i]
        self_time[name] = self_time.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "gadgets.successors" and names[parent[i]] == "reach.sweep":
            successors_in_sweeps += t.count[i]
        nums = t.numbers.get(i)
        if nums is not None:
            acc = sums.setdefault(name, [0] * len(nums))
            for k, x in enumerate(nums):
                acc[k] += x
            if name == "reach.sweep":
                frontier_peak = max(frontier_peak, nums[1])

    def tot(name: str) -> float:
        return total.get(name, 0.0)

    def summed(name: str, k: int) -> int:
        return sums.get(name, [0] * (k + 1))[k]

    configs, visited, starts = (summed("reach.sweep", k) for k in (0, 2, 3))
    sweep_s = tot("reach.sweep")
    out = {
        "machine.parse_s": tot("machine.parse_program"),
        "lower.pipeline_s": tot("lower.pipeline"),
        "lower.substitute_s": tot("lower.substitute"),
        "lower.instances": summed("lower.pipeline", 0),
        "lower.edges": summed("lower.pipeline", 1),
        "gadgets.serialize_s": tot("gadgets.serialize_system"),
        "gadgets.json_bytes": summed("gadgets.serialize_system", 0),
        "gadgets.parse_system_s": tot("gadgets.parse_system"),
        "gadgets.canonicalize_s": tot("gadgets.canonicalize"),
        "gadgets.successors_s": tot("gadgets.successors"),
        "gadgets.successors_calls": calls.get("gadgets.successors", 0),
        "reach.bfs_reach_s": tot("reach.bfs_reach"),
        "reach.sweep_self_s": self_time.get("reach.sweep", 0.0),
        "reach.sweeps": calls.get("reach.sweep", 0),
        "reach.configs": configs,
        "reach.configs_per_s": configs / sweep_s if sweep_s else 0.0,
        "reach.frontier_peak": frontier_peak,
        "reach.visited": visited,
        "reach.new_per_successor": ((visited - starts) / successors_in_sweeps
                                    if successors_in_sweeps else 0.0),
        "reach.replay_s": replay_s,
        "verify.check_bisimulation_s": tot("verify.check_bisimulation"),
        "verify.spec_closure_s": tot("verify.spec_closure_lts"),
        "verify.derive_s": tot("verify.derive_boundary_lts"),
        "verify.refine_self_s": self_time.get("verify.check_bisimulation", 0.0),
        "verify.relation_size": summed("verify.check_bisimulation", 0),
        "verify.impl_states": summed("verify.check_bisimulation", 1),
        "verify.lts_transitions": summed("verify.derive_boundary_lts", 0),
        "verify.interval_invariant_s": tot("verify.check_interval_invariant"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((s for name, s in self_time.items()
                                      if name.startswith(layer + ".")), 0.0)
    out["trace.wall_s"] = tot(CASE)
    return out


def bytes_per_config(gf, tracer: Tracer) -> float:
    """Rerun the largest sweep of the traced pass under tracemalloc: the
    peak growth of traced memory per visited configuration."""
    if tracer.largest_sweep is None:
        return 0.0
    _, args, kwargs = tracer.largest_sweep
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = gf.reach.sweep(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / len(result.visited)
