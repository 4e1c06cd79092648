"""Bounded behavioral verification of gadget constructions.

The question answered here: does a wired-up system of gadgets, viewed only
through its boundary connection nodes, behave like a single spec gadget?

Both sides are turned into the same shape of object, a *boundary LTS*:
states are at-rest configurations (for the implementation, the vector of
per-instance gadget states while the agent waits outside; for the spec, the
gadget's own state), and a transition (S, p, q, S') means "entering at
boundary port p, the agent can make one or more internal traversals and come
out at boundary port q, leaving the gadgets in S'".  Dead-ended excursions
produce no transition.  Intermediate visits to boundary classes are allowed
and each prefix is recorded as its own transition (the agent may stop at any
boundary port it touches).  Zero-traversal "transitions" are excluded on
both sides.

Everything is bounded by a cap on gadget states.  States from which some
excursion was cap-pruned are collected in ``cap_frontier``.

The bisimulation relation maps each implementation state to the set of spec
states related to it (as in Henzinger, Henzinger & Kopke, "Computing
Simulations on Finite and Infinite Graphs", FOCS 1995).  Refinement starts
from the full product and re-checks every pair until nothing changes: a
pair stays while both states offer the same labels and each move of either
side is matched, under its label, by a move of the other into a related
pair.  Frontier rule: a pair whose implementation or spec state is on the
cap frontier is never removed, and the report counts these skipped pairs,
so an Equivalent verdict is an explicit up-to-the-cap claim and a cap too
small to decide anything yields InconclusiveAtCap instead of a fake answer.

Interval mode runs the same machinery over (lo, hi) possible-value states;
see gadgets module docs.  This is how constructions with drawn amounts
(Inc[a,b] etc.) are verified: their per-visit nondeterminism is absorbed
into exact possible-value intervals.  ``check_bisimulation`` takes the mode
and indexes the system in it once; a caller of ``derive_boundary_lts`` in
interval mode passes ``canonicalize(system, "interval")``.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .gadgets import (
    Configuration,
    CounterGadgetSpec,
    GadgetInstance,
    GadgetSpec,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    boundary_port,
    canonicalize,
    check_state,
    node_endpoint,
    port_endpoint,
)
from .reach import _magnitude, path_labels, sweep

log = logging.getLogger(__name__)

__all__ = [
    "BoundaryLTS", "BisimVerdict", "BisimReport", "InvariantViolation",
    "derive_boundary_lts", "spec_closure_lts", "check_bisimulation",
    "distinguishing_trace", "trace_splits",
    "check_interval_invariant", "interval_step",
]

Label = tuple[str, str]  # (entry port, exit port)

_INNER_BUDGET = 200_000  # configurations per inner sweep of derive_boundary_lts
_STATE_BUDGET = 100_000  # at-rest states per boundary closure
_TRACE_BUDGET = 20_000   # state-set pairs per distinguishing_trace search
_WALK_BUDGET = 500_000   # configurations per interval_step walk


@dataclass(frozen=True)
class BoundaryLTS:
    """Port-to-port closure of a (sub)system, bounded by ``cap``."""

    states: frozenset
    ports: tuple[str, ...]
    transitions: frozenset  # of (state, entry, exit, state')
    cap_frontier: frozenset
    cap: int
    truncated: bool = False

    def out_map(self) -> dict:
        """state -> {(entry, exit): set of successor states}"""
        out: dict = {s: {} for s in self.states}
        for (s, a, b, s2) in self.transitions:
            out[s].setdefault((a, b), set()).add(s2)
        return out


def derive_boundary_lts(system: SystemOfGadgets | SystemIndex,
                        seeds: Iterable[tuple], *, impl_cap: int,
                        inner_budget: int = _INNER_BUDGET) -> BoundaryLTS:
    """Compute the boundary LTS of a system with boundary endpoints.

    ``seeds`` are at-rest state vectors to start from (e.g. encodings of the
    spec states); every vector reachable at a boundary port is explored in
    turn until closure.  Gadget states above ``impl_cap`` prune the excursion
    and put the source vector on the cap frontier.  Runs in the index's
    state mode (concrete for a plain system).
    """
    index = system if isinstance(system, SystemIndex) else canonicalize(system)
    if not index.boundary_classes:
        raise SystemFormatError("system has no boundary endpoints")
    # boundary_classes is in system.boundary order
    boundary = [(cid, boundary_port(ep)) for cid, ep in index.boundary_classes.items()]
    ports = tuple(name for _, name in boundary)

    todo: deque[tuple] = deque(dict.fromkeys(map(index.at_rest, seeds)))
    seen: set[tuple] = set(todo)

    transitions: set = set()
    frontier: set = set()
    truncated = False

    while todo:
        if len(seen) > _STATE_BUDGET:
            raise SystemFormatError(
                f"boundary closure exceeded {_STATE_BUDGET} at-rest states")
        vec = todo.popleft()
        for cid, pname in boundary:
            result = sweep(index, [Configuration(cid, vec)], counter_cap=impl_cap,
                           visit_budget=inner_budget)
            if result.overflowed or result.budget_exhausted:
                frontier.add(vec)
            if result.budget_exhausted:
                truncated = True
                log.warning("inner sweep truncated at %s from port %s", vec, pname)
            for cfg, parent in result.visited.items():
                ep = index.boundary_classes.get(cfg.position)
                if parent is None or ep is None:
                    continue  # the zero-traversal start, or not at a boundary port
                transitions.add((vec, pname, boundary_port(ep), cfg.states))
                if cfg.states not in seen:
                    seen.add(cfg.states)
                    todo.append(cfg.states)
            if result.start_revisited:  # a cycle straight back to the start
                transitions.add((vec, pname, pname, vec))

    return BoundaryLTS(frozenset(seen), ports, frozenset(transitions),
                       frozenset(frontier), impl_cap, truncated)


def spec_closure_lts(spec: GadgetSpec, cap: int) -> BoundaryLTS:
    """Boundary LTS of a single gadget spec: one instance, every location
    exposed as a boundary node.  States are the gadget's own states 0..cap
    (or the finite state set); a state from which some traversal would
    exceed the cap lands on the cap frontier."""
    counter = isinstance(spec, CounterGadgetSpec)
    states = range(cap + 1) if counter else spec.states
    locs = spec.locations
    system = SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("g", spec.name, 0 if counter else states[0]),),
        nodes=locs,
        edges=tuple((node_endpoint(loc), port_endpoint("g", loc)) for loc in locs),
        boundary=tuple(node_endpoint(loc) for loc in locs),
    )
    lts = derive_boundary_lts(system, [(s,) for s in states], impl_cap=cap)
    unwrap = lambda v: v[0]  # noqa: E731 - single-instance vectors
    return BoundaryLTS(
        states=frozenset(unwrap(v) for v in lts.states),
        ports=lts.ports,
        transitions=frozenset((unwrap(s), a, b, unwrap(t))
                              for (s, a, b, t) in lts.transitions),
        cap_frontier=frozenset(unwrap(v) for v in lts.cap_frontier),
        cap=cap,
        truncated=lts.truncated,
    )


class BisimVerdict(Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not-equivalent"
    INCONCLUSIVE_AT_CAP = "inconclusive-at-cap"


@dataclass(frozen=True)
class BisimReport:
    verdict: BisimVerdict
    cap: int
    impl_cap: int
    relation_size: int
    seeds_checked: int
    skipped_pairs: int
    impl_states: int
    spec_states: int
    counterexample: tuple | None  # ((seed_impl, seed_spec), (label, ...)) or None
    note: str = ""


class InvariantViolation(AssertionError):
    pass


def _default_impl_cap(seed_vectors: list[tuple], cap: int) -> int:
    """Headroom rule: largest seed component + largest per-spec-step jump
    + slack for transient spikes inside a protocol."""
    seed_max, step_max, prev = 0, 1, None
    for vec in seed_vectors:
        m = [x for x in map(_magnitude, vec) if x is not None]
        if m:
            seed_max = max(seed_max, max(m))
        if prev is not None and m:
            step_max = max(step_max, max(abs(x - y) for x, y in zip(m, prev)))
        prev = m
    return max(seed_max + step_max + 2, cap + 2)


def check_bisimulation(impl, spec: GadgetSpec, port_map: dict[str, str] | None = None,
                       *, cap: int, mode: str = "concrete",
                       encoding: Callable | None = None,
                       impl_cap: int | None = None) -> BisimReport:
    """Is the implementation system bisimilar (through its boundary ports,
    up to the cap) to the spec gadget?

    ``impl`` is a system with boundary endpoints, or any object carrying
    ``.system`` and ``.encoding`` (a lowering artifact).  ``port_map``
    translates implementation boundary port names to spec locations; by
    convention artifacts name their boundary nodes after the spec locations,
    so identity (None) usually works.  ``encoding`` maps each spec state to
    the implementation's at-rest state vector; artifacts carry their own.

    Seeds are (encoding(q), q) for every spec state q (0..cap for counter
    specs).  The verdict is Equivalent only if every seed pair survives
    refinement and at least one seed pair is clear of the cap frontier.
    The system is indexed once, in state mode ``mode``.
    """
    counter = isinstance(spec, CounterGadgetSpec)
    if cap < 0 or (impl_cap is not None and impl_cap < 0):
        raise SystemFormatError(f"cap and impl cap must be naturals, got {cap}, {impl_cap}")
    if counter and cap + 1 > _STATE_BUDGET:  # spec_closure_lts could never close
        raise SystemFormatError(
            f"cap {cap} gives more spec states than the closure budget {_STATE_BUDGET}")
    system = getattr(impl, "system", impl)
    index = canonicalize(system, mode)
    if encoding is None:
        encoding = getattr(impl, "encoding", None)
    if encoding is None:
        raise SystemFormatError("no encoding given and impl carries none")
    enc = encoding.state_for if hasattr(encoding, "state_for") else encoding

    spec_seed_states = list(range(cap + 1) if counter else spec.states)
    try:
        seed_vectors = [index.at_rest(enc(q, mode)) for q in spec_seed_states]
    except KeyError as exc:  # a table encoding that lacks a spec state
        raise SystemFormatError(*exc.args) from exc
    specs = {s.name: s for s in system.specs}
    for q, vec in zip(spec_seed_states, seed_vectors):
        if len(vec) != len(system.instances):
            raise SystemFormatError("encoding vectors must have one state per instance")
        for inst, state in zip(system.instances, vec):
            check_state(specs[inst.spec], state, f"encoding of {q!r}: {inst.id} state", mode)

    if impl_cap is None:
        impl_cap = _default_impl_cap(seed_vectors, cap)

    spec_lts = spec_closure_lts(spec, cap)
    impl_lts = derive_boundary_lts(index, seed_vectors, impl_cap=impl_cap)

    # the map must be a bijection: boundary ports <-> spec locations
    if port_map is None:
        port_map = {p: p for p in impl_lts.ports}
    missing = set(impl_lts.ports) - set(port_map)
    if missing:
        raise SystemFormatError(f"port_map misses implementation ports {sorted(missing)}")
    bad = set(port_map.values()) - set(spec_lts.ports)
    if bad:
        raise SystemFormatError(f"port_map targets unknown spec locations {sorted(bad)}")
    if len(set(port_map.values())) != len(port_map):
        raise SystemFormatError("port_map is not injective")
    uncovered = set(spec_lts.ports) - set(port_map.values())
    if uncovered:
        raise SystemFormatError(
            f"port_map covers no implementation port for spec locations "
            f"{sorted(uncovered)}")

    impl_out: dict = {s: {} for s in impl_lts.states}
    for (s, a, b, s2) in impl_lts.transitions:
        impl_out[s].setdefault((port_map[a], port_map[b]), set()).add(s2)
    spec_out = spec_lts.out_map()
    fx, fy = impl_lts.cap_frontier, spec_lts.cap_frontier
    relation = _refine(impl_out, spec_out, fx, fy)

    skipped = sum(len(ys) if x in fx else len(ys & fy) for x, ys in relation.items())
    seed_pairs = list(zip(seed_vectors, spec_seed_states))
    dead = [(x, y) for x, y in seed_pairs if y not in relation[x]]
    counterexample = None
    if dead:
        x0, y0 = dead[0]
        log.info("not equivalent: seed %s / %s", x0, y0)
        verdict, note = BisimVerdict.NOT_EQUIVALENT, "first dead seed pair shown"
        counterexample = ((x0, y0), distinguishing_trace(impl_out, spec_out, fx, fy, x0, y0))
    elif all(x in fx or y in fy for x, y in seed_pairs):
        verdict, note = (BisimVerdict.INCONCLUSIVE_AT_CAP,
                         "every seed pair touches the cap frontier")
    elif impl_lts.truncated or spec_lts.truncated:
        verdict, note = BisimVerdict.INCONCLUSIVE_AT_CAP, "inner search truncated"
    else:
        verdict = BisimVerdict.EQUIVALENT
        note = (f"bounded claim at cap {cap} (impl cap {impl_cap}); "
                f"{skipped} frontier pair(s) skipped")
    return BisimReport(
        verdict, cap, impl_cap, sum(map(len, relation.values())), len(seed_pairs),
        skipped, len(impl_lts.states), len(spec_lts.states), counterexample, note)


def _refine(impl_out: dict, spec_out: dict, fx: frozenset, fy: frozenset) -> dict:
    """impl state -> set of related spec states, by the refinement and the
    frontier rule of the module docstring."""
    relation = {x: set(spec_out) for x in impl_out}

    def pair_ok(x, y) -> bool:
        xo, yo = impl_out[x], spec_out[y]
        if xo.keys() != yo.keys():
            return False
        for lab, xs in xo.items():
            ys = yo[lab]
            related = [relation[x2] for x2 in xs]
            # every impl move is matched by a spec move, and every spec move
            # by an impl move
            if any(r.isdisjoint(ys) for r in related) or not ys <= set().union(*related):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for x, ys in relation.items():
            if x in fx:
                continue
            for y in list(ys):
                if y not in fy and not pair_ok(x, y):
                    ys.discard(y)
                    changed = True
    return relation


def distinguishing_trace(impl_out: dict, spec_out: dict, fx: frozenset,
                         fy: frozenset, x0, y0) -> tuple | None:
    """Shortest label sequence after which exactly one side has no states
    left, found by BFS over determinized state-set pairs.  The emptying
    side's predecessor set must be clear of the cap frontier, so the missing
    move is real and the trace is replayable.  Returns None when no linear
    trace exists within budget (bisimulation can differ without one)."""
    start = (frozenset([x0]), frozenset([y0]))
    parent: dict = {start: None}
    queue = deque([start])
    while queue and len(parent) < _TRACE_BUDGET:
        cur = queue.popleft()
        xs, ys = cur
        labels = set()
        for x in xs:
            labels.update(impl_out.get(x, {}))
        for y in ys:
            labels.update(spec_out.get(y, {}))
        for lab in sorted(labels):
            xs2, ys2 = _after(impl_out, xs, lab), _after(spec_out, ys, lab)
            if not xs2 and not ys2:
                continue
            if (not xs2 and not (xs & fx)) or (not ys2 and not (ys & fy)):
                return path_labels(parent, cur) + (lab,)
            nxt = (xs2, ys2)
            if nxt not in parent:
                parent[nxt] = (cur, lab)
                queue.append(nxt)
    return None


def _after(out: dict, states, lab: Label) -> frozenset:
    """The states reached from ``states`` by a move labelled ``lab``."""
    return frozenset(s for x in states for s in out.get(x, {}).get(lab, ()))


def trace_splits(impl_out: dict, spec_out: dict, x0, y0, trace: Iterable[Label]
                 ) -> tuple[set, set]:
    """Replay a distinguishing trace on both sides (determinized); returns
    the two final state sets.  For a valid trace exactly one is empty."""
    xs, ys = {x0}, {y0}
    for lab in trace:
        xs, ys = _after(impl_out, xs, lab), _after(spec_out, ys, lab)
    return set(xs), set(ys)


# ---------------------------------------------------------------------------
# interval anchor invariant for the ranged-counter construction

_OP_PORTS = {
    False: {"inc": ("inc_in", "inc_out"),
            "decnz": ("dec_in", "dec_out"),
            "pz": ("pz_in", "pz_out")},
    True: {"inc": ("inc_in", "inc_out"),
           "decnz": ("jz_in", "jz_out_nonzero"),
           "pz": ("jz_in", "jz_out_zero")},
}


def interval_step(artifact, vec: tuple, op: str, *,
                  counter_cap: int) -> list[tuple]:
    """All at-rest state vectors reachable by performing one simulated op
    ("inc" / "decnz" / "pz") on an Inc[a,b]-style lowering artifact, in
    interval semantics.  Empty list = the op is blocked from this state."""
    index = canonicalize(artifact.system, "interval")
    return _interval_walk(index, _op_classes(artifact, index), vec, op, counter_cap)


def _op_classes(artifact, index: SystemIndex) -> dict[str, tuple[int, ...]]:
    """op -> (entry class, exit class) of an Inc[a,b]-style artifact."""
    ports = _OP_PORTS[bool(artifact.provenance.get("merged", False))]
    return {op: tuple(index.endpoint_class(node_endpoint(p)) for p in pair)
            for op, pair in ports.items()}


def _interval_walk(index: SystemIndex, op_classes: dict, vec: tuple, op: str,
                   counter_cap: int) -> list[tuple]:
    """interval_step on an interval-mode index and its artifact's _op_classes."""
    if op not in op_classes:
        raise SystemFormatError(f"unknown op {op!r}; want inc/decnz/pz")
    entry_cls, exit_cls = op_classes[op]
    start = Configuration(entry_cls, index.at_rest(vec))
    result = sweep(index, [start], counter_cap=counter_cap, visit_budget=_WALK_BUDGET)
    if result.overflowed or result.budget_exhausted:
        raise InvariantViolation(
            f"op {op!r} from {vec} hit the cap/budget (cap={counter_cap}); "
            f"raise counter_cap to make the walk conclusive")
    return [cfg.states for cfg, parent in result.visited.items()
            if parent is not None and cfg.position == exit_cls]


def check_interval_invariant(artifact, ops: Iterable[str], *, n0: int = 0
                             ) -> list[tuple]:
    """Drive a ranged-counter artifact (sim via Inc[a,b]-DecNZ[c,d]-PZ)
    through a feasible op sequence in interval semantics and assert the
    anchor invariant after every op:

        max-possible(g0) == min-possible(g1) == anchor * n

    where n is the abstract value implied by the ops and anchor = a*b*c*d.
    Every duplicator wrapper must also be back at exactly (0, 0).  Returns
    snapshots [(op, n, vector), ...] starting with ("start", n0, ...);
    raises InvariantViolation on a violated anchor, a blocked feasible op,
    or a nondeterministic outcome.
    """
    enc = artifact.encoding
    if enc is None or enc.kind != "interval-affine":
        raise SystemFormatError("artifact has no interval-affine encoding")
    anchor = artifact.provenance.get("anchor")
    if anchor is None:
        raise SystemFormatError("artifact provenance lacks the anchor product")
    insts = artifact.system.instances
    by_role = {artifact.roles.get(i.id, ""): k for k, i in enumerate(insts)}
    try:
        i_g0, i_g1 = by_role["low-anchor"], by_role["high-anchor"]
    except KeyError:
        raise SystemFormatError("artifact lacks low-anchor/high-anchor roles") from None
    wrapper_idx = [k for k, i in enumerate(insts)
                   if "duplicator-wrapper" in artifact.roles.get(i.id, "")]

    ops = list(ops)
    n_peak = n0 + sum(1 for o in ops if o == "inc") + 1
    hs = max(h for ((_, _), (h, _)) in enc.iaffine)
    counter_cap = hs * (n_peak + 1) + 2

    index = canonicalize(artifact.system, "interval")
    classes = _op_classes(artifact, index)
    n = n0
    vec = index.at_rest(enc.state_for(n0, "interval"))
    snapshots = [("start", n, vec)]

    def check(tag: str) -> None:
        g0, g1 = vec[i_g0], vec[i_g1]
        if not (g0[1] == g1[0] == anchor * n):
            raise InvariantViolation(
                f"after {tag}: expected max(g0)=min(g1)={anchor}*{n}, "
                f"got g0={g0} g1={g1}")
        for k in wrapper_idx:
            if vec[k] != (0, 0):
                raise InvariantViolation(
                    f"after {tag}: wrapper {insts[k].id} not reset: {vec[k]}")

    check("start")
    for step, op in enumerate(ops):
        feasible = (op == "inc" or (op == "decnz" and n >= 1)
                    or (op == "pz" and n == 0))
        if not feasible:
            raise InvariantViolation(f"step {step}: op {op!r} infeasible at n={n}")
        outcomes = _interval_walk(index, classes, vec, op, counter_cap)
        if len(outcomes) != 1:
            raise InvariantViolation(
                f"step {step}: op {op!r} from {vec} yielded {len(outcomes)} "
                f"outcomes, expected exactly 1")
        vec = outcomes[0]
        n += {"inc": 1, "decnz": -1, "pz": 0}[op]
        snapshots.append((op, n, vec))
        check(f"step {step} ({op})")
    return snapshots
