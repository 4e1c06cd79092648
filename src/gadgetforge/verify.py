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
excursion was cap-pruned are collected in ``cap_frontier``; the bisimulation
check skips match obligations at pairs touching the frontier and reports how
much it skipped, so an Equivalent verdict is an explicit up-to-the-cap claim
and a cap too small to decide anything yields InconclusiveAtCap instead of a
fake answer.

Interval mode runs the same machinery over (lo, hi) possible-value states;
see gadgets module docs.  This is how constructions with drawn amounts
(Inc[a,b] etc.) are verified: their per-visit nondeterminism is absorbed
into exact possible-value intervals.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Iterable

from .gadgets import (
    Configuration,
    CounterGadgetSpec,
    FiniteGadgetSpec,
    GadgetInstance,
    GadgetSpec,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    boundary_port,
    canonicalize,
    node_endpoint,
    port_endpoint,
)
from .reach import _magnitude, sweep

log = logging.getLogger(__name__)

__all__ = [
    "BoundaryLTS", "BisimVerdict", "BisimReport", "InvariantViolation",
    "derive_boundary_lts", "spec_closure_lts", "check_bisimulation",
    "distinguishing_trace", "trace_splits",
    "check_interval_invariant", "interval_step",
]

State = Hashable
Label = tuple[str, str]  # (entry port, exit port)


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


def _promote(vec: tuple, mode: str) -> tuple:
    if mode != "interval":
        return tuple(vec)
    return tuple((v, v) if isinstance(v, int) else v for v in vec)


def derive_boundary_lts(system: SystemOfGadgets | SystemIndex,
                        seeds: Iterable[tuple], *, impl_cap: int,
                        mode: str = "concrete", inner_budget: int = 200_000,
                        state_budget: int = 100_000) -> BoundaryLTS:
    """Compute the boundary LTS of a system with boundary endpoints.

    ``seeds`` are at-rest state vectors to start from (e.g. encodings of the
    spec states); every vector reachable at a boundary port is explored in
    turn until closure.  Gadget states above ``impl_cap`` prune the excursion
    and put the source vector on the cap frontier.
    """
    index = system if isinstance(system, SystemIndex) else canonicalize(system)
    if not index.boundary_classes:
        raise SystemFormatError("system has no boundary endpoints")
    boundary = [(cid, boundary_port(ep)) for cid, ep in index.boundary_classes.items()]
    boundary.sort(key=lambda pair: index.system.boundary.index(
        index.boundary_classes[pair[0]]))
    ports = tuple(name for _, name in boundary)

    todo: deque[tuple] = deque()
    seen: set[tuple] = set()
    for vec in seeds:
        v = _promote(vec, mode)
        if v not in seen:
            seen.add(v)
            todo.append(v)

    transitions: set = set()
    frontier: set = set()
    truncated = False

    while todo:
        if len(seen) > state_budget:
            raise SystemFormatError(
                f"boundary closure exceeded {state_budget} at-rest states")
        vec = todo.popleft()
        for cid, pname in boundary:
            result = sweep(index, [Configuration(cid, vec)], counter_cap=impl_cap,
                           visit_budget=inner_budget, mode=mode)
            if result.overflowed:
                frontier.add(vec)
            if result.budget_exhausted:
                frontier.add(vec)
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


def spec_closure_lts(spec: GadgetSpec, cap: int, mode: str = "concrete"
                     ) -> BoundaryLTS:
    """Boundary LTS of a single gadget spec: one instance, every location
    exposed as a boundary node.  States are the gadget's own states 0..cap
    (or the finite state set); a state from which some traversal would
    exceed the cap lands on the cap frontier."""
    if isinstance(spec, CounterGadgetSpec):
        seeds: list[tuple] = [(s,) for s in range(cap + 1)]
        initial: int | str = 0
    else:
        seeds = [(s,) for s in spec.states]
        initial = spec.states[0]
    locs = spec.locations
    system = SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("g", spec.name, initial),),
        nodes=locs,
        edges=tuple((node_endpoint(loc), port_endpoint("g", loc)) for loc in locs),
        boundary=tuple(node_endpoint(loc) for loc in locs),
    )
    lts = derive_boundary_lts(system, seeds, impl_cap=cap, mode=mode)
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
                       impl_cap: int | None = None,
                       inner_budget: int = 200_000) -> BisimReport:
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
    """
    system = getattr(impl, "system", impl)
    if encoding is None:
        encoding = getattr(impl, "encoding", None)
    if encoding is None:
        raise SystemFormatError("no encoding given and impl carries none")
    enc = encoding.state_for if hasattr(encoding, "state_for") else encoding

    if isinstance(spec, CounterGadgetSpec):
        spec_seed_states: list = list(range(cap + 1))
    else:
        spec_seed_states = list(spec.states)
    seed_vectors = [_promote(tuple(enc(q, mode)), mode) for q in spec_seed_states]
    if any(len(vec) != len(system.instances) for vec in seed_vectors):
        raise SystemFormatError("encoding vectors must have one state per instance")

    if impl_cap is None:
        impl_cap = _default_impl_cap(seed_vectors, cap)

    spec_lts = spec_closure_lts(spec, cap)
    impl_lts = derive_boundary_lts(system, seed_vectors, impl_cap=impl_cap,
                                   mode=mode, inner_budget=inner_budget)

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

    fx = impl_lts.cap_frontier
    fy = spec_lts.cap_frontier

    # coarsest relation by refinement; frontier pairs are never killed
    relation = {(x, y) for x in impl_lts.states for y in spec_lts.states}

    def pair_ok(x, y) -> bool:
        xo = impl_out[x]
        yo = spec_out[y]
        for lab, xs in xo.items():
            ys = yo.get(lab)
            if not ys:
                return False
            for x2 in xs:
                if not any((x2, y2) in relation for y2 in ys):
                    return False
        for lab, ys in yo.items():
            xs = xo.get(lab)
            if not xs:
                return False
            for y2 in ys:
                if not any((x2, y2) in relation for x2 in xs):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in list(relation):
            x, y = pair
            if x in fx or y in fy:
                continue
            if not pair_ok(x, y):
                relation.discard(pair)
                changed = True

    skipped = sum(1 for (x, y) in relation if x in fx or y in fy)
    seed_pairs = list(zip(seed_vectors, spec_seed_states))
    dead = [p for p in seed_pairs if p not in relation]

    if dead:
        x0, y0 = dead[0]
        trace = distinguishing_trace(impl_out, spec_out, fx, fy, x0, y0)
        log.info("not equivalent: seed %s / %s", x0, y0)
        return BisimReport(
            BisimVerdict.NOT_EQUIVALENT, cap, impl_cap, len(relation),
            len(seed_pairs), skipped, len(impl_lts.states), len(spec_lts.states),
            ((x0, y0), trace) if trace is not None else ((x0, y0), None),
            note="first dead seed pair shown")

    tainted = [1 for (x, y) in seed_pairs if x in fx or y in fy]
    if len(tainted) == len(seed_pairs) or impl_lts.truncated or spec_lts.truncated:
        why = ("every seed pair touches the cap frontier"
               if len(tainted) == len(seed_pairs) else "inner search truncated")
        return BisimReport(
            BisimVerdict.INCONCLUSIVE_AT_CAP, cap, impl_cap, len(relation),
            len(seed_pairs), skipped, len(impl_lts.states), len(spec_lts.states),
            None, note=why)

    return BisimReport(
        BisimVerdict.EQUIVALENT, cap, impl_cap, len(relation),
        len(seed_pairs), skipped, len(impl_lts.states), len(spec_lts.states),
        None,
        note=f"bounded claim at cap {cap} (impl cap {impl_cap}); "
             f"{skipped} frontier pair(s) skipped")


def distinguishing_trace(impl_out: dict, spec_out: dict, fx: frozenset,
                         fy: frozenset, x0, y0, budget: int = 20_000
                         ) -> tuple | None:
    """Shortest label sequence after which exactly one side has no states
    left, found by BFS over determinized state-set pairs.  The emptying
    side's predecessor set must be clear of the cap frontier, so the missing
    move is real and the trace is replayable.  Returns None when no linear
    trace exists within budget (bisimulation can differ without one)."""
    start = (frozenset([x0]), frozenset([y0]))
    parent: dict = {start: None}
    queue = deque([start])
    while queue and len(parent) < budget:
        cur = queue.popleft()
        xs, ys = cur
        labels = set()
        for x in xs:
            labels.update(impl_out.get(x, {}))
        for y in ys:
            labels.update(spec_out.get(y, {}))
        for lab in sorted(labels):
            xs2 = frozenset(s for x in xs for s in impl_out.get(x, {}).get(lab, ()))
            ys2 = frozenset(s for y in ys for s in spec_out.get(y, {}).get(lab, ()))
            if not xs2 and not ys2:
                continue
            if not xs2 and not (xs & fx):
                return _trace_path(parent, cur) + (lab,)
            if not ys2 and not (ys & fy):
                return _trace_path(parent, cur) + (lab,)
            nxt = (xs2, ys2)
            if nxt not in parent:
                parent[nxt] = (cur, lab)
                queue.append(nxt)
    return None


def _trace_path(parent: dict, node) -> tuple:
    labels = []
    while parent[node] is not None:
        node, lab = parent[node]
        labels.append(lab)
    labels.reverse()
    return tuple(labels)


def trace_splits(impl_out: dict, spec_out: dict, x0, y0, trace: Iterable[Label]
                 ) -> tuple[set, set]:
    """Replay a distinguishing trace on both sides (determinized); returns
    the two final state sets.  For a valid trace exactly one is empty."""
    xs, ys = {x0}, {y0}
    for lab in trace:
        xs = {s for x in xs for s in impl_out.get(x, {}).get(lab, ())}
        ys = {s for y in ys for s in spec_out.get(y, {}).get(lab, ())}
    return xs, ys


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
                  counter_cap: int, visit_budget: int = 500_000) -> list[tuple]:
    """All at-rest state vectors reachable by performing one simulated op
    ("inc" / "decnz" / "pz") on an Inc[a,b]-style lowering artifact, in
    interval semantics.  Empty list = the op is blocked from this state."""
    index = canonicalize(artifact.system)
    merged = bool(artifact.provenance.get("merged", False))
    try:
        entry, exit_ = _OP_PORTS[merged][op]
    except KeyError:
        raise SystemFormatError(f"unknown op {op!r}; want inc/decnz/pz") from None
    entry_cls = index.endpoint_class(node_endpoint(entry))
    exit_cls = index.endpoint_class(node_endpoint(exit_))
    start = Configuration(entry_cls, _promote(vec, "interval"))
    result = sweep(index, [start], counter_cap=counter_cap,
                   visit_budget=visit_budget, mode="interval")
    if result.overflowed or result.budget_exhausted:
        raise InvariantViolation(
            f"op {op!r} from {vec} hit the cap/budget (cap={counter_cap}); "
            f"raise counter_cap to make the walk conclusive")
    return [cfg.states for cfg, parent in result.visited.items()
            if parent is not None and cfg.position == exit_cls]


def check_interval_invariant(artifact, ops: Iterable[str], *, n0: int = 0,
                             counter_cap: int | None = None,
                             visit_budget: int = 500_000) -> list[tuple]:
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
    if counter_cap is None:
        n_peak = n0 + sum(1 for o in ops if o == "inc") + 1
        hs = max(h for ((_, _), (h, _)) in enc.iaffine)
        counter_cap = hs * (n_peak + 1) + 2

    n = n0
    vec = _promote(enc.state_for(n0, "interval"), "interval")
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
        outcomes = interval_step(artifact, vec, op,
                                 counter_cap=counter_cap,
                                 visit_budget=visit_budget)
        if len(outcomes) != 1:
            raise InvariantViolation(
                f"step {step}: op {op!r} from {vec} yielded {len(outcomes)} "
                f"outcomes, expected exactly 1")
        vec = outcomes[0]
        n += {"inc": 1, "decnz": -1, "pz": 0}[op]
        snapshots.append((op, n, vec))
        check(f"step {step} ({op})")
    return snapshots
