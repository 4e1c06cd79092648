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

The closure is one loop over one key layout (``gadgets.KeyCodec``, chosen
once from the cap and the seeds): each at-rest state is kept as its packed
slots, the key without its position, and interned to an int; each
excursion is one run of the BFS kernel that ``reach.sweep`` also runs
(``reach._bfs``), from the port's position prefix plus those slots, and
the boundary keys it reached are read by their prefix.  ``_closure``
numbers the states in discovery order, seeds first, and refinement runs on
those ids; only ``derive_boundary_lts`` builds a ``BoundaryLTS``.

The bisimulation relation maps each implementation state to the set of spec
states related to it (as in Henzinger, Henzinger & Kopke, "Computing
Simulations on Finite and Infinite Graphs", FOCS 1995).  A pair stays
while both states offer the same labels and each move of either side is
matched, under its label, by a move of the other into a related pair.
Refinement starts from the pairs whose label sets agree and works one
impl state at a time: a check keeps, in one pass over the state's moves,
every related spec state that still matches them.  The first pass takes
the impl states successors first, in DFS postorder on the closure's ids
(the worklist order for a backward problem: Cooper, Harvey & Kennedy,
"Iterative Data-Flow Analysis, Revisited", 2004); then a FIFO worklist
re-checks the predecessors of each state whose related set shrank.  Each
impl state holds its related spec states as one bitmask over spec ids, so
a check is a few ``&`` operations against memoized masks of spec states
(see ``_refine``).  Frontier rule: a pair whose implementation or spec
state is on the cap frontier is never removed, and the report counts
these skipped pairs, so an Equivalent verdict is an explicit up-to-the-cap
claim and a cap too small to decide anything yields InconclusiveAtCap
instead of a fake answer.

Interval mode runs the same machinery over (lo, hi) possible-value states;
see gadgets module docs.  This is how constructions with drawn amounts
(Inc[a,b] etc.) are verified: their per-visit nondeterminism is absorbed
into exact possible-value intervals.  ``check_bisimulation`` takes the mode
and indexes the system in it once, or takes an index in its own mode; a
caller of ``derive_boundary_lts`` in interval mode passes
``canonicalize(system, "interval")``.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .gadgets import (
    Configuration,
    CounterGadgetSpec,
    GadgetInstance,
    GadgetSpec,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    canonicalize,
    catalog,
    check_integer,
    node_endpoint,
    port_endpoint,
)
from .lower import Encoding, LoweringArtifact
from .reach import _bfs, sweep

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


def _boundary_ports(system: SystemOfGadgets) -> tuple[str, ...]:
    """The system's boundary port names; a system with none has no boundary LTS."""
    if not system.boundary:
        raise SystemFormatError("system has no boundary endpoints")
    return system.boundary_ports


def derive_boundary_lts(system: SystemOfGadgets | SystemIndex,
                        seeds: Iterable[tuple], *, impl_cap: int) -> BoundaryLTS:
    """Compute the boundary LTS of a system with boundary endpoints.

    ``seeds`` are at-rest state vectors to start from (e.g. encodings of the
    spec states), each checked once; every vector reachable at a boundary
    port is explored in turn until closure.  Gadget states above ``impl_cap``
    prune the excursion and put the source vector on the cap frontier.  Runs
    in the index's state mode (concrete for a plain system).
    """
    check_integer(impl_cap, 0, f"impl cap must be a natural, got {impl_cap!r}")
    index = canonicalize(system)
    states, transitions, frontier, truncated = _closure(index, seeds, impl_cap)
    ports = index.system.boundary_ports
    return BoundaryLTS(
        frozenset(states), ports,
        frozenset([(states[k], ports[p], ports[q], states[k2])
                   for k, p, q, k2 in transitions]),
        frozenset([states[k] for k in frontier]), impl_cap, truncated)


def _closure(index: SystemIndex, seeds: Iterable, impl_cap: int) -> tuple:
    """``derive_boundary_lts`` on int ids: the at-rest states in discovery
    order, distinct seeds first; the transitions (state id, entry port, exit
    port, state id), ports in boundary order; the frontier ids; truncated."""
    ports = _boundary_ports(index.system)
    # a seed that is no sequence goes to check_states as it is, to be named
    vecs = [index.at_rest(seed) if isinstance(seed, (tuple, list)) else seed
            for seed in seeds]
    for vec in vecs:
        index.check_states(vec, "seed")
    vecs = list(dict.fromkeys(vecs))
    tops = list(map(index.top, vecs))
    # every state the closure finds is within the cap, so one codec holds all
    codec = index.codec(max([impl_cap, *tops]))
    pw = codec.pos_width
    # boundary_classes is in system.boundary order, as the ports are
    prefixes = [index.prefix[cid] for cid in index.boundary_classes]
    port_of = {prefix: k for k, prefix in enumerate(prefixes)}
    # an excursion from a port that no move leaves expands its start, and ends
    entered = [(p, prefix) for p, prefix in enumerate(prefixes)
               if prefix in codec.moves or _INNER_BUDGET < 1]
    idle = len(prefixes) - len(entered)

    # at-rest states as packed keys without their position, interned in
    # discovery order; a seed above the cap keeps its largest value and
    # those slots (see reach._bfs)
    bodies = [codec.pack_states(vec) for vec in vecs]
    ids = {body: k for k, body in enumerate(bodies)}
    above = {k: (high, index.slots_above(vec, impl_cap))
             for k, (vec, high) in enumerate(zip(vecs, tops)) if high > impl_cap}

    transitions: list = []  # (state id, entry port, exit port, state id), each once
    frontier: set = set()
    truncated = False
    expanded = 0
    k = 0
    while k < len(bodies):
        if len(bodies) > _STATE_BUDGET:
            raise SystemFormatError(
                f"boundary closure exceeded {_STATE_BUDGET} at-rest states")
        body = bodies[k]
        expanded += idle
        high, slots = above.get(k, (0, None))
        for p, prefix in entered:
            start = prefix + body
            result = _bfs(codec, (start,), {start: slots} if slots else {}, impl_cap, high,
                          _INNER_BUDGET, None)
            visited, _, overflowed, budget_exhausted, start_revisited, explored = result[:6]
            expanded += explored
            if overflowed or budget_exhausted:
                frontier.add(k)
            if budget_exhausted:
                truncated = True
                log.warning("inner sweep truncated at %s from port %s",
                            codec.unpack(start).states, ports[p])
            # the start comes first, and an excursion that reached only it
            # (the zero-traversal one) has no transition to read
            reached = iter(visited)
            next(reached)
            for key in reached:
                q = port_of.get(key[:pw])
                if q is not None:
                    body2 = key[pw:]
                    k2 = ids.get(body2)
                    if k2 is None:
                        k2 = ids[body2] = len(bodies)
                        bodies.append(body2)
                    transitions.append((k, p, q, k2))
            if start_revisited:  # a cycle straight back to the start
                transitions.append((k, p, p, k))
        k += 1

    log.info("boundary closure: %d at-rest states, %d excursions, %d configurations "
             "expanded, %d frontier states, truncated: %s", len(bodies),
             len(bodies) * len(ports), expanded, len(frontier), truncated)
    pad = prefixes[0]  # any position: unpack reads the states after it
    return [codec.unpack(pad + body).states for body in bodies], transitions, frontier, truncated


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
    # one instance: each state vector (s,) becomes s
    return BoundaryLTS(
        states=frozenset(s for s, in lts.states),
        ports=lts.ports,
        transitions=frozenset((s, a, b, t) for (s,), a, b, (t,) in lts.transitions),
        cap_frontier=frozenset(s for s, in lts.cap_frontier),
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


def _default_impl_cap(index: SystemIndex, seed_vectors: list[tuple], cap: int) -> int:
    """Headroom rule: largest seed counter value + largest per-spec-step
    jump + slack for transient spikes inside a protocol."""
    values = [index.counter_values(vec).values() for vec in seed_vectors]
    seed_max = max([0, *(v for vs in values for v in vs)])
    step_max = max([1, *(abs(x - y) for vs, prev in zip(values[1:], values)
                         for x, y in zip(vs, prev))])
    return max(seed_max + step_max + 2, cap + 2)


def check_bisimulation(impl, spec: GadgetSpec, port_map: dict[str, str] | None = None,
                       *, cap: int, mode: str | None = None,
                       encoding: Encoding | None = None,
                       impl_cap: int | None = None) -> BisimReport:
    """Is the implementation system bisimilar (through its boundary ports,
    up to the cap) to the spec gadget?

    ``impl`` is a system with boundary endpoints, its SystemIndex, or a
    lowering artifact (``.system`` and ``.encoding``).  ``port_map``
    translates implementation boundary port names to spec locations; by
    convention artifacts name their boundary nodes after the spec locations,
    so identity (None) usually works.  ``encoding`` is the ``lower.Encoding``
    of each spec state as the implementation's at-rest state vector, or
    None for the artifact's own.

    Seeds are (encoding(q), q) for every spec state q (0..cap for counter
    specs).  The verdict is Equivalent only if every seed pair survives
    refinement and at least one seed pair is clear of the cap frontier.
    The system is indexed once, by ``canonicalize(impl, mode)``, so an index
    keeps its own mode.  Every input is checked before either closure runs.
    """
    counter = isinstance(spec, CounterGadgetSpec)
    for bound in (cap, 0 if impl_cap is None else impl_cap):
        check_integer(bound, 0, f"cap and impl cap must be naturals, got {cap!r}, {impl_cap!r}")
    if counter and cap + 1 > _STATE_BUDGET:  # spec_closure_lts could never close
        raise SystemFormatError(
            f"cap {cap} gives more spec states than the closure budget {_STATE_BUDGET}")
    if isinstance(impl, LoweringArtifact):
        if encoding is None:
            encoding = impl.encoding
        impl = impl.system
    index = canonicalize(impl, mode)
    ports = _boundary_ports(index.system)

    # the map must be a bijection: boundary ports <-> spec locations
    if port_map is None:
        port_map = {p: p for p in ports}
    if not isinstance(port_map, dict):
        raise SystemFormatError(f"port_map must be a dict, got {type(port_map).__name__}")
    missing = set(ports) - set(port_map)
    if missing:
        raise SystemFormatError(f"port_map misses implementation ports {sorted(missing)}")
    bad = set(port_map.values()) - set(spec.locations)
    if bad:
        raise SystemFormatError(f"port_map targets unknown spec locations {sorted(bad)}")
    if len(set(port_map.values())) != len(port_map):
        raise SystemFormatError("port_map is not injective")
    uncovered = set(spec.locations) - set(port_map.values())
    if uncovered:
        raise SystemFormatError(
            f"port_map covers no implementation port for spec locations "
            f"{sorted(uncovered)}")

    if encoding is None:
        raise SystemFormatError("no encoding given and impl carries none")
    if not isinstance(encoding, Encoding):
        raise SystemFormatError(f"encoding must be an Encoding, got {type(encoding).__name__}")
    spec_seed_states = list(range(cap + 1) if counter else spec.states)
    seed_vectors = [index.at_rest(encoding.state_for(q, index.mode)) for q in spec_seed_states]
    for q, vec in zip(spec_seed_states, seed_vectors):
        index.check_states(vec, f"encoding of {q!r}")

    if impl_cap is None:
        impl_cap = _default_impl_cap(index, seed_vectors, cap)

    spec_lts = spec_closure_lts(spec, cap)
    states, transitions, fx, truncated = _closure(index, seed_vectors, impl_cap)

    # impl ids are the closure's, labels and spec ids are made once: impl
    # successors as id lists, spec successors and frontier as bitmasks
    names = [port_map[p] for p in ports]
    spec_ids = {y: k for k, y in enumerate(spec_lts.states)}
    labels: dict = {}
    impl_succ: list[dict] = [{} for _ in states]
    for k, p, q, k2 in transitions:
        lab = labels.setdefault((names[p], names[q]), len(labels))
        impl_succ[k].setdefault(lab, []).append(k2)
    spec_succ: list[dict] = [{} for _ in spec_ids]
    for (s, a, b, s2) in spec_lts.transitions:
        lab = labels.setdefault((a, b), len(labels))
        out = spec_succ[spec_ids[s]]
        out[lab] = out.get(lab, 0) | 1 << spec_ids[s2]
    fy = sum(1 << spec_ids[y] for y in spec_lts.cap_frontier)
    relation = _refine(impl_succ, spec_succ, fx, fy)

    skipped = sum((r if x in fx else r & fy).bit_count() for x, r in enumerate(relation))
    seed_ids = {x: k for k, x in enumerate(states[:len(seed_vectors)])}  # seeds come first
    seed_pairs = list(zip(seed_vectors, spec_seed_states))
    dead = [(x, y) for x, y in seed_pairs if not relation[seed_ids[x]] >> spec_ids[y] & 1]
    counterexample = None
    if dead:
        x0, y0 = dead[0]
        log.info("not equivalent: seed %s / %s", x0, y0)
        verdict, note = BisimVerdict.NOT_EQUIVALENT, "first dead seed pair shown"
        impl_out: dict = {s: {} for s in states}
        for k, p, q, k2 in transitions:
            impl_out[states[k]].setdefault((names[p], names[q]), set()).add(states[k2])
        counterexample = ((x0, y0), distinguishing_trace(
            impl_out, spec_lts.out_map(), frozenset(states[k] for k in fx),
            spec_lts.cap_frontier, x0, y0))
    elif all(seed_ids[x] in fx or y in spec_lts.cap_frontier for x, y in seed_pairs):
        verdict, note = (BisimVerdict.INCONCLUSIVE_AT_CAP,
                         "every seed pair touches the cap frontier")
    elif truncated or spec_lts.truncated:
        verdict, note = BisimVerdict.INCONCLUSIVE_AT_CAP, "inner search truncated"
    else:
        verdict = BisimVerdict.EQUIVALENT
        note = (f"bounded claim at cap {cap} (impl cap {impl_cap}); "
                f"{skipped} frontier pair(s) skipped")
    return BisimReport(
        verdict, cap, impl_cap, sum(r.bit_count() for r in relation), len(seed_pairs),
        skipped, len(states), len(spec_lts.states), counterexample, note)


def _refine(impl_succ: list[dict], spec_succ: list[dict], fx: set[int], fy: int
            ) -> list[int]:
    """Each impl state's related spec states, by the refinement and the
    frontier rule of the module docstring, on int ids.  ``impl_succ[x]``
    maps a label id to x's successor ids, ``spec_succ[y]`` a label id to
    y's successors as a bitmask over spec ids; ``fx`` holds the impl ids on
    the frontier and the bitmask ``fy`` the spec ids.  The result is one
    bitmask of related spec ids per impl id.

    One check of an impl state x off the frontier keeps, at once, every y
    of x's bitmask off the frontier that passes, for each label lab and x's
    lab-successors xs, back (every lab-move of y lands in the union of the
    xs' related sets) and forth (for each x2 in xs, a lab-move of y lands
    in x2's related set; with one x2 this follows from back).  With
    ``inside(lab, mask)``, the spec ids off the frontier with a lab-move
    and all lab-moves into ``mask``, memoized, back is one ``&`` with
    ``inside(lab, union)`` and forth one with ``~inside(lab, ~related)``.
    The first pass queues the impl states off the frontier in DFS postorder
    (roots 0 and up, successors in increasing id), successors first; when a
    check shrinks x's bitmask, x's predecessors are queued again, each at
    most once, FIFO.

    The result is the greatest fixpoint below the label-agreement start,
    whatever the order of the checks: a pair of it passes both tests
    against any superset of it, so no check removes one; and when the
    queue is empty every x has been checked since the last change to a
    bitmask its check reads, so every pair left passes.
    """
    # label sets never change, so pairs that differ in them go at the start
    by_labels: dict = {}
    for y, yo in enumerate(spec_succ):
        key = frozenset(yo)
        by_labels[key] = by_labels.get(key, 0) | 1 << y
    every = (1 << len(spec_succ)) - 1
    relation = [every if x in fx else by_labels.get(frozenset(xo), 0) | fy
                for x, xo in enumerate(impl_succ)]
    initial = sum(r.bit_count() for r in relation)

    # (bit of y, y's targets) per label, off the frontier; inside() is
    # memoized per (label, mask), on no more entries than impl states
    spec_moves: dict = {}
    for y, yo in enumerate(spec_succ):
        if not fy >> y & 1:
            for lab, ys in yo.items():
                spec_moves.setdefault(lab, []).append((1 << y, ys))
    memo: dict = {}

    def inside(lab: int, mask: int) -> int:
        got = memo.get((lab, mask))
        if got is None:
            if len(memo) > len(impl_succ):
                memo.clear()
            memo[lab, mask] = got = sum(bit for bit, ys in spec_moves.get(lab, ())
                                        if not ys & ~mask)
        return got

    # successors in increasing id, and predecessors; frontier states are never checked
    succs = [sorted({x2 for xs in xo.values() for x2 in xs}) for xo in impl_succ]
    impl_pred: list[list] = [[] for _ in impl_succ]
    for x, x2s in enumerate(succs):
        if x not in fx:
            for x2 in x2s:
                impl_pred[x2].append(x)
    # the first pass in DFS postorder, so a state comes after its successors:
    # from a root -1 whose successors are all ids, which comes last
    order, seen = [], [False] * len(succs)
    stack = [(-1, iter(range(len(succs))))]
    while stack:
        x2 = next((x2 for x2 in stack[-1][1] if not seen[x2]), None)
        if x2 is None:
            order.append(stack.pop()[0])
        else:
            seen[x2] = True
            stack.append((x2, iter(succs[x2])))
    queued = [x not in fx for x in range(len(impl_succ))]
    queue = deque(x for x in order[:-1] if queued[x])
    checks = 0
    while queue:
        x = queue.popleft()
        queued[x] = False
        checks += 1
        rx = relation[x]
        keep = rx & ~fy
        for lab, xs in impl_succ[x].items():
            if len(xs) == 1:
                union = relation[xs[0]]
            else:
                union = 0
                for x2 in xs:
                    union |= relation[x2]
                    keep &= ~inside(lab, every & ~relation[x2])  # forth
            keep &= inside(lab, union)  # back
        keep |= rx & fy
        if keep != rx:
            relation[x] = keep
            for x0 in impl_pred[x]:
                if not queued[x0]:
                    queued[x0] = True
                    queue.append(x0)
    log.info("refinement: %d initial pairs, %d removed, %d impl-state checks",
             initial, initial - sum(r.bit_count() for r in relation), checks)
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


def path_labels(parents: dict, node) -> tuple:
    """The labels on the path to ``node`` in a BFS parent map (node ->
    (parent node, label), or None at a start), first label first."""
    labels = []
    edge = parents[node]
    while edge is not None:
        node, label = edge
        labels.append(label)
        edge = parents[node]
    return tuple(reversed(labels))


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

def interval_step(artifact, vec: tuple, op: str, *,
                  counter_cap: int) -> list[tuple]:
    """All at-rest state vectors reachable by performing one simulated op
    ("inc" / "decnz" / "pz") on an Inc[a,b]-style lowering artifact, in
    interval semantics.  Empty list = the op is blocked from this state."""
    index = canonicalize(artifact.system, "interval")
    return _interval_walk(index, _op_classes(artifact, index), vec, op, counter_cap)


def _op_classes(artifact, index: SystemIndex) -> dict[str, tuple[int, ...]]:
    """op -> (entry class, exit class) of an Inc[a,b]-style artifact: the tag,
    entry and first exit of each component of the spec it simulates."""
    simulates = artifact.provenance.get("simulates")
    comps = getattr(catalog().get(simulates), "components", ())  # none if finite
    if sorted(c.kind.tag for c in comps) != ["decnz", "inc", "pz"]:
        raise SystemFormatError(f"artifact simulates {simulates!r}, not an Inc-DecNZ-PZ spec")
    return {c.kind.tag: tuple(index.endpoint_class(node_endpoint(p))
                              for p in (c.entry, c.exit_ports[0])) for c in comps}


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
    return [cfg.states for cfg, parent in result.configurations((exit_cls,)).values()
            if parent is not None]


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
