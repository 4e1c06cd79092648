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
once from the cap and the seeds): each at-rest state is one int, its
packed slots (the key without its position).  Each excursion is one run of
the BFS kernel that ``reach.sweep`` also runs (``reach._bfs``), from the
port's position prefix plus those slots as bytes, made only then, and the
boundary keys it reached are read by their prefix.  ``_closure`` numbers
the states in discovery order, seeds first, and refinement runs on those
ids; state tuples are built only by ``derive_boundary_lts`` and for a
NotEquivalent counterexample.

In concrete mode an excursion may be the shift of one already run.  Each
counter kind has a shift floor T (``floor`` on the kind): a ranged
tunnel's is its hi, except Inc's, which is 0, and a zero test's is 1.
From T up, ``moves(s + 1)`` is ``moves(s)`` with every new value + 1 and
the same choices and exits.  A counter slot's floor T_j is the largest of its
spec's components'.  An at-rest state's class is its slots with every
counter value at or above T_j + 1 clipped to T_j + 1.  Per (class, entry
port) the closure keeps the first member's excursion E, from x0, unless it
was truncated or x0 is a seed above the cap: the boundary states E
reached, in order, as (exit port, int) pairs, its overflow and start-revisit flags, its count of
configurations expanded, and each slot's least and largest value min_j,
max_j over the configurations E admitted.  A later member
x = x0 + delta, no seed above the cap, reuses E shifted by delta iff every
slot with delta_j != 0 has min_j >= T_j, min_j + delta_j >= T_j and
max_j + delta_j <= impl_cap, and, if some delta_j < 0, E did not
overflow; otherwise it runs the kernel.

Lemma: under that rule the excursion from x admits exactly E's
configurations shifted by delta, in E's order, with E's flags and count.
Proof, by induction along the BFS: let both queues agree up to the shift,
and let E dequeue c while the other dequeues c + delta.  A move of c
changes one slot i.  If delta_i = 0 the move sees the same value from
c + delta.  Else c_i and c_i + delta_i are both at least T_i, so by the
floor, applied one step at a time, the move has the same choices and
exits, each new value shifted by delta_i.  A successor that E admitted
lies within [min_j, max_j] in every slot, so its shift lies within
[T_j, impl_cap] where delta_j != 0: it is admitted too, and it is new, or
the start, exactly when E's was, as the shift is one to one on keys.  A
successor that E pruned is above the cap and stays so when no delta_j is
negative; with a negative delta_j E pruned none.  An Inc[a,b] with a < b
stops its amounts at the first past the cap; from a higher value it stops
sooner, but drops only pruned amounts, and it prunes one iff E's did,
since E's admitted amounts shift within the cap.  So both admit, prune
and revisit alike, and queue in the same order.  The closure reads
nothing from an excursion but its reached boundary states, flags and count,
so its state ids, transitions (in order), frontier and truncation flag are
those of a closure that runs every excursion.  Every shifted value lies in
[0, impl_cap], so delta is added to a state's int without a carry
between slots.  This is the monotonicity of Karp & Miller
("Parallel Program Schemata", JCSS 1969) and of well-structured systems
(Abdulla, Cerans, Jonsson & Tsay, LICS 1996).  Interval mode runs every
excursion: its intervals widen, and in a prototype that keyed intervals by
lo, 8.5k of 22.6k excursions were reused yet the nine ranged-artifact
checks ran 20-75% slower.

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
and indexes a system in it, or takes an index in its own mode.  An artifact
keeps its ``SystemIndex`` per mode (codecs and memo tables too) in its
``__dict__``, as ``cached_property`` keeps a value, for its lifetime, and
the interval walks share it.  A caller of ``derive_boundary_lts`` in
interval mode passes ``canonicalize(system, "interval")``.
"""

from __future__ import annotations

import logging
from collections import defaultdict, deque
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .gadgets import (
    CounterGadgetSpec,
    GadgetInstance,
    GadgetSpec,
    KeyCodec,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    canonicalize,
    catalog,
    check_integer,
    check_mode,
    node_endpoint,
    port_endpoint,
)
from .lower import Encoding, LoweringArtifact
from .reach import _bfs, sweep  # noqa: F401  (bench/tracing.py traces verify.sweep)

log = logging.getLogger(__name__)

__all__ = [
    "BoundaryLTS", "BisimVerdict", "BisimReport", "InvariantViolation",
    "derive_boundary_lts", "spec_closure_lts", "check_bisimulation",
    "distinguishing_trace",
    "check_interval_invariant", "interval_step",
]

Label = tuple[str, str]  # (entry port, exit port)

_INNER_BUDGET = 200_000  # configurations per excursion of the boundary closure
_STATE_BUDGET = 100_000  # at-rest states per boundary closure
_TRACE_BUDGET = 20_000   # state-set pairs per distinguishing_trace search
_WALK_BUDGET = 500_000   # configurations per interval_step walk
_OPS = {"inc": 1, "decnz": -1, "pz": 0}  # an interval walk's ops, each its change to n


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
    bodies, transitions, frontier, truncated, codec = _closure(index, seeds, impl_cap)
    states = _states(codec, bodies)
    ports = index.system.boundary_ports
    return BoundaryLTS(
        frozenset(states), ports,
        frozenset([(states[k], ports[p], ports[q], states[k2])
                   for k, p, q, k2 in transitions]),
        frozenset([states[k] for k in frontier]), impl_cap, truncated)


def _states(codec: KeyCodec, bodies: list[int]) -> list[tuple]:
    """The state vectors of ``_closure``'s at-rest bodies, in order."""
    size, pad = codec.size - codec.pos_width, bytes(codec.pos_width)  # any position
    return [codec.unpack(pad + body.to_bytes(size, "big")).states for body in bodies]


def _closure(index: SystemIndex, seeds: Iterable, impl_cap: int) -> tuple:
    """``derive_boundary_lts`` on ints: the at-rest states as ints (see
    ``_states``) in discovery order, distinct seeds first; the transitions
    (state id, entry port, exit port, state id), ports in boundary order;
    the frontier ids; truncated; the codec.  In concrete mode an excursion
    is the shift of a kept one where the module docstring's rule allows it."""
    ports = _boundary_ports(index.system)
    if not isinstance(seeds, Iterable):
        raise SystemFormatError(f"seeds must be state vectors, got {seeds!r:.200}")
    # a seed that is no sequence goes to check_states as it is, to be named
    vecs = [index.at_rest(seed) if isinstance(seed, (tuple, list)) else seed
            for seed in seeds]
    for vec in vecs:
        index.check_states(vec, "seed")
    vecs = list(dict.fromkeys(vecs))
    tops = list(map(index.top, vecs))
    # every state the closure finds is within the cap, so one codec holds all
    codec = index.codec(max([impl_cap, *tops]))
    pw, w, size = codec.pos_width, codec.width, codec.size - codec.pos_width
    # boundary_classes is in system.boundary order, as the ports are
    prefixes = [index.prefix[cid] for cid in index.boundary_classes]
    port_of = {prefix: k for k, prefix in enumerate(prefixes)}
    # an excursion from a port that no move leaves expands its start, and ends
    entered = [(p, prefix) for p, prefix in enumerate(prefixes)
               if prefix in codec.moves or _INNER_BUDGET < 1]
    idle = len(prefixes) - len(entered)

    # at-rest states as packed slots without their position, each one int,
    # interned in discovery order; a seed above the cap keeps its largest
    # value and those slots (see reach._bfs)
    bodies = [int.from_bytes(codec.pack_states(vec), "big") for vec in vecs]
    ids = {body: k for k, body in enumerate(bodies)}
    above = {k: (high, index.slots_above(vec, impl_cap))
             for k, (vec, high) in enumerate(zip(vecs, tops)) if high > impl_cap}

    # shift classes (module docstring): each counter slot's floor, None for
    # a finite slot, and the value a slot at or above floor + 1 is keyed by
    floors = [max([0, *(c.kind.floor for c in index.spec_of[inst.spec].components)])
              if counted else None
              for inst, counted in zip(index.system.instances, index.counter)]
    clips = [codec.top if t is None else t + 1 for t in floors]
    shifting = not index.interval and any(index.counter)
    # class -> (its first member's body, per entered port that member's
    # excursion: (bounds, the (exit port, body) of each boundary state it
    # reached, overflowed, start revisited, explored), or None if truncated)
    kept: dict = {}
    reused = 0

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
        runs = first = None
        if shifting and slots is None:
            raw = body.to_bytes(size, "big")
            vals = raw if w == 1 else [int.from_bytes(raw[j:j + w], "big")
                                       for j in range(0, size, w)]
            cls = tuple(map(min, vals, clips))
            member = kept.get(cls)
            if member is None:
                first = []
                kept[cls] = (body, first)
                # the slots a later member may hold apart: (slot, its key
                # offset, floor, value)
                free = [(j, off, t, vals[j])
                        for j, ((off, _, _), t) in enumerate(zip(codec.layout, floors))
                        if t is not None and vals[j] > t]
            else:
                x0, runs = member
                delta = body - x0
        for n, (p, prefix) in enumerate(entered):
            run = runs[n] if runs else None
            if run is not None:
                for j, a, b in run[0]:
                    if not a <= vals[j] <= b:
                        run = None
                        break
            if run is not None:
                # the kept excursion shifted: one add per reached boundary state
                _, kept_reached, overflowed, start_revisited, explored = run
                budget_exhausted = False
                reused += 1
                reached = [(q, body2 + delta) for q, body2 in kept_reached]
            else:
                start = prefix + body.to_bytes(size, "big")
                result = _bfs(codec, (start,), {start: slots} if slots else {}, impl_cap,
                              high, _INNER_BUDGET, None)
                visited, _, overflowed, budget_exhausted, start_revisited, explored = result[:6]
                # the start comes first, and an excursion that reached only it
                # (the zero-traversal one) has no transition to read
                reached = [(q, int.from_bytes(key[pw:], "big"))
                           for key in islice(visited, 1, None)
                           if (q := port_of.get(key[:pw])) is not None]
            expanded += explored
            if overflowed or budget_exhausted:
                frontier.add(k)
            if budget_exhausted:
                truncated = True
                log.warning("inner sweep truncated at %s from port %s",
                            codec.unpack(start).states, ports[p])
            for q, body2 in reached:
                k2 = ids.get(body2)
                if k2 is None:
                    k2 = ids[body2] = len(bodies)
                    bodies.append(body2)
                transitions.append((k, p, q, k2))
            if first is not None:  # keep this excursion
                first.append(None if budget_exhausted else (
                    _shift_bounds(visited, free, w, impl_cap, overflowed),
                    reached, overflowed, start_revisited, explored))
            if start_revisited:  # a cycle straight back to the start
                transitions.append((k, p, p, k))
        k += 1

    log.info("boundary closure: %d at-rest states, %d excursions, %d configurations "
             "expanded, %d frontier states, %d excursions reused, truncated: %s",
             len(bodies), len(bodies) * len(ports), expanded, len(frontier), reused,
             truncated)
    return bodies, transitions, frontier, truncated, codec


def _shift_bounds(visited: dict, free: list[tuple], w: int, impl_cap: int,
                  overflowed: bool) -> tuple:
    """(slot, least, largest) for each (slot, key offset, floor, value x0)
    of ``free``: the values that slot of a later member of the class may
    hold for the excursion that admitted the keys of ``visited``, from x0,
    to be a shift of it (module docstring).  Slots are ``w`` bytes wide,
    so bytes compare as their values; a slot the excursion took below its
    floor may not move."""
    bounds = []
    for j, at, floor, x0 in free:
        low = int.from_bytes(min(key[at:at + w] for key in visited), "big")
        top = int.from_bytes(max(key[at:at + w] for key in visited), "big")
        if low < floor:
            bounds.append((j, x0, x0))
        else:  # an excursion that overflowed may not shift down
            bounds.append((j, x0 if overflowed else x0 + floor - low, x0 + impl_cap - top))
    return tuple(bounds)


def spec_closure_lts(spec: GadgetSpec, cap: int) -> BoundaryLTS:
    """Boundary LTS of a single gadget spec: one instance, every location
    exposed as a boundary node.  States are the gadget's own states 0..cap
    (or the finite state set); a state from which some traversal would
    exceed the cap lands on the cap frontier."""
    if not isinstance(spec, GadgetSpec):
        raise SystemFormatError(f"spec must be a gadget spec, got {type(spec).__name__}")
    check_integer(cap, 0, f"cap must be a natural, got {cap!r}")
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
    if not isinstance(spec, GadgetSpec):
        raise SystemFormatError(f"spec must be a gadget spec, got {type(spec).__name__}")
    counter = isinstance(spec, CounterGadgetSpec)
    for bound in (cap, 0 if impl_cap is None else impl_cap):
        check_integer(bound, 0, f"cap and impl cap must be naturals, got {cap!r}, {impl_cap!r}")
    if counter and cap + 1 > _STATE_BUDGET:  # spec_closure_lts could never close
        raise SystemFormatError(
            f"cap {cap} gives more spec states than the closure budget {_STATE_BUDGET}")
    index = _index(impl, mode)
    if isinstance(impl, LoweringArtifact) and encoding is None:
        encoding = impl.encoding
    ports = _boundary_ports(index.system)

    # the map must be a bijection: boundary ports <-> spec locations
    if port_map is None:
        port_map = {p: p for p in ports}
    if not isinstance(port_map, dict):
        raise SystemFormatError(f"port_map must be a dict, got {type(port_map).__name__}")
    missing = set(ports) - set(port_map)
    if missing:
        raise SystemFormatError(f"port_map misses implementation ports {sorted(missing)}")
    bad = {(not isinstance(v, str), v if isinstance(v, str) else repr(v)): v  # others by repr
           for v in port_map.values() if not (isinstance(v, str) and v in spec.locations)}
    if bad:
        raise SystemFormatError(
            f"port_map targets unknown spec locations {[bad[k] for k in sorted(bad)]}")
    if len(set(port_map.values())) != len(port_map):
        raise SystemFormatError("port_map is not injective")
    uncovered = set(spec.locations) - {port_map[p] for p in ports}
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
    bodies, transitions, fx, truncated, codec = _closure(index, seed_vectors, impl_cap)

    # impl ids are the closure's, spec ids are made once, a label is its port
    # pair p * n + q: impl successors as id lists, the spec's as bitmasks
    names = [port_map[p] for p in ports]
    at = {name: p for p, name in enumerate(names)}
    spec_ids = {y: k for k, y in enumerate(spec_lts.states)}
    impl_succ: list[dict] = [{} for _ in bodies]
    for k, p, q, k2 in transitions:
        impl_succ[k].setdefault(p * len(names) + q, []).append(k2)
    spec_succ: list[dict] = [{} for _ in spec_ids]
    for (s, a, b, s2) in spec_lts.transitions:
        lab = at[a] * len(names) + at[b]
        out = spec_succ[spec_ids[s]]
        out[lab] = out.get(lab, 0) | 1 << spec_ids[s2]
    fy = sum(1 << spec_ids[y] for y in spec_lts.cap_frontier)
    relation = _refine(impl_succ, spec_succ, fx, fy)

    skipped = sum((r if x in fx else r & fy).bit_count() for x, r in enumerate(relation))
    seed_ids = {x: k for k, x in enumerate(dict.fromkeys(seed_vectors))}  # seeds first
    seed_pairs = list(zip(seed_vectors, spec_seed_states))
    dead = [(x, y) for x, y in seed_pairs if not relation[seed_ids[x]] >> spec_ids[y] & 1]
    counterexample = None
    if dead:
        x0, y0 = dead[0]
        log.info("not equivalent: seed %s / %s", x0, y0)
        verdict, note = BisimVerdict.NOT_EQUIVALENT, "first dead seed pair shown"
        states = _states(codec, bodies)
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
        skipped, len(bodies), len(spec_lts.states), counterexample, note)


def _index(impl, mode: str | None) -> SystemIndex:
    """``canonicalize(impl, mode)``, kept on a lowering artifact (module docstring)."""
    if not isinstance(impl, LoweringArtifact):
        return canonicalize(impl, mode)
    check_mode(mode := "concrete" if mode is None else mode)  # before it names an entry
    kept, name = impl.__dict__, f"_{mode}_index"
    if name not in kept:
        kept[name] = canonicalize(impl.system, mode)
    return kept[name]


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
    # memoized per label by mask, on no more entries than impl states in all
    spec_moves: dict = {}
    for y, yo in enumerate(spec_succ):
        if not fy >> y & 1:
            for lab, ys in yo.items():
                spec_moves.setdefault(lab, []).append((1 << y, ys))
    memo: defaultdict[int, dict] = defaultdict(dict)

    def inside(lab: int, mask: int) -> int:  # a miss; hits are read inline
        if sum(map(len, memo.values())) > len(impl_succ):
            memo.clear()  # entries never go stale, so a table still held stays right
        memo[lab][mask] = got = sum(bit for bit, ys in spec_moves.get(lab, ())
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
        for x2 in stack[-1][1]:
            if not seen[x2]:
                seen[x2] = True
                stack.append((x2, iter(succs[x2])))
                break
        else:
            order.append(stack.pop()[0])
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
            known = memo[lab]
            if len(xs) == 1:
                union = relation[xs[0]]
            else:
                union = 0
                for x2 in xs:
                    union |= relation[x2]
                    out = every & ~relation[x2]
                    got = known.get(out)
                    keep &= ~(inside(lab, out) if got is None else got)  # forth
            got = known.get(union)
            keep &= inside(lab, union) if got is None else got  # back
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


# ---------------------------------------------------------------------------
# interval anchor invariant for the ranged-counter construction

def interval_step(artifact, vec: tuple, op: str, *,
                  counter_cap: int) -> list[tuple]:
    """All at-rest state vectors reachable by performing one simulated op
    ("inc" / "decnz" / "pz") on an Inc[a,b]-style lowering artifact, in
    interval semantics.  Empty list = the op is blocked from this state."""
    index, op_classes = _op_classes(artifact)
    # a vector that is no sequence goes to check_states as it is, to be named
    if not isinstance(vec, (tuple, list)):
        index.check_states(vec, "vector")
    return _interval_walk(index, op_classes, vec, op, counter_cap)


def _op_classes(artifact) -> tuple[SystemIndex, dict[str, tuple[int, ...]]]:
    """The interval-mode index of an Inc[a,b]-style artifact, and op ->
    (entry class, exit class): the tag, entry and first exit of each
    component of the spec it simulates."""
    if not isinstance(artifact, LoweringArtifact):
        raise SystemFormatError(
            f"artifact must be a LoweringArtifact, got {type(artifact).__name__}")
    index = _index(artifact, "interval")
    simulates = artifact.provenance.get("simulates")
    comps = getattr(catalog().get(simulates), "components", ())  # none if finite
    if sorted(c.kind.tag for c in comps) != ["decnz", "inc", "pz"]:
        raise SystemFormatError(f"artifact simulates {simulates!r}, not an Inc-DecNZ-PZ spec")
    return index, {c.kind.tag: tuple(index.endpoint_class(node_endpoint(p))
                                     for p in (c.entry, c.exit_ports[0])) for c in comps}


def _interval_walk(index: SystemIndex, op_classes: dict, vec: tuple, op: str,
                   counter_cap: int) -> list[tuple]:
    """interval_step on an interval-mode index and its artifact's _op_classes."""
    if not isinstance(op, str) or op not in op_classes:
        raise SystemFormatError(f"unknown op {op!r}; want inc/decnz/pz")
    entry_cls, exit_cls = op_classes[op]
    states = index.at_rest(vec)  # checked as reach.sweep checks a start
    check_integer(counter_cap, 0, f"cap and budget must be naturals, "
                                  f"got {counter_cap!r} and {_WALK_BUDGET!r}")
    index.check_states(states, "start")
    codec = index.codec(max(counter_cap, high := index.top(states)))
    start = index.prefix[entry_cls] + codec.pack_states(states)
    over_cap = {start: index.slots_above(states, counter_cap)} if high > counter_cap else {}
    visited, _, overflowed, budget_exhausted = _bfs(
        codec, (start,), over_cap, counter_cap, high, _WALK_BUDGET, None)[:4]
    if overflowed or budget_exhausted:
        raise InvariantViolation(
            f"op {op!r} from {vec} hit the cap/budget (cap={counter_cap}); "
            f"raise counter_cap to make the walk conclusive")
    return [codec.unpack(key).states for key in islice(visited, 1, None)  # not the start
            if key.startswith(index.prefix[exit_cls])]


def check_interval_invariant(artifact, ops: list[str] | tuple[str, ...], *, n0: int = 0
                             ) -> list[tuple]:
    """Drive a ranged-counter artifact (sim via Inc[a,b]-DecNZ[c,d]-PZ)
    through a feasible op sequence in interval semantics and assert the
    anchor invariant after every op:

        max-possible(g0) == min-possible(g1) == anchor * n

    where n is the abstract value implied by the ops and anchor = a*b*c*d.
    Every duplicator wrapper must also be back at exactly (0, 0).  Returns
    snapshots [(op, n, vector), ...] starting with ("start", n0, ...);
    raises InvariantViolation on a violated anchor, a blocked feasible op,
    an infeasible op, or a nondeterministic outcome.  ``ops`` must be a list
    or tuple of op names and ``n0`` a natural, checked before any walk.
    """
    check_integer(n0, 0, f"n0 must be a natural, got {n0!r}")
    if not isinstance(ops, (list, tuple)) or not all(
            isinstance(op, str) and op in _OPS for op in ops):
        raise SystemFormatError(
            f"ops must be a list or tuple of inc/decnz/pz, got {ops!r:.200}")
    index, classes = _op_classes(artifact)
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

    n_peak = n0 + ops.count("inc") + 1
    hs = max(h for ((_, _), (h, _)) in enc.iaffine)
    counter_cap = hs * (n_peak + 1) + 2

    n = n0
    vec = index.at_rest(enc.state_for(n0, "interval"))
    index.check_states(vec, "start")  # each walk's output is then valid by construction
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
        n += _OPS[op]
        snapshots.append((op, n, vec))
        check(f"step {step} ({op})")
    return snapshots
