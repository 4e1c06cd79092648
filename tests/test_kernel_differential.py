"""Differential test of the packed-key search kernel against the tuple kernel.

The reference below is the tuple kernel the packed one replaced, kept
verbatim as the oracle: ``ReferenceIndex.successors`` builds a Traversal
and a Configuration for every move, ``reference_sweep`` keeps a visited map
of Configurations with their parent edges, ``reference_bfs_reach`` and
``reference_derive_boundary_lts`` read that map.  The packed kernel must
give, in this order, the same reached configurations with the same parent
configurations (visit order included), the same ``path_to`` labels, search
statistics, overflow and start-revisit flags, and the same boundary LTSs.
The cases cover caps at which the slot width changes (255, 256, 65,536),
finite gadgets (whose interned states can set the width), interval-mode
indexes, starts above the cap, and sweeps cut short by a tiny budget.

The boundary closure has a second oracle, ``sweep_derive_boundary_lts``:
the earlier ``derive_boundary_lts``, kept verbatim, which ran one whole
``reach.sweep`` per (at-rest state, boundary port).  The closure now runs
the shared BFS kernel on packed keys and interns states as ints; it must
return equal boundary LTSs.

``reference_validate`` is the validator before its set lookups.  With
``gadgets._validate`` it is also the oracle of the splice rule: every
``lower.substitute`` output, which is built without a validator, must
pass both.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict, deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gadgetforge import gadgets as G, lower, reach, verify
from gadgetforge.gadgets import (
    Component,
    Configuration,
    CounterGadgetSpec,
    DecRange,
    FiniteGadgetSpec,
    GadgetInstance,
    IncRange,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    Traversal,
    boundary_port,
    canonicalize,
    node_endpoint,
    port_endpoint,
)
from gadgetforge.machine import Dec, Halt, Inc, Jz, Program
from gadgetforge.reach import SearchOutcome, SearchStats, Verdict, sweep
from gadgetforge.verify import (
    _INNER_BUDGET,
    _STATE_BUDGET,
    BoundaryLTS,
    derive_boundary_lts,
    log,
    spec_closure_lts,
)

from test_acceptance import _RANGE_PARAMS, _corpus, _spliced_duplicator
from test_gadgets import systems


# ------------------------------------------------------------- the oracle

class ReferenceIndex(SystemIndex):
    """A SystemIndex whose successors are the tuple kernel's, over the tuple
    move table of ``reference_tables``."""

    def __init__(self, system: SystemOfGadgets, mode: str = "concrete") -> None:
        super().__init__(system, mode)
        _, _, self.moves, self.boundary_classes = reference_tables(system)

    def successors(self, config: Configuration, cap: int | None = None
                   ) -> list[tuple[Traversal, Configuration]]:
        """Every move from ``config``; under a ``cap`` ranged kinds stop early."""
        states = config.states
        interval = self.interval
        out: list[tuple[Traversal, Configuration]] = []
        for (i, inst_id, entry, kind, exit_ports, exit_classes) in self.moves.get(
                config.position, ()):
            state = states[i]
            for (choice, s2, e) in (kind.interval_moves(state) if interval
                                    else kind.moves(state, cap)):
                out.append((Traversal(inst_id, entry, exit_ports[e], choice, state, s2),
                            Configuration(exit_classes[e],
                                          states[:i] + (s2,) + states[i + 1:])))
        return out


@dataclass
class ReferenceSweep:
    visited: dict[Configuration, tuple[Configuration, Traversal] | None]
    goal_hit: Configuration | None
    overflowed: bool
    budget_exhausted: bool
    stats: SearchStats
    start_revisited: bool = False

    def path_to(self, config: Configuration) -> tuple[Traversal, ...]:
        return path_labels(self.visited, config)


def path_labels(parents: dict, node) -> tuple:
    labels = []
    edge = parents[node]
    while edge is not None:
        node, label = edge
        labels.append(label)
        edge = parents[node]
    return tuple(reversed(labels))


def _magnitude(state) -> int | None:
    if isinstance(state, bool):  # bools are ints; refuse silently weird input
        return None
    if isinstance(state, int):
        return state
    if isinstance(state, tuple):
        return state[1]  # interval (lo, hi): cap applies to hi
    return None  # finite-gadget state


def reference_sweep(index: ReferenceIndex, starts: list[Configuration], *,
                    counter_cap: int, visit_budget: int,
                    goal_class: int | None = None) -> ReferenceSweep:
    visited: dict[Configuration, tuple[Configuration, Traversal] | None] = {}
    queue: deque[Configuration] = deque()
    max_counter = 0
    over_cap: set[Configuration] = set()  # starts with a slot above the cap
    for cfg in starts:
        if cfg not in visited:
            visited[cfg] = None
            queue.append(cfg)
            top = max((m for m in map(_magnitude, cfg.states) if m is not None), default=0)
            max_counter = max(max_counter, top)
            if top > counter_cap:
                over_cap.add(cfg)
    # ranged moves stop one amount past this: nothing they skip could be
    # admitted, or be a start
    move_cap = max(counter_cap, max_counter)
    overflowed = False
    budget_exhausted = False
    start_revisited = False
    goal_hit: Configuration | None = None
    explored = 0
    frontier_peak = len(queue)

    while queue:
        if explored >= visit_budget:
            budget_exhausted = True
            break
        cfg = queue.popleft()
        explored += 1
        if goal_class is not None and cfg.position == goal_class:
            goal_hit = cfg
            break
        # only a start above the cap needs every slot checked (module docstring)
        whole = over_cap and cfg in over_cap
        for label, nxt in index.successors(cfg, move_cap):
            parent = visited.get(nxt, False)  # False: not reached yet
            if parent is not False:
                if parent is None:
                    start_revisited = True
                continue
            for s in (nxt.states if whole else (label.after,)):
                m = _magnitude(s)
                if m is not None:
                    if m > counter_cap:
                        overflowed = True
                        break
                    if m > max_counter:
                        max_counter = m
            else:
                visited[nxt] = (cfg, label)
                queue.append(nxt)
        if len(queue) > frontier_peak:
            frontier_peak = len(queue)
    if budget_exhausted and not start_revisited:  # reached, never expanded
        start_revisited = any(visited.get(nxt, False) is None for cfg in queue
                              for _, nxt in index.successors(cfg, move_cap))

    return ReferenceSweep(visited, goal_hit, overflowed, budget_exhausted,
                          SearchStats(explored, frontier_peak, max_counter), start_revisited)


def reference_bfs_reach(index: ReferenceIndex, counter_cap: int,
                        visit_budget: int = 1_000_000) -> SearchOutcome:
    if counter_cap < 0 or visit_budget < 0:
        raise SystemFormatError(
            f"cap and budget must be naturals, got {counter_cap} and {visit_budget}")
    if index.goal_class is None:
        raise SystemFormatError("goal required: system document has no goal endpoint")
    start = index.start_config()
    result = reference_sweep(index, [start], counter_cap=counter_cap,
                             visit_budget=visit_budget, goal_class=index.goal_class)
    if result.goal_hit is not None:
        witness = result.path_to(result.goal_hit)
        return SearchOutcome(Verdict.REACHABLE, None, witness, result.stats)
    if result.budget_exhausted:
        return SearchOutcome(Verdict.UNKNOWN, "budget-exhausted", None, result.stats)
    if result.overflowed:
        return SearchOutcome(Verdict.UNKNOWN, "cap-overflow-seen", None, result.stats)
    return SearchOutcome(Verdict.UNREACHABLE_WITHIN_CAP, None, None, result.stats)


def reference_derive_boundary_lts(index: ReferenceIndex, seeds, *, impl_cap: int,
                                  inner_budget: int = 200_000,
                                  state_budget: int = 100_000) -> BoundaryLTS:
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
        if len(seen) > state_budget:
            raise SystemFormatError(
                f"boundary closure exceeded {state_budget} at-rest states")
        vec = todo.popleft()
        for cid, pname in boundary:
            result = reference_sweep(index, [Configuration(cid, vec)],
                                     counter_cap=impl_cap, visit_budget=inner_budget)
            if result.overflowed or result.budget_exhausted:
                frontier.add(vec)
            if result.budget_exhausted:
                truncated = True
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


def sweep_derive_boundary_lts(system: SystemOfGadgets | SystemIndex,
                              seeds, *, impl_cap: int,
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
    boundary = {cid: boundary_port(ep)
                for cid, ep in zip(index.boundary_classes, index.system.boundary)}
    ports = tuple(boundary.values())

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
        for cid, pname in boundary.items():
            result = sweep(index, [Configuration(cid, vec)], counter_cap=impl_cap,
                           visit_budget=inner_budget)
            if result.overflowed or result.budget_exhausted:
                frontier.add(vec)
            if result.budget_exhausted:
                truncated = True
                log.warning("inner sweep truncated at %s from port %s", vec, pname)
            # a sweep that reached only its start (the zero-traversal
            # excursion) has no transition to read
            reached = result.configurations(boundary) if len(result.visited) > 1 else {}
            for cfg, parent in reached.values():
                if parent is None:
                    continue
                transitions.add((vec, pname, boundary[cfg.position], cfg.states))
                if cfg.states not in seen:
                    seen.add(cfg.states)
                    todo.append(cfg.states)
            if result.start_revisited:  # a cycle straight back to the start
                transitions.add((vec, pname, pname, vec))

    return BoundaryLTS(frozenset(seen), ports, frozenset(transitions),
                       frozenset(frontier), impl_cap, truncated)


# ------------------------------------------------------------ comparisons

def _assert_same_sweep(index: SystemIndex, ref: ReferenceIndex, starts, **bounds) -> None:
    got = reach.sweep(index, starts, **bounds)
    want = reference_sweep(ref, starts, **bounds)
    # 1. the reached configurations and their parents, in visit order
    reached = got.configurations(range(len(index.prefix)))
    assert [(cfg, None if parent is None else reached[parent][0])
            for cfg, parent in reached.values()] == \
        [(cfg, None if edge is None else edge[0]) for cfg, edge in want.visited.items()]
    # 2. labels, statistics and flags
    keys = list(got.visited)
    sample = keys if len(keys) <= 300 else keys[::50] + keys[-1:]
    for key in sample:
        assert got.path_to(key) == want.path_to(reached[key][0])
    goal = None if got.goal_hit is None else reached[got.goal_hit][0]
    assert (goal, got.stats, got.overflowed, got.start_revisited, got.budget_exhausted) \
        == (want.goal_hit, want.stats, want.overflowed, want.start_revisited,
            want.budget_exhausted)
    if got.goal_hit is not None:
        assert got.path_to(got.goal_hit) == want.path_to(want.goal_hit)


def _assert_same_search(system: SystemOfGadgets, cap: int, mode: str = "concrete",
                        budgets=(1, 3, 10**6)) -> None:
    index, ref = canonicalize(system, mode), ReferenceIndex(system, mode)
    full = max(budgets)
    assert reach.bfs_reach(index, counter_cap=cap, visit_budget=full) == \
        reference_bfs_reach(ref, counter_cap=cap, visit_budget=full)
    start = index.start_config()
    for budget in budgets:
        _assert_same_sweep(index, ref, [start], counter_cap=cap, visit_budget=budget,
                           goal_class=index.goal_class)


def _assert_same_closure(index: SystemIndex, ref: ReferenceIndex, seeds,
                         **bounds) -> BoundaryLTS:
    """The closure equals both oracles: the per-sweep one and the tuple kernel's.
    An ``inner_budget`` bound stands in for ``verify._INNER_BUDGET``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_INNER_BUDGET", bounds.get("inner_budget", _INNER_BUDGET))
        got = derive_boundary_lts(index, seeds, impl_cap=bounds["impl_cap"])
    assert got == sweep_derive_boundary_lts(index, seeds, **bounds)
    assert got == reference_derive_boundary_lts(ref, seeds, **bounds)
    return got


def _shift_above_cap(system: SystemOfGadgets, cap: int) -> SystemOfGadgets:
    """The same system with its first counter instance starting at cap + 1."""
    counters = {s.name for s in system.specs if isinstance(s, CounterGadgetSpec)}
    instances = list(system.instances)
    k = next(k for k, inst in enumerate(instances) if inst.spec in counters)
    instances[k] = GadgetInstance(instances[k].id, instances[k].spec, cap + 1)
    return dataclasses.replace(system, instances=tuple(instances))


CORPUS_CAP = 12


@pytest.mark.parametrize("target", ["inc-dec-jz", "inc-jzdec"])
def test_reach_matches_the_reference_on_the_corpus(target):
    shifted_differs = 0
    for program, initial in _corpus()[::12]:
        system = lower.pipeline(program, target, initial=initial).system
        _assert_same_search(system, CORPUS_CAP)
        shifted = _shift_above_cap(system, CORPUS_CAP)
        _assert_same_search(shifted, CORPUS_CAP)
        shifted_differs += (reach.bfs_reach(shifted, counter_cap=CORPUS_CAP)
                            != reach.bfs_reach(system, counter_cap=CORPUS_CAP))
    assert shifted_differs  # the shifted starts do change some searches


def _inc_dec_system(initial: int, dec: bool = True) -> SystemOfGadgets:
    """One Inc[1,5]/Dec[1,5] counter (no Dec with ``dec=False``) whose
    tunnels join at a start node; the goal is reachable only through a zero
    test."""
    inc = Component(IncRange(1, 5), "inc_in", ("inc_out",))
    dec_ = Component(DecRange(1, 5), "dec_in", ("dec_out",))
    pz = Component(G.PZ(), "pz_in", ("pz_out",))
    spec = CounterGadgetSpec("incdec15", (inc, dec_, pz) if dec else (inc, pz))
    eps = [port_endpoint("g", p) for c in spec.components for p in (c.entry, *c.exit_ports)
           if p != "pz_out"]
    return SystemOfGadgets(
        specs=(spec,), instances=(GadgetInstance("g", spec.name, initial),),
        nodes=("hub", "goal"),
        edges=tuple(("node:hub", ep) for ep in eps) + (("g.pz_out", "node:goal"),),
        start="node:hub", goal="node:goal", boundary=("node:hub", "node:goal"))


@pytest.mark.parametrize("initial", [0, 3, 7, 9, 10, 14])
def test_ranged_system_matches_the_reference(initial):
    cap = 9
    system = _inc_dec_system(initial)
    _assert_same_search(system, cap)
    index, ref = canonicalize(system), ReferenceIndex(system)
    for impl_cap in (cap, 4):
        for inner_budget in (1, 2, 3, 200_000):
            _assert_same_closure(index, ref, [(initial,)], impl_cap=impl_cap,
                                 inner_budget=inner_budget)


@pytest.mark.parametrize("cap", [255, 256, 65_536])
def test_searches_match_where_the_slot_width_changes(cap):
    # starts just under, at and above the cap: a successor one past the cap
    # may need a wider slot than any key of the sweep holds.  The boundary
    # closures count up only, so they stay near the cap.
    widths = set()
    for initial in (0, cap - 3, cap, cap + 1, cap + 7):
        system = _inc_dec_system(initial)
        _assert_same_search(system, cap, budgets=(1, 3, 40, 2_000))
        index = canonicalize(system)
        widths.add(reach.sweep(index, [index.start_config()], counter_cap=cap,
                               visit_budget=1).codec.width)
        if initial == 0:
            continue
        system = _inc_dec_system(initial, dec=False)
        index, ref = canonicalize(system), ReferenceIndex(system)
        for inner_budget in (1, 3, 200_000):
            _assert_same_closure(index, ref, [(initial,)], impl_cap=cap,
                                 inner_budget=inner_budget)
    assert widths == {255: {1, 2}, 256: {2}, 65_536: {3}}[cap]


def _ring(n: int) -> FiniteGadgetSpec:
    """A finite gadget with n states; crossing L -> R steps to the next."""
    states = tuple(f"s{k}" for k in range(n))
    return FiniteGadgetSpec(f"ring{n}", states, ("L", "R"), tuple(
        (states[k], "L", states[(k + 1) % n], "R") for k in range(n)))


def _finite_system(ring: int) -> SystemOfGadgets:
    """A self-closing door, a ring of finite states and an Inc-JZDec counter
    around one hub: the goal is behind the door's second tunnel, which the
    first tunnel (through the counter's increment) opens."""
    sscd, ring_spec, counter = G.spec_sscd(), _ring(ring), G.spec_inc_jzdec()
    hub = node_endpoint("hub")
    return SystemOfGadgets(
        specs=(sscd, ring_spec, counter),
        instances=(GadgetInstance("d", "sscd", "1"),
                   GadgetInstance("r", ring_spec.name, "s0"),
                   GadgetInstance("g", counter.name, 0)),
        nodes=("hub", "goal"),
        edges=((hub, "d.L1"), ("d.R1", "g.inc_in"), ("g.inc_out", hub),
               (hub, "d.L2"), ("d.R2", node_endpoint("goal")),
               (hub, "r.L"), ("r.R", hub), (hub, "g.jz_in"),
               ("g.jz_out_zero", hub), ("g.jz_out_nonzero", hub)),
        start=hub, goal=node_endpoint("goal"), boundary=(hub, node_endpoint("goal")))


@pytest.mark.parametrize("ring", [3, 300])
def test_finite_gadgets_match_the_reference(ring):
    # 300 interned states need 2-byte slots even at cap 3
    for cap in (0, 3):
        system = _finite_system(ring)
        _assert_same_search(system, cap)
        _assert_same_search(_shift_above_cap(system, cap), cap)
        index = canonicalize(system)
        assert reach.sweep(index, [index.start_config()], counter_cap=cap,
                           visit_budget=1).codec.width == (2 if ring == 300 else 1)
    spec_lts = spec_closure_lts(G.spec_sscd(), 4)
    assert spec_lts.transitions == {("1", "L1", "R1", "2"), ("2", "L2", "R2", "1")}


def _interval_search_system(params) -> SystemOfGadgets:
    """A ranged artifact started at inc_in with the concrete encoding of 1,
    its goal at inc_out."""
    art = lower.sim_incdecnzpz_via_incab(*params)
    return dataclasses.replace(
        art.system, start=node_endpoint("inc_in"), goal=node_endpoint("inc_out"),
        instances=tuple(dataclasses.replace(inst, initial=v) for inst, v in
                        zip(art.system.instances, art.encoding.state_for(1))))


@pytest.mark.parametrize("params", _RANGE_PARAMS)
def test_interval_searches_match_the_reference(params):
    system = _interval_search_system(params)
    for cap in (2, 24):
        _assert_same_search(system, cap, "interval")
        _assert_same_search(_shift_above_cap(system, cap), cap, "interval")


def test_ranged_moves_stop_at_the_cap():
    inc, dec = IncRange(1, 1000), DecRange(1, 1000)
    assert len(inc.moves(0)) == 1000 and len(dec.moves(7)) == 1000  # replay: every amount
    assert [s2 for _, s2, _ in inc.moves(3, 12)] == list(range(4, 14))
    assert [s2 for _, s2, _ in inc.moves(12, 12)] == [13]
    assert [s2 for _, s2, _ in inc.moves(20, 12)] == [21]
    assert [s2 for _, s2, _ in dec.moves(7, 12)] == [6, 5, 4, 3, 2, 1, 0]
    assert [s2 for _, s2, _ in dec.moves(0, 12)] == [0]
    assert [s2 for _, s2, _ in DecRange(3, 5).moves(1, 12)] == [0]
    assert [s2 for _, s2, _ in DecRange(3, 5).moves(9, 12)] == [6, 5, 4]
    index = canonicalize(_inc_dec_system(0))
    start = index.start_config()
    assert len(index.successors(start)) == 11  # 5 inc + 5 dec + pz


def test_a_witness_names_the_exit_of_each_shared_entry_component():
    # two PZ tunnels share entry `a`; the shortest witness takes a->b, raises
    # y, and then takes a->c from the same x state: equal slot bytes and
    # choice, different exits
    spec = CounterGadgetSpec("fork", (
        Component(G.PZ(), "a", ("b",)), Component(G.PZ(), "a", ("c",)),
        Component(IncRange(1, 1), "d", ("e",)), Component(G.PNZ(), "f", ("g",))))
    system = SystemOfGadgets(
        specs=(spec,), instances=(GadgetInstance("x", "fork", 0), GadgetInstance("y", "fork", 0)),
        nodes=("hub", "mid", "late", "goal"),
        edges=(("node:hub", "x.a"), ("x.b", "node:mid"), ("node:mid", "y.d"),
               ("y.e", "node:hub"), ("x.c", "node:late"), ("node:late", "y.f"),
               ("y.g", "node:goal")),
        start="node:hub", goal="node:goal", boundary=())
    index, ref = canonicalize(system), ReferenceIndex(system)
    _assert_same_sweep(index, ref, [index.start_config()], counter_cap=4,
                       visit_budget=100, goal_class=index.goal_class)
    found = reach.sweep(index, [index.start_config()], counter_cap=4, visit_budget=100,
                        goal_class=index.goal_class)
    assert [(t.instance, t.entry, t.exit) for t in found.path_to(found.goal_hit)] == \
        [("x", "a", "b"), ("y", "d", "e"), ("x", "a", "c"), ("y", "f", "g")]


# ------------------------------------------------------ the memo tables
#
# A codec keeps each kind's successor slots in a memo table across sweeps.
# A sweep or a closure on an index that has run others must equal the same
# call on a fresh index, and the tuple kernel's.

def _sweep_view(result: reach.Sweep) -> tuple:
    """A sweep as bytes and labels, without the move rows (whose memo
    tables differ between a fresh index and a used one)."""
    goal = None if result.goal_hit is None else result.path_to(result.goal_hit)
    return (list(result.visited.items()), goal, result.stats, result.overflowed,
            result.budget_exhausted, result.start_revisited,
            [result.path_to(key) for key in list(result.visited)[::97]])


def _hub_system(kinds, initial=(0, 2)) -> SystemOfGadgets:
    """One counter gadget with a tunnel per kind (a switch's two exits), one
    instance of it per initial value, every port on one hub; the goal is
    behind the last instance's zero exit of a JZDec, if it has one."""
    spec = CounterGadgetSpec("hubbed", tuple(
        Component(kind, f"in{k}", tuple(f"out{k}_{e}" for e in range(kind.exits)))
        for k, kind in enumerate(kinds)))
    ids, hub = "abcd"[:len(initial)], node_endpoint("hub")
    goal = [f"{ids[-1]}.out{k}_0" for k, kind in enumerate(kinds)
            if isinstance(kind, G.JZDecSwitch)]
    edges = [(hub, port_endpoint(i, loc)) for i in ids for loc in spec.locations
             if port_endpoint(i, loc) not in goal]
    return SystemOfGadgets(
        specs=(spec,), instances=tuple(GadgetInstance(i, spec.name, v)
                                       for i, v in zip(ids, initial)),
        nodes=("hub", "goal"), edges=tuple(edges + [(g, "node:goal") for g in goal]),
        start=hub, goal=node_endpoint("goal") if goal else None, boundary=(hub,))


def test_the_memo_does_not_leak_across_caps():
    system = _hub_system((IncRange(1, 3), G.DecNZRange(1, 1), G.JZDecSwitch()))
    index, ref = canonicalize(system), ReferenceIndex(system)
    start = index.start_config()
    for cap in (3, 200, 3):
        for goal_class in (None, index.goal_class):
            bounds = dict(counter_cap=cap, visit_budget=5_000, goal_class=goal_class)
            fresh = canonicalize(system)
            assert _sweep_view(reach.sweep(index, [start], **bounds)) == \
                _sweep_view(reach.sweep(fresh, [fresh.start_config()], **bounds))
            _assert_same_sweep(index, ref, [start], **bounds)
    # the ranged rows have no table; the others share one per kind, and each was used
    tables = [row[2] for rows in index.codec(200).moves.values() for row in rows]
    assert tables.count(None) == 2
    tables = {id(t): t for t in tables if t is not None}
    assert len(tables) == 2 and all(tables.values())


def test_the_memo_does_not_leak_across_modes():
    # a concrete 2-byte slot and an interval pair of 1-byte slots look alike
    system = _hub_system((IncRange(1, 3), G.DecNZRange(1, 1), G.JZDecSwitch()))
    indexes = {mode: (canonicalize(system, mode), ReferenceIndex(system, mode))
               for mode in ("concrete", "interval")}
    for mode, cap in (("concrete", 300), ("interval", 20), ("concrete", 300),
                      ("interval", 3)):
        index, ref = indexes[mode]
        start = index.start_config()
        fresh = canonicalize(system, mode)
        bounds = dict(counter_cap=cap, visit_budget=3_000)
        assert _sweep_view(reach.sweep(index, [start], **bounds)) == \
            _sweep_view(reach.sweep(fresh, [start], **bounds))
        _assert_same_sweep(index, ref, [start], **bounds)


@pytest.mark.parametrize("mode, build, caps", [
    ("concrete", lower.sim_incdecjz_via_incjzdec, (6, 2, 20)),
    ("interval", lambda: lower.sim_incdecnzpz_via_incab(1, 2, 1, 2), (6, 2, 20)),
])
def test_a_closure_then_a_sweep_equal_them_on_fresh_indexes(mode, build, caps):
    art = build()
    closure_cap, *sweep_caps = caps
    seeds = [art.encoding.state_for(q, mode) for q in range(closure_cap + 1)]
    index = canonicalize(art.system, mode)
    lts = derive_boundary_lts(index, seeds, impl_cap=closure_cap)
    assert lts == derive_boundary_lts(canonicalize(art.system, mode), seeds,
                                      impl_cap=closure_cap)
    starts = [Configuration(cid, index.at_rest(seeds[3])) for cid in index.boundary_classes]
    for cap in sweep_caps:
        fresh = canonicalize(art.system, mode)
        assert _sweep_view(reach.sweep(index, starts, counter_cap=cap, visit_budget=10**6)) \
            == _sweep_view(reach.sweep(fresh, starts, counter_cap=cap, visit_budget=10**6))
    # and the closure once more, after the sweeps
    assert derive_boundary_lts(index, seeds, impl_cap=closure_cap) == lts


def test_ranged_rows_keep_no_memo():
    n = 1_000
    index = canonicalize(_hub_system((IncRange(1, n), G.DecNZRange(1, n), G.PZ()),
                                     initial=(0,)))
    result = reach.sweep(index, [index.start_config()], counter_cap=n, visit_budget=10**6)
    assert result.stats.max_counter == n and not result.budget_exhausted
    rows = [row for rows in result.codec.moves.values() for row in rows]
    assert [row[2] is None for row in rows] == [True, True, False]
    for memo in {id(row[2]): row[2] for row in rows if row[2] is not None}.values():
        seen = {key[off:end] for key in result.visited
                for off, end, table, *_ in rows if table is memo}
        assert memo and set(memo) <= seen


def _shared_entrance_cases():
    """Systems in which two rows of one instance share a slot and an entry:
    the merged-entrance artifact from its boundary, and a JZ and a PZ on
    one entrance, whose zero moves differ only in their exit port."""
    art = lower.sim_incjzdec_via_incdecnzpz()
    index = canonicalize(art.system)
    yield pytest.param(art.system, [Configuration(cid, index.at_rest(art.encoding.state_for(q)))
                                     for cid in index.boundary_classes for q in (0, 2)],
                       id="merged")
    spec = CounterGadgetSpec("split-zero", (
        Component(IncRange(1, 1), "inc", ("inc_out",)),
        Component(G.JZSwitch(), "in", ("jz_zero", "jz_nonzero")),
        Component(G.PZ(), "in", ("pz_zero",))))
    system = SystemOfGadgets(
        specs=(spec,), instances=(GadgetInstance("a", spec.name, 0),
                                  GadgetInstance("b", spec.name, 1)),
        nodes=("hub", "x", "y"),
        edges=(("node:hub", "a.in"), ("node:hub", "a.inc"), ("a.inc_out", "node:hub"),
               ("a.jz_nonzero", "node:hub"), ("a.jz_zero", "node:x"), ("a.pz_zero", "node:y"),
               ("node:x", "b.in"), ("node:y", "b.inc"), ("b.inc_out", "node:hub"),
               ("b.jz_zero", "node:hub"), ("b.jz_nonzero", "node:hub")),
        start="node:hub")
    yield pytest.param(system, [canonicalize(system).start_config()], id="jz-and-pz")


@pytest.mark.parametrize("system, starts", _shared_entrance_cases())
def test_path_to_keys_rows_apart_where_they_share_a_slot_and_an_entry(system, starts):
    index = canonicalize(system)
    for entry_rows in index.codec(0).moves.values():
        slots = [row[4] for row in entry_rows]
        if len(set(slots)) < len(slots):
            break
    else:
        pytest.fail("no two rows share a slot and an entry")
    bounds = dict(counter_cap=6, visit_budget=10**5)
    got = reach.sweep(index, starts, **bounds)
    want = reference_sweep(ReferenceIndex(system), starts, **bounds)
    reached = got.configurations(range(len(index.prefix)))
    assert len(reached) == len(want.visited) > 10
    for key, (cfg, _) in reached.items():
        assert got.path_to(key) == want.path_to(cfg), cfg


def _twin_system(wide_first: bool, door: bool) -> SystemOfGadgets:
    """Moves from one parent that reach one child key, every pair from the
    hub to x: a counter's two PZ tunnels, a finite gadget's two
    state-preserving tunnels (if ``door``: the tuple kernel has no interval
    mode for it), and a counter's Inc[1,3] and Inc[1,1] (the first one
    first if ``wide_first``), whose amounts of 1 agree.  A slot
    that a move to x leaves alone matches the child there, so a child is
    also matched by position and slot bytes from the other instances.  The
    goal is behind a DecNZ[2,2] from x: the witness crosses the Inc[1,3],
    which keeps no memo."""
    incs = [Component(IncRange(1, 3), "i3", ("o3",)), Component(IncRange(1, 1), "i1", ("o1",))]
    spec = CounterGadgetSpec("twins", tuple(incs if wide_first else incs[::-1]) + (
        Component(G.PZ(), "p", ("po",)), Component(G.PZ(), "q", ("qo",)),
        Component(G.DecNZRange(1, 1), "d", ("do",)),
        Component(G.DecNZRange(2, 2), "g", ("go",))))
    twin_door = FiniteGadgetSpec("twin-door", ("s",), ("a1", "b1", "a2", "b2"),
                                 (("s", "a1", "s", "b1"), ("s", "a2", "s", "b2")))
    hub, x = node_endpoint("hub"), node_endpoint("x")
    tunnels = [("a", "p", "po"), ("a", "q", "qo"), ("b", "i3", "o3"), ("b", "i1", "o1"),
               ("f", "a1", "b1"), ("f", "a2", "b2")][:6 if door else 4]
    edges = [e for i, a, b in tunnels for e in ((hub, f"{i}.{a}"), (f"{i}.{b}", x))]
    return SystemOfGadgets(
        specs=(spec, twin_door), instances=(GadgetInstance("a", spec.name, 0),
                                            GadgetInstance("b", spec.name, 0))
        + ((GadgetInstance("f", twin_door.name, "s"),) if door else ()),
        nodes=("hub", "x", "goal"),
        edges=tuple(edges) + ((x, "a.i1"), ("a.o1", hub), (x, "b.d"), ("b.do", hub),
                              (x, "b.g"), ("b.go", node_endpoint("goal"))),
        start=hub, goal=node_endpoint("goal"))


@pytest.mark.parametrize("mode", ["concrete", "interval"])
@pytest.mark.parametrize("wide_first", [True, False])
def test_path_to_names_the_first_move_in_kernel_order_to_a_child(mode, wide_first):
    system = _twin_system(wide_first, door=mode == "concrete")
    _assert_same_search(system, 6, mode)
    index = canonicalize(system, mode)
    result = reach.sweep(index, [index.start_config()], counter_cap=6, visit_budget=10**6)
    assert 50 < len(result.visited) < 300 and not result.budget_exhausted
    named = {(t.instance, t.entry, t.choice) for key in result.visited
             for t in result.path_to(key)}
    # each pair's second tunnel reaches only children its first one reached
    tunnels = {(i, entry) for i, entry, _ in named}
    assert ("a", "p") in tunnels and not {("a", "q"), ("f", "a2")} & tunnels
    if mode == "concrete":  # the door's first tunnel from A > 0, and the first Inc's 1s
        assert ("f", "a1") in tunnels
        first, second = ("i3", "i1") if wide_first else ("i1", "i3")
        assert ("b", first, 1) in named and ("b", second, 1) not in named
    outcome = reach.bfs_reach(index, counter_cap=6)
    assert [(t.instance, t.entry) for t in outcome.witness] == [("b", "i3"), ("b", "g")]
    assert len(reach.replay(index, outcome.witness)) == 3


def _criterion_3_derivations():
    """(name, system, seeds, mode) of every criterion-3 artifact at cap 8,
    every criterion-5 single-edge deletion of the quintet, and a system
    with finite gadgets."""
    cap = 8
    cat = G.catalog()
    pairs = [
        ("flow-expanded", lower.build_inc_decnz_decnz(), cat["inc-decnz-decnz"], "concrete"),
        ("quintet", lower.sim_incdecjz_via_incjzdec(), cat["inc-dec-jz"], "concrete"),
        ("merged", lower.sim_incjzdec_via_incdecnzpz(), cat["inc-jzdec"], "concrete"),
        ("sscd", lower.build_sscd_from_incdecnz(), cat["sscd"], "concrete"),
        ("duplicator-no-leak", _spliced_duplicator(1, 2, 1, 2), cat["two-tunnel"],
         "concrete"),
    ] + [(f"incab-{a}{b}{c}{d}", lower.sim_incdecnzpz_via_incab(a, b, c, d),
          cat["inc-decnz-pz"], "interval") for a, b, c, d in _RANGE_PARAMS]
    for name, art, spec, mode in pairs:
        states = range(cap + 1) if isinstance(spec, CounterGadgetSpec) else spec.states
        seeds = [tuple(art.encoding.state_for(q, mode)) for q in states]
        yield name, art.system, seeds, mode
    quintet = lower.sim_incdecjz_via_incjzdec().system
    for k in range(len(quintet.edges)):
        mutant = SystemOfGadgets(
            specs=quintet.specs, instances=quintet.instances, nodes=quintet.nodes,
            edges=quintet.edges[:k] + quintet.edges[k + 1:], boundary=quintet.boundary)
        yield f"mutant-{k}", mutant, [(q, q, 0, 0, 0) for q in range(cap + 1)], "concrete"
    yield "finite", _finite_system(3), [("1", "s0", q) for q in range(cap + 1)], "concrete"
    yield "pz-loop", _pz_loop_system(), [(q,) for q in range(cap + 1)], "concrete"


def _pz_loop_system() -> SystemOfGadgets:
    """An Inc-DecNZ-PZ counter whose PZ tunnel leads from the hub straight
    back to it: at 0 the excursion from the hub revisits its start."""
    spec = G.spec_inc_decnz_pz()
    hub, out = node_endpoint("hub"), node_endpoint("out")
    return SystemOfGadgets(
        specs=(spec,), instances=(GadgetInstance("g", spec.name, 0),),
        nodes=("hub", "out"),
        edges=((hub, "g.pz_in"), ("g.pz_out", hub), (hub, "g.inc_in"), ("g.inc_out", out),
               (out, "g.dec_in"), ("g.dec_out", hub)),
        boundary=(hub, out))


def test_boundary_lts_matches_the_reference():
    truncated = above_cap = cycles = 0
    for name, system, seeds, mode in _criterion_3_derivations():
        index, ref = canonicalize(system, mode), ReferenceIndex(system, mode)
        seed_max = max(m for vec in seeds for m in map(_magnitude, index.at_rest(vec))
                       if m is not None)
        # impl caps with and without headroom over the seeds, full and tiny budgets
        for impl_cap, inner_budget in ((seed_max + 4, 200_000), (4, 200_000),
                                       (seed_max + 4, 1), (seed_max + 4, 3)):
            got = _assert_same_closure(index, ref, seeds, impl_cap=impl_cap,
                                       inner_budget=inner_budget)
            truncated += got.truncated
            above_cap += impl_cap < seed_max
            cycles += any(s == t and a == b for s, a, b, t in got.transitions)
    assert truncated and above_cap and cycles


# ------------------------------------------- index and validator oracles
#
# SystemIndex groups endpoints with an inlined union-find and _validate
# checks endpoints against one set of legal strings.  The code they
# replaced is kept below verbatim as the oracle: the tables must be equal,
# and the validator must accept the same systems and reject the others with
# the same exception and message.

class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def add(self, x: str) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def reference_tables(system: SystemOfGadgets) -> tuple:
    """(classes, class_of, moves, boundary_classes) as the _UnionFind index
    built them."""
    uf = _UnionFind()
    for name in system.nodes:
        uf.add(node_endpoint(name))
    locations = {spec.name: spec.locations for spec in system.specs}
    for inst in system.instances:
        for loc in locations[inst.spec]:
            uf.add(port_endpoint(inst.id, loc))
    for (a, b) in system.edges:
        uf.union(a, b)

    members: dict[str, list[str]] = {}
    for ep in uf.parent:
        members.setdefault(uf.find(ep), []).append(ep)
    classes: list[tuple[str, ...]] = [tuple(sorted(eps)) for eps in members.values()]
    class_of = {ep: cid for cid, eps in enumerate(classes) for ep in eps}

    # per spec, its entrances as (entry port, kind, exit ports)
    spec_of = {spec.name: spec for spec in system.specs}
    parts = {name: ([(c.entry, c.kind, c.exit_ports) for c in spec.components]
                    if isinstance(spec, CounterGadgetSpec) else
                    [(a, G._FiniteStep(s, s2, k), (b,))
                     for k, (s, a, s2, b) in enumerate(spec.transitions)])
             for name, spec in spec_of.items()}
    cls = class_of
    moves: dict[int, list[tuple]] = {}
    for i, inst in enumerate(system.instances):
        for entry, kind, exits in parts[inst.spec]:
            moves.setdefault(cls[port_endpoint(inst.id, entry)], []).append(
                (i, inst.id, entry, kind, exits,
                 tuple([cls[port_endpoint(inst.id, p)] for p in exits])))

    boundary_classes: dict[int, str] = {}
    for ep in system.boundary:
        cid = class_of[ep]
        if cid in boundary_classes:
            raise SystemFormatError(
                f"boundary endpoints {boundary_classes[cid]!r} and {ep!r} "
                "fell into the same connectivity class")
        boundary_classes[cid] = ep
    return classes, class_of, moves, boundary_classes


def reference_validate(system: SystemOfGadgets) -> None:
    """The one validity check, run by SystemOfGadgets on construction.
    Linear in specs, instances, nodes and endpoints."""
    specs: dict[str, G.GadgetSpec] = {}
    spec_locations: dict[str, frozenset[str]] = {}
    for spec in system.specs:  # each spec checked itself when it was built
        if not isinstance(spec, G.GadgetSpec):
            raise SystemFormatError(f"not a gadget spec: {spec!r}")
        if spec.name in specs:
            raise SystemFormatError(f"duplicate spec name {spec.name!r}")
        specs[spec.name] = spec
        spec_locations[spec.name] = frozenset(spec.locations)
    ports_of: dict[str, frozenset[str]] = {}  # instance id -> its locations
    for inst in system.instances:
        if not isinstance(inst.id, str) or "." in inst.id or not inst.id:
            raise SystemFormatError(f"bad instance id {inst.id!r} (no dots, nonempty)")
        if inst.id == "node" or inst.id.startswith("node:"):
            raise SystemFormatError(
                f"instance id {inst.id!r} is reserved: its port endpoints "
                "would read as connection nodes")
        if inst.id in ports_of:
            raise SystemFormatError(f"duplicate instance id {inst.id!r}")
        spec = specs.get(inst.spec) if isinstance(inst.spec, str) else None
        if spec is None:
            raise SystemFormatError(f"no spec named {inst.spec!r}")
        G.check_state(spec, inst.initial, f"{inst.id}: initial state")
        ports_of[inst.id] = spec_locations[spec.name]
    G._check_names("node name", system.nodes)
    node_set = set(system.nodes)
    if len(node_set) != len(system.nodes):
        raise SystemFormatError("duplicate node name")
    if not node_set.isdisjoint(ports_of):
        raise SystemFormatError("node names and instance ids overlap")

    def check_ep(ep: str) -> None:
        if not isinstance(ep, str):
            raise SystemFormatError(f"endpoint must be a string, got {ep!r}")
        kind, rest = G.split_endpoint(ep)
        if kind == "node":
            if rest not in node_set:
                raise SystemFormatError(f"unknown node in endpoint {ep!r}")
        else:
            locs = ports_of.get(kind)
            if locs is None:
                raise SystemFormatError(f"unknown instance in endpoint {ep!r}")
            if rest not in locs:
                raise SystemFormatError(f"unknown port in endpoint {ep!r}")

    for edge in system.edges:
        if type(edge) is not tuple or len(edge) != 2:  # a list pair would not hash
            raise SystemFormatError(f"edge must be a pair of endpoints, got {edge!r:.200}")
        a, b = edge
        check_ep(a)
        check_ep(b)
    for ep in (system.start, system.goal):
        if ep is not None:
            check_ep(ep)
    for ep in system.boundary:
        check_ep(ep)


def _outcome(build):
    """build()'s value, or the type and message of what it raised."""
    try:
        return build()
    except Exception as exc:  # the oracle and the code under test must agree
        return type(exc), str(exc)


def _index_tables(system: SystemOfGadgets) -> tuple:
    """The index's tables in the shape ``reference_tables`` returns: each
    endpoint's class read from ``class_at`` at its number (the nodes from 0,
    then the table of instances; ``endpoint_class`` must agree), grouped
    into classes by id; the codec's rows read back to class -> (slot,
    instance, entry, kind, exit ports, exit classes), a finite step's codes
    turned back into names; and the boundary classes paired with the
    boundary endpoints."""
    index = canonicalize(system)
    class_of = {}
    nodes = {name: k for k, name in enumerate(system.nodes)}
    for head, (off, place) in {"node:": (0, nodes), **index.table}.items():
        for name, k in place.items():
            ep = node_endpoint(name) if head == "node:" else port_endpoint(head, name)
            class_of[ep] = index.class_at[off + k]
            if head == "node:" or name:  # "ID." is no endpoint
                assert index.endpoint_class(ep) == class_of[ep]
    assert len(class_of) == len(index.class_at)
    members: list[list[str]] = [[] for _ in index.prefix]
    for ep, cid in class_of.items():
        members[cid].append(ep)
    classes = [tuple(sorted(eps)) for eps in members]
    names, cid = index.finite_states, lambda prefix: int.from_bytes(prefix, "big")
    moves, codec = {}, index.codec(0)
    for prefix, rows in codec.moves.items():
        for row in rows:
            _, _, _, exits, i, inst_id, entry, exit_ports, step, _, counted = _row_view(codec, row)
            kind = step.__self__
            if not counted:
                kind = dataclasses.replace(kind, before=names[kind.before],
                                           after=names[kind.after])
            moves.setdefault(cid(prefix), []).append(
                (i, inst_id, entry, kind, exit_ports, tuple(map(cid, exits))))
    assert len(set(index.boundary_classes)) == len(system.boundary)
    return classes, class_of, moves, dict(zip(index.boundary_classes, system.boundary))


def _row_view(codec: G.KeyCodec, row: tuple) -> tuple:
    """A codec row in the 11 fields of ``reference_codec``'s rows: the
    kernel's five, the instance id, then the shared entrance record's five."""
    assert len(row) == 6 and len(row[5]) == 5
    return row[:5] + (codec.ids[row[4]],) + row[5]


def _index_cases():
    for target in lower.PIPELINE_TARGETS:
        kw = {"range_params": (1, 2, 1, 2)} if target == "inc-ab" else {}
        for program, initial in _corpus()[::12]:
            yield lower.pipeline(program, target, initial=initial, **kw).system
    for _, system, _, _ in _criterion_3_derivations():
        yield system
    yield lower.sim_incdecnzpz_via_incab(1, 2, 1, 2, expand="via-duplicators").system
    # ids that sort around "node:" and below ".", so that string order and
    # table order disagree: the classes must follow table order
    spec = G.spec_inc_decnz()
    ids = ("nod", "node-", "nodez", "noda", "a-b", "a", "z")
    yield SystemOfGadgets(
        specs=(spec,), instances=tuple(GadgetInstance(i, spec.name, 0) for i in ids),
        nodes=("", "b", "z."), edges=(("node:", "nodez.inc_in"), ("node-.dec_out", "a.inc_in"),
                                      ("node:z.", "a-b.dec_in"), ("nod.inc_out", "noda.dec_in")),
        boundary=("node:b", "z.inc_out"))
    # chains joined root to root grow deep trees, which path halving shortens
    nodes = tuple(f"n{k}" for k in range(12))
    chain = [(node_endpoint(f"n{k + 1}"), node_endpoint(f"n{k}")) for k in range(8)]
    for edges in (chain, [(b, a) for a, b in chain]):
        for tail in ((("node:n0", "node:n9"),), (("node:n9", "node:n0"),),
                     (("node:n0", "node:n10"), ("node:n11", "node:n3"))):
            yield SystemOfGadgets(specs=(), instances=(), nodes=nodes,
                                  edges=tuple(edges) + tail, boundary=("node:n10",))


def test_index_tables_match_the_union_find_reference():
    count = 0
    for system in _index_cases():
        assert _index_tables(system) == reference_tables(system)
        count += 1
    assert count > 150


@settings(max_examples=100, deadline=None)
@given(systems())
def test_index_tables_match_the_reference_on_generated_systems(system):
    # a boundary collision must raise the same error in both
    assert _outcome(lambda: _index_tables(system)) == _outcome(lambda: reference_tables(system))


# KeyCodec builds one row template per spec and fills in each instance's
# offsets, classes, slot and id.  Its loop that built every row from the
# spec, one instance at a time, is kept below verbatim as the oracle.

def reference_codec(index: SystemIndex, width: int) -> tuple:
    """(layout, moves, size) as KeyCodec.__init__ built them per instance."""
    off = index.pos_width
    code, prefix, cls = index.finite_code, index.prefix, index.class_at
    layout: list[tuple[int, bool, bool]] = []
    moves: dict[bytes, list[tuple]] = {}
    memos: defaultdict[object, dict[bytes, tuple]] = defaultdict(dict)
    for i, (inst, counted) in enumerate(zip(index.system.instances, index.counter)):
        pair = counted and index.interval
        layout.append((off, pair, counted))
        end = off + width * (2 if pair else 1)
        spec = index.spec_of[inst.spec]
        base, place = index.table[inst.id]
        # its entrances as (entry port, kind, exit ports)
        parts = ([(c.entry, c.kind, c.exit_ports) for c in spec.components] if counted
                 else [(a, G._FiniteStep(code[s], code[s2], k), (b,))
                       for k, (s, a, s2, b) in enumerate(spec.transitions)])
        for entry, kind, exit_ports in parts:
            cached = pair or not isinstance(kind, G._Ranged) or kind.lo == kind.hi
            moves.setdefault(prefix[cls[base + place[entry]]], []).append(
                (off, end, memos[kind] if cached else None,
                 tuple([prefix[cls[base + place[p]]] for p in exit_ports]),
                 i, inst.id, entry, exit_ports,
                 kind.interval_moves if pair else kind.moves, pair, counted))
        off = end
    return layout, moves, off


def _assert_rows_match(index: SystemIndex) -> int:
    """A fresh codec at slot widths 1 and 2 has the reference's layout, size
    and rows: the same prefixes in the same order, and every row's 11 fields
    equal and of one type (read through ``_row_view``), the step as the
    same function of an equal kind.  Rows of equal kinds share one memo
    table, and unequal kinds do not; the rows of one (spec, component)
    share one entrance record: a spec has as many records as components
    (or transitions), each of them its own.  Returns the number of rows."""
    specs = [inst.spec for inst in index.system.instances]
    parts = {name: n for name, spec in index.spec_of.items() if name in specs and (n := len(
        spec.components if isinstance(spec, CounterGadgetSpec) else spec.transitions))}
    for width in (1, 2):
        codec = G.KeyCodec(index, width)
        layout, moves, size = reference_codec(index, width)
        assert (codec.layout, codec.size) == (layout, size)
        assert list(codec.moves) == list(moves)
        memo_of: dict[object, dict] = {}
        entrances: dict[int, str] = {}  # id of a record the codec keeps -> its spec
        for prefix, want_rows in moves.items():
            rows = codec.moves[prefix]
            assert len(rows) == len(want_rows)
            for got_row, want in zip(rows, want_rows):
                spec = specs[want[4]]
                assert entrances.setdefault(id(got_row[5]), spec) == spec
                row = _row_view(codec, got_row)
                assert len(row) == len(want) == 11
                for k, (got, ref) in enumerate(zip(row, want)):
                    if k == 8:  # kind.moves or kind.interval_moves, bound
                        got, ref = (got.__func__, got.__self__), (ref.__func__, ref.__self__)
                    assert type(got) is type(ref) and got == ref, (prefix, k)
                if row[2] is not None:
                    assert memo_of.setdefault(row[8].__self__, row[2]) is row[2]
        assert len({id(memo) for memo in memo_of.values()}) == len(memo_of)
        assert Counter(entrances.values()) == parts
    return sum(map(len, moves.values()))


def _codec_cases():
    yield from _index_cases()
    for params in _RANGE_PARAMS:
        yield lower.sim_incdecnzpz_via_incab(*params).system
    frag = lower.emit_initializer([24])
    yield lower.pipeline(frag.concat(Program(frag.counters, (Halt(),))), "inc-jzdec").system
    yield _finite_system(3)
    yield _finite_system(300)


@pytest.mark.parametrize("mode", ["concrete", "interval"])
def test_codec_rows_match_the_per_instance_reference(mode):
    rows = sum(_assert_rows_match(canonicalize(system, mode)) for system in _codec_cases())
    assert rows > 10_000


@settings(max_examples=100, deadline=None)
@given(systems(), st.sampled_from(["concrete", "interval"]))
def test_codec_rows_match_the_reference_on_generated_systems(system, mode):
    try:
        index = canonicalize(system, mode)
    except SystemFormatError:  # two boundary endpoints in one class
        return
    _assert_rows_match(index)


class _Unchecked(SystemOfGadgets):
    """A system built without the validator, to hand to either validator."""

    def __post_init__(self) -> None:
        pass


_BAD_ENDPOINTS = ["", "node", "node:", "node:zz", ".x", "a..b", "zz.a", 1, True, 2.5,
                  ("node:a",), ["node:a"], b"node:a", None]


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_validator_matches_the_reference(system, data):
    """Replace one endpoint or edge of a valid system, legal or not: the
    set-lookup validator and the reference agree on every outcome."""
    legal = sorted({ep for edge in system.edges for ep in edge} | set(system.boundary))
    ids = [inst.id for inst in system.instances]
    endpoint = st.sampled_from(_BAD_ENDPOINTS + legal
                               + [f"{i}." for i in ids] + [f"{i}.zz" for i in ids]
                               + [node_endpoint(n) + "x" for n in system.nodes])
    field = data.draw(st.sampled_from(["edge-end", "edge-shape", "start", "goal",
                                       "boundary"]))
    edges, boundary = list(system.edges), list(system.boundary)
    start, goal = system.start, system.goal
    if field == "edge-end" and edges:
        k, side = data.draw(st.integers(0, len(edges) - 1)), data.draw(st.integers(0, 1))
        pair = list(edges[k])
        pair[side] = data.draw(endpoint)
        edges[k] = tuple(pair)
    elif field == "edge-shape":
        a, b = data.draw(endpoint), data.draw(endpoint)
        edges.insert(data.draw(st.integers(0, len(edges))), data.draw(
            st.sampled_from([(a,), (a, b, a), [a, b], (), "ab", a])))
    elif field == "start":
        start = data.draw(endpoint)
    elif field == "goal":
        goal = data.draw(endpoint)
    elif field == "boundary":
        boundary.insert(data.draw(st.integers(0, len(boundary))), data.draw(endpoint))
    mutant = _Unchecked(system.specs, system.instances, system.nodes, tuple(edges),
                        start, goal, tuple(boundary))
    assert _outcome(lambda: G._validate(mutant)) == _outcome(lambda: reference_validate(mutant))


# ------------------------------------------------------------- splice rule
#
# lower.substitute builds its output without _validate: a splice of valid
# systems is valid once the copies' names are fresh and their seeds are
# states.  Both validators are the oracle on every output.

def _spliced_systems(build) -> list[SystemOfGadgets]:
    """The system of every ``lower.substitute`` output ``build()`` makes."""
    outputs, real = [], lower.substitute

    def recording(*args):
        out = real(*args)
        outputs.append(out.system)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lower, "substitute", recording)
        build()
    return outputs


def _assert_both_accept(systems) -> None:
    for system in systems:
        G._validate(system)
        reference_validate(system)


@pytest.mark.parametrize("target", ["inc-jzdec", "inc-decnz-pz"])
def test_corpus_splices_pass_both_validators(target):
    outputs = _spliced_systems(lambda: [lower.pipeline(program, target, initial)
                                        for program, initial in _corpus()])
    assert len(outputs) >= len(_corpus())
    _assert_both_accept(outputs)


def _two_instance_host(spec) -> lower.LoweringArtifact:
    """Two instances of ``spec`` in different states, port joined to port,
    with a kept node, a start, a goal and a boundary on their ports."""
    locs = spec.locations
    states = (0, 2) if isinstance(spec, CounterGadgetSpec) else (spec.states[0], spec.states[-1])
    return lower.LoweringArtifact(SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("x0", spec.name, states[0]),
                   GadgetInstance("x1", spec.name, states[1])),
        nodes=("hub",),
        edges=tuple((port_endpoint("x0", loc), port_endpoint("x1", loc)) for loc in locs)
        + ((node_endpoint("hub"), port_endpoint("x0", locs[0])),),
        start=port_endpoint("x1", locs[0]), goal=node_endpoint("hub"),
        boundary=(port_endpoint("x0", locs[-1]),)))


def test_criterion_3_splices_pass_both_validators():
    cat = G.catalog()
    parts = [(lower.build_inc_decnz_decnz(), cat["inc-decnz-decnz"]),
             (lower.sim_incdecjz_via_incjzdec(), cat["inc-dec-jz"]),
             (lower.sim_incjzdec_via_incdecnzpz(), cat["inc-jzdec"]),
             (lower.build_sscd_from_incdecnz(), cat["sscd"]),
             (_spliced_duplicator(1, 2, 1, 2), cat["two-tunnel"])]
    parts += [(lower.sim_incdecnzpz_via_incab(*params), cat["inc-decnz-pz"])
              for params in _RANGE_PARAMS]
    for part, spec in parts:
        out = lower.substitute(_two_instance_host(spec), spec.name, part)
        assert len(out.system.instances) == 2 * len(part.system.instances)
        _assert_both_accept([out.system])


@st.composite
def _programs(draw):
    counters = ("c0", "c1")[:draw(st.integers(1, 2))]
    n = draw(st.integers(1, 4))
    ops = st.one_of(st.builds(Inc, st.sampled_from(counters)),
                    st.builds(Dec, st.sampled_from(counters)),
                    st.builds(Jz, st.sampled_from(counters), st.integers(0, n - 1)),
                    st.just(Halt()))
    program = Program(counters, tuple(draw(st.lists(ops, min_size=n, max_size=n))))
    return program, {c: draw(st.integers(0, 3)) for c in counters}


@settings(max_examples=40, deadline=None)
@given(_programs(), st.sampled_from(lower.PIPELINE_TARGETS),
       st.sampled_from(_RANGE_PARAMS), st.sampled_from(["direct", "via-duplicators"]))
def test_pipeline_splices_pass_both_validators(case, target, params, expand):
    program, initial = case
    a, b, c, d = params
    if max(a, c) > min(b, d):  # duplicators need [a,b] and [c,d] to overlap
        expand = "direct"
    _assert_both_accept(_spliced_systems(lambda: lower.pipeline(
        program, target, initial, range_params=params, expand=expand)))


# ------------------------------------------- interval mode at unit ranges

def _read_back(witness: tuple[Traversal, ...]) -> tuple[Traversal, ...]:
    """An interval witness with each singleton (v, v) read as v."""
    def value(state):
        if not isinstance(state, tuple):
            return state
        lo, hi = state
        assert lo == hi
        return lo
    return tuple(dataclasses.replace(t, before=value(t.before), after=value(t.after))
                 for t in witness)


@pytest.mark.parametrize("target", ["inc-dec-jz", "inc-jzdec", "inc-decnz-pz"])
def test_interval_search_at_unit_ranges_is_the_concrete_search(target):
    # with [1,1] ranges every interval stays (v, v), and each interval move
    # has its concrete twin's choice and exit: same verdict, same stats, and
    # the witness read back is the concrete one
    reachable = 0
    for program, initial in _corpus()[::6]:
        system = lower.pipeline(program, target, initial=initial).system
        concrete = reach.bfs_reach(system, counter_cap=12)
        interval = reach.bfs_reach(canonicalize(system, "interval"), counter_cap=12)
        assert (interval.verdict, interval.reason, interval.stats) == \
            (concrete.verdict, concrete.reason, concrete.stats)
        if concrete.witness is not None:
            witness = _read_back(interval.witness)
            assert witness == concrete.witness
            reach.replay(system, witness)
            reachable += 1
    assert reachable > 20
