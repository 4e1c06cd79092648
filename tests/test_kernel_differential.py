"""Differential test of the search kernel against the reference it replaced.

The reference below is the earlier kernel, kept verbatim as the oracle:
``ReferenceIndex.successors`` looks up each spec and endpoint class per
move, ``reference_sweep`` checks every slot of every new configuration
against the cap, and ``reference_derive_boundary_lts`` enumerates the
successors of every visited configuration a second time to find cycles
back to the start.  The current kernel must give the same verdicts,
witnesses, statistics, visited maps and boundary LTSs, including for
start configurations above the cap (admitted unchecked; a successor that
keeps such a slot is pruned) and for inner sweeps cut short by a tiny
budget.
"""

from __future__ import annotations

from collections import deque

import pytest

from gadgetforge import gadgets as G, lower, reach
from gadgetforge.gadgets import (
    Component,
    Configuration,
    CounterGadgetSpec,
    DecRange,
    GadgetInstance,
    IncRange,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    Traversal,
    boundary_port,
    canonicalize,
    port_endpoint,
)
from gadgetforge.reach import SearchOutcome, SearchStats, Sweep, Verdict, _magnitude
from gadgetforge.verify import BoundaryLTS, derive_boundary_lts

from test_acceptance import _RANGE_PARAMS, _corpus, _spliced_duplicator


# ------------------------------------------------------------- the oracle

# the earlier verify._promote, whose job SystemIndex.at_rest now does
def _promote(vec: tuple, mode: str) -> tuple:
    if mode != "interval":
        return tuple(vec)
    return tuple((v, v) if isinstance(v, int) else v for v in vec)


class ReferenceIndex(SystemIndex):
    """A SystemIndex whose successors are enumerated the earlier way."""

    def __init__(self, system: SystemOfGadgets) -> None:
        super().__init__(system)
        spec_of = {inst.id: system.spec_named(inst.spec) for inst in system.instances}
        self._spec_of = spec_of
        self.entries: dict[int, list[tuple[int, int]]] = {}
        for i, inst in enumerate(system.instances):
            spec = spec_of[inst.id]
            if isinstance(spec, CounterGadgetSpec):
                for ci, comp in enumerate(spec.components):
                    cid = self.class_of[port_endpoint(inst.id, comp.entry)]
                    self.entries.setdefault(cid, []).append((i, ci))
            else:
                for ti, (s, a, s2, b) in enumerate(spec.transitions):
                    cid = self.class_of[port_endpoint(inst.id, a)]
                    self.entries.setdefault(cid, []).append((i, ti))

    def successors(self, config: Configuration, mode: str = "concrete"
                   ) -> list[tuple[Traversal, Configuration]]:
        system = self.system
        out: list[tuple[Traversal, Configuration]] = []
        for (i, key) in self.entries.get(config.position, ()):
            inst = system.instances[i]
            spec = self._spec_of[inst.id]
            state = config.states[i]
            if isinstance(spec, CounterGadgetSpec):
                comp = spec.components[key]
                moves = (comp.kind.interval_moves(state) if mode == "interval"
                         else comp.kind.moves(state))
                for (choice, s2, exit_idx) in moves:
                    port = comp.exit_ports[exit_idx]
                    q = self.class_of[port_endpoint(inst.id, port)]
                    states = config.states[:i] + (s2,) + config.states[i + 1:]
                    out.append((Traversal(inst.id, comp.entry, port, choice, state, s2),
                                Configuration(q, states)))
            else:
                (s, a, s2, b) = spec.transitions[key]
                if s == state:
                    q = self.class_of[port_endpoint(inst.id, b)]
                    states = config.states[:i] + (s2,) + config.states[i + 1:]
                    out.append((Traversal(inst.id, a, b, key, state, s2),
                                Configuration(q, states)))
        return out


def reference_sweep(index, starts, *, counter_cap, visit_budget, mode="concrete",
                    goal_class=None) -> Sweep:
    visited: dict = {}
    queue: deque = deque()
    max_counter = 0
    for cfg in starts:
        if cfg not in visited:
            visited[cfg] = None
            queue.append(cfg)
            for s in cfg.states:
                m = _magnitude(s)
                if m is not None and m > max_counter:
                    max_counter = m
    overflowed = False
    budget_exhausted = False
    goal_hit = None
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
        for label, nxt in index.successors(cfg, mode):
            if nxt in visited:
                continue
            too_big = False
            for s in nxt.states:
                m = _magnitude(s)
                if m is not None:
                    if m > counter_cap:
                        too_big = True
                        break
                    if m > max_counter:
                        max_counter = m
            if too_big:
                overflowed = True
                continue
            visited[nxt] = (cfg, label)
            queue.append(nxt)
        if len(queue) > frontier_peak:
            frontier_peak = len(queue)

    return Sweep(visited, goal_hit, overflowed, budget_exhausted,
                 SearchStats(explored, frontier_peak, max_counter))


def reference_bfs_reach(index, counter_cap, visit_budget=1_000_000) -> SearchOutcome:
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


def reference_derive_boundary_lts(index, seeds, *, impl_cap, mode="concrete",
                                  inner_budget=200_000, state_budget=100_000
                                  ) -> BoundaryLTS:
    if not index.boundary_classes:
        raise SystemFormatError("system has no boundary endpoints")
    boundary = [(cid, boundary_port(ep)) for cid, ep in index.boundary_classes.items()]
    boundary.sort(key=lambda pair: index.system.boundary.index(
        index.boundary_classes[pair[0]]))
    ports = tuple(name for _, name in boundary)

    todo: deque = deque()
    seen: set = set()
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
            start = Configuration(cid, vec)
            result = reference_sweep(index, [start], counter_cap=impl_cap,
                                     visit_budget=inner_budget, mode=mode)
            if result.overflowed:
                frontier.add(vec)
            if result.budget_exhausted:
                frontier.add(vec)
                truncated = True
            for cfg, parent in result.visited.items():
                if parent is None:
                    continue  # the zero-traversal start itself
                qname = None
                if cfg.position in index.boundary_classes:
                    qname = boundary_port(index.boundary_classes[cfg.position])
                if qname is None:
                    continue
                transitions.add((vec, pname, qname, cfg.states))
                if cfg.states not in seen:
                    seen.add(cfg.states)
                    todo.append(cfg.states)
            # a cycle straight back to the start configuration is the one
            # revisit BFS cannot report; check for it explicitly
            for cfg, parent in result.visited.items():
                for _lab, nxt in index.successors(cfg, mode):
                    if nxt == start:
                        transitions.add((vec, pname, pname, vec))
                        break
                else:
                    continue
                break

    return BoundaryLTS(frozenset(seen), ports, frozenset(transitions),
                       frozenset(frontier), impl_cap, truncated)


# ------------------------------------------------------------ comparisons

def _shift_above_cap(system: SystemOfGadgets, cap: int) -> SystemOfGadgets:
    """The same system with its first counter instance starting at cap + 1."""
    counters = {s.name for s in system.specs if isinstance(s, CounterGadgetSpec)}
    instances = list(system.instances)
    k = next(k for k, inst in enumerate(instances) if inst.spec in counters)
    instances[k] = GadgetInstance(instances[k].id, instances[k].spec, cap + 1)
    return SystemOfGadgets(system.specs, tuple(instances), system.nodes, system.edges,
                           system.start, system.goal, system.boundary)


def _assert_same_search(system: SystemOfGadgets, cap: int) -> None:
    index, ref = canonicalize(system), ReferenceIndex(system)
    got = reach.bfs_reach(index, counter_cap=cap)
    want = reference_bfs_reach(ref, counter_cap=cap)
    assert got == want
    start = index.start_config()
    for budget in (3, 10**6):
        got_sweep = reach.sweep(index, [start], counter_cap=cap, visit_budget=budget,
                                goal_class=index.goal_class)
        want_sweep = reference_sweep(ref, [start], counter_cap=cap, visit_budget=budget,
                                     goal_class=index.goal_class)
        assert list(got_sweep.visited.items()) == list(want_sweep.visited.items())
        assert (got_sweep.goal_hit, got_sweep.overflowed, got_sweep.budget_exhausted,
                got_sweep.stats) == (want_sweep.goal_hit, want_sweep.overflowed,
                                     want_sweep.budget_exhausted, want_sweep.stats)


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


def _inc_dec_system(initial: int) -> SystemOfGadgets:
    """One Inc[1,5]/Dec[1,5] counter whose tunnels join at a start node;
    the goal is reachable only through a zero test."""
    spec = CounterGadgetSpec("incdec15", (
        Component(IncRange(1, 5), "inc_in", ("inc_out",)),
        Component(DecRange(1, 5), "dec_in", ("dec_out",)),
        Component(G.PZ(), "pz_in", ("pz_out",)),
    ))
    eps = [port_endpoint("g", p) for p in ("inc_in", "inc_out", "dec_in", "dec_out",
                                           "pz_in")]
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
        for inner_budget in (1, 2, 200_000):
            assert derive_boundary_lts(
                index, [(initial,)], impl_cap=impl_cap, inner_budget=inner_budget
            ) == reference_derive_boundary_lts(
                ref, [(initial,)], impl_cap=impl_cap, inner_budget=inner_budget)


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
    assert len(index.successors(start, cap=2)) == 3 + 1 + 1


def _criterion_3_derivations():
    """(name, system, seeds, mode) of every criterion-3 artifact at cap 8,
    then every criterion-5 single-edge deletion of the quintet."""
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


def test_boundary_lts_matches_the_reference():
    truncated = above_cap = 0
    for name, system, seeds, mode in _criterion_3_derivations():
        index, ref = canonicalize(system, mode), ReferenceIndex(system)
        seed_max = max(m for vec in seeds for m in map(_magnitude, _promote(vec, mode))
                       if m is not None)
        # impl caps with and without headroom over the seeds, full and tiny budgets
        for impl_cap, inner_budget in ((seed_max + 4, 200_000), (4, 200_000),
                                       (seed_max + 4, 3)):
            got = derive_boundary_lts(index, seeds, impl_cap=impl_cap,
                                      inner_budget=inner_budget)
            want = reference_derive_boundary_lts(ref, seeds, impl_cap=impl_cap, mode=mode,
                                                 inner_budget=inner_budget)
            assert got == want, (name, impl_cap, inner_budget)
            truncated += got.truncated
            above_cap += impl_cap < seed_max
    assert truncated and above_cap
