"""Differential test of the boundary closure's shift reuse.

``reference_closure`` below is ``verify._closure`` as it was before a
concrete excursion could be the shift of a kept one, kept verbatim as the
oracle: it runs one BFS per (at-rest state, entered port).  The closure
must return equal lists (states, transitions, frontier, truncated) on the
quintet at every cap from 0 to 48 and at 96, on the concrete criterion-3
artifacts and criterion-5 mutants with impl caps below the seeds and tiny
inner budgets, on concrete spec closures with ranged kinds, and on small
generated systems.  Work guards keep the reuse from switching off
unnoticed, a quintet pass at caps 12/24/48 running at most 400 excursions,
and the closure from decoding the states it returns.
"""

from __future__ import annotations

import logging
import re
from typing import Iterable

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gadgetforge import gadgets as G, lower, verify
from gadgetforge.gadgets import (
    Component,
    CounterGadgetSpec,
    DecNZRange,
    DecRange,
    GadgetInstance,
    IncRange,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    canonicalize,
    node_endpoint,
    port_endpoint,
)
from gadgetforge.reach import _bfs
from gadgetforge.verify import _INNER_BUDGET, _STATE_BUDGET, _boundary_ports

from test_acceptance import _spliced_duplicator
from test_kernel_differential import _finite_system, _pz_loop_system, _ring
from test_verify import identity_subsystem

log = logging.getLogger(__name__)


# ------------------------------------------------------------- the oracle

def reference_closure(index: SystemIndex, seeds: Iterable, impl_cap: int) -> tuple:
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


# ------------------------------------------------------------ comparisons

def _assert_same_closure(index: SystemIndex, seeds, impl_cap: int,
                         inner_budget: int = _INNER_BUDGET) -> tuple:
    """The closure, its int states decoded, equals the oracle, both under
    ``inner_budget``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_INNER_BUDGET", inner_budget)
        patch.setitem(globals(), "_INNER_BUDGET", inner_budget)
        bodies, transitions, frontier, truncated, codec = verify._closure(
            index, seeds, impl_cap)
        got = verify._states(codec, bodies), transitions, frontier, truncated
        assert got == reference_closure(index, seeds, impl_cap)
    return got


def _quintet_seeds(index: SystemIndex, cap: int) -> tuple[list, int]:
    """The quintet's seeds at ``cap`` and the impl cap check_bisimulation takes."""
    enc = lower.sim_incdecjz_via_incjzdec().encoding
    seeds = [index.at_rest(enc.state_for(q)) for q in range(cap + 1)]
    return seeds, verify._default_impl_cap(index, seeds, cap)


def test_the_quintet_closure_matches_the_reference(caplog):
    index = canonicalize(lower.sim_incdecjz_via_incjzdec().system)
    reused = []
    for cap in [*range(49), 96]:
        seeds, impl_cap = _quintet_seeds(index, cap)
        caplog.clear()
        with caplog.at_level(logging.INFO):
            _assert_same_closure(index, seeds, impl_cap)
        # the closure's line, then the oracle's: the same fields and values,
        # and the number of excursions reused
        got, want = (r.getMessage() for r in caplog.records if "closure" in r.getMessage())
        n = re.search(r", (\d+) excursions reused", got)
        assert got[:n.start()] + got[n.end():] == want
        reused.append(int(n.group(1)))
    assert reused[-1] > reused[48] > 0  # caps 96 and 48


def _concrete_derivations(cap: int):
    """(name, system, seeds) of every concrete criterion-3 artifact, every
    criterion-5 single-edge deletion of the quintet, a system with finite
    gadgets and a PZ loop, seeded with the encodings of 0..cap."""
    cat = G.catalog()
    pairs = [
        ("flow-expanded", lower.build_inc_decnz_decnz(), cat["inc-decnz-decnz"]),
        ("quintet", lower.sim_incdecjz_via_incjzdec(), cat["inc-dec-jz"]),
        ("merged", lower.sim_incjzdec_via_incdecnzpz(), cat["inc-jzdec"]),
        ("sscd", lower.build_sscd_from_incdecnz(), cat["sscd"]),
        ("duplicator-no-leak", _spliced_duplicator(1, 2, 1, 2), cat["two-tunnel"]),
    ]
    for name, art, spec in pairs:
        states = range(cap + 1) if isinstance(spec, CounterGadgetSpec) else spec.states
        yield name, art.system, [tuple(art.encoding.state_for(q)) for q in states]
    quintet = lower.sim_incdecjz_via_incjzdec().system
    for k in range(len(quintet.edges)):
        mutant = SystemOfGadgets(
            specs=quintet.specs, instances=quintet.instances, nodes=quintet.nodes,
            edges=quintet.edges[:k] + quintet.edges[k + 1:], boundary=quintet.boundary)
        yield f"mutant-{k}", mutant, [(q, q, 0, 0, 0) for q in range(cap + 1)]
    yield "finite", _finite_system(3), [("1", "s0", q) for q in range(cap + 1)]
    yield "pz-loop", _pz_loop_system(), [(q,) for q in range(cap + 1)]


@pytest.mark.parametrize("cap", [8, 24])
def test_concrete_derivations_match_the_reference(cap):
    truncated = above_cap = 0
    for name, system, seeds in _concrete_derivations(cap):
        index = canonicalize(system)
        seed_max = max(index.top(vec) for vec in seeds)
        # impl caps with and without headroom over the seeds, full and tiny budgets
        for impl_cap, inner_budget in ((seed_max + 4, _INNER_BUDGET), (seed_max // 2, 3),
                                       (4, _INNER_BUDGET), (seed_max + 4, 1),
                                       (seed_max + 4, 3), (4, 1)):
            got = _assert_same_closure(index, seeds, impl_cap, inner_budget)
            truncated += got[3]
            above_cap += impl_cap < seed_max
    assert truncated and above_cap


_SPECS = [G.spec_inc_dec_jz(), G.spec_inc_jzdec(), G.spec_inc_decnz_pz(),
          G.spec_inc_decnz_pz_merged(), G.spec_inc_ab(1, 2, 1, 2), G.spec_inc_ab(1, 3, 2, 3),
          G.spec_inc_ab_multi(1, 2, 1, 2, 2, 2)]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.name)
def test_spec_closures_match_the_reference(spec):
    index = canonicalize(identity_subsystem(spec))
    for cap in (0, 1, 5, 16, 40):
        _assert_same_closure(index, [(s,) for s in range(cap + 1)], cap)


# ------------------------------------------------------ generated systems

_RANGED = st.builds(lambda kind, lo, extra: kind(lo, lo + extra),
                    st.sampled_from([IncRange, DecNZRange, DecRange]),
                    st.integers(1, 3), st.integers(0, 2))
_KINDS = _RANGED | st.sampled_from([G.PZ(), G.PNZ(), G.JZSwitch(), G.JZDecSwitch()])


@st.composite
def _counter_specs(draw, name: str) -> CounterGadgetSpec:
    """An Inc and 0-3 more components whose ports come from a pool of five,
    so some share an entrance or a location."""
    ports = st.sampled_from([f"{name}{k}" for k in range(5)])
    comps = []
    inc = st.builds(IncRange, st.integers(1, 2), st.integers(2, 3))
    for kind in [draw(inc), *draw(st.lists(_KINDS, max_size=3))]:
        comps.append(Component(kind, draw(ports),
                               tuple(draw(ports) for _ in range(kind.exits))))
    return CounterGadgetSpec(name, tuple(comps))


@st.composite
def _closure_cases(draw) -> tuple:
    """(system, seeds, impl cap, inner budget): 1-2 instances of one or two
    counter specs and maybe a finite ring, each port wired to at most one of
    four nodes (so the nodes stay apart), 2-4 boundary nodes, random seeds."""
    specs = [draw(_counter_specs("c")), draw(_counter_specs("d"))]
    if draw(st.booleans()):
        specs.append(_ring(3))
    chosen = [specs[0], *draw(st.lists(st.sampled_from(specs), max_size=1))]
    instances = [GadgetInstance(f"i{k}", spec.name, 0 if isinstance(spec, CounterGadgetSpec)
                                else spec.states[0])
                 for k, spec in enumerate(chosen)]
    by_name = {spec.name: spec for spec in specs}
    nodes = ("n0", "n1", "n2", "n3")
    edges = []
    for inst in instances:
        for loc in by_name[inst.spec].locations:
            node = draw(st.sampled_from((*nodes, *nodes, None)))
            if node is not None:
                edges.append((node_endpoint(node), port_endpoint(inst.id, loc)))
    boundary = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=4, unique=True))
    system = SystemOfGadgets(
        specs=tuple(specs), instances=tuple(instances), nodes=nodes, edges=tuple(edges),
        boundary=tuple(map(node_endpoint, boundary)))
    impl_cap = draw(st.integers(0, 8))

    def state(inst):  # now and then above the cap
        spec = by_name[inst.spec]
        return (draw(st.integers(0, impl_cap + 1)) if isinstance(spec, CounterGadgetSpec)
                else draw(st.sampled_from(spec.states)))

    seeds = [tuple(state(inst) for inst in instances)
             for _ in range(draw(st.integers(1, 8)))]
    return (system, seeds, impl_cap, draw(st.just(_INNER_BUDGET) | st.sampled_from([1, 3])))


@settings(max_examples=300, deadline=None)
@given(_closure_cases())
def test_generated_closures_match_the_reference(case):
    system, seeds, impl_cap, inner_budget = case
    _assert_same_closure(canonicalize(system), seeds, impl_cap, inner_budget)


# ------------------------------------------------------------- work guard

def test_a_quintet_pass_reuses_most_excursions(monkeypatch):
    # each check_bisimulation runs the spec closure and the impl closure;
    # without the reuse the three checks run 11,493 excursions
    runs = []
    monkeypatch.setattr(verify, "_bfs", lambda *args: runs.append(1) or _bfs(*args))
    art, spec = lower.sim_incdecjz_via_incjzdec(), G.catalog()["inc-dec-jz"]
    for cap, pins in ((12, (808, 256)), (24, (2752, 784)), (48, (10096, 2704))):
        report = verify.check_bisimulation(art, spec, cap=cap)
        assert report.verdict is verify.BisimVerdict.EQUIVALENT
        assert (report.relation_size, report.impl_states) == pins
    assert 0 < len(runs) <= 400


def test_a_quintet_pass_decodes_only_the_spec_states(monkeypatch):
    # the impl closure returns its states as ints, and an Equivalent check
    # reads none of them as tuples; only each spec closure's cap + 1 states
    # are decoded, for its BoundaryLTS (3,831 unpacks when every state was)
    unpacked = []
    real = G.KeyCodec.unpack
    monkeypatch.setattr(G.KeyCodec, "unpack", lambda *args: unpacked.append(1) or real(*args))
    art, spec = lower.sim_incdecjz_via_incjzdec(), G.catalog()["inc-dec-jz"]
    for cap in (12, 24, 48):
        report = verify.check_bisimulation(art, spec, cap=cap)
        assert report.verdict is verify.BisimVerdict.EQUIVALENT
    assert len(unpacked) <= 13 + 25 + 49
