"""Boundary-LTS and bounded-bisimulation tests.

The oracle here is a hand-written closure table: for a single gadget wired
1:1 to boundary nodes, the port-to-port closure must be exactly the
component move table (no multi-traversal excursions exist in a star wiring).
Those tables are spelled out below and frozen; everything else leans on
them.
"""

from __future__ import annotations

import dataclasses

import pytest

from gadgetforge import gadgets as G, lower
from gadgetforge.gadgets import (
    GadgetInstance,
    SystemFormatError,
    SystemOfGadgets,
    canonicalize,
    node_endpoint,
    port_endpoint,
)
from gadgetforge.reach import ReplayError, replay, sweep
from gadgetforge.verify import (
    BisimVerdict,
    InvariantViolation,
    check_bisimulation,
    check_interval_invariant,
    derive_boundary_lts,
    interval_step,
    spec_closure_lts,
    trace_splits,
)


def identity_subsystem(spec, initial=0, expose=None):
    """One instance, each exposed location wired to a boundary node of the
    same name — the graph spec_closure_lts uses, rebuilt independently."""
    locs = spec.locations if expose is None else expose
    return SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("g", spec.name, initial),),
        nodes=tuple(locs),
        edges=tuple((node_endpoint(l), port_endpoint("g", l)) for l in locs),
        boundary=tuple(node_endpoint(l) for l in locs),
    )


# ------------------------------------------------- closure oracle tables

def test_inc_dec_jz_closure_matches_hand_table():
    lts = spec_closure_lts(G.spec_inc_dec_jz(), cap=4)
    want = set()
    for s in range(5):
        if s < 4:
            want.add((s, "inc_in", "inc_out", s + 1))
        want.add((s, "dec_in", "dec_out", max(s - 1, 0)))
        if s == 0:
            want.add((0, "jz_in", "jz_out_zero", 0))
        else:
            want.add((s, "jz_in", "jz_out_nonzero", s))
    assert set(lts.transitions) == want
    assert set(lts.states) == set(range(5))
    # only state 4 has a pruned excursion (its increment)
    assert set(lts.cap_frontier) == {4}
    assert lts.ports == G.spec_inc_dec_jz().locations


def test_inc_decnz_pz_closure_matches_hand_table():
    spec = G.spec_inc_decnz_pz()
    lts = spec_closure_lts(spec, cap=3)
    want = set()
    for s in range(4):
        if s < 3:
            want.add((s, "inc_in", "inc_out", s + 1))
        if s >= 1:
            want.add((s, "dec_in", "dec_out", s - 1))
        if s == 0:
            want.add((0, "pz_in", "pz_out", 0))
    assert set(lts.transitions) == want
    assert set(lts.cap_frontier) == {3}


def test_sscd_closure_is_two_alternating_transitions():
    lts = spec_closure_lts(G.spec_sscd(), cap=5)
    assert set(lts.transitions) == {
        ("1", "L1", "R1", "2"),
        ("2", "L2", "R2", "1"),
    }
    assert lts.cap_frontier == frozenset()


def test_derive_on_identity_subsystem_equals_spec_closure():
    # same closure computed two ways: via spec_closure_lts and via a
    # hand-built 1:1 system through derive_boundary_lts
    for spec in (G.spec_inc_dec_jz(), G.spec_inc_jzdec(), G.spec_inc_decnz_pz()):
        cap = 5
        mine = derive_boundary_lts(identity_subsystem(spec),
                                   [(s,) for s in range(cap + 1)],
                                   impl_cap=cap)
        ref = spec_closure_lts(spec, cap)
        assert {(s[0], a, b, t[0]) for (s, a, b, t) in mine.transitions} \
            == set(ref.transitions)
        assert {v[0] for v in mine.cap_frontier} == set(ref.cap_frontier)
        assert mine.ports == ref.ports


def test_cap_zero_puts_state_zero_on_frontier():
    lts = spec_closure_lts(G.spec_inc_dec_jz(), cap=0)
    assert set(lts.states) == {0}
    assert set(lts.cap_frontier) == {0}
    # no increment transition survives
    assert all(a != "inc_in" for (_, a, _, _) in lts.transitions)


def test_derive_requires_boundary():
    sys0 = SystemOfGadgets(
        specs=(G.spec_inc_dec_jz(),),
        instances=(GadgetInstance("g", "inc-dec-jz", 0),),
    )
    with pytest.raises(SystemFormatError, match="no boundary"):
        derive_boundary_lts(sys0, [(0,)], impl_cap=3)


# ------------------------------------------------------- flow gadget LTS

def test_flow_gadget_boundary_behavior():
    art = lower.build_inc_decnz_decnz()
    enc = art.encoding.state_for
    lts = derive_boundary_lts(art.system, [enc(0, "concrete"), enc(1, "concrete")],
                              impl_cap=6)
    out = lts.out_map()
    zero, one, two = enc(0, "concrete"), enc(1, "concrete"), enc(2, "concrete")
    # both flow returns are shut at encoded 0
    assert ("d0_in", "d0_out") not in out[zero]
    assert ("d1_in", "d1_out") not in out[zero]
    # the increment tunnel is always open and lands exactly on the next
    # encoding (one transition, no stray intermediate exits)
    assert out[zero][("inc_in", "inc_out")] == {one}
    assert out[one][("inc_in", "inc_out")] == {two}
    # at encoded 1 each return opens, drains the token, and closes
    assert out[one][("d0_in", "d0_out")] == {zero}
    assert out[one][("d1_in", "d1_out")] == {zero}


# ----------------------------------------------------------- bisim runs

def test_reflexive_bisimulation():
    spec = G.spec_inc_dec_jz()
    report = check_bisimulation(identity_subsystem(spec), spec,
                                encoding=lambda q, mode: (q,), cap=6)
    assert report.verdict is BisimVerdict.EQUIVALENT
    assert report.seeds_checked == 7
    assert report.counterexample is None


def test_cap_zero_is_inconclusive_not_equivalent():
    spec = G.spec_inc_dec_jz()
    report = check_bisimulation(identity_subsystem(spec), spec,
                                encoding=lambda q, mode: (q,), cap=0)
    assert report.verdict is BisimVerdict.INCONCLUSIVE_AT_CAP
    assert "frontier" in report.note


def test_wrong_initial_state_is_caught():
    # same gadget, but the encoding lies by one
    spec = G.spec_inc_dec_jz()
    report = check_bisimulation(identity_subsystem(spec), spec,
                                encoding=lambda q, mode: (q + 1,), cap=6)
    assert report.verdict is BisimVerdict.NOT_EQUIVALENT
    (seed_pair, trace) = report.counterexample
    assert seed_pair[0] == (1,) and seed_pair[1] == 0
    assert trace is not None


def test_an_unknown_mode_is_an_error():
    art = lower.sim_incdecjz_via_incjzdec()
    with pytest.raises(SystemFormatError, match="sideways"):
        check_bisimulation(art, G.catalog()["inc-dec-jz"], cap=4, mode="sideways")
    with pytest.raises(SystemFormatError, match="bogus"):
        canonicalize(art.system, "bogus")


def test_port_map_must_be_a_bijection():
    spec = G.spec_inc_decnz()
    impl = identity_subsystem(spec)
    enc = lambda q, mode: (q,)  # noqa: E731
    ident = {p: p for p in spec.locations}

    shy = dict(ident)
    del shy["dec_out"]
    with pytest.raises(SystemFormatError, match="misses implementation ports"):
        check_bisimulation(impl, spec, shy, encoding=enc, cap=4)

    off_target = dict(ident, dec_out="warp_out")
    with pytest.raises(SystemFormatError, match="unknown spec locations"):
        check_bisimulation(impl, spec, off_target, encoding=enc, cap=4)

    folded = dict(ident, dec_out="dec_in")
    with pytest.raises(SystemFormatError, match="not injective"):
        check_bisimulation(impl, spec, folded, encoding=enc, cap=4)

    # fewer boundary ports than spec locations: total + injective but a
    # spec location is left uncovered
    partial = identity_subsystem(spec, expose=("inc_in", "inc_out", "dec_in"))
    with pytest.raises(SystemFormatError, match="covers no implementation port"):
        check_bisimulation(partial, spec, encoding=enc, cap=4)


def test_artifact_carries_its_own_encoding():
    art = lower.sim_incdecjz_via_incjzdec()
    report = check_bisimulation(art, G.spec_inc_dec_jz(), cap=6)
    assert report.verdict is BisimVerdict.EQUIVALENT
    with pytest.raises(SystemFormatError, match="no encoding"):
        check_bisimulation(art.system, G.spec_inc_dec_jz(), cap=6)


# ------------------------------------------------ counterexample replay

def _without_h0_diode():
    """The five-gadget simulation with its jz-entry diode bypassed: h0
    removed, jz_in wired straight to g1's switch."""
    art = lower.sim_incdecjz_via_incjzdec()
    sys0 = art.system
    keep = tuple(i for i in sys0.instances if i.id != "h0")
    edges = tuple(e for e in sys0.edges
                  if not any(ep.startswith("h0.") for ep in e))
    edges += (("node:jz_in", "g1.jz_in"),)
    mutant = SystemOfGadgets(specs=sys0.specs, instances=keep,
                             nodes=sys0.nodes, edges=edges,
                             boundary=sys0.boundary)
    return mutant, (lambda q, mode: (q, q, 0, 0))


def test_bypassed_diode_leaks_and_the_trace_replays():
    mutant, enc = _without_h0_diode()
    spec = G.spec_inc_dec_jz()
    cap = 6
    report = check_bisimulation(mutant, spec, encoding=enc, cap=cap)
    assert report.verdict is BisimVerdict.NOT_EQUIVALENT
    (x0, y0), trace = report.counterexample
    assert trace is not None

    # replay the distinguishing trace on independently recomputed LTSs:
    # exactly one side must run out of states
    impl_lts = derive_boundary_lts(
        mutant, [enc(q, "concrete") for q in range(cap + 1)],
        impl_cap=report.impl_cap)
    spec_lts = spec_closure_lts(spec, cap)
    xs, ys = trace_splits(impl_lts.out_map(), spec_lts.out_map(), x0, y0, trace)
    assert (len(xs) == 0) != (len(ys) == 0)


def test_leak_is_the_expected_one():
    # with the diode gone, a dec_in excursion can surface at jz_in
    mutant, enc = _without_h0_diode()
    lts = derive_boundary_lts(mutant, [enc(1, "concrete")], impl_cap=8)
    labels = {(a, b) for (_, a, b, _) in lts.transitions}
    assert ("dec_in", "jz_in") in labels


# -------------------------------------------------- trace agreement

def _trace_set(out_map, s0, depth):
    seqs = set()

    def walk(states, prefix):
        if len(prefix) == depth:
            return
        labels = {lab for s in states for lab in out_map.get(s, ())}
        for lab in labels:
            nxt = {t for s in states for t in out_map.get(s, {}).get(lab, ())}
            if nxt:
                seqs.add(prefix + (lab,))
                walk(nxt, prefix + (lab,))

    walk({s0}, ())
    return seqs


def test_equivalent_sides_agree_on_short_traces():
    # bisimilar states admit the same label sequences; check all traces of
    # length <= 3 from mid-range seeds, far from either cap frontier
    art = lower.sim_incdecjz_via_incjzdec()
    spec = G.spec_inc_dec_jz()
    cap = 8
    report = check_bisimulation(art, spec, cap=cap)
    assert report.verdict is BisimVerdict.EQUIVALENT
    enc = art.encoding.state_for
    impl_lts = derive_boundary_lts(art.system,
                                   [enc(q, "concrete") for q in range(cap + 1)],
                                   impl_cap=report.impl_cap)
    spec_lts = spec_closure_lts(spec, cap)
    impl_out, spec_out = impl_lts.out_map(), spec_lts.out_map()
    for q in (1, 2, 3):
        assert _trace_set(impl_out, enc(q, "concrete"), 3) \
            == _trace_set(spec_out, q, 3), q


# ------------------------------------------------- interval invariant

def test_interval_step_unit_ranges_track_exactly():
    art = lower.sim_incdecnzpz_via_incab(1, 1, 1, 1)
    enc = art.encoding.state_for
    e0, e1 = enc(0, "interval"), enc(1, "interval")
    assert interval_step(art, e0, "inc", counter_cap=6) == [e1]
    assert interval_step(art, e1, "decnz", counter_cap=6) == [e0]
    assert interval_step(art, e1, "pz", counter_cap=6) == []
    assert interval_step(art, e0, "decnz", counter_cap=6) == []
    assert interval_step(art, e0, "pz", counter_cap=6) == [e0]


def test_interval_step_growing_ranges():
    # (1,2,1,2): anchor 4; one simulated Inc lifts max(G0) from 0 to 4
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    enc = art.encoding.state_for
    (out,) = interval_step(art, enc(0, "interval"), "inc", counter_cap=12)
    assert out == enc(1, "interval")
    g0, g1 = out[0], out[1]
    assert g0[1] == 4 and g1[0] == 4


def test_an_interval_index_sweeps_and_replays():
    # a ranged artifact started at inc_in with the concrete encoding of 1
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    initial = art.encoding.state_for(1)
    system = dataclasses.replace(
        art.system, start=node_endpoint("inc_in"), instances=tuple(
            dataclasses.replace(inst, initial=v)
            for inst, v in zip(art.system.instances, initial)))
    index = canonicalize(system, "interval")
    start = index.start_config()
    assert start.states == tuple((v, v) for v in initial)

    exit_cls = index.endpoint_class(node_endpoint("inc_out"))
    result = sweep(index, [start], counter_cap=24, visit_budget=10_000,
                   goal_class=exit_cls)
    cfg = result.goal_hit
    assert cfg is not None and not result.overflowed
    assert [cfg.states] == interval_step(art, initial, "inc", counter_cap=24)
    chain = [cfg]  # the BFS parent chain, start first once reversed
    while result.visited[chain[-1]] is not None:
        chain.append(result.visited[chain[-1]][0])
    witness = result.path_to(cfg)
    assert replay(index, witness, start=start) == chain[::-1]
    with pytest.raises(ReplayError):  # the same labels are not concrete moves
        replay(canonicalize(system), witness)


def test_interval_invariant_walks():
    ops = ["inc", "inc", "decnz", "decnz", "pz", "inc", "decnz", "pz"]
    for params in ((1, 1, 1, 1), (1, 2, 1, 2), (2, 2, 1, 2)):
        art = lower.sim_incdecnzpz_via_incab(*params)
        snaps = check_interval_invariant(art, ops)
        assert [n for (_, n, _) in snaps] == [0, 1, 2, 1, 0, 0, 1, 0, 0]
        anchor = art.provenance["anchor"]
        for (_, n, vec) in snaps:
            assert vec[0][1] == vec[1][0] == anchor * n
    # feasibility bookkeeping is part of the contract: pz needs n == 0
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    with pytest.raises(InvariantViolation, match="infeasible"):
        check_interval_invariant(art, ["inc", "pz"])
    with pytest.raises(InvariantViolation, match="infeasible"):
        check_interval_invariant(art, ["decnz"], n0=0)


def test_interval_invariant_checks_the_anchor():
    # a poisoned artifact (anchor claim off by one) must be rejected
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    bad = lower.LoweringArtifact(
        system=art.system, roles=art.roles, encoding=art.encoding,
        provenance=dict(art.provenance, anchor=art.provenance["anchor"] + 1))
    with pytest.raises(InvariantViolation, match="expected max"):
        check_interval_invariant(bad, ["inc"])


def test_interval_invariant_requires_interval_artifact():
    quintet = lower.sim_incdecjz_via_incjzdec()
    with pytest.raises(SystemFormatError):
        check_interval_invariant(quintet, ["inc"])
