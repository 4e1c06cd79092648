"""Boundary-LTS and bounded-bisimulation tests.

The oracle here is a hand-written closure table: for a single gadget wired
1:1 to boundary nodes, the port-to-port closure must be exactly the
component move table (no multi-traversal excursions exist in a star wiring).
Those tables are spelled out below and frozen; everything else leans on
them.
"""

from __future__ import annotations

import dataclasses
import logging
import re

import pytest

from gadgetforge import gadgets as G, lower, verify
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


def test_derive_requires_boundary(monkeypatch):
    sys0 = SystemOfGadgets(
        specs=(G.spec_inc_dec_jz(),),
        instances=(GadgetInstance("g", "inc-dec-jz", 0),),
    )
    with pytest.raises(SystemFormatError, match="no boundary"):
        derive_boundary_lts(sys0, [(0,)], impl_cap=3)
    # and a closure that finds more at-rest states than its budget stops
    monkeypatch.setattr(verify, "_STATE_BUDGET", 20)
    with pytest.raises(SystemFormatError, match="exceeded 20 at-rest states"):
        check_bisimulation(lower.sim_incdecjz_via_incjzdec(), G.catalog()["inc-dec-jz"],
                           cap=4)


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
                                encoding=lower.Encoding("affine", affine=((1, 0),)), cap=6)
    assert report.verdict is BisimVerdict.EQUIVALENT
    assert report.seeds_checked == 7
    assert report.counterexample is None


def test_cap_zero_is_inconclusive_not_equivalent():
    spec = G.spec_inc_dec_jz()
    report = check_bisimulation(identity_subsystem(spec), spec,
                                encoding=lower.Encoding("affine", affine=((1, 0),)), cap=0)
    assert report.verdict is BisimVerdict.INCONCLUSIVE_AT_CAP
    assert "frontier" in report.note


def test_wrong_initial_state_is_caught():
    # same gadget, but the encoding lies by one
    spec = G.spec_inc_dec_jz()
    report = check_bisimulation(identity_subsystem(spec), spec,
                                encoding=lower.Encoding("affine", affine=((1, 1),)), cap=6)
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


def test_an_index_is_checked_in_its_own_mode():
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    spec = G.catalog()["inc-decnz-pz"]
    index = canonicalize(art.system, "interval")
    report = check_bisimulation(index, spec, cap=4, encoding=art.encoding)
    assert report.verdict is BisimVerdict.EQUIVALENT
    assert (report.relation_size, report.impl_states) == (151, 49)
    assert report == check_bisimulation(art, spec, cap=4, mode="interval")
    with pytest.raises(SystemFormatError, match="interval mode"):
        check_bisimulation(index, spec, cap=4, encoding=art.encoding, mode="concrete")


def test_refinement_logs_what_it_did(caplog, capsys):
    with caplog.at_level(logging.INFO, logger="gadgetforge.verify"):
        report = check_bisimulation(lower.sim_incdecjz_via_incjzdec(),
                                    G.catalog()["inc-dec-jz"], cap=8)
    line, = (r.getMessage() for r in caplog.records if "refinement" in r.getMessage())
    initial, removed, checks = map(int, re.findall(r"\d+", line))
    assert initial - removed == report.relation_size and removed and checks
    assert "impl-state checks" in line
    assert capsys.readouterr().out == ""


def test_refinement_checks_each_impl_state_a_few_times(caplog):
    # work guard: a check decides every spec state of one impl state, so
    # the checks stay a small multiple of the impl states (5,347 for 784;
    # the earlier per-pair worklist made 13,339 re-checks here)
    with caplog.at_level(logging.INFO, logger="gadgetforge.verify"):
        report = check_bisimulation(lower.sim_incdecjz_via_incjzdec(),
                                    G.catalog()["inc-dec-jz"], cap=24)
    line, = (r.getMessage() for r in caplog.records if "refinement" in r.getMessage())
    checks = int(re.findall(r"\d+", line)[2])
    assert report.impl_states == 784 and checks <= 8 * report.impl_states


def test_refinement_visits_successors_first(caplog):
    # work guard: the first pass in DFS postorder carries a removal back
    # through a chain of states in one pass; in set order it took 30,494
    # checks (11.3 per impl state) here
    with caplog.at_level(logging.INFO, logger="gadgetforge.verify"):
        report = check_bisimulation(lower.sim_incdecjz_via_incjzdec(),
                                    G.catalog()["inc-dec-jz"], cap=48)
    line, = (r.getMessage() for r in caplog.records if "refinement" in r.getMessage())
    checks = int(re.findall(r"\d+", line)[2])
    assert (report.relation_size, report.impl_states) == (10096, 2704)
    assert checks <= 4 * report.impl_states


def test_caps_follow_the_integer_rule():
    # a bool is no cap: True once answered Equivalent and reported cap True
    art = lower.sim_incdecjz_via_incjzdec()
    for bounds in ({"cap": 2.5}, {"cap": True}, {"cap": -1}, {"cap": 4, "impl_cap": 6.0},
                   {"cap": 4, "impl_cap": False}, {"cap": 4, "impl_cap": -2}):
        with pytest.raises(SystemFormatError, match="^cap and impl cap must be naturals"):
            check_bisimulation(art, G.catalog()["inc-dec-jz"], **bounds)
    for impl_cap in (2.5, True, -1):
        with pytest.raises(SystemFormatError, match="^impl cap must be a natural"):
            derive_boundary_lts(art.system, [art.encoding.state_for(0)], impl_cap=impl_cap)


def test_closure_logs_what_it_did(caplog, capsys, monkeypatch):
    art = lower.sim_incdecjz_via_incjzdec()
    index = canonicalize(art.system)
    for seeds, impl_cap, budget in (([art.encoding.state_for(q) for q in range(9)], 12, 10**6),
                                    ([art.encoding.state_for(q) for q in range(9)], 5, 10**6),
                                    ([art.encoding.state_for(3)], 12, 2)):
        caplog.clear()
        monkeypatch.setattr(verify, "_INNER_BUDGET", budget)
        with caplog.at_level(logging.INFO, logger="gadgetforge.verify"):
            lts = derive_boundary_lts(index, seeds, impl_cap=impl_cap)
        line, = (r.getMessage() for r in caplog.records if "closure" in r.getMessage())
        states, excursions, expanded, frontier = map(int, re.findall(r"\d+", line))
        assert states == len(lts.states) and frontier == len(lts.cap_frontier)
        assert excursions == states * len(lts.ports)
        # each excursion expands its start, and at most the budget
        assert excursions <= expanded <= excursions * budget
        assert line.endswith(f"truncated: {lts.truncated}")
    assert lts.truncated and frontier
    assert capsys.readouterr().out == ""


def test_port_map_must_be_a_bijection():
    spec = G.spec_inc_decnz()
    impl = identity_subsystem(spec)
    enc = lower.Encoding("affine", affine=((1, 0),))
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


@pytest.mark.parametrize("art, spec, cap, mode", [
    (lower.sim_incdecjz_via_incjzdec(), "inc-dec-jz", 200, "concrete"),
    (lower.sim_incdecnzpz_via_incab(1, 2, 1, 2), "inc-decnz-pz", 40, "interval"),
], ids=["quintet", "inc-ab-1212"])
def test_every_input_is_checked_before_a_closure_runs(monkeypatch, art, spec, cap, mode):
    def closure(*args, **kwargs):
        raise AssertionError("a closure ran")
    monkeypatch.setattr(verify, "spec_closure_lts", closure)
    monkeypatch.setattr(verify, "derive_boundary_lts", closure)
    monkeypatch.setattr(verify, "_closure", closure)
    spec = G.catalog()[spec]
    ident = {p: p for p in art.system.boundary_ports}
    first, second = art.system.boundary_ports[:2]
    cases = [
        (dict(ident, **{first: "warp"}), {}, "unknown spec locations"),
        (dict(ident, **{first: second}), {}, "not injective"),
        ({p: p for p in art.system.boundary_ports[1:]}, {}, "misses implementation ports"),
        (None, {"encoding": lower.Encoding("table", table=((0, art.encoding.state_for(0)),))},
         "no encoding for state 1"),
        (None, {"encoding": lower.Encoding("affine", affine=((1, 0),))},
         "one state per instance"),
        (None, {"encoding": art.encoding.state_for}, "must be an Encoding, got method"),
        (list(art.system.boundary_ports), {}, "port_map must be a dict, got list"),
    ]
    for port_map, kwargs, message in cases:
        with pytest.raises(SystemFormatError, match=message):
            check_bisimulation(art, spec, port_map, cap=cap, mode=mode, **kwargs)
    # a system with no boundary says so before its port map is read
    bare = dataclasses.replace(art.system, boundary=())
    with pytest.raises(SystemFormatError, match="no boundary"):
        check_bisimulation(bare, spec, {}, cap=cap, mode=mode, encoding=art.encoding)


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
    return mutant, lower.Encoding("affine", affine=((1, 0), (1, 0), (0, 0), (0, 0)))


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
        mutant, [enc.state_for(q) for q in range(cap + 1)],
        impl_cap=report.impl_cap)
    spec_lts = spec_closure_lts(spec, cap)
    xs, ys = trace_splits(impl_lts.out_map(), spec_lts.out_map(), x0, y0, trace)
    assert (len(xs) == 0) != (len(ys) == 0)


def test_leak_is_the_expected_one():
    # with the diode gone, a dec_in excursion can surface at jz_in
    mutant, enc = _without_h0_diode()
    lts = derive_boundary_lts(mutant, [enc.state_for(1)], impl_cap=8)
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


def test_interval_ops_come_from_the_simulated_spec():
    # the op ports are read off the catalog spec the artifact names, so an
    # artifact naming no Inc-DecNZ-PZ spec has no ops to walk
    art = lower.sim_incdecnzpz_via_incab(1, 1, 1, 1)
    e0 = art.encoding.state_for(0, "interval")
    for simulates in ("warp-core", "inc-dec-jz", "sscd", None):
        other = dataclasses.replace(art, provenance=dict(art.provenance, simulates=simulates))
        with pytest.raises(SystemFormatError, match="not an Inc-DecNZ-PZ spec"):
            interval_step(other, e0, "inc", counter_cap=6)


def test_interval_ops_need_the_spec_ports():
    # a merged artifact has no dec_in node: the op classes name what is missing
    art = lower.sim_incdecnzpz_via_incab(1, 1, 1, 1, merged=True)
    other = dataclasses.replace(art, provenance=dict(art.provenance, simulates="inc-decnz-pz"))
    with pytest.raises(SystemFormatError, match="no endpoint 'node:dec_in' in this system"):
        interval_step(other, art.encoding.state_for(0, "interval"), "inc", counter_cap=6)


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
    assert result.goal_hit is not None and not result.overflowed
    reached = result.configurations(range(len(index.prefix)))
    cfg = reached[result.goal_hit][0]
    assert cfg.position == exit_cls
    assert [cfg.states] == interval_step(art, initial, "inc", counter_cap=24)
    chain = [result.goal_hit]  # the BFS parent chain, start first once reversed
    while reached[chain[-1]][1] is not None:
        chain.append(reached[chain[-1]][1])
    chain = [reached[key][0] for key in chain]
    assert chain[-1] == start
    witness = result.path_to(result.goal_hit)
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


def test_a_closure_checks_its_seeds(monkeypatch):
    # a bool is no counter value, and a concrete index holds no interval
    system = lower.sim_incjzdec_via_incdecnzpz().system
    for index, seed in ((system, (True,)), (system, ((0, 1),)),
                        (canonicalize(system, "interval"), (True,))):
        with pytest.raises(SystemFormatError, match="^seed"):
            derive_boundary_lts(index, [seed], impl_cap=3)
    # a seed that is no sequence is named, not read by tuple()
    for seed in (5, None, "ab", {0: 0}):
        with pytest.raises(SystemFormatError, match=f"^seed .* got {re.escape(repr(seed))}$"):
            derive_boundary_lts(system, [seed], impl_cap=3)
    # once per seed given, not once per excursion
    checks = []
    real = G.SystemIndex.check_states
    monkeypatch.setattr(G.SystemIndex, "check_states", lambda self, states, where: (
        checks.append(where) or real(self, states, where)))
    lts = derive_boundary_lts(system, [(q,) for q in range(4)] + [(0,)], impl_cap=3)
    assert len(lts.states) * len(lts.ports) > 5 and checks == ["seed"] * 5
