"""Lowering pass tests.

bullet_edges below instantiates the machine-to-gadgets wiring one rule at a
time, straight from the construction's statement, and the compiler's output
edge set must match it exactly.  The simulation artifacts are then held to
their contracts through the bisimulation checker and reachability.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from gadgetforge import gadgets as G, lower, machine as M
from gadgetforge.gadgets import (
    GadgetInstance,
    SystemFormatError,
    SystemOfGadgets,
    serialize_system,
)
from gadgetforge.lower import (
    Encoding,
    LoweringArtifact,
    PIPELINE_TARGETS,
    build_edge_duplicator,
    build_inc_decnz_decnz,
    build_sscd_from_incdecnz,
    compile_machine_to_incdecjz,
    emit_initializer,
    export_artifact,
    pipeline,
    sim_incdecjz_via_incjzdec,
    sim_incdecnzpz_via_incab,
    sim_incjzdec_via_incdecnzpz,
    substitute,
)
from gadgetforge.machine import Dec, Halt, Inc, Jz, Program, RunStatus, parse_program, run
from gadgetforge.reach import Verdict, bfs_reach
from gadgetforge.verify import BisimVerdict, check_bisimulation, derive_boundary_lts


# ------------------------------------------------- compile wiring oracle

def bullet_edges(program: Program) -> set[tuple[str, str]]:
    """Expected edge set, instantiated rule by rule:

    1. an Inc instruction's gadget exits into its counter's inc entrance,
    2. a Dec instruction's into the dec entrance,
    3. a JZ instruction's into the jz entrance,
    4-7. every counter operation exit pools into the matching return of
         every instruction gadget (jz zero exits into d1, the rest into d0),
    8. each instruction's d0 return exits to the next instruction's
       entrance (last instruction excluded),
    9. each JZ instruction's d1 return exits to its jump target's entrance,

    plus a start edge into instruction 0's entrance.  A HALT's entrance is
    the goal node itself; falling off the end has no entrance.
    """
    flows = [i for i, ins in enumerate(program.instructions)
             if not isinstance(ins, Halt)]

    def entrance(i):
        if i >= len(program.instructions):
            return None
        if isinstance(program.instructions[i], Halt):
            return "node:goal"
        return f"i:{i}.inc_in"

    edges = set()
    if entrance(0):
        edges.add(("node:start", entrance(0)))
    for i in flows:
        ins = program.instructions[i]
        if isinstance(ins, Inc):                                   # bullet 1
            edges.add((f"i:{i}.inc_out", f"c:{ins.counter}.inc_in"))
        elif isinstance(ins, Dec):                                 # bullet 2
            edges.add((f"i:{i}.inc_out", f"c:{ins.counter}.dec_in"))
        else:                                                      # bullet 3
            edges.add((f"i:{i}.inc_out", f"c:{ins.counter}.jz_in"))
    for i in flows:
        for c in program.counters:
            edges.add((f"c:{c}.inc_out", f"i:{i}.d0_in"))          # bullet 4
            edges.add((f"c:{c}.dec_out", f"i:{i}.d0_in"))          # bullet 5
            edges.add((f"c:{c}.jz_out_nonzero", f"i:{i}.d0_in"))   # bullet 6
            edges.add((f"c:{c}.jz_out_zero", f"i:{i}.d1_in"))      # bullet 7
    for i in flows:
        if i < len(program.instructions) - 1:                      # bullet 8
            edges.add((f"i:{i}.d0_out", entrance(i + 1)))
        ins = program.instructions[i]
        if isinstance(ins, Jz) and entrance(ins.target):           # bullet 9
            edges.add((f"i:{i}.d1_out", entrance(ins.target)))
    return edges


_PROGRAMS = [
    "0: INC c0\n1: HALT\n",
    "0: JZ c0 0\n",
    "0: INC c0\n1: DEC c0\n2: JZ c0 0\n",
    "0: JZ c0 1\n1: HALT\n",
    "0: HALT\n",
    "counters: c0 c1\n0: INC c1\n1: DEC c0\n2: JZ c0 0\n3: JZ c1 5\n"
    "4: HALT\n5: INC c0\n6: HALT\n",
]


@pytest.mark.parametrize("text", _PROGRAMS)
def test_compile_edges_match_bullets(text):
    program = parse_program(text)
    art = compile_machine_to_incdecjz(program)
    edges = list(art.system.edges)
    assert len(edges) == len(set(edges))  # no duplicate wiring
    assert set(edges) == bullet_edges(program)


def test_single_increment_is_seven_edges():
    art = compile_machine_to_incdecjz(parse_program("0: INC c0\n1: HALT\n"))
    assert len(art.system.edges) == 7
    assert len(art.system.instances) == 2  # one counter + one flow gadget


def test_pooled_bullets_contribute_flows_times_counters():
    program = parse_program("counters: c0 c1\n0: INC c0\n1: DEC c1\n2: JZ c0 0\n")
    art = compile_machine_to_incdecjz(program)
    edges = set(art.system.edges)
    for exit_port, ret in (("inc_out", "d0_in"), ("dec_out", "d0_in"),
                           ("jz_out_nonzero", "d0_in"), ("jz_out_zero", "d1_in")):
        family = {e for e in edges
                  if e[0].endswith("." + exit_port) and e[1].endswith("." + ret)}
        assert len(family) == 3 * 2  # |instructions| x |counters|


def test_compile_structure():
    program = parse_program("0: INC c0\n1: HALT\n")
    art = compile_machine_to_incdecjz(program, {"c0": 2})
    sys0 = art.system
    assert sys0.start == "node:start" and sys0.goal == "node:goal"
    by_id = {i.id: i for i in sys0.instances}
    assert by_id["c:c0"].spec == "inc-dec-jz" and by_id["c:c0"].initial == 2
    assert by_id["i:0"].spec == "inc-decnz-decnz" and by_id["i:0"].initial == 0
    assert art.roles["c:c0"] == "counter:c0"
    assert art.roles["i:0"] == "instruction:0:inc"
    with pytest.raises(SystemFormatError, match="unknown counters"):
        compile_machine_to_incdecjz(program, {"c9": 1})


def test_compile_empty_program():
    art = compile_machine_to_incdecjz(Program((), ()))
    assert art.system.instances == ()
    assert art.system.edges == ()
    out = bfs_reach(art.system, counter_cap=4)
    assert out.verdict is Verdict.UNREACHABLE_WITHIN_CAP


def test_compiled_halting_examples():
    art = compile_machine_to_incdecjz(parse_program("0: INC c0\n1: HALT\n"))
    assert bfs_reach(art.system, counter_cap=8).verdict is Verdict.REACHABLE
    # the empty loop never halts and never grows, so the search closes
    art = compile_machine_to_incdecjz(parse_program("0: JZ c0 0\n"))
    assert bfs_reach(art.system, counter_cap=8).verdict \
        is Verdict.UNREACHABLE_WITHIN_CAP


def test_expanded_flow_is_pure_inc_dec_jz():
    program = parse_program("0: INC c0\n1: DEC c0\n2: JZ c0 0\n3: HALT\n")
    art = compile_machine_to_incdecjz(program, flow="expanded")
    assert {i.spec for i in art.system.instances} == {"inc-dec-jz"}
    assert len(art.system.instances) == 1 + 3 * 3  # counter + 3 per flow
    # same reachability answers as the primitive-flow compile
    for text in ("0: INC c0\n1: HALT\n", "0: JZ c0 0\n"):
        p = parse_program(text)
        prim = bfs_reach(compile_machine_to_incdecjz(p).system, counter_cap=8)
        expa = bfs_reach(compile_machine_to_incdecjz(p, flow="expanded").system,
                         counter_cap=8)
        assert prim.verdict == expa.verdict


def test_an_unknown_flow_is_rejected_before_anything_is_built(monkeypatch):
    program = parse_program("0: INC c0\n1: HALT\n")
    assert compile_machine_to_incdecjz(program, flow="expanded").provenance["flow"] \
        == "expanded"

    def build(*args, **kwargs):
        raise AssertionError("a system was built for an unknown flow")
    monkeypatch.setattr(lower, "SystemOfGadgets", build)
    with pytest.raises(SystemFormatError, match="unknown flow mode 'sideways'"):
        compile_machine_to_incdecjz(program, flow="sideways")


# ------------------------------------------------------ artifact bisims

def test_flow_gadget_meets_its_spec():
    report = check_bisimulation(build_inc_decnz_decnz(),
                                G.catalog()["inc-decnz-decnz"], cap=6)
    assert report.verdict is BisimVerdict.EQUIVALENT


def test_quintet_meets_inc_dec_jz():
    report = check_bisimulation(sim_incdecjz_via_incjzdec(),
                                G.catalog()["inc-dec-jz"], cap=6)
    assert report.verdict is BisimVerdict.EQUIVALENT


def test_merged_entrances_meet_inc_jzdec():
    report = check_bisimulation(sim_incjzdec_via_incdecnzpz(),
                                G.catalog()["inc-jzdec"], cap=6)
    assert report.verdict is BisimVerdict.EQUIVALENT


def test_sscd_artifact_meets_finite_spec():
    art = build_sscd_from_incdecnz()
    assert len(art.system.instances) == 2
    report = check_bisimulation(art, G.catalog()["sscd"], cap=8)
    assert report.verdict is BisimVerdict.EQUIVALENT
    # the encoding covers both abstract door states
    assert art.encoding.state_for("1") == (1, 0)
    assert art.encoding.state_for("2") == (0, 1)


def test_incab_direct_meets_inc_decnz_pz():
    art = sim_incdecnzpz_via_incab(1, 2, 1, 2)
    report = check_bisimulation(art, G.catalog()["inc-decnz-pz"],
                                cap=4, mode="interval")
    assert report.verdict is BisimVerdict.EQUIVALENT


def test_incab_merged_meets_inc_jzdec():
    art = sim_incdecnzpz_via_incab(1, 2, 1, 2, merged=True)
    report = check_bisimulation(art, G.catalog()["inc-jzdec"],
                                cap=4, mode="interval")
    assert report.verdict is BisimVerdict.EQUIVALENT


def test_incab_tunnel_multiplicities():
    # (1,2,1,2): g0 carries acd=2 Inc and abd=4 DecNZ tunnels, g1 the
    # transpose (4, 2); both anchors move by abcd=4 per simulated step
    art = sim_incdecnzpz_via_incab(1, 2, 1, 2)

    def counts(spec_name):
        spec = art.system.spec_of[spec_name]
        tags = [c.kind.tag for c in spec.components]
        return tags.count("inc"), tags.count("decnz")

    by_id = {i.id: i for i in art.system.instances}
    assert counts(by_id["g0"].spec) == (2, 4)
    assert counts(by_id["g1"].spec) == (4, 2)
    assert art.provenance["anchor"] == 4
    assert art.roles == {"g0": "low-anchor", "g1": "high-anchor"}


def test_incab_range_validation():
    with pytest.raises(SystemFormatError, match="a > 0"):
        sim_incdecnzpz_via_incab(0, 2, 1, 2)
    with pytest.raises(SystemFormatError, match="c > 0"):
        sim_incdecnzpz_via_incab(1, 2, 0, 2)
    with pytest.raises(SystemFormatError, match="a <= b"):
        sim_incdecnzpz_via_incab(2, 1, 1, 1)
    with pytest.raises(SystemFormatError, match="a <= b"):
        sim_incdecnzpz_via_incab(1, 1, 2, 1)


def test_incab_tunnel_count_is_bounded():
    # a = c = d = 1 chains 1 + 3b tunnels: b = 333 makes exactly 1,000
    art = sim_incdecnzpz_via_incab(1, 333, 1, 1)
    assert sum(len(s.components) - 1 for s in art.system.specs) == 1_000
    for expand in ("direct", "via-duplicators"):
        with pytest.raises(SystemFormatError, match="1003 tunnels"):
            sim_incdecnzpz_via_incab(1, 334, 1, 1, expand=expand)


def test_incab_size_is_bounded_before_it_is_built():
    for params in ((1, 2, 1, 2), (2, 2, 1, 2), (1, 40, 1, 1)):
        for expand in ("direct", "via-duplicators"):
            for merged in (False, True):
                system = sim_incdecnzpz_via_incab(*params, expand=expand, merged=merged).system
                assert len(system.instances) + len(system.edges) <= lower._MAX_PARTS
    # (1, 45, 1, 1) chains 136 tunnels: 1,991 instances and edges via
    # duplicators; (1, 46, 1, 1) chains 139, which would make 2,036
    system = sim_incdecnzpz_via_incab(1, 45, 1, 1, expand="via-duplicators").system
    assert (len(system.instances), len(system.edges)) == (266, 1725)
    with pytest.raises(SystemFormatError, match="272 instances and 1764 edges"):
        sim_incdecnzpz_via_incab(1, 46, 1, 1, expand="via-duplicators")
    assert len(sim_incdecnzpz_via_incab(1, 46, 1, 1).system.edges) == 144


# ------------------------------------------------------- edge duplicator

def _spliced_duplicator(a, b, c, d):
    """Duplicator with an actual Inc[a,b]-DecNZ[c,d]-PZ tunnel spliced
    between E0 and E1 (the shared tunnel the two interfaces multiplex)."""
    art = build_edge_duplicator(a, b, c, d)
    sys0 = art.system
    shared_spec = G.spec_inc_ab(a, b, c, d)
    instances = sys0.instances + (GadgetInstance("shared", shared_spec.name, 0),)
    edges = sys0.edges + (("node:E0", "shared.inc_in"),
                          ("shared.inc_out", "node:E1"))
    system = SystemOfGadgets(
        specs=sys0.specs, instances=instances, nodes=sys0.nodes,
        edges=edges, boundary=sys0.boundary)
    return LoweringArtifact(system, roles=dict(art.roles),
                            encoding=Encoding("table", table=(("idle", (0, 0, 0)),)),
                            provenance=dict(art.provenance))


def test_duplicator_without_tunnel_has_no_boundary_behavior():
    # blocked shared tunnel = the agent strands; not a single transition
    art = build_edge_duplicator(1, 2, 1, 2)
    lts = derive_boundary_lts(art.system, [(0, 0)], impl_cap=6)
    assert lts.transitions == frozenset()
    assert art.provenance["splice"] == ["E0", "E1"]


def test_duplicator_with_tunnel_is_two_tunnel():
    report = check_bisimulation(_spliced_duplicator(1, 2, 1, 2),
                                G.catalog()["two-tunnel"], cap=6)
    assert report.verdict is BisimVerdict.EQUIVALENT


def test_duplicator_needs_overlapping_ranges():
    with pytest.raises(SystemFormatError, match="overlap"):
        build_edge_duplicator(2, 2, 1, 1)


def test_incab_via_duplicators():
    art = sim_incdecnzpz_via_incab(1, 2, 1, 2, expand="via-duplicators")
    # 2 anchors + (2-1 + 4-1 + 4-1 + 2-1) duplicators x 2 wrappers each
    assert len(art.system.instances) == 18
    wrappers = [i for i in art.system.instances
                if "duplicator-wrapper" in art.roles.get(i.id, "")]
    assert len(wrappers) == 16
    report = check_bisimulation(art, G.catalog()["inc-decnz-pz"],
                                cap=3, mode="interval")
    assert report.verdict is BisimVerdict.EQUIVALENT


# ----------------------------------------------------------- substitute

def test_substitute_mechanics():
    host = compile_machine_to_incdecjz(parse_program("0: INC c0\n1: HALT\n"),
                                       {"c0": 2})
    part = sim_incdecjz_via_incjzdec()
    out = substitute(host, "inc-dec-jz", part)

    by_id = {i.id: i for i in out.system.instances}
    # namespaced copies, seeded through the part's encoding of state 2
    assert by_id["c:c0/g0"].initial == 2
    assert by_id["c:c0/g1"].initial == 2
    assert by_id["c:c0/h0"].initial == 0
    assert {i.spec for i in out.system.instances if i.id.startswith("c:c0/")} \
        == {"inc-jzdec"}
    # the untouched flow gadget instance survives as-is
    assert by_id["i:0"].spec == "inc-decnz-decnz"
    # role composition host-role/part-role
    assert out.roles["c:c0/g0"] == "counter:c0/value-copy-0"
    # host edges now land on the namespaced boundary nodes
    assert ("i:0.inc_out", "node:c:c0/inc_in") in out.system.edges
    # part edges got the same prefix
    assert ("node:c:c0/inc_in", "c:c0/g0.inc_in") in out.system.edges
    # the replaced spec is gone from the spec list
    assert "inc-dec-jz" not in {s.name for s in out.system.specs}
    assert out.provenance["substitutions"][-1]["replaced"] == "inc-dec-jz"

    # behavior preserved end to end
    assert bfs_reach(out.system, counter_cap=8).verdict is Verdict.REACHABLE


def test_substitute_validation():
    host = compile_machine_to_incdecjz(parse_program("0: INC c0\n1: HALT\n"))
    part = sim_incdecjz_via_incjzdec()

    with pytest.raises(SystemFormatError, match="no spec named"):
        substitute(host, "warp-core", part)

    with pytest.raises(SystemFormatError, match="does not match"):
        substitute(host, "inc-decnz-decnz", part)  # wrong boundary names

    carrying_goal = LoweringArtifact(
        SystemOfGadgets(part.system.specs, part.system.instances,
                        part.system.nodes, part.system.edges,
                        start="node:inc_in", goal="node:inc_out",
                        boundary=part.system.boundary),
        roles=part.roles, encoding=part.encoding, provenance=part.provenance)
    with pytest.raises(SystemFormatError, match="start/goal"):
        substitute(host, "inc-dec-jz", carrying_goal)

    stripped = LoweringArtifact(part.system, roles=part.roles,
                                encoding=None, provenance=part.provenance)
    with pytest.raises(SystemFormatError, match="needs an encoding"):
        substitute(host, "inc-dec-jz", stripped)

    psys = part.system
    port_bound = LoweringArtifact(
        dataclasses.replace(psys, boundary=psys.boundary[:-1] + (
            G.port_endpoint(psys.instances[0].id, "inc_in"),)), encoding=part.encoding)
    with pytest.raises(SystemFormatError, match="boundary must be nodes"):
        substitute(host, "inc-dec-jz", port_bound)

    short = dataclasses.replace(part, encoding=Encoding("affine", affine=((1, 0),)))
    with pytest.raises(SystemFormatError, match="encoding arity"):
        substitute(host, "inc-dec-jz", short)

    # the part names its gadget like the host's flow gadget, with other components
    (jzdec,) = psys.specs
    clash = dataclasses.replace(jzdec, name="inc-decnz-decnz")
    renamed = dataclasses.replace(part, system=dataclasses.replace(
        psys, specs=(clash,), instances=tuple(
            dataclasses.replace(i, spec=clash.name) for i in psys.instances)))
    with pytest.raises(SystemFormatError, match="conflicting definitions"):
        substitute(host, "inc-dec-jz", renamed)

    # a table encoding that lacks the replaced instance's state
    door = LoweringArtifact(SystemOfGadgets(
        specs=(G.spec_sscd(),), instances=(GadgetInstance("d", "sscd", "2"),)))
    cut = dataclasses.replace(build_sscd_from_incdecnz(),
                              encoding=Encoding("table", table=(("1", (1, 0)),)))
    with pytest.raises(SystemFormatError, match="no encoding for state '2'"):
        substitute(door, "sscd", cut)


def test_substitute_checks_the_splice_rule():
    # substitute builds its output without _validate, so it must itself
    # refuse what would make an invalid system
    host = compile_machine_to_incdecjz(parse_program("0: INC c0\n1: HALT\n"))
    part = sim_incdecjz_via_incjzdec()

    # a host node named like a copy of the part's instance g0
    crowded = dataclasses.replace(host, system=dataclasses.replace(
        host.system, nodes=host.system.nodes + ("c:c0/g0",)))
    with pytest.raises(SystemFormatError,
                       match=r"reuses instance ids or node names: \['c:c0/g0'\]"):
        substitute(crowded, "inc-dec-jz", part)

    # an encoding that seeds a counter below zero, or with a string
    for encoding, bad in (
            (Encoding("affine", affine=((1, -5),) + part.encoding.affine[1:]), "-5"),
            (Encoding("table", table=((0, ("0", 0, 0, 0, 0)),)), "'0'")):
        with pytest.raises(SystemFormatError, match=(
                f"^c:c0/g0: initial state of a counter gadget must be a natural, got {bad}$")):
            substitute(host, "inc-dec-jz", dataclasses.replace(part, encoding=encoding))


def test_a_bad_initial_state_is_named_alike_by_both_checks():
    # _validate and substitute build the message only when a state is bad
    counter, door = G.spec_inc_dec_jz(), G.spec_sscd()
    for spec, state, tail in (
            (counter, -1, " of a counter gadget must be a natural, got -1"),
            (counter, True, " of a counter gadget must be a natural, got True"),
            (door, "9", " '9' is not a state of sscd")):
        with pytest.raises(SystemFormatError) as caught:
            SystemOfGadgets(specs=(spec,), instances=(GadgetInstance("g", spec.name, state),))
        assert str(caught.value) == "g: initial state" + tail
    host = compile_machine_to_incdecjz(parse_program("0: INC c0\n1: HALT\n"))
    part = sim_incdecjz_via_incjzdec()
    seeds = Encoding("affine", affine=part.encoding.affine[:2] + ((0, -1),)
                     + part.encoding.affine[3:])
    with pytest.raises(SystemFormatError) as caught:
        substitute(host, "inc-dec-jz", dataclasses.replace(part, encoding=seeds))
    assert str(caught.value) == (f"c:c0/{part.system.instances[2].id}: initial state"
                                 " of a counter gadget must be a natural, got -1")


# ------------------------------------------------------------- pipeline

def test_pipeline_instance_counts():
    program = parse_program("0: INC c0\n1: HALT\n")
    assert len(pipeline(program, "inc-dec-jz").system.instances) == 2
    art = pipeline(program, "inc-jzdec")
    assert len(art.system.instances) == 20  # (1 counter + 3 flow parts) x 5
    assert {i.spec for i in art.system.instances} == {"inc-jzdec"}
    art = pipeline(program, "inc-decnz-pz")
    assert len(art.system.instances) == 20
    assert {i.spec for i in art.system.instances} == {"inc-decnz-pz-merged"}
    art = pipeline(program, "inc-ab", range_params=(1, 1, 1, 1))
    assert len(art.system.instances) == 40


def test_pipeline_preserves_halting_verdicts():
    halting = parse_program("0: INC c0\n1: DEC c0\n2: JZ c0 3\n3: HALT\n")
    looping = parse_program("0: JZ c0 0\n")
    for target in ("inc-dec-jz", "inc-jzdec", "inc-decnz-pz"):
        yes = bfs_reach(pipeline(halting, target).system,
                        counter_cap=12, visit_budget=10**6)
        assert yes.verdict is Verdict.REACHABLE, target
        no = bfs_reach(pipeline(looping, target).system,
                       counter_cap=12, visit_budget=10**6)
        assert no.verdict is not Verdict.REACHABLE, target
    # at the primitive target a netting-zero loop closes finitely...
    out = bfs_reach(pipeline(looping, "inc-dec-jz").system, counter_cap=12)
    assert out.verdict is Verdict.UNREACHABLE_WITHIN_CAP
    # ...but the quintet's jz turnstile only ever grows, so the bounded
    # search must honestly refuse to certify the loop at any finite cap
    out = bfs_reach(pipeline(looping, "inc-jzdec").system, counter_cap=12)
    assert out.verdict is Verdict.UNKNOWN
    assert out.reason == "cap-overflow-seen"


def test_pipeline_accepts_counterless_programs():
    bare = parse_program("0: HALT\n")
    for target in PIPELINE_TARGETS:
        kw = {"range_params": (1, 1, 1, 1)} if target == "inc-ab" else {}
        art = pipeline(bare, target, **kw)
        assert art.system.instances == ()
        assert bfs_reach(art.system, counter_cap=4).verdict \
            is Verdict.REACHABLE


def test_pipeline_argument_checks():
    program = parse_program("0: INC c0\n1: HALT\n")
    with pytest.raises(SystemFormatError, match="unknown target"):
        pipeline(program, "inc-xyz")
    with pytest.raises(SystemFormatError, match="range_params"):
        pipeline(program, "inc-ab")
    with pytest.raises(SystemFormatError, match="unknown expand mode"):
        pipeline(program, "inc-ab", range_params=(1, 1, 1, 1), expand="sideways")
    assert PIPELINE_TARGETS == ("inc-dec-jz", "inc-jzdec", "inc-decnz-pz", "inc-ab")


def test_pipeline_is_deterministic():
    program = parse_program("0: INC c0\n1: JZ c0 0\n2: HALT\n")
    for target in PIPELINE_TARGETS:
        kw = {"range_params": (1, 2, 1, 2)} if target == "inc-ab" else {}
        a = serialize_system(pipeline(program, target, **kw).system)
        b = serialize_system(pipeline(program, target, **kw).system)
        assert a == b


def test_a_builders_dicts_are_its_callers_own(tmp_path):
    # pipeline builds its constant parts once; a caller that writes into the
    # roles or provenance a public builder hands out changes nothing later
    program = parse_program("0: INC c0\n1: JZ c0 0\n2: HALT\n")

    def written(name: str) -> list[bytes]:
        paths = export_artifact(pipeline(program, "inc-decnz-pz"), str(tmp_path / name))
        return [Path(p).read_bytes() for p in paths]

    before = written("before.json")
    for build in (build_inc_decnz_decnz, sim_incdecjz_via_incjzdec,
                  sim_incjzdec_via_incdecnzpz):
        art = build()
        art.roles.clear()
        art.roles["g0"] = art.roles["top"] = art.roles["g"] = "mutated"
        art.provenance["construction"] = "mutated"
    assert written("after.json") == before


@pytest.mark.parametrize("target", ["inc-jzdec", "inc-decnz-pz"])
def test_a_compiled_system_is_validated_twice(monkeypatch, target):
    # once when compile builds the machine's system and once when the
    # written document is parsed; the splices and the constant parts
    # (built on first use) are not validated again
    program = parse_program("0: INC c0\n1: DEC c1\n2: JZ c0 0\n3: HALT\n")
    pipeline(program, target)
    seen, real = [], G._validate
    monkeypatch.setattr(G, "_validate", lambda system: seen.append(system) or real(system))
    G.parse_system(serialize_system(pipeline(program, target).system))
    assert len(seen) == 2


# ---------------------------------------------------------- initializer

def _init_run(v: int):
    frag = emit_initializer([v])
    program = frag.concat(parse_program("0: HALT\n"))
    return frag, run(program, max_steps=200_000)


@pytest.mark.parametrize("v", list(range(17)) + [31, 32, 63, 64, 100, 255,
                                                 511, 512, 777, 1000])
def test_initializer_exact_and_small(v):
    frag, result = _init_run(v)
    assert result.status is RunStatus.HALTED
    assert result.final.counters[frag.counters.index("c0")] == v
    budget = 8 * (math.floor(math.log2(v + 1)) + 1)
    assert len(frag.instructions) <= budget, (v, len(frag.instructions))


def test_initializer_scratch_counters_end_at_zero():
    frag, result = _init_run(1000)
    for scratch in ("init_tmp", "init_zero"):
        if scratch in frag.counters:
            assert result.final.counters[frag.counters.index(scratch)] == 0


def test_initializer_dict_form_and_multiple_counters():
    frag = emit_initializer({"a": 9, "b": 5})
    program = frag.concat(parse_program("0: HALT\n"))
    result = run(program, max_steps=200_000)
    assert result.status is RunStatus.HALTED
    assert result.final.counters[frag.counters.index("a")] == 9
    assert result.final.counters[frag.counters.index("b")] == 5


def test_initializer_reserves_its_scratch_names():
    with pytest.raises(SystemFormatError, match="reserved"):
        emit_initializer({"init_tmp": 3})
    with pytest.raises(SystemFormatError, match="reserved"):
        emit_initializer({"init_zero": 0})
    for value in (-1, 2.5):
        with pytest.raises(SystemFormatError, match="must be naturals"):
            emit_initializer({"c0": value})


def test_an_initializer_value_is_no_bool():
    # the one integer rule (gadgets.check_integer): True is no 1
    for values in ({"c0": True}, [False]):
        with pytest.raises(SystemFormatError, match="must be naturals"):
            emit_initializer(values)


# ------------------------------------------------------ encoding/export

def test_encoding_kinds():
    aff = Encoding("affine", affine=((3, 1), (0, 2)))
    assert aff.state_for(4) == (13, 2)
    tab = Encoding("table", table=(("1", (1, 0)), ("2", (0, 1))))
    assert tab.state_for("2") == (0, 1)
    with pytest.raises(SystemFormatError, match="no encoding for state '3'"):
        tab.state_for("3")
    ia = Encoding("interval-affine",
                  iaffine=(((2, 0), (4, 0)),),
                  concrete=((4, 0),))
    assert ia.state_for(2, "interval") == ((4, 8),)
    assert ia.state_for(2, "concrete") == (8,)
    with pytest.raises(SystemFormatError, match="unknown encoding kind 'bogus'"):
        Encoding("bogus").state_for(1)
    with pytest.raises(SystemFormatError, match="unknown encoding kind 'bogus'"):
        Encoding.from_json({"kind": "bogus"})


def test_encoding_json_round_trip():
    for enc in (
        Encoding("affine", affine=((1, 0), (0, 0))),
        Encoding("table", table=(("idle", (0, 0)),)),
        sim_incdecnzpz_via_incab(1, 2, 1, 2).encoding,
    ):
        back = Encoding.from_json(enc.to_json())
        assert back == enc


@pytest.mark.parametrize("doc", [
    {"kind": "affine", "per_instance": [[2.7, 0]]},
    {"kind": "interval-affine", "per_instance": [[[1, 0], [2.7, 0]]], "concrete": [[1, 0]]},
    {"kind": "interval-affine", "per_instance": [[[1, 0], [1, 0]]], "concrete": [[2.7, 0]]},
], ids=["affine", "interval-affine", "concrete"])
def test_a_float_encoding_number_is_named_once(doc):
    with pytest.raises(SystemFormatError) as exc:
        Encoding.from_json(doc)
    assert str(exc.value) == "bad encoding document: 2.7 is not an integer"


def test_export_artifact(tmp_path):
    art = sim_incdecjz_via_incjzdec()
    path = tmp_path / "quintet.json"
    system_path, meta_path = export_artifact(art, str(path))
    assert system_path == str(path)

    body = path.read_text()
    assert body == serialize_system(art.system)
    assert G.parse_system(body) == art.system

    meta = json.loads((tmp_path / "quintet.json.meta.json").read_text())
    assert meta_path.endswith(".meta.json")
    assert set(meta) == {"roles", "encoding", "provenance", "ports", "mode"}
    assert meta["mode"] == "concrete"
    assert Encoding.from_json(meta["encoding"]) == art.encoding
    # identity port map over the boundary
    assert meta["ports"] == {p: p for p in
                             ("inc_in", "inc_out", "dec_in", "dec_out",
                              "jz_in", "jz_out_zero", "jz_out_nonzero")}

    # byte determinism across repeated exports
    export_artifact(art, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_text() == body
    assert (tmp_path / "again.json.meta.json").read_text() \
        == (tmp_path / "quintet.json.meta.json").read_text()


def _written_artifacts() -> list[LoweringArtifact]:
    """Every artifact the criterion-3 lowering checks build, and one
    pipeline output per target."""
    program = parse_program("counters: c0 c1\n0: INC c0\n1: JZ c1 3\n2: DEC c0\n3: HALT\n")
    return ([build_inc_decnz_decnz(), sim_incdecjz_via_incjzdec(),
             sim_incjzdec_via_incdecnzpz(), build_sscd_from_incdecnz(),
             build_edge_duplicator(1, 2, 1, 2)]
            + [sim_incdecnzpz_via_incab(a, b, c, d) for a in (1, 2) for b in range(a, 3)
               for c in (1, 2) for d in range(c, 3)]
            + [pipeline(program, target, range_params=(1, 2, 1, 2))
               for target in PIPELINE_TARGETS])


def test_everything_written_reads_back(tmp_path):
    # the readers check every field, and still take all the writers write
    kinds = set()
    for k, art in enumerate(_written_artifacts()):
        system_path, meta_path = export_artifact(art, str(tmp_path / f"a{k}.json"))
        assert G.parse_system(serialize_system(art.system)) == art.system
        assert G.parse_system(Path(system_path).read_text()) == art.system
        ports, encoding, mode = lower.read_sidecar(meta_path)
        assert encoding == art.encoding
        assert ports == {G.boundary_port(ep): G.boundary_port(ep) for ep in art.system.boundary}
        assert mode == art.suggested_mode()
        kinds.add(encoding and encoding.kind)
    assert kinds == {"affine", "table", "interval-affine", None}


def test_interval_artifact_suggests_interval_mode(tmp_path):
    art = sim_incdecnzpz_via_incab(1, 2, 1, 2)
    assert art.suggested_mode() == "interval"
    _, meta_path = export_artifact(art, str(tmp_path / "incab.json"))
    assert json.loads(Path(meta_path).read_text())["mode"] == "interval"
