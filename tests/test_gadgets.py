"""Gadget component semantics, system wiring, and serialization tests.

oracle_transitions below restates each component's allowed (exit, new-state)
set from its one-line definition, independently of the moves() methods; the
exhaustive sweep in test_component_semantics_table is the same comparison
the acceptance suite runs (criterion: params <= 4, states 0..100, exact).
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gadgetforge import gadgets as G
from gadgetforge.gadgets import (
    Component,
    Configuration,
    CounterGadgetSpec,
    DecNZRange,
    DecRange,
    FiniteGadgetSpec,
    GadgetInstance,
    IncRange,
    JZDecSwitch,
    JZSwitch,
    PNZ,
    PZ,
    SystemFormatError,
    SystemOfGadgets,
    canonicalize,
    catalog,
    node_endpoint,
    parse_spec,
    parse_system,
    port_endpoint,
    serialize_system,
    split_endpoint,
    split_for_prefix,
    to_dot,
)


# ---------------------------------------------------------------- oracle

def oracle_transitions(kind: str, params, s: int) -> set[tuple[int, int]]:
    """Allowed (exit index, new state) pairs from state s.

    Written from the definitions: Inc[a,b] always open, adds i in [a,b];
    DecNZ[c,d] open iff s >= c, subtracts i in [c,d] with i <= s;
    Dec[a,b] always open, subtracts i in [a,b] saturating at 0;
    PZ open iff s = 0; PNZ open iff s >= 1 (both leave s alone);
    JZ takes exit 0 iff s = 0 else exit 1, state kept;
    JZDec is JZ except the nonzero exit also subtracts 1.
    """
    if kind == "inc":
        a, b = params
        return {(0, s + i) for i in range(a, b + 1)}
    if kind == "decnz":
        c, d = params
        return {(0, s - i) for i in range(c, d + 1) if i <= s} if s >= c else set()
    if kind == "dec":
        a, b = params
        return {(0, max(s - i, 0)) for i in range(a, b + 1)}
    if kind == "pz":
        return {(0, 0)} if s == 0 else set()
    if kind == "pnz":
        return {(0, s)} if s >= 1 else set()
    if kind == "jz":
        return {(0, 0)} if s == 0 else {(1, s)}
    if kind == "jzdec":
        return {(0, 0)} if s == 0 else {(1, s - 1)}
    raise AssertionError(kind)


def _all_kinds(limit=4):
    for a in range(1, limit + 1):
        for b in range(a, limit + 1):
            yield "inc", (a, b), IncRange(a, b)
            yield "decnz", (a, b), DecNZRange(a, b)
            yield "dec", (a, b), DecRange(a, b)
    yield "pz", (), PZ()
    yield "pnz", (), PNZ()
    yield "jz", (), JZSwitch()
    yield "jzdec", (), JZDecSwitch()


def test_component_semantics_table():
    for tag, params, kind in _all_kinds():
        for s in range(101):
            got = {(exit_idx, s2) for (_, s2, exit_idx) in kind.moves(s)}
            assert got == oracle_transitions(tag, params, s), (tag, params, s)


def test_interval_moves_are_the_hull_of_concrete_moves():
    # per exit, the interval rule gives (min, max) of the concrete moves
    # from every state in [lo, hi], and no move where there is none
    for tag, params, kind in _all_kinds():
        for lo in range(13):
            for hi in range(lo, 13):
                got = [(e, iv) for (_, iv, e) in kind.interval_moves((lo, hi))]
                want = []
                for e in range(kind.exits):
                    after = [s2 for s in range(lo, hi + 1)
                             for (_, s2, ex) in kind.moves(s) if ex == e]
                    if after:
                        want.append((e, (min(after), max(after))))
                assert got == want, (tag, params, lo, hi)


def test_each_kind_acts_alike_from_its_floor():
    # from its floor T up, moves(s + 1) is moves(s) with every new value + 1,
    # and interval moves shift alike with lo; at T - 1 each fails
    def shifts(kind, s) -> bool:
        return kind.moves(s + 1) == [(c, s2 + 1, e) for c, s2, e in kind.moves(s)]

    def interval_shifts(kind, lo, hi) -> bool:
        return kind.interval_moves((lo + 1, hi + 1)) == [
            (c, (a + 1, b + 1), e) for c, (a, b), e in kind.interval_moves((lo, hi))]

    for tag, params, kind in _all_kinds():
        floor = kind.floor
        # Inc[a,b] 0, DecNZ[c,d] and Dec[c,d] d, the others 1
        assert floor == (0 if tag == "inc" else params[1] if params else 1), (tag, params)
        for s in range(floor, floor + 21):
            assert shifts(kind, s), (tag, params, s)
            assert all(interval_shifts(kind, s, hi) for hi in range(s, s + 21)), (tag, params, s)
        if floor:
            assert not shifts(kind, floor - 1), (tag, params)
            assert not all(interval_shifts(kind, floor - 1, hi)
                           for hi in range(floor - 1, floor + 20)), (tag, params)


def test_choices_are_distinct_per_move():
    # the choice tag makes each nondeterministic branch replayable
    for _, _, kind in _all_kinds():
        for s in range(101):
            moves = kind.moves(s)
            assert len({c for (c, _, _) in moves}) == len(moves)


def test_jz_is_pz_plus_pnz_with_merged_entrance():
    for s in range(101):
        split = {(0, s2) for (_, s2, _) in PZ().moves(s)}
        split |= {(1, s2) for (_, s2, _) in PNZ().moves(s)}
        got = {(e, s2) for (_, s2, e) in JZSwitch().moves(s)}
        assert got == split


def test_jzdec_is_pz_plus_decnz11_with_merged_entrance():
    for s in range(101):
        split = {(0, s2) for (_, s2, _) in PZ().moves(s)}
        split |= {(1, s2) for (_, s2, _) in DecNZRange(1, 1).moves(s)}
        got = {(e, s2) for (_, s2, e) in JZDecSwitch().moves(s)}
        assert got == split


def test_pz_pnz_partition_states():
    # at every state exactly one of the two pressure plates is open
    for s in range(101):
        assert (len(PZ().moves(s)) == 1) != (len(PNZ().moves(s)) == 1)


def test_range_validation():
    with pytest.raises(SystemFormatError):
        IncRange(0, 2)
    with pytest.raises(SystemFormatError):
        DecNZRange(3, 2)
    with pytest.raises(SystemFormatError):
        DecRange(-1, 1)
    for lo, hi in ((1.5, 2), (1, True), ("1", 2)):  # bounds are ints, not coerced
        with pytest.raises(SystemFormatError, match="not an integer"):
            IncRange(lo, hi)


# kind, tag, exits, and floor at each of two ranges (none for a zero test)
KIND_TABLE = [
    (IncRange, "inc", 1, {(1, 2): 0, (3, 7): 0}),
    (DecNZRange, "decnz", 1, {(1, 2): 2, (3, 7): 7}),
    (DecRange, "dec", 1, {(1, 2): 2, (3, 7): 7}),
    (PZ, "pz", 1, {(): 1}),
    (PNZ, "pnz", 1, {(): 1}),
    (JZSwitch, "jz", 2, {(): 1}),
    (JZDecSwitch, "jzdec", 2, {(): 1}),
]


@pytest.mark.parametrize("make, tag, exits, floors", KIND_TABLE,
                         ids=[row[1] for row in KIND_TABLE])
def test_each_kind_is_pinned(make, tag, exits, floors):
    # equality and hash key the memo tables; the JSON form is a tag, plus
    # lo and hi for a ranged kind
    every = [other(*params) for other, _, _, ranges in KIND_TABLE for params in ranges]
    for params, floor in floors.items():
        kind, twin = make(*params), make(*params)
        assert (kind.tag, kind.exits, kind.floor) == (tag, exits, floor)
        exit_ports = ("b", "c")[:exits]
        spec = CounterGadgetSpec("k", (Component(kind, "a", exit_ports),))
        doc = json.loads(serialize_system(SystemOfGadgets((spec,), ())))["specs"][0]
        assert doc["components"] == [{"kind": tag, **dict(zip(("lo", "hi"), params)),
                                      "entry": "a", "exits": list(exit_ports)}]
        assert parse_spec(doc) == spec
        assert kind == twin and hash(kind) == hash(twin) and kind is not twin
        assert [other == kind for other in every].count(True) == 1
        assert len({kind, twin, *every}) == len(every)


def test_component_arity_checked():
    with pytest.raises(SystemFormatError):
        Component(JZSwitch(), "in", ("only_one",))
    with pytest.raises(SystemFormatError):
        Component(IncRange(1, 1), "in", ("a", "b"))


def test_spec_parts_check_their_types():
    # a kind, a tuple of exit ports and a tuple of Components, checked when built
    with pytest.raises(SystemFormatError, match="need a kind"):
        Component("x", "a", ("b",))
    with pytest.raises(SystemFormatError, match="tuple of exit ports"):
        Component(IncRange(1, 1), "a", ["b"])
    good = Component(IncRange(1, 1), "a", ("b",))
    for components in ((good, "x"), (good, catalog()["sscd"]), [good]):
        with pytest.raises(SystemFormatError, match="tuple of Components"):
            CounterGadgetSpec("t", components)
    assert CounterGadgetSpec("t", (good,)).locations == ("a", "b")


# ------------------------------------------------------ systems + wiring

def _one_tunnel_system(kind, initial=0, **kw):
    spec = CounterGadgetSpec("t", (Component(kind, "t_in", ("t_out",)),))
    return SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("g", "t", initial),),
        nodes=("src",),
        edges=(("node:src", "g.t_in"),),
        start="node:src",
        **kw,
    )


def test_inc_range_offers_every_amount():
    index = canonicalize(_one_tunnel_system(IncRange(1, 2), initial=5))
    succ = index.successors(index.start_config())
    assert sorted(c.states[0] for (_, c) in succ) == [6, 7]
    for t, _ in succ:
        assert (t.entry, t.exit, t.before) == ("t_in", "t_out", 5)
    assert {t.choice for t, _ in succ} == {1, 2}
    # a position that is no class id has no moves, and does not wrap around
    classes = len(index.prefix)
    for pos in (-1, -classes, classes):
        assert index.successors(Configuration(pos, (5,))) == []


def test_decnz_blocked_below_threshold():
    index = canonicalize(_one_tunnel_system(DecNZRange(2, 3), initial=1))
    assert index.successors(index.start_config()) == []
    index = canonicalize(_one_tunnel_system(DecNZRange(2, 3), initial=2))
    succ = index.successors(index.start_config())
    assert [c.states[0] for (_, c) in succ] == [0]


def test_canonicalize_merges_edged_endpoints():
    spec = G.spec_inc_dec_jz()
    sys0 = SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("a", "inc-dec-jz", 0),
                   GadgetInstance("b", "inc-dec-jz", 0)),
        edges=(("a.inc_out", "b.dec_in"),),
    )
    idx = canonicalize(sys0)
    assert idx.endpoint_class("a.inc_out") == idx.endpoint_class("b.dec_in")
    assert idx.endpoint_class("a.inc_in") != idx.endpoint_class("b.dec_in")
    # class ids are 0..n-1, each the class of some endpoint
    assert sorted(set(idx.class_at)) == list(range(len(idx.prefix)))


def test_endpoint_class_names_a_missing_endpoint():
    index = canonicalize(_one_tunnel_system(IncRange(1, 1)))
    assert index.endpoint_class("node:src") == index.endpoint_class("g.t_in")
    for ep in ("node:nope", "g.nope", "h.t_in", "g", "", None, 3, ["node:src"]):
        with pytest.raises(SystemFormatError, match=f"^no endpoint {re.escape(repr(ep))} in"):
            index.endpoint_class(ep)


def test_class_numbering_is_deterministic():
    spec = G.spec_inc_dec_jz()
    sys0 = SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("a", "inc-dec-jz", 0),),
        nodes=("n1", "n2"),
        edges=(("node:n1", "a.inc_in"), ("a.inc_out", "node:n2")),
        start="node:n1",
    )
    i1, i2 = canonicalize(sys0), canonicalize(sys0)
    assert i1.class_at == i2.class_at
    assert i1.prefix == i2.prefix


def test_endpoint_helpers():
    assert node_endpoint("x") == "node:x"
    assert port_endpoint("g", "inc_in") == "g.inc_in"
    assert split_endpoint("node:x") == ("node", "x")
    assert split_endpoint("g.inc_in") == ("g", "inc_in")
    # head + prefix + tail is the endpoint in a copy under the prefix
    assert split_for_prefix("node:x") == ("node:", "x")
    assert split_for_prefix("g.inc_in") == ("", "g.inc_in")
    # instance ids may not contain dots, so first-dot splitting is safe
    with pytest.raises(SystemFormatError):
        canonicalize(SystemOfGadgets(
            specs=(G.spec_inc_dec_jz(),),
            instances=(GadgetInstance("a.b", "inc-dec-jz", 0),),
        ))


def test_finite_spec_traversals():
    sscd = catalog()["sscd"]
    index = canonicalize(SystemOfGadgets(
        specs=(sscd,),
        instances=(GadgetInstance("d", "sscd", "1"),),
        nodes=("go",),
        edges=(("node:go", "d.L1"),),
        start="node:go",
    ))
    succ = index.successors(index.start_config())
    assert len(succ) == 1
    t, c = succ[0]
    assert (t.entry, t.exit, t.before, t.after) == ("L1", "R1", "1", "2")
    assert c.states == ("2",)
    # from state 2 the L1 traversal is gone
    assert index.successors(Configuration(c.position, ("2",))) == [] or all(
        tr.entry != "L1" for tr, _ in index.successors(c))


@pytest.mark.parametrize("build, field", [
    (lambda: SystemOfGadgets(specs=5, instances=()), "specs"),
    (lambda: SystemOfGadgets(specs=(), instances=[]), "instances"),
    (lambda: SystemOfGadgets(specs=(), instances=(5,)), "instances"),
    (lambda: SystemOfGadgets(specs=(), instances=(), nodes=5), "nodes"),
    (lambda: SystemOfGadgets(specs=(), instances=(), boundary=5), "boundary"),
    (lambda: SystemOfGadgets(specs=(), instances=(), edges=(5,)), "edge"),
    (lambda: SystemOfGadgets(specs=(), instances=(), edges=(("node:a",) * 3,)), "edge"),
    (lambda: FiniteGadgetSpec("f", 5, (), ()), "states"),
    (lambda: FiniteGadgetSpec("f", ("a",), "xy", ()), "locations"),
    (lambda: FiniteGadgetSpec("f", ("a",), (), 5), "transitions"),
    (lambda: FiniteGadgetSpec("f", ("a",), (), ((1, 2),)), "transition"),
    (lambda: serialize_system(5), "system"),
    (lambda: to_dot(5), "system"),
], ids=["int-specs", "list-instances", "int-instance", "int-nodes", "int-boundary",
        "int-edge", "three-ends", "int-states", "string-locations", "int-transitions",
        "short-transition", "serialize-int", "dot-int"])
def test_a_value_built_in_code_names_its_bad_field(build, field):
    with pytest.raises(SystemFormatError, match=rf"^(f: )?(a )?{field} must "):
        build()


def test_an_edge_that_is_no_pair_gets_one_error_from_a_document_or_code():
    for edge in (5, "x", None, ["node:a"] * 3):
        with pytest.raises(SystemFormatError) as parsed:
            parse_system(json.dumps({"edges": [edge]}))
        built = edge if not isinstance(edge, list) else tuple(edge)
        with pytest.raises(SystemFormatError) as made:
            SystemOfGadgets((), (), edges=(built,))
        assert str(parsed.value) == f"edge must be a pair of endpoints, got {edge!r}"
        assert str(made.value) == f"edge must be a pair of endpoints, got {built!r}"


def test_an_edge_built_as_a_list_is_refused():
    with pytest.raises(SystemFormatError) as exc:
        SystemOfGadgets((), (), nodes=("a", "b"), edges=(["node:a", "node:b"],))
    assert str(exc.value) == "edge must be a pair of endpoints, got ['node:a', 'node:b']"
    made, twin = (SystemOfGadgets((), (), nodes=("a", "b"), edges=(("node:a", "node:b"),))
                  for _ in range(2))
    assert hash(made) == hash(twin) and made == twin


def test_validation_errors():
    spec = G.spec_inc_dec_jz()
    good = GadgetInstance("a", "inc-dec-jz", 0)
    with pytest.raises(SystemFormatError, match="unknown port"):
        canonicalize(SystemOfGadgets((spec,), (good,), edges=(("a.nope", "a.inc_in"),)))
    with pytest.raises(SystemFormatError, match="unknown node"):
        canonicalize(SystemOfGadgets((spec,), (good,), edges=(("node:ghost", "a.inc_in"),)))
    with pytest.raises(SystemFormatError, match="unknown instance"):
        canonicalize(SystemOfGadgets((spec,), (good,), edges=(("b.inc_in", "a.inc_in"),)))
    with pytest.raises(SystemFormatError, match="duplicate instance"):
        canonicalize(SystemOfGadgets((spec,), (good, good)))
    with pytest.raises(SystemFormatError, match="natural"):
        canonicalize(SystemOfGadgets((spec,), (GadgetInstance("a", "inc-dec-jz", -1),)))
    with pytest.raises(SystemFormatError, match="not a state"):
        canonicalize(SystemOfGadgets(
            (catalog()["sscd"],), (GadgetInstance("d", "sscd", "3"),)))
    with pytest.raises(SystemFormatError, match="no spec named"):
        canonicalize(SystemOfGadgets((), (good,)))
    with pytest.raises(SystemFormatError, match="overlap"):
        canonicalize(SystemOfGadgets((spec,), (good,), nodes=("a",)))
    with pytest.raises(SystemFormatError, match="not a gadget spec"):
        SystemOfGadgets((spec.components[0],), ())
    with pytest.raises(SystemFormatError, match="duplicate spec name"):
        SystemOfGadgets((spec, CounterGadgetSpec("inc-dec-jz", ())), ())
    with pytest.raises(SystemFormatError, match="duplicate node name"):
        SystemOfGadgets((spec,), (good,), nodes=("n", "n"))


@pytest.mark.parametrize("first, second", [(1, True), (1, 1.0), (0, [0]), (0, {})])
def test_an_initial_equal_to_a_checked_one_is_still_checked(first, second):
    # _validate checks an int or str initial once per spec; True == 1 == 1.0
    # hash alike, and a list or dict hashes not at all, so each is checked
    spec = G.spec_inc_dec_jz()
    with pytest.raises(SystemFormatError) as caught:
        SystemOfGadgets((spec,), (GadgetInstance("a", spec.name, first),
                                  GadgetInstance("b", spec.name, second)))
    assert str(caught.value) == (
        f"b: initial state of a counter gadget must be a natural, got {second!r}")


def test_initial_config_requires_start():
    spec = G.spec_inc_dec_jz()
    sys0 = SystemOfGadgets((spec,), (GadgetInstance("a", "inc-dec-jz", 0),))
    with pytest.raises(SystemFormatError, match="no start"):
        canonicalize(sys0).start_config()


# ------------------------------------------------- successor soundness

_WALK = st.lists(st.integers(0, 7), min_size=0, max_size=12)


@given(picks=_WALK)
@settings(max_examples=80, deadline=None)
def test_successors_are_locally_sound(picks):
    # Random walk over a nontrivial system: every offered traversal starts
    # at the current class, ends at its exit port's class, and rewrites
    # exactly the one instance it names.
    from gadgetforge import lower

    art = lower.sim_incdecjz_via_incjzdec()
    sys0 = art.system
    idx = canonicalize(sys0)
    ids = [inst.id for inst in sys0.instances]
    config = Configuration(idx.endpoint_class("node:inc_in"),
                           idx.at_rest(inst.initial for inst in sys0.instances))
    for pick in picks:
        succ = idx.successors(config)
        if not succ:
            break
        t, after = succ[pick % len(succ)]
        assert idx.endpoint_class(port_endpoint(t.instance, t.entry)) == config.position
        assert idx.endpoint_class(port_endpoint(t.instance, t.exit)) == after.position
        i = ids.index(t.instance)
        assert config.states[i] == t.before and after.states[i] == t.after
        assert after.states[:i] == config.states[:i]
        assert after.states[i + 1:] == config.states[i + 1:]
        config = after


# -------------------------------------------------------- serialization

def test_serialize_parse_round_trip():
    from gadgetforge import lower

    for sys0 in (
        lower.build_inc_decnz_decnz().system,
        lower.sim_incdecjz_via_incjzdec().system,
        lower.build_sscd_from_incdecnz().system,
        _one_tunnel_system(IncRange(2, 3), initial=7),
    ):
        text = serialize_system(sys0)
        back = parse_system(text)
        assert back == sys0
        assert serialize_system(back) == text


def test_serialized_form_is_plain_sorted_json():
    text = serialize_system(_one_tunnel_system(DecNZRange(1, 2)))
    doc = json.loads(text)
    assert set(doc) == {"specs", "instances", "nodes", "edges",
                        "start", "goal", "boundary"}
    assert doc["instances"][0] == {"id": "g", "initial": 0, "spec": "t"}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------ writer differential
#
# serialize_system writes its bytes directly; the serializer it replaced is
# kept here verbatim as the oracle, and the two must agree byte for byte.

def reference_serialize_system(system: SystemOfGadgets) -> str:
    """Deterministic JSON: equal systems serialize to identical bytes."""
    doc = {
        "specs": [G._spec_to_json(s) for s in system.specs],
        "instances": [
            {"id": i.id, "spec": i.spec, "initial": i.initial}
            for i in system.instances
        ],
        "nodes": list(system.nodes),
        "edges": [list(e) for e in system.edges],
        "start": system.start,
        "goal": system.goal,
        "boundary": list(system.boundary),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# names with every character class the writer must escape like json.dumps:
# quote, backslash, control characters, non-ASCII and astral characters
_ODD = '"\\\n\t\x00\x7fé 😀'
_NAMES = st.text(alphabet=st.sampled_from("ab:/_ ." + _ODD), max_size=4)
_IDS = _NAMES.filter(lambda s: s and "." not in s and s != "node"
                     and not s.startswith("node:"))
_BIG = st.one_of(st.integers(0, 3), st.integers(0, 2**70), st.just(10**400))
_RANGED = st.sampled_from([IncRange, DecNZRange, DecRange])
_PLAIN = st.sampled_from([PZ(), PNZ(), JZSwitch(), JZDecSwitch()])


@st.composite
def _components(draw):
    if draw(st.booleans()):
        lo = draw(st.one_of(st.integers(1, 3), st.integers(1, 2**70)))
        kind = draw(_RANGED)(lo, lo + draw(_BIG))
    else:
        kind = draw(_PLAIN)
    ports = draw(st.lists(_NAMES, min_size=1 + kind.exits, max_size=1 + kind.exits))
    return Component(kind, ports[0], tuple(ports[1:]))


@st.composite
def _specs(draw, name):
    if draw(st.booleans()):
        return CounterGadgetSpec(name, tuple(draw(st.lists(_components(), max_size=4))))
    states = tuple(draw(st.lists(_NAMES, min_size=1, max_size=3)))
    locations = tuple(draw(st.lists(_NAMES, max_size=4)))
    transitions = ()
    if locations:
        steps = st.tuples(st.sampled_from(states), st.sampled_from(locations),
                          st.sampled_from(states), st.sampled_from(locations))
        transitions = tuple(draw(st.lists(steps, max_size=4)))
    return FiniteGadgetSpec(name, states, locations, transitions)


@st.composite
def systems(draw) -> SystemOfGadgets:
    """Valid systems of every spec kind, with odd names and large numbers."""
    names = draw(st.lists(_NAMES, unique=True, max_size=3))
    specs = tuple(draw(_specs(name)) for name in names)
    instances = []
    if specs:
        for inst_id in draw(st.lists(_IDS, unique=True, max_size=4)):
            spec = draw(st.sampled_from(specs))
            initial = draw(_BIG if isinstance(spec, CounterGadgetSpec)
                           else st.sampled_from(spec.states))
            instances.append(GadgetInstance(inst_id, spec.name, initial))
    ids = {i.id for i in instances}
    nodes = draw(st.lists(_NAMES.filter(lambda s: s not in ids), unique=True, max_size=4))
    by_name = {spec.name: spec for spec in specs}
    legal = [node_endpoint(n) for n in nodes] + [
        port_endpoint(i.id, loc) for i in instances
        for loc in by_name[i.spec].locations if loc]
    ends = st.sampled_from(legal) if legal else st.nothing()
    maybe = st.none() | ends if legal else st.none()
    return SystemOfGadgets(
        specs=specs, instances=tuple(instances), nodes=tuple(nodes),
        edges=tuple(draw(st.lists(st.tuples(ends, ends), max_size=8))) if legal else (),
        start=draw(maybe), goal=draw(maybe),
        boundary=tuple(draw(st.lists(ends, max_size=3))) if legal else ())


def _writer_cases():
    """(name, system): every criterion-3 artifact, finite specs, the empty
    system, odd names with large ints, and a corpus sample on every target."""
    from gadgetforge import lower
    from test_acceptance import _RANGE_PARAMS, _corpus, _spliced_duplicator

    yield "flow-expanded", lower.build_inc_decnz_decnz().system
    yield "quintet", lower.sim_incdecjz_via_incjzdec().system
    yield "merged", lower.sim_incjzdec_via_incdecnzpz().system
    yield "sscd", lower.build_sscd_from_incdecnz().system
    yield "duplicator", lower.build_edge_duplicator(1, 2, 1, 2).system
    yield "duplicator-no-leak", _spliced_duplicator(1, 2, 1, 2).system
    for a, b, c, d in _RANGE_PARAMS:
        # via-duplicators needs [a,b] and [c,d] to overlap
        for expand in ("direct",) + (("via-duplicators",) if max(a, c) <= min(b, d) else ()):
            for merged in (False, True):
                yield f"incab-{a}{b}{c}{d}-{expand}-{merged}", lower.sim_incdecnzpz_via_incab(
                    a, b, c, d, merged=merged, expand=expand).system
    for name, state in (("sscd", "1"), ("two-tunnel", "idle")):
        yield name, SystemOfGadgets(specs=(catalog()[name],),
                                    instances=(GadgetInstance("d", name, state),))
    yield "empty", SystemOfGadgets(specs=(), instances=())
    odd = CounterGadgetSpec(_ODD, (Component(IncRange(1, 10**4000), _ODD, ('"',)),))
    yield "odd-names-big-ints", SystemOfGadgets(
        specs=(odd,), instances=(GadgetInstance("é\n", _ODD, 2**64),),
        nodes=(_ODD, "\\"), edges=((node_endpoint(_ODD), port_endpoint("é\n", _ODD)),),
        start=node_endpoint("\\"), goal=port_endpoint("é\n", '"'),
        boundary=(node_endpoint(_ODD),))
    targets = [(t, {}) for t in lower.PIPELINE_TARGETS if t != "inc-ab"] + [
        ("inc-ab", {"range_params": (1, 2, 1, 2), "expand": expand})
        for expand in ("direct", "via-duplicators")]
    for k, (program, initial) in enumerate(_corpus()[::24]):
        for target, kw in targets:
            yield f"corpus-{k}-{target}-{kw.get('expand')}", lower.pipeline(
                program, target, initial=initial, **kw).system


def test_writer_matches_the_reference_serializer():
    count = 0
    for name, system in _writer_cases():
        assert serialize_system(system) == reference_serialize_system(system), name
        count += 1
    assert count > 100


@settings(max_examples=200, deadline=None)
@given(systems())
def test_writer_matches_the_reference_on_generated_systems(system):
    assert serialize_system(system) == reference_serialize_system(system)


def test_parse_rejects_garbage():
    with pytest.raises(SystemFormatError):
        parse_system("not json")
    with pytest.raises(SystemFormatError):
        parse_system(json.dumps({"instances": [{"id": "g"}]}))  # no spec key
    with pytest.raises(SystemFormatError):
        parse_system(json.dumps([1, 2]))  # not an object
    doc = json.loads(serialize_system(_one_tunnel_system(IncRange(1, 1))))
    doc["specs"][0]["components"][0]["kind"] = "warp"
    with pytest.raises(SystemFormatError, match="unknown component kind"):
        parse_system(json.dumps(doc))
    doc["specs"][0]["components"][0] = {"kind": "decnz", "entry": "t_in",
                                        "exits": ["t_out"]}
    with pytest.raises(SystemFormatError, match="lo/hi"):
        parse_system(json.dumps(doc))
    # what the json module cannot read: too deep a nesting, too long an integer
    for text in ("[" * 200_000 + "]" * 200_000, '{"nodes": [' + "1" * 5_001 + "]}"):
        with pytest.raises(SystemFormatError, match="not valid JSON"):
            parse_system(text)


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set(("edges", 0, 0), 1), "endpoint must be a string"),
    (_set(("start",), 1), "endpoint must be a string"),
    (_set(("instances", 0, "id"), 1), "bad instance id"),
    (_set(("nodes", 0), ["src"]), "node name must be a string"),
    (_set(("instances", 0, "initial"), True), "natural"),
    (_set(("boundary",), "node:src"), "boundary must be a list"),
    (_set(("specs", 0, "components", 0, "exits"), "t_out"), "exits must be a list"),
    (_set(("specs", 0, "components", 0, "hi"), float("inf")), "bad spec entry"),
    (_set(("specs", 0, "components", 0, "lo"), 1.5), "not an integer"),
    (_set(("specs", 0, "components", 0, "hi"), 1.5), "not an integer"),
    (_set(("specs", 0, "components", 0, "lo"), True), "not an integer"),
    (_set(("specs", 0, "components", 0, "hi"), True), "not an integer"),
    (_set(("specs", 0, "components", 0, "lo"), "2"), "not an integer"),
    (_set(("specs", 0, "components", 0, "hi"), "2"), "not an integer"),
    # off the one-set-lookup path both ways: unhashable, and hashable but no string
    (_set(("edges", 0, 1), ["g.t_in"]), r"^endpoint must be a string, got \['g.t_in'\]$"),
    (_set(("goal",), 2.5), r"^endpoint must be a string, got 2.5$"),
], ids=["int-endpoint", "int-start", "int-instance-id", "list-node", "bool-initial",
        "string-boundary", "string-exits", "infinite-hi", "float-lo", "float-hi",
        "bool-lo", "bool-hi", "string-lo", "string-hi", "list-endpoint", "float-goal"])
def test_parse_rejects_wrong_types(mutate, message):
    doc = json.loads(serialize_system(_one_tunnel_system(IncRange(1, 1))))
    mutate(doc)
    with pytest.raises(SystemFormatError, match=message):
        parse_system(json.dumps(doc))


def test_instance_id_node_is_reserved():
    # "node.inc_in" would split to the tag a connection node gets
    spec = G.spec_inc_dec_jz()
    for bad in ("node", "node:x"):
        with pytest.raises(SystemFormatError, match="reserved"):
            SystemOfGadgets((spec,), (GadgetInstance(bad, spec.name, 0),),
                            edges=((f"{bad}.inc_in", f"{bad}.inc_out"),))


def _paths(doc, path=()):
    """(path, value) for every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _base_documents():
    """A compiled machine (counter specs, start and goal) and a finite-spec
    system with a boundary, as system documents."""
    from gadgetforge import lower
    from gadgetforge.machine import parse_program

    compiled = lower.compile_machine_to_incdecjz(
        parse_program("0: INC c0\n1: JZ c0 3\n2: DEC c0\n3: HALT\n")).system
    door = SystemOfGadgets(
        specs=(catalog()["sscd"],),
        instances=(GadgetInstance("d", "sscd", "1"),),
        nodes=("a", "b"),
        edges=(("node:a", "d.L1"), ("d.R1", "node:b")),
        boundary=("node:a", "node:b"),
    )
    return [json.loads(serialize_system(s)) for s in (compiled, door)]


_REPLACEMENTS = {
    "int": st.integers(-2, 3),
    "bool": st.booleans(),
    "None": st.none(),
    "list": st.lists(st.sampled_from(["", "a", "node:a", "d.L1"]), max_size=2),
    "string": st.sampled_from(["", "x", "node:a", "d.L1", "inc", "1"]),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_documents_raise_only_system_format_error(data):
    doc = data.draw(st.sampled_from(_base_documents()))
    how = data.draw(st.sampled_from(["replace", "list-to-string", "drop"]))
    paths = list(_paths(doc))
    if how == "list-to-string":
        paths = [pv for pv in paths if isinstance(pv[1], list)]
    elif how == "drop":
        paths = [pv for pv in paths if not isinstance(pv[0][-1], int)]
    path, value = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "replace":
        kind = data.draw(st.sampled_from(sorted(_REPLACEMENTS)))
        parent[path[-1]] = data.draw(_REPLACEMENTS[kind])
    elif how == "list-to-string":
        # the natural slip: a one-element list written as its element
        parent[path[-1]] = value[0] if value and isinstance(value[0], str) else json.dumps(value)
    else:
        del parent[path[-1]]
    try:
        system = parse_system(json.dumps(doc))
    except SystemFormatError:
        return
    try:
        canonicalize(system)
    except SystemFormatError:
        pass


def test_parse_spec_accepts_catalog_dump():
    doc = json.loads(serialize_system(_one_tunnel_system(IncRange(1, 2))))
    spec = parse_spec(doc["specs"][0])
    assert isinstance(spec, CounterGadgetSpec)
    assert spec.locations == ("t_in", "t_out")
    with pytest.raises(SystemFormatError):
        parse_spec({"type": "counter"})
    with pytest.raises(SystemFormatError):
        parse_spec({"type": "nonsense", "name": "x"})


def _spec_document(name):
    """The catalog spec ``name`` in the JSON form a spec file holds."""
    system = SystemOfGadgets(specs=(catalog()[name],), instances=())
    return json.loads(serialize_system(system))["specs"][0]


@pytest.mark.parametrize("name, mutate", [
    ("inc-decnz-pz", _set(("components", 0, "lo"), 1.5)),
    ("inc-decnz-pz", _set(("components", 1, "hi"), True)),
    ("inc-decnz-pz", _set(("components", 1, "hi"), "2")),
    ("inc-decnz-pz", _set(("components", 2, "entry"), ["pz_in"])),
    ("inc-decnz-pz", _set(("components", 0, "exits"), [1])),
    ("inc-decnz-pz", _set(("name",), ["inc-decnz-pz"])),
    ("sscd", lambda doc: doc.update(states=[], transitions=[])),
    ("sscd", lambda doc: doc["locations"].append(["L3"])),
], ids=["float-lo", "bool-hi", "string-hi", "list-entry", "int-exit", "list-name",
        "no-states", "list-location"])
def test_parse_spec_checks_every_field(name, mutate):
    # the spec builds itself from checked parts, so no malformed spec gets
    # as far as a system or a search
    doc = _spec_document(name)
    assert parse_spec(doc) == catalog()[name]
    mutate(doc)
    with pytest.raises(SystemFormatError, match="^bad spec entry: "):
        parse_spec(doc)


def test_json_is_read_in_one_place():
    # every document reaches json through gadgets.read_json, the one place
    # that turns its errors (bad JSON, deep nesting, long integers) into
    # SystemFormatError
    package = Path(G.__file__).parent
    calls = [(path.stem, node.func.attr) for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("load", "loads")
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"]
    assert calls == [("gadgets", "loads")]


def test_endpoint_format_is_written_in_one_place():
    # only gadgets spells out ``node:NAME``; every other module builds and
    # takes endpoints apart through its helpers
    package = Path(G.__file__).parent
    spelled = sorted({path.stem for path in package.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.startswith("node:")})
    assert spelled == ["gadgets"]


def _functions(predicate) -> list[str]:
    """The outermost functions in the package with some AST node that
    ``predicate`` holds for (a nested function counts as its parent's), as
    ``module.function`` or ``module.Class.method``."""
    package = Path(G.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        todo = [(ast.parse(path.read_text()), path.stem)]
        while todo:
            node, where = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(predicate, ast.walk(node))):
                    found.append(f"{where}.{node.name}")
            else:
                if isinstance(node, ast.ClassDef):
                    where = f"{where}.{node.name}"
                todo.extend((child, where) for child in ast.iter_child_nodes(node))
    return found


def test_the_node_prefix_is_taken_off_in_one_place():
    # a slice of an endpoint that starts with "node:" is the prefix coming
    # off; split_endpoint and boundary_port call split_for_prefix for it
    def strips(node) -> bool:
        return (isinstance(node, (ast.If, ast.IfExp))
                and any(isinstance(n, ast.Constant) and n.value == "node:"
                        for n in ast.walk(node.test))
                and any(isinstance(n, ast.Slice) for n in ast.walk(node)))
    assert _functions(strips) == ["gadgets.split_for_prefix"]


def test_each_component_kind_rule_is_stated_once():
    # the four zero tests state only their tag, exits and step: moves and
    # interval_moves are _ZeroTest's; a ranged kind's floor is _Ranged's hi,
    # which only Inc overrides
    tree = ast.parse(Path(G.__file__).read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in ("PZ", "PNZ", "JZSwitch", "JZDecSwitch"):
        assert [ast.unparse(base) for base in classes[name].bases] == ["_ZeroTest"], name
        assert not any(isinstance(node, (ast.FunctionDef, ast.Lambda))
                       for node in ast.walk(classes[name])), name

    def states_floor(cls) -> bool:
        return any(isinstance(node, ast.FunctionDef) and node.name == "floor"
                   or isinstance(node, ast.Name) and node.id == "floor"
                   and isinstance(node.ctx, ast.Store) for node in ast.walk(cls))
    ranged = [name for name, cls in classes.items()
              if [ast.unparse(base) for base in cls.bases] == ["_Ranged"]]
    assert ranged == ["IncRange", "DecNZRange", "DecRange"]
    assert [name for name in ranged if states_floor(classes[name])] == ["IncRange"]


def test_a_system_is_told_from_an_index_in_one_place():
    def tells(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and isinstance(node.args[1], ast.Name) and node.args[1].id == "SystemIndex")
    assert _functions(tells) == ["gadgets.canonicalize"]


def test_a_finite_step_is_built_in_one_place():
    # one move table: the codec's rows, over interned state codes
    def builds(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_FiniteStep")
    assert _functions(builds) == ["gadgets.KeyCodec.__init__"]


def test_a_class_becomes_a_key_prefix_in_one_place():
    # index.prefix holds every class's prefix; only pack checks a caller's
    # position, which may be out of range
    def packs_position(node) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_bytes" and node.args):
            return False
        width = node.args[0]
        return ((isinstance(width, ast.Name) and width.id in ("pw", "pos_width"))
                or (isinstance(width, ast.Attribute) and width.attr == "pos_width"))
    assert sorted(_functions(packs_position)) == ["gadgets.KeyCodec.pack",
                                                  "gadgets.SystemIndex.__init__"]


def test_only_substitute_builds_a_system_past_the_validator():
    # every other system, a parsed document above all, runs _validate
    def splices(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "_spliced"
    assert _functions(splices) == ["lower.substitute"]


def test_boundary_ports_are_named_in_one_place():
    # the closure, substitute, export and the port-map check read
    # SystemOfGadgets.boundary_ports
    def names(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "boundary_port"
    assert _functions(names) == ["gadgets.SystemOfGadgets.boundary_ports"]


def test_a_spec_map_is_built_in_one_place():
    # {s.name: s for ...} or d[s.name] = s: every other reader of specs by
    # name reads SystemOfGadgets.spec_of
    def maps_names(node) -> bool:
        if isinstance(node, ast.DictComp):
            key, value = node.key, node.value
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Subscript)):
            key, value = node.targets[0].slice, node.value
        else:
            return False
        return (isinstance(key, ast.Attribute) and key.attr == "name"
                and isinstance(key.value, ast.Name) and isinstance(value, ast.Name)
                and key.value.id == value.id)
    assert sorted(_functions(maps_names)) == ["gadgets.SystemOfGadgets.spec_of",
                                              "gadgets.catalog"]


def test_an_index_builds_no_endpoint_string():
    # the index and its codec run on the numbers of the system's endpoint
    # table; endpoint strings are made only where the system is numbered
    # (SystemOfGadgets.endpoints) and in error messages
    def in_index(function: str) -> bool:
        return function.split(".")[1] in ("SystemIndex", "KeyCodec")

    def spells(node) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in (
            "port_endpoint", "node_endpoint", "_port_endpoints", "_node_endpoints")

    def formats(node) -> bool:  # an f-string outside a raise, so no error message
        if not isinstance(node, ast.FunctionDef):
            return False
        in_raise = {id(n) for r in ast.walk(node) if isinstance(r, ast.Raise) for n in ast.walk(r)}
        return any(isinstance(n, ast.JoinedStr) and id(n) not in in_raise for n in ast.walk(node))

    assert [f for f in _functions(spells) if in_index(f)] == []
    assert [f for f in _functions(formats) if in_index(f)] == []


def test_an_index_reads_the_numbering_that_validation_built():
    from gadgetforge import lower

    system = parse_system(serialize_system(lower.sim_incdecjz_via_incjzdec().system))
    built = system.__dict__["endpoints"]  # made by _validate, before any index
    for mode in ("concrete", "interval"):
        index = canonicalize(system, mode)
        assert system.endpoints is built and index.table is built.table
    assert index.endpoint_class("node:inc_in") == index.class_at[built.number["node:inc_in"]]


def test_a_system_is_numbered_once(monkeypatch):
    # a parsed system on construction; a substitute output, which skips
    # _validate, on its first index, and never again
    from gadgetforge import lower

    calls = []
    numbering = SystemOfGadgets.endpoints.func
    monkeypatch.setattr(SystemOfGadgets.endpoints, "func",
                        lambda system: calls.append(system) or numbering(system))
    host, part = lower.sim_incdecjz_via_incjzdec(), lower.sim_incjzdec_via_incdecnzpz()
    assert len(calls) == 2
    out = lower.substitute(host, "inc-jzdec", part).system
    assert len(calls) == 2 and "endpoints" not in out.__dict__
    tables = [canonicalize(out, mode).table for mode in ("concrete", "interval", "concrete")]
    assert len(calls) == 3 and calls[-1] is out
    assert all(table is out.endpoints.table for table in tables)


def test_canonicalize_keeps_an_index_in_its_own_mode():
    system = _mixed_system()
    for mode in ("concrete", "interval"):
        index = canonicalize(system, mode)
        assert canonicalize(index) is index
        assert canonicalize(index, mode) is index
        assert index.interval == (mode == "interval")
    interval = canonicalize(system, "interval")
    with pytest.raises(SystemFormatError, match="interval mode"):
        canonicalize(interval, "concrete")
    with pytest.raises(SystemFormatError):
        canonicalize(canonicalize(system), "interval")


def test_catalog_contents():
    cat = catalog()
    assert set(cat) == {
        "inc-dec-jz", "inc-jzdec", "inc-decnz", "inc-decnz-pz",
        "inc-decnz-pz-merged", "inc-decnz-decnz", "sscd", "two-tunnel",
    }
    for name, spec in cat.items():
        assert spec.name == name
        assert len(set(spec.locations)) == len(spec.locations)
    assert isinstance(cat["sscd"], FiniteGadgetSpec)
    assert isinstance(cat["inc-jzdec"], CounterGadgetSpec)
    # merged-entrance variant shares one entry port between DecNZ and PZ
    merged = cat["inc-decnz-pz-merged"]
    entries = [comp.entry for comp in merged.components]
    assert len(entries) != len(set(entries))


# ------------------------------------------------------------------ DOT

def test_dot_output_shape():
    from gadgetforge import lower

    sys0 = lower.build_sscd_from_incdecnz().system
    dot = to_dot(sys0)
    assert dot.startswith("graph ")
    assert "subgraph cluster_0" in dot and "subgraph cluster_1" in dot
    # one node line per port plus one per external node
    n_ports = sum(len(sys0.spec_of[i.spec].locations) for i in sys0.instances)
    n_lines = sum(1 for line in dot.splitlines() if "[label=" in line or
                  ("[shape=box" in line))
    assert n_lines == n_ports + len(sys0.nodes)
    for (a, b) in sys0.edges:
        assert f'"{a}" -- "{b}"' in dot


# ------------------------------------------------------------ packed keys

def _mixed_system() -> SystemOfGadgets:
    """A finite gadget between two counters, so a key mixes both slot kinds."""
    sscd, counter = catalog()["sscd"], G.spec_inc_decnz_pz()
    return SystemOfGadgets(
        specs=(counter, sscd),
        instances=(GadgetInstance("a", counter.name, 0), GadgetInstance("d", "sscd", "1"),
                   GadgetInstance("b", counter.name, 0)),
        nodes=("hub",),
        edges=(("node:hub", "a.inc_in"), ("a.inc_out", "d.L1"), ("d.R1", "b.inc_in")),
        start="node:hub")


@pytest.mark.parametrize("limit, width", [(0, 1), (255, 1), (256, 2), (65_535, 2),
                                          (65_536, 3), (2**24 - 1, 3)])
def test_packed_keys_round_trip(limit, width):
    system = _mixed_system()
    last = len(canonicalize(system).prefix) - 1
    values = sorted({0, 1, limit // 2, limit})
    for mode in ("concrete", "interval"):
        index = canonicalize(system, mode)
        codec = index.codec(limit)
        assert codec.width == width
        counters = [(v, w) for v in values for w in values if v <= w] \
            if mode == "interval" else values
        for pos in (0, last):
            for a in counters:
                for d in ("1", "2"):
                    cfg = Configuration(pos, (a, d, counters[-1]))
                    key = codec.pack(cfg)
                    assert len(key) == codec.size
                    assert codec.unpack(key) == cfg
                    assert [codec.state(key, i) for i in range(3)] == list(cfg.states)
        # a state the slots cannot hold is an error, not a wrapped value
        too_big = (limit, 256**width) if mode == "interval" else 256**width
        bad = [(too_big, "1", 0), (0, "3", 0), (0, "1"), (-1, "1", 0)]
        if mode == "interval":
            bad.append(((0, 0), "1", (1, 0)))  # an empty interval
        for states in bad:
            with pytest.raises(SystemFormatError):
                codec.pack(Configuration(0, states))


def test_interned_finite_states_set_the_slot_width():
    ring = FiniteGadgetSpec("ring", tuple(map(str, range(300))), ("L", "R"), ())
    system = SystemOfGadgets(specs=(ring,), instances=(GadgetInstance("r", "ring", "299"),))
    index = canonicalize(system)
    assert index.codec(0).width == 2
    cfg = Configuration(0, ("299",))
    assert index.codec(0).unpack(index.codec(0).pack(cfg)) == cfg
