"""Bounded reachability tests.

oracle_verdict below re-decides reachability from the serialized JSON
document alone: its own endpoint merging (plain DFS over edges), its own
component semantics, its own exhaustive closure.  It shares no code with
reach.bfs_reach, so agreement actually means something.
"""

from __future__ import annotations

import gc
import json
import logging
import re
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict

import pytest

from gadgetforge import gadgets as G, lower, machine as M
from gadgetforge.gadgets import (
    Configuration,
    GadgetInstance,
    SystemFormatError,
    SystemOfGadgets,
    Traversal,
    serialize_system,
)
from gadgetforge.reach import ReplayError, Verdict, bfs_reach, replay, sweep


# ---------------------------------------------------------------- oracle

def _oracle_kind_moves(comp: dict, s: int):
    """(new_state, exit_index) pairs for one serialized component at state s."""
    kind = comp["kind"]
    if kind == "inc":
        return [(s + i, 0) for i in range(comp["lo"], comp["hi"] + 1)]
    if kind == "decnz":
        if s < comp["lo"]:
            return []
        return [(s - i, 0) for i in range(comp["lo"], min(s, comp["hi"]) + 1)]
    if kind == "dec":
        return [(max(s - i, 0), 0) for i in range(comp["lo"], comp["hi"] + 1)]
    if kind == "pz":
        return [(0, 0)] if s == 0 else []
    if kind == "pnz":
        return [(s, 0)] if s >= 1 else []
    if kind == "jz":
        return [(0, 0)] if s == 0 else [(s, 1)]
    if kind == "jzdec":
        return [(0, 0)] if s == 0 else [(s - 1, 1)]
    raise AssertionError(kind)


def _oracle_locations(spec: dict) -> list[str]:
    if spec["type"] == "finite":
        return list(spec["locations"])
    seen = {}
    for comp in spec["components"]:
        seen.setdefault(comp["entry"], None)
        for x in comp["exits"]:
            seen.setdefault(x, None)
    return list(seen)


def oracle_verdict(system, cap: int, limit: int = 500_000):
    """(goal reachable?, any cap prune?) from the JSON document alone."""
    doc = json.loads(serialize_system(system))
    specs = {s["name"]: s for s in doc["specs"]}

    adj = defaultdict(set)
    endpoints = {"node:" + n for n in doc["nodes"]}
    for inst in doc["instances"]:
        for loc in _oracle_locations(specs[inst["spec"]]):
            endpoints.add(inst["id"] + "." + loc)
    for a, b in doc["edges"]:
        adj[a].add(b)
        adj[b].add(a)

    place_of: dict[str, int] = {}
    for ep in sorted(endpoints):
        if ep in place_of:
            continue
        cid = len(set(place_of.values()))
        stack = [ep]
        place_of[ep] = cid
        while stack:
            for y in adj[stack.pop()]:
                if y not in place_of:
                    place_of[y] = cid
                    stack.append(y)

    start = place_of[doc["start"]]
    goal = place_of[doc["goal"]]
    init = tuple(i["initial"] for i in doc["instances"])
    seen = {(start, init)}
    todo = [(start, init)]
    pruned = False
    found = False
    while todo and len(seen) < limit:
        place, states = todo.pop()
        if place == goal:
            found = True
            break
        for idx, inst in enumerate(doc["instances"]):
            spec = specs[inst["spec"]]
            if spec["type"] == "finite":
                for (s, a, s2, b) in spec["transitions"]:
                    if states[idx] != s:
                        continue
                    if place_of[inst["id"] + "." + a] != place:
                        continue
                    nxt = (place_of[inst["id"] + "." + b],
                           states[:idx] + (s2,) + states[idx + 1:])
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
                continue
            for comp in spec["components"]:
                if place_of[inst["id"] + "." + comp["entry"]] != place:
                    continue
                for (s2, exit_idx) in _oracle_kind_moves(comp, states[idx]):
                    if s2 > cap:
                        pruned = True
                        continue
                    nxt = (place_of[inst["id"] + "." + comp["exits"][exit_idx]],
                           states[:idx] + (s2,) + states[idx + 1:])
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
    assert len(seen) < limit, "oracle blew its own state limit"
    return found, pruned


def _compiled(text: str, initial=None):
    return lower.compile_machine_to_incdecjz(M.parse_program(text), initial).system


def _single_gadget(goal_port: str, initial=0):
    return SystemOfGadgets(
        specs=(G.spec_inc_dec_jz(),),
        instances=(GadgetInstance("g", "inc-dec-jz", initial),),
        nodes=("s", "t"),
        edges=(("node:s", "g.jz_in"), (f"g.{goal_port}", "node:t")),
        start="node:s",
        goal="node:t",
    )


def _pump_loop():
    # inc_out wired back to inc_in: counter grows without bound, goal is a
    # dec_out that free travel can never reach
    return SystemOfGadgets(
        specs=(G.spec_inc_dec_jz(),),
        instances=(GadgetInstance("g", "inc-dec-jz", 0),),
        nodes=("s", "t"),
        edges=(("node:s", "g.inc_in"), ("g.inc_out", "g.inc_in"),
               ("g.dec_out", "node:t")),
        start="node:s",
        goal="node:t",
    )


_SYSTEMS = [
    _single_gadget("jz_out_zero"),
    _single_gadget("jz_out_nonzero"),
    _single_gadget("jz_out_nonzero", initial=2),
    _pump_loop(),
    _compiled("0: INC c0\n1: HALT\n"),
    _compiled("0: JZ c0 0\n"),
    _compiled("0: JZ c0 3\n1: DEC c0\n2: JZ c1 0\n3: HALT\n", {"c0": 2}),
    _compiled("counters: c0 c1\n0: INC c1\n1: DEC c0\n2: JZ c0 4\n3: HALT\n"
              "4: INC c0\n5: HALT\n"),
    lower.pipeline(M.parse_program("0: INC c0\n1: JZ c0 3\n2: HALT\n3: HALT\n"),
                   "inc-jzdec").system,
]


@pytest.mark.parametrize("cap", [2, 8])
@pytest.mark.parametrize("i", range(len(_SYSTEMS)))
def test_bfs_agrees_with_oracle(i, cap):
    system = _SYSTEMS[i]
    out = bfs_reach(system, counter_cap=cap, visit_budget=10**6)
    found, pruned = oracle_verdict(system, cap)
    if found:
        assert out.verdict is Verdict.REACHABLE
    elif pruned:
        assert out.verdict is Verdict.UNKNOWN and out.reason == "cap-overflow-seen"
    else:
        assert out.verdict is Verdict.UNREACHABLE_WITHIN_CAP
        assert out.reason is None and out.witness is None


# ------------------------------------------------------ frozen examples

def test_zero_counter_opens_zero_branch_only():
    out = bfs_reach(_single_gadget("jz_out_zero"), counter_cap=4)
    assert out.verdict is Verdict.REACHABLE
    assert len(out.witness) == 1
    t = out.witness[0]
    assert (t.instance, t.entry, t.exit) == ("g", "jz_in", "jz_out_zero")
    assert (t.before, t.after) == (0, 0)

    shut = bfs_reach(_single_gadget("jz_out_nonzero"), counter_cap=4)
    assert shut.verdict is Verdict.UNREACHABLE_WITHIN_CAP


def test_pump_loop_is_unknown_with_cap_reason():
    out = bfs_reach(_pump_loop(), counter_cap=6)
    assert out.verdict is Verdict.UNKNOWN
    assert out.reason == "cap-overflow-seen"
    assert out.stats.max_counter <= 6


def test_tiny_budget_is_unknown_with_budget_reason():
    sys0 = _compiled("counters: c0 c1\n0: INC c1\n1: DEC c0\n2: JZ c0 4\n"
                     "3: HALT\n4: INC c0\n5: HALT\n")
    out = bfs_reach(sys0, counter_cap=8, visit_budget=3)
    assert out.verdict is Verdict.UNKNOWN
    assert out.reason == "budget-exhausted"
    assert out.stats.explored == 3


@pytest.mark.parametrize("bounds", [
    {"counter_cap": 2.5}, {"counter_cap": True}, {"counter_cap": -1},
    {"counter_cap": 4, "visit_budget": 1.5}, {"counter_cap": 4, "visit_budget": None},
    {"counter_cap": 4, "visit_budget": -1},
])
def test_caps_and_budgets_follow_the_integer_rule(bounds):
    # one rule (gadgets.check_integer) at both entry points: a float or a
    # bool is no cap, not an AttributeError deep in the codec
    system = _single_gadget("jz_out_zero")
    index = G.canonicalize(system)
    with pytest.raises(SystemFormatError, match="^cap and budget must be naturals"):
        bfs_reach(system, **bounds)
    with pytest.raises(SystemFormatError, match="^cap and budget must be naturals"):
        sweep(index, [index.start_config()], **{"visit_budget": 10, **bounds})


@pytest.mark.parametrize("system", [5, None, "x", G.spec_inc_dec_jz()])
def test_a_search_takes_only_a_system_or_its_index(system):
    # canonicalize is the front door: anything else is named, not read
    message = f"^want a SystemOfGadgets or a SystemIndex, got {type(system).__name__}$"
    with pytest.raises(SystemFormatError, match=message):
        bfs_reach(system, 3)
    with pytest.raises(SystemFormatError, match=message):
        replay(system, ())
    with pytest.raises(SystemFormatError, match=message):
        sweep(system, [], counter_cap=1, visit_budget=1)
    with pytest.raises(SystemFormatError, match=message):
        G.canonicalize(system, "interval")


def test_a_configuration_is_read_at_an_int_position():
    # a position that is no int is named where the configuration comes in,
    # not compared with a class count or replayed as it is
    index = G.canonicalize(_single_gadget("jz_out_zero"))
    states = index.start_config().states
    for position in ("x", 2.5, None, True):
        cfg = Configuration(position, states)
        message = rf"^{{}} must be a Configuration at an int position, got {re.escape(repr(cfg))}$"
        with pytest.raises(SystemFormatError, match=message.format("configuration")):
            index.successors(cfg)
        with pytest.raises(SystemFormatError, match=message.format("start")):
            sweep(index, [cfg], counter_cap=2, visit_budget=5)
        with pytest.raises(SystemFormatError, match=message.format("start")):
            replay(index, (), cfg)
    for start in (5, (0, states), [cfg]):
        with pytest.raises(SystemFormatError, match="^start must be a Configuration"):
            replay(index, (), start)
    # an int position must fit the key's position bytes, and is named by its
    # own value if not; one that fits but is no class id has no moves
    for position in (-1, 256 ** index.pos_width):
        with pytest.raises(SystemFormatError, match=rf"^position {position} does not fit$"):
            sweep(index, [Configuration(position, states)], counter_cap=2, visit_budget=5)
    nowhere = Configuration(len(index.prefix), states)
    assert nowhere.position < 256 ** index.pos_width
    assert index.successors(nowhere) == []
    result = sweep(index, [nowhere], counter_cap=2, visit_budget=5)
    assert list(result.visited) == [result.codec.pack(nowhere)]
    assert (result.stats.explored, result.overflowed, result.budget_exhausted) == (1, False, False)


def test_goal_required():
    sys0 = SystemOfGadgets(
        specs=(G.spec_inc_dec_jz(),),
        instances=(GadgetInstance("g", "inc-dec-jz", 0),),
        nodes=("s",),
        edges=(("node:s", "g.inc_in"),),
        start="node:s",
    )
    with pytest.raises(SystemFormatError, match="goal required"):
        bfs_reach(sys0, counter_cap=4)
    index = G.canonicalize(sys0)
    for goal_class in (-1, len(index.prefix)):  # no wrap-around either
        with pytest.raises(SystemFormatError, match="no class"):
            sweep(index, [index.start_config()], counter_cap=4, visit_budget=10,
                  goal_class=goal_class)


def test_start_on_goal_is_immediately_reachable():
    sys0 = SystemOfGadgets(
        specs=(G.spec_inc_dec_jz(),),
        instances=(GadgetInstance("g", "inc-dec-jz", 0),),
        nodes=("s",),
        edges=(("node:s", "g.inc_in"),),
        start="node:s",
        goal="g.inc_in",
    )
    out = bfs_reach(sys0, counter_cap=4)
    assert out.verdict is Verdict.REACHABLE
    assert out.witness == ()


# ---------------------------------------------------------------- replay

def test_replay_reproduces_witness():
    sys0 = _compiled("0: INC c0\n1: DEC c0\n2: JZ c0 3\n3: HALT\n")
    out = bfs_reach(sys0, counter_cap=8)
    assert out.verdict is Verdict.REACHABLE
    trace = replay(sys0, out.witness)
    assert len(trace) == len(out.witness) + 1
    idx = G.canonicalize(sys0)
    assert trace[0] == idx.start_config()
    assert trace[-1].position == idx.goal_class
    # a truncated witness stops short of the goal
    assert replay(sys0, out.witness[:-1])[-1].position != idx.goal_class


def test_replay_rejects_illegal_and_mismatched_steps():
    sys0 = _single_gadget("jz_out_zero")
    out = bfs_reach(sys0, counter_cap=4)
    (t,) = out.witness

    # never-legal traversal: the zero branch from a nonzero state
    with pytest.raises(ReplayError) as exc:
        replay(sys0, (t,), start=Configuration(
            G.canonicalize(sys0).start_config().position, (3,)))
    assert exc.value.step == 0
    assert "no legal traversal" in str(exc.value)

    # right ports, wrong recorded states
    lie = Traversal(t.instance, t.entry, t.exit, t.choice, 1, 1)
    with pytest.raises(ReplayError, match="state change mismatch"):
        replay(sys0, (lie,))


_BAD_VECTORS = [
    (("x",) * 5, "g0 state of a counter gadget must be a natural, got 'x'"),
    ((0,), r"one state per instance \(5\)"),
    ((0,) * 6, r"one state per instance \(5\)"),
    ([0] * 5, r"one state per instance \(5\)"),
    (((0, 0),) * 5, "must be a natural"),
]


@pytest.mark.parametrize("states, message", _BAD_VECTORS)
def test_a_state_vector_from_outside_is_checked(states, message):
    # a sweep's start, a configuration given to successors and a replay's
    # start go through the one check, SystemIndex.check_states
    index = G.canonicalize(lower.sim_incdecjz_via_incjzdec().system)
    bad = Configuration(0, states)
    with pytest.raises(SystemFormatError, match=f"^start.*{message}"):
        sweep(index, [bad], counter_cap=4, visit_budget=100)
    with pytest.raises(SystemFormatError, match=f"^configuration.*{message}"):
        index.successors(bad)
    (label, _), *_ = index.successors(Configuration(0, (0,) * 5))
    for witness in ((label,), ()):
        with pytest.raises(SystemFormatError, match=f"^start.*{message}"):
            replay(index, witness, start=bad)


def test_an_interval_state_vector_holds_intervals():
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    index = G.canonicalize(art.system, "interval")
    for states in (art.encoding.state_for(1), ((4, 0), (4, 4))):  # ints; an empty interval
        with pytest.raises(SystemFormatError, match="an interval of naturals"):
            sweep(index, [Configuration(0, states)], counter_cap=24, visit_budget=10)
    index.check_states(art.encoding.state_for(1, "interval"), "start")


def test_replay_checks_intermediate_blocked_tunnels():
    # witness taking a DecNZ step is refused when the counter starts at 0
    spec = G.spec_inc_decnz()
    sys0 = SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("g", "inc-decnz", 1),),
        nodes=("s", "t"),
        edges=(("node:s", "g.dec_in"), ("g.dec_out", "node:t")),
        start="node:s",
        goal="node:t",
    )
    out = bfs_reach(sys0, counter_cap=4)
    assert out.verdict is Verdict.REACHABLE
    empty = SystemOfGadgets(
        specs=sys0.specs, instances=(GadgetInstance("g", "inc-decnz", 0),),
        nodes=sys0.nodes, edges=sys0.edges, start=sys0.start, goal=sys0.goal)
    with pytest.raises(ReplayError) as exc:
        replay(empty, out.witness)
    assert exc.value.step == 0


def test_replay_accepts_a_witness_through_twin_components():
    # two identical Inc[1,1] tunnels from a to b: either move is the label
    twin = {"name": "twin", "type": "counter", "components": [
        {"kind": "inc", "lo": 1, "hi": 1, "entry": "a", "exits": ["b"]}] * 2}
    sys0 = G.parse_system(json.dumps({
        "specs": [twin], "instances": [{"id": "g", "spec": "twin", "initial": 0}],
        "nodes": ["start", "goal"],
        "edges": [["node:start", "g.a"], ["g.b", "node:goal"]],
        "start": "node:start", "goal": "node:goal"}))
    out = bfs_reach(sys0, counter_cap=4)
    assert out.verdict is Verdict.REACHABLE and len(out.witness) == 1
    trace = replay(sys0, out.witness)
    assert trace[-1] == Configuration(G.canonicalize(sys0).goal_class, (1,))


# ---------------------------------------------------------- monotonicity

@pytest.mark.parametrize("i", range(len(_SYSTEMS)))
def test_raising_bounds_never_loses_reachable(i):
    system = _SYSTEMS[i]
    base = bfs_reach(system, counter_cap=2, visit_budget=500)
    for cap, budget in ((2, 10**6), (8, 500), (8, 10**6), (20, 10**6)):
        again = bfs_reach(system, counter_cap=cap, visit_budget=budget)
        if base.verdict is Verdict.REACHABLE:
            assert again.verdict is Verdict.REACHABLE
    # UnreachableWithinCap is a final answer for that cap: budget was not
    # the binding constraint, so more budget changes nothing
    if base.verdict is Verdict.UNREACHABLE_WITHIN_CAP:
        assert bfs_reach(system, counter_cap=2, visit_budget=10**9).verdict \
            is Verdict.UNREACHABLE_WITHIN_CAP


def test_repeat_runs_identical():
    for system in _SYSTEMS[:5]:
        a = bfs_reach(system, counter_cap=8)
        b = bfs_reach(system, counter_cap=8)
        assert a == b


# ------------------------------------------------------ bounds and logging

def _countdown(start: int) -> SystemOfGadgets:
    """Two Inc-JZDec counters: the first counts down to zero, and the zero
    exit leads through the second's increment to the goal."""
    spec = G.spec_inc_jzdec()
    return SystemOfGadgets(
        specs=(spec,),
        instances=(GadgetInstance("a", spec.name, start), GadgetInstance("b", spec.name, 0)),
        nodes=("s", "t"),
        edges=(("node:s", "a.jz_in"), ("a.jz_out_nonzero", "node:s"),
               ("a.jz_out_zero", "b.inc_in"), ("b.inc_out", "node:t")),
        start="node:s",
        goal="node:t",
    )


@pytest.mark.parametrize("cap, width", [(10**9, 4), (10**30, 13)])
def test_a_huge_cap_allocates_nothing_sized_by_it(cap, width):
    system = _countdown(3)
    t0 = time.perf_counter()
    out = bfs_reach(system, counter_cap=cap)
    assert time.perf_counter() - t0 < 1.0
    assert out.verdict is Verdict.REACHABLE and len(out.witness) == 5
    index = G.canonicalize(system)
    assert sweep(index, [index.start_config()], counter_cap=cap,
                 visit_budget=1).codec.width == width


def test_a_kind_is_called_once_per_slot_value_not_per_dequeue(monkeypatch):
    # the v=24 rung of the benchmark's initializer ladder: 15,838 dequeues,
    # two kinds (Inc[1,1], JZDec) and at most cap + 2 values of each slot
    frag = lower.emit_initializer([24])
    program = frag.concat(M.Program(frag.counters, (M.Halt(),)))
    system = lower.pipeline(program, "inc-jzdec").system
    calls = []
    for kind in (G.IncRange, G.DecNZRange, G.DecRange, G.PZ, G.PNZ, G.JZSwitch,
                 G.JZDecSwitch):
        def counted(self, s, cap=None, moves=kind.moves):
            calls.append(s)
            return moves(self, s, cap)
        monkeypatch.setattr(kind, "moves", counted)
    cap = 58
    out = bfs_reach(system, counter_cap=cap)
    assert out.verdict is Verdict.REACHABLE and out.stats.explored > 15_000
    assert 0 < len(calls) <= 2 * (cap + 2)


def test_every_verdict_logs_one_info_line(caplog, capsys):
    cases = [
        (_countdown(3), {}, "reachable (5 traversals)"),
        (_pump_loop(), {}, "unknown (cap-overflow-seen)"),
        (_countdown(3), {"visit_budget": 2}, "unknown (budget-exhausted)"),
        (_single_gadget("jz_out_nonzero"), {}, "unreachable-within-cap"),
    ]
    numbers = re.compile(r"(\d+) configs explored, frontier peak (\d+), max counter "
                         r"(\d+), slot width (\d+) B, (\d+) key bytes per visited config$")
    for system, bounds, head in cases:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="gadgetforge.reach"):
            out = bfs_reach(system, counter_cap=6, **bounds)
        line, = (r.getMessage() for r in caplog.records if r.name == "gadgetforge.reach")
        assert line.startswith(head + ": ")
        explored, peak, top, width, key_bytes = map(int, numbers.search(line).groups())
        assert (explored, peak, top) == (out.stats.explored, out.stats.frontier_peak,
                                         out.stats.max_counter)
        assert (width, key_bytes) == (1, 1 + len(system.instances))
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode", ["concrete", "interval"])
def test_a_dropped_index_is_freed_without_the_collector(mode):
    # the index keeps its codecs and memo tables, and nothing it holds points
    # back at it, so a search's index goes as soon as the caller drops it
    program = M.parse_program("0: INC c0\n1: JZ c0 0\n2: HALT\n")
    system = lower.pipeline(program, "inc-jzdec", initial={"c0": 1}).system
    gc.collect()
    gc.disable()
    try:
        index = G.canonicalize(system, mode)
        outcome = bfs_reach(index, counter_cap=6)
        assert outcome.verdict is Verdict.REACHABLE and index.codec(6).moves
        alive = weakref.ref(index)
        del index, outcome
        assert alive() is None
    finally:
        gc.enable()


def _ladder_rung(v: int) -> G.SystemIndex:
    """The initializer for c0=v, plus HALT, lowered to inc-jzdec."""
    frag = lower.emit_initializer([v])
    program = frag.concat(M.Program(frag.counters, (M.Halt(),)))
    return G.canonicalize(lower.pipeline(program, "inc-jzdec").system)


def _sweep_rung(index: G.SystemIndex):
    return sweep(index, [index.start_config()], counter_cap=58, visit_budget=10**6,
                 goal_class=index.goal_class)


def test_each_visited_record_is_an_earlier_key_with_a_move_to_its_key():
    # the v=24 ladder rung: after a collection the collector does not track
    # the map, and each record is a key visited before its own, from which
    # a kernel move splices that key
    result = _sweep_rung(_ladder_rung(24))
    assert result.goal_hit is not None and result.stats.explored == 15_839
    gc.collect()
    assert not gc.is_tracked(result.visited)
    codec, pw, visited = result.codec, result.codec.pos_width, result.visited
    order = {key: n for n, key in enumerate(visited)}
    records = 0
    for key, parent in visited.items():
        if parent is None:
            continue
        records += 1
        assert type(parent) is bytes and order[parent] < order[key]
        assert any(key == exits[e] + parent[pw:off] + new + parent[end:]
                   for row in codec.moves[parent[:pw]] for off, end, _, exits, *_ in [row]
                   for _, new, e, _ in codec.slot_moves(row, parent[off:end], 58)
                   if new is not None)
    assert records == len(visited) - 1 > 15_000


def test_a_visited_config_retains_little_more_than_its_key():
    # the v=24 ladder rung: beyond its key objects and the map itself, what
    # a sweep leaves allocated (codec and memo tables) comes to under 32
    # bytes per visited config, less than half of a 4-tuple record
    index = _ladder_rung(24)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = _sweep_rung(index)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    visited = result.visited
    assert len(visited) > 15_000
    rest = retained - sum(map(sys.getsizeof, visited)) - sys.getsizeof(visited)
    assert rest / len(visited) < 32 < sys.getsizeof((b"", 0, 0, 0)) / 2


def _one_tunnel(kind, initial: int) -> SystemOfGadgets:
    spec = G.CounterGadgetSpec("one", (G.Component(kind, "a", ("b",)),))
    return SystemOfGadgets(specs=(spec,), instances=(GadgetInstance("g", "one", initial),),
                           nodes=("s", "t"), edges=(("node:s", "g.a"), ("g.b", "node:t")),
                           start="node:s", goal="node:t")


def test_replay_lists_only_the_amounts_a_ranged_label_can_name():
    system = _one_tunnel(G.IncRange(1, 10**6), 0)
    out = bfs_reach(system, counter_cap=3)
    assert out.verdict is Verdict.REACHABLE and len(out.witness) == 1
    t0 = time.perf_counter()
    trace = replay(system, out.witness)
    assert time.perf_counter() - t0 < 0.1
    assert trace[-1].states == (1,)
    # a wrong recorded state reads as it did with every amount listed, also
    # where its cap lists no move of the label's amount (from 10, cap 5)
    (t,) = out.witness
    at_ten = Configuration(trace[0].position, (10,))
    for lie, start, message in (
            (Traversal(t.instance, t.entry, t.exit, 5, 10, 15), None,
             "recorded 10->15, replayed 0->5"),
            (Traversal(t.instance, t.entry, t.exit, 5, 0, 5), at_ten,
             "recorded 0->5, replayed 10->15"),
            (Traversal(t.instance, t.entry, t.exit, 0, 0, 0), None,
             "no legal traversal matches")):
        with pytest.raises(ReplayError, match=message):
            replay(system, (lie,), start)


def test_replay_takes_a_saturating_dec_amount_the_kernel_skips():
    # the kernel stops Dec[1, 5] amounts at 2 from state 2; a label with
    # amount 4 is still a legal move, to the same state
    system = _one_tunnel(G.DecRange(1, 5), 2)
    trace = replay(system, (Traversal("g", "a", "b", 4, 2, 0),))
    assert trace[-1].states == (0,)
