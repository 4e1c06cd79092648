"""Every library entry point names a bad argument with a typed error.

One property over the public calls of ``gadgets``, ``reach``, ``verify``,
``machine`` and ``lower``:
each call draws up to two arguments from a pool of values of the wrong
type and the others from a pool of well-formed ones (small caps and
budgets, the quintet, a ranged artifact, the sscd door), and whatever the call does, only
the library's own errors may escape.
A bare TypeError, AttributeError, KeyError or IndexError means some input
was read before it was checked.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gadgetforge import gadgets as G, lower, machine, reach, verify
from gadgetforge.gadgets import SystemFormatError
from gadgetforge.machine import ProgramError
from gadgetforge.reach import ReplayError
from gadgetforge.verify import InvariantViolation

TYPED = (SystemFormatError, ProgramError, InvariantViolation, ReplayError)
WRONG = [None, 5, 2.5, True, "x", [5], {}, ("x",), (True,)]

PROGRAM = machine.parse_program("0: INC c0\n1: HALT\n")
REACH = lower.pipeline(PROGRAM, "inc-dec-jz").system  # has a start and a goal
REACH_INDEX = G.canonicalize(REACH)
WITNESS = reach.bfs_reach(REACH, 4).witness
SWEEP = reach.sweep(REACH_INDEX, [REACH_INDEX.start_config()], counter_cap=4, visit_budget=50,
                    goal_class=REACH_INDEX.goal_class)
QUINTET = lower.sim_incdecjz_via_incjzdec()
RANGED = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
RANGED_VEC = RANGED.encoding.state_for(1, "interval")
SSCD = lower.build_sscd_from_incdecnz()  # a finite spec's part: its states are names
HOST = lower.compile_machine_to_incdecjz(PROGRAM)
# a ranged artifact whose interval encoding gives one state for its many instances
SHORT = dataclasses.replace(RANGED, encoding=lower.Encoding(
    "interval-affine", iaffine=(((4, 0), (4, 0)),), concrete=((4, 0),)))
# the quintet without its jz_out_nonzero port, and port maps that name a
# location from a key that is no port, or by a value that is no string
DROPPED = dataclasses.replace(QUINTET, system=dataclasses.replace(QUINTET.system, boundary=tuple(
    ep for ep in QUINTET.system.boundary if ep != "node:jz_out_nonzero")))
PORTS = QUINTET.system.boundary_ports
BAD_MAPS = [{**{p: p for p in DROPPED.system.boundary_ports}, "extra": "jz_out_nonzero"},
            {p: [p] for p in PORTS}, {**{p: p for p in PORTS}, PORTS[0]: 5, PORTS[1]: "zz"}]

CAPS = [0, 1, 2, 4]
BUDGETS = [0, 1, 10, 50]
SYSTEMS = [REACH, REACH_INDEX, QUINTET.system, G.canonicalize(RANGED.system, "interval")]
SPECS = [G.catalog()["inc-dec-jz"], G.catalog()["inc-decnz-pz"], G.spec_inc_jzdec(),
         G.spec_sscd()]
OPS = ["inc", "decnz", "pz"]
DOOR = G.spec_sscd()
SPEC_DOCS = json.loads(G.serialize_system(G.SystemOfGadgets(specs=tuple(SPECS), instances=())))[
    "specs"]  # each spec in the JSON form a spec file holds

# entry point -> argument -> pool of well-formed values (the wrong ones are added)
CALLS = {
    G.SystemOfGadgets: {
        "specs": [REACH.specs, (), (DOOR,)],
        "instances": [REACH.instances, (), (G.GadgetInstance("d", DOOR.name, DOOR.states[0]),)],
        "nodes": [REACH.nodes, (), ("a",)], "edges": [REACH.edges, (), (("node:a", "d.L1"),)],
        "start": [REACH.start, None, "node:a"], "goal": [REACH.goal, None, "node:a"],
        "boundary": [(), ("node:a",)],
    },
    G.CounterGadgetSpec: {"name": ["c"], "components": [G.spec_inc_dec_jz().components, ()]},
    G.FiniteGadgetSpec: {
        "name": ["f"], "states": [DOOR.states, ("idle",)], "locations": [DOOR.locations, ()],
        "transitions": [DOOR.transitions, ()],
    },
    G.Component: {
        "kind": [G.IncRange(1, 2), G.JZDecSwitch(), G.PZ()], "entry": ["a"],
        "exit_ports": [("b",), ("b", "c")],
    },
    G.parse_spec: {"doc": SPEC_DOCS},
    G.canonicalize: {"system": SYSTEMS, "mode": [None, "concrete", "interval"]},
    G.serialize_system: {"system": [REACH, QUINTET.system]},
    G.to_dot: {"system": [REACH, QUINTET.system]},
    reach.sweep: {
        "index": [REACH_INDEX, REACH],
        "starts": [[REACH_INDEX.start_config()], [], (REACH_INDEX.start_config(),)],
        "counter_cap": CAPS, "visit_budget": BUDGETS,
        "goal_class": [None, REACH_INDEX.goal_class, 0],
    },
    SWEEP.path_to: {"key": [SWEEP.goal_hit, next(iter(SWEEP.visited))]},
    SWEEP.configurations: {"at": [range(len(REACH_INDEX.prefix)), (), {REACH_INDEX.goal_class}]},
    reach.bfs_reach: {"system": SYSTEMS, "counter_cap": CAPS, "visit_budget": BUDGETS},
    reach.replay: {
        "system": SYSTEMS, "witness": [(), WITNESS, WITNESS[:1]],
        "start": [None, REACH_INDEX.start_config()],
    },
    verify.derive_boundary_lts: {
        "system": SYSTEMS,
        "seeds": [[], [QUINTET.encoding.state_for(1)], [RANGED_VEC]],
        "impl_cap": CAPS,
    },
    verify.spec_closure_lts: {"spec": SPECS, "cap": CAPS},
    verify.check_bisimulation: {
        "impl": [QUINTET, QUINTET.system, RANGED, SSCD, DROPPED], "spec": SPECS,
        "port_map": [None, {p: p for p in PORTS}, *BAD_MAPS],
        "cap": CAPS, "mode": [None, "concrete", "interval"],
        "encoding": [None, QUINTET.encoding, RANGED.encoding], "impl_cap": [None, *CAPS],
    },
    verify.interval_step: {
        "artifact": [RANGED, QUINTET], "vec": [RANGED_VEC, list(RANGED_VEC)],
        "op": OPS, "counter_cap": [2, 6, 20],
    },
    verify.check_interval_invariant: {
        "artifact": [RANGED, QUINTET, SHORT],
        "ops": [[], ["inc", "decnz"], ("inc", "inc"), ["pz"]],
        "n0": [0, 1],
    },
    machine.run: {
        "program": [PROGRAM], "initial": [None, (1,), [2], {"c0": 1}, {}],
        "max_steps": BUDGETS,
    },
    lower.pipeline: {
        "program": [PROGRAM], "target": list(lower.PIPELINE_TARGETS),
        "initial": [None, {"c0": 1}, {}], "range_params": [(1, 2, 1, 2), [1, 1, 1, 1]],
        "expand": ["direct", "via-duplicators"],
    },
    lower.compile_machine_to_incdecjz: {
        "program": [PROGRAM], "initial": [None, {"c0": 2}], "flow": ["primitive", "expanded"],
    },
    lower.sim_incdecnzpz_via_incab: {
        "a": [1, 2], "b": [2, 1], "c": [1, 2], "d": [2, 1], "merged": [False, True],
        "expand": ["direct", "via-duplicators"],
    },
    lower.build_edge_duplicator: {"a": [1, 2], "b": [2, 1], "c": [1, 2], "d": [2, 1]},
    lower.emit_initializer: {"values": [{"c0": 9}, [3, 0], (2,)]},
    lower.substitute: {
        "host": [HOST, QUINTET], "spec_name": ["inc-dec-jz", "inc-decnz-decnz"],
        "part": [QUINTET, lower.build_inc_decnz_decnz()],
    },
}


@pytest.mark.parametrize("call", CALLS, ids=lambda call: f"{call.__module__}.{call.__name__}")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_bad_argument_gets_a_typed_error(call, data):
    # a few arguments are wrong, the others well formed, so that each wrong
    # one also meets calls that would read it
    pools = CALLS[call]
    wrong = data.draw(st.sets(st.sampled_from(list(pools)), max_size=2), label="wrong")
    kwargs = {name: data.draw(st.sampled_from(WRONG if name in wrong else pool), label=name)
              for name, pool in pools.items()}
    with contextlib.suppress(*TYPED):
        call(**kwargs)


@pytest.mark.parametrize("call", CALLS, ids=lambda call: f"{call.__module__}.{call.__name__}")
def test_each_wrong_argument_alone_gets_a_typed_error(call):
    # every wrong value in every argument, the others at their first
    # well-formed value: the cases the property may not draw, each run once
    pools = CALLS[call]
    for name in pools:
        for value in WRONG:
            with contextlib.suppress(*TYPED):
                call(**{other: value if other == name else pool[0]
                        for other, pool in pools.items()})
