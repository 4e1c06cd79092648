"""The four benchmark workloads: seeded inputs, reference answers, the
timed calls of each case and the untimed checks of its result.

Every workload is a closed loop with one caller: case k+1 starts after the
verdict of case k.  ``setup(name, gf, seed)`` builds a ``Plan`` against the
freshly imported package ``gf``.  The cases look up every program function
through its module at call time, so the tracer in ``tracing.py`` sees the
calls it wraps.

The reference answers come from sources independent of the code under
test: the machine interpreter for ``corpus`` and ``ladder``, and the
known equivalence of each construction for ``quintet`` and ``interval``.
On top of that the counts that are exact and deterministic are pinned.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

CORPUS_CAP = 12
CORPUS_TARGETS = ("inc-jzdec", "inc-decnz-pz")
CORPUS_RUN_STEPS = 200  # enough for every corpus machine that halts
CORPUS_EXPLORED = 156_070
CORPUS_VERDICTS = {"reachable": 322, "unreachable-within-cap": 514, "unknown": 182}

LADDER_RUNGS = (24, 48, 80)
LADDER_MAX_RUNG = 80
LADDER_EXPLORED = {24: 15_839, 48: 38_291, 80: 74_257}

QUINTET_CAPS = (12, 24, 48)
QUINTET_PINS = {12: (808, 256), 24: (2_752, 784), 48: (10_096, 2_704)}  # relation, impl states

INTERVAL_CAP = 16
INTERVAL_WALKS = 3
INTERVAL_WALK_LENGTH = 60
INTERVAL_RELATION = {
    (1, 1, 1, 1): 52, (1, 1, 1, 2): 6_893, (1, 1, 2, 2): 50,
    (1, 2, 1, 1): 6_465, (1, 2, 1, 2): 4_835, (1, 2, 2, 2): 6_047,
    (2, 2, 1, 1): 50, (2, 2, 1, 2): 6_047, (2, 2, 2, 2): 50,
}

WORKLOADS = ("corpus", "ladder", "quintet", "interval")


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    """The timed calls; returns what ``check`` needs."""
    check: Callable[[object], tuple[str | None, object]]
    """Untimed: (error or None, summary handed to ``Plan.check_pass``)."""


@dataclass
class Plan:
    cases: list[Case]
    check_pass: Callable[[list], str | None]
    """Pinned totals over one pass's summaries; error or None."""


def setup(name: str, gf, seed: int) -> Plan:
    return {"corpus": _corpus, "ladder": _ladder,
            "quintet": _quintet, "interval": _interval}[name](gf, seed)


def _no_pass_pins(summaries: list) -> None:
    return None


def _replay_reaches_goal(gf, system, outcome) -> str | None:
    index = gf.gadgets.canonicalize(system)
    trace = gf.reach.replay(index, outcome.witness)
    if trace[-1].position != index.goal_class:
        return "witness replays but does not end at the goal"
    return None


# ------------------------------------------------------------------ corpus

def corpus_machines(m) -> list[tuple[object, tuple[int, ...]]]:
    """The 509 machines of acceptance criterion 7 with their start vectors:
    every 1-instruction program over one counter with each start value
    0..3, every 2-instruction program over two counters with three start
    vectors, and every 3-instruction program over one counter with two."""
    Inc, Dec, Jz, Halt, Program = m.Inc, m.Dec, m.Jz, m.Halt, m.Program
    out = []
    for op in (Inc("c0"), Dec("c0"), Jz("c0", 0), Halt()):
        for v in range(4):
            out.append((Program(("c0",), (op,)), (v,)))
    slots = [Inc("c0"), Inc("c1"), Dec("c0"), Dec("c1"),
             Jz("c0", 0), Jz("c0", 1), Jz("c1", 0), Jz("c1", 1), Halt()]
    for i0 in slots:
        for i1 in slots:
            for vec in ((0, 0), (3, 1), (1, 2)):
                out.append((Program(("c0", "c1"), (i0, i1)), vec))
    slots3 = [Inc("c0"), Dec("c0"), Jz("c0", 0), Jz("c0", 2), Halt()]
    for i0 in slots3:
        for i1 in slots3:
            for i2 in slots3:
                for v in (2, 0):
                    out.append((Program(("c0",), (i0, i1, i2)), (v,)))
    return out


def _corpus(gf, seed: int) -> Plan:
    m = gf.machine
    rng = random.Random(seed)
    cases = []
    for k, (program, vec) in enumerate(corpus_machines(m)):
        if seed != DEFAULT_SEED:
            vec = tuple(rng.randint(0, 3) for _ in vec)
        halts = m.run(program, vec, max_steps=CORPUS_RUN_STEPS).status is m.RunStatus.HALTED
        text = m.serialize_program(program)
        for target in CORPUS_TARGETS:
            cases.append(Case(f"m{k}/{target}", _corpus_run(gf, text, vec, target),
                              _corpus_check(gf, halts)))

    def check_pass(summaries: list) -> str | None:
        if seed != DEFAULT_SEED:
            return None
        explored = sum(n for _, n in summaries)
        verdicts = dict(Counter(v for v, _ in summaries))
        if explored != CORPUS_EXPLORED or verdicts != CORPUS_VERDICTS:
            return (f"pinned totals moved: explored {explored} (pinned "
                    f"{CORPUS_EXPLORED}), verdicts {verdicts} (pinned {CORPUS_VERDICTS})")
        return None

    return Plan(cases, check_pass)


def _corpus_run(gf, text: str, values: tuple[int, ...], target: str):
    machine, lower, gadgets, reach = gf.machine, gf.lower, gf.gadgets, gf.reach

    def run():
        # the calls of `gadgetforge compile` then `gadgetforge reach`, minus file I/O
        program = machine.parse_program(text)
        initial = dict(zip(program.counters, values))
        artifact = lower.pipeline(program, target, initial=initial)
        doc = gadgets.serialize_system(artifact.system)
        index = gadgets.canonicalize(gadgets.parse_system(doc))
        return index, reach.bfs_reach(index, counter_cap=CORPUS_CAP)

    return run


def _corpus_check(gf, halts: bool):
    def check(result):
        index, outcome = result
        summary = (outcome.verdict.value, outcome.stats.explored)
        reachable = outcome.verdict is gf.reach.Verdict.REACHABLE
        if reachable != halts:
            return f"verdict {outcome.verdict.value} but the machine halts={halts}", summary
        if reachable:
            return _replay_reaches_goal(gf, index.system, outcome), summary
        return None, summary

    return check


# ------------------------------------------------------------------ ladder

def ladder_rungs(seed: int) -> tuple[int, ...]:
    if seed == DEFAULT_SEED:
        return LADDER_RUNGS
    rng = random.Random(seed)
    return tuple(min(LADDER_MAX_RUNG, v + rng.randint(-4, 4)) for v in LADDER_RUNGS)


def _ladder_program(gf, v: int):
    m = gf.machine
    frag = gf.lower.emit_initializer([v])
    return frag.concat(m.Program(frag.counters, (m.Halt(),)))


def _ladder(gf, seed: int) -> Plan:
    m = gf.machine
    cases = []
    for v in ladder_rungs(seed):
        program = _ladder_program(gf, v)
        ref = m.run(program, max_steps=200_000)
        sets_v = (ref.status is m.RunStatus.HALTED
                  and ref.final.counters[program.counters.index("c0")] == v)
        pin = LADDER_EXPLORED[v] if seed == DEFAULT_SEED else None
        cases.append(Case(f"v={v}", _ladder_run(gf, v), _ladder_check(gf, sets_v, pin)))
    return Plan(cases, _no_pass_pins)


def _ladder_run(gf, v: int):
    lower, reach = gf.lower, gf.reach

    def run():
        artifact = lower.pipeline(_ladder_program(gf, v), "inc-jzdec")
        return artifact.system, reach.bfs_reach(artifact.system, counter_cap=2 * v + 10)

    return run


def _ladder_check(gf, sets_v: bool, pinned_explored: int | None):
    def check(result):
        system, outcome = result
        explored = outcome.stats.explored
        if not sets_v:
            return "the initializer does not halt with c0 = v under machine.run", explored
        if outcome.verdict is not gf.reach.Verdict.REACHABLE:
            return f"verdict {outcome.verdict.value}, expected reachable", explored
        if pinned_explored is not None and explored != pinned_explored:
            return f"explored {explored}, pinned {pinned_explored}", explored
        return _replay_reaches_goal(gf, system, outcome), explored

    return check


# ----------------------------------------------------------------- quintet

def _quintet(gf, seed: int) -> Plan:
    # no input to vary: the construction and the caps are fixed, so every
    # seed runs the same three checks
    lower, gadgets, verify = gf.lower, gf.gadgets, gf.verify
    cases = []
    for cap in QUINTET_CAPS:
        def run(cap=cap):
            return verify.check_bisimulation(
                lower.sim_incdecjz_via_incjzdec(), gadgets.catalog()["inc-dec-jz"], cap=cap)
        cases.append(Case(f"cap={cap}", run, _bisim_check(gf, QUINTET_PINS[cap])))
    return Plan(cases, _no_pass_pins)


def _bisim_check(gf, pins: tuple[int, ...]):
    """Equivalent, with the pinned relation size and, if pinned, the number
    of implementation states."""
    def check(report):
        got = (report.relation_size, report.impl_states)[:len(pins)]
        if report.verdict is not gf.verify.BisimVerdict.EQUIVALENT:
            return f"verdict {report.verdict.value}, expected equivalent", got
        if got != pins:
            return f"relation size / impl states {got}, pinned {pins}", got
        return None, got

    return check


# ---------------------------------------------------------------- interval

def interval_walks(seed: int) -> dict[tuple[int, int, int, int], list[list[str]]]:
    """Feasible op sequences for every legal (a,b,c,d) in {1,2}^4: decnz
    only when the abstract value is positive, pz only when it is zero."""
    rng = random.Random(seed)
    walks = {}
    for params in INTERVAL_RELATION:
        walks[params] = []
        for _ in range(INTERVAL_WALKS):
            ops, n = [], 0
            for _ in range(INTERVAL_WALK_LENGTH):
                op = rng.choice(["inc", "decnz"] if n else ["inc", "pz"])
                ops.append(op)
                n += (op == "inc") - (op == "decnz")
            walks[params].append(ops)
    return walks


def _interval(gf, seed: int) -> Plan:
    lower, gadgets, verify = gf.lower, gf.gadgets, gf.verify
    cases = []
    for params, walks in interval_walks(seed).items():
        def run(params=params, walks=walks):
            artifact = lower.sim_incdecnzpz_via_incab(*params)
            report = verify.check_bisimulation(
                artifact, gadgets.catalog()["inc-decnz-pz"], cap=INTERVAL_CAP,
                mode="interval")
            snapshots = [verify.check_interval_invariant(artifact, ops) for ops in walks]
            return artifact, report, snapshots
        cases.append(Case("abcd=" + "".join(map(str, params)), run,
                          _interval_check(gf, params, walks)))
    return Plan(cases, _no_pass_pins)


def _interval_check(gf, params: tuple[int, int, int, int], walks: list[list[str]]):
    bisim = _bisim_check(gf, (INTERVAL_RELATION[params],))
    a, b, c, d = params
    anchor = a * b * c * d

    def check(result):
        artifact, report, snapshots = result
        err, summary = bisim(report)
        if err is not None:
            return err, summary
        by_role = {artifact.roles.get(inst.id): k
                   for k, inst in enumerate(artifact.system.instances)}
        g0, g1 = by_role["low-anchor"], by_role["high-anchor"]
        for ops, snaps in zip(walks, snapshots):
            if len(snaps) != len(ops) + 1:
                return f"walk gave {len(snaps)} snapshots for {len(ops)} ops", summary
            n = 0
            for k, (_, m, vec) in enumerate(snaps):
                if k:
                    n += {"inc": 1, "decnz": -1, "pz": 0}[ops[k - 1]]
                if m != n or not (vec[g0][1] == vec[g1][0] == anchor * n):
                    return f"anchor invariant broken after op {k}: {vec[g0]} {vec[g1]}", summary
        return None, summary

    return check
