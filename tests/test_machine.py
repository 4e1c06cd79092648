"""Counter-machine interpreter tests.

The oracle below is an independent re-reading of the instruction semantics
(dict of counters, one while loop), deliberately sharing no code with
machine.run.  Frozen expectations were produced by hand-simulating the tiny
programs on paper before the interpreter existed.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gadgetforge.machine import (
    Dec,
    Fragment,
    Halt,
    Inc,
    Jz,
    MachineConfig,
    Program,
    ProgramError,
    RunStatus,
    StepError,
    parse_program,
    run,
    serialize_program,
    step,
)


# ---------------------------------------------------------------- oracle

def oracle_run(program: Program, initial, budget):
    """Reference interpreter, written straight from the semantics prose.

    Executed instructions count as steps, HALT included; walking past the
    last instruction is an observation and costs nothing.  Returns
    (status-string, counter-tuple, steps).
    """
    vals = list(initial)
    pc, steps, n = 0, 0, len(program.instructions)
    by_name = {c: i for i, c in enumerate(program.counters)}
    while True:
        if pc >= n:
            return ("fell-off-end", tuple(vals), steps)
        if steps == budget:
            return ("budget-exhausted", tuple(vals), steps)
        ins = program.instructions[pc]
        steps += 1
        if isinstance(ins, Halt):
            return ("halted", tuple(vals), steps)
        if isinstance(ins, Inc):
            vals[by_name[ins.counter]] += 1
            pc += 1
        elif isinstance(ins, Dec):
            i = by_name[ins.counter]
            vals[i] = max(vals[i] - 1, 0)
            pc += 1
        else:
            pc = ins.target if vals[by_name[ins.counter]] == 0 else pc + 1


def _programs(max_len=4, n_counters=2):
    """Every program up to max_len instructions over a small opcode alphabet."""
    import itertools

    names = tuple(f"c{i}" for i in range(n_counters))
    slots = []
    for c in names:
        slots += [Inc(c), Dec(c)]
    out = []
    for ln in range(1, max_len + 1):
        ops = slots + [Jz(c, t) for c in names for t in range(ln)] + [Halt()]
        for combo in itertools.product(ops, repeat=ln):
            out.append(Program(names, combo))
    return out


def test_run_agrees_with_oracle_exhaustively():
    # Every 1- and 2-instruction program over two counters, three initial
    # value vectors, two budgets.  The point is full coverage of the
    # status/step bookkeeping, not of deep behavior.
    for program in _programs(max_len=2):
        for initial in ((0, 0), (1, 0), (2, 3)):
            for budget in (5, 50):
                got = run(program, initial, max_steps=budget)
                want = oracle_run(program, initial, budget)
                assert (got.status.value, got.final.counters, got.steps) == want, (
                    serialize_program(program), initial, budget)


# ------------------------------------------------------- frozen examples

def test_straight_line_count_includes_halt():
    p = parse_program("0: INC c0\n1: INC c0\n2: HALT\n")
    r = run(p)
    assert r.status is RunStatus.HALTED
    assert r.final.counters == (2,)
    assert r.steps == 3


def test_self_loop_exhausts_budget_exactly():
    p = parse_program("0: JZ c0 0\n")
    r = run(p, max_steps=100)
    assert r.status is RunStatus.BUDGET_EXHAUSTED
    assert r.steps == 100


def test_fell_off_end_is_not_halted():
    p = parse_program("0: INC c0\n")
    r = run(p)
    assert r.status is RunStatus.FELL_OFF_END
    assert r.final == MachineConfig(1, (1,))
    assert r.steps == 1


def test_halt_needs_budget_room():
    # With budget 2 the run sits on the HALT it cannot afford to execute.
    p = parse_program("0: INC c0\n1: INC c0\n2: HALT\n")
    r = run(p, max_steps=2)
    assert r.status is RunStatus.BUDGET_EXHAUSTED
    assert r.steps == 2
    assert run(p, max_steps=3).status is RunStatus.HALTED


def test_dec_saturates_at_zero():
    p = parse_program("0: DEC c0\n1: DEC c0\n2: HALT\n")
    r = run(p, {"c0": 1})
    assert r.status is RunStatus.HALTED
    assert r.final.counters == (0,)


def test_jz_falls_through_on_nonzero():
    p = parse_program("counters: c0 c1\n0: JZ c0 3\n1: INC c1\n2: HALT\n3: HALT\n")
    assert run(p, {"c0": 1}).final.counters == (1, 1)
    assert run(p).final == MachineConfig(3, (0, 0))


def test_empty_program_falls_off_immediately():
    p = Program((), ())
    r = run(p)
    assert r.status is RunStatus.FELL_OFF_END
    assert r.steps == 0


# -------------------------------------------------------------- parsing

def test_parse_round_trip():
    text = "counters: c0 c1\n0: INC c0\n1: JZ c1 3\n2: DEC c0\n3: HALT\n"
    p = parse_program(text)
    assert serialize_program(p) == text
    assert parse_program(serialize_program(p)) == p


def test_parse_collects_counters_in_first_use_order():
    p = parse_program("0: INC b\n1: DEC a\n2: HALT\n")
    assert p.counters == ("b", "a")


def test_parse_comments_and_blank_lines():
    p = parse_program("# prologue\n\n0: INC c0  # bump\n1: HALT\n")
    assert p.instructions == (Inc("c0"), Halt())


@pytest.mark.parametrize("text, fragment", [
    ("0: INC c0\n2: HALT\n", "expected index 1"),
    ("0: BUMP c0\n", "unknown mnemonic"),
    ("0: INC\n", "INC takes one counter"),
    ("0: JZ c0\n", "JZ takes a counter and a target"),
    ("0: JZ c0 x\n", "target must be an integer"),
    ("0: JZ c0 5\n", "out of range"),
    ("counters: c0\n0: INC c1\n", "undeclared counter"),
    ("counters: c0 c0\n0: HALT\n", "duplicate counter"),
    ("0: HALT\ncounters: c0\n", "must precede"),
    ("INC c0\n", "expected 'INDEX: MNEMONIC"),
    ("counters: c0\ncounters: c1\n0: HALT\n", "duplicate counters header"),
    ("counters: 1x\n0: HALT\n", "bad counter name '1x'"),
    ("0: INC 1x\n", "bad counter name '1x'"),
    ("0:\n", "missing mnemonic"),
    ("0: HALT now\n", "HALT takes no arguments"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ProgramError) as exc:
        parse_program(text)
    assert fragment in str(exc.value)


def test_program_validates_jz_targets():
    with pytest.raises(ProgramError):
        Program(("c0",), (Jz("c0", 1),))
    with pytest.raises(ProgramError):
        Program(("c0",), (Inc("c1"),))
    with pytest.raises(ProgramError, match="bad counter name"):
        Program(("c-0",), ())
    with pytest.raises(ProgramError, match="duplicate counter"):
        Program(("c0", "c0"), ())


# ------------------------------------------------------------ step/run

def test_step_refuses_halt_and_out_of_range():
    p = parse_program("0: HALT\n")
    with pytest.raises(StepError):
        step(p, MachineConfig(0, ()))
    with pytest.raises(StepError):
        step(p, MachineConfig(1, ()))


def test_run_rejects_bad_initials():
    p = parse_program("0: HALT\n")
    with pytest.raises(ProgramError):
        run(p, {"nope": 1})
    p2 = parse_program("0: INC c0\n1: HALT\n")
    with pytest.raises(ProgramError):
        run(p2, (1, 2))
    with pytest.raises(ProgramError):
        run(p2, (-1,))


def test_run_checks_its_arguments_by_the_integer_rule():
    # an int, not a bool, a float or a string, and a natural; checked
    # before the program runs
    p = parse_program("0: INC c0\n1: HALT\n")
    for initial in (("a",), (True,), (2.5,), {"c0": "1"}, {"c0": False}):
        with pytest.raises(ProgramError, match="^initial counter values must be naturals$"):
            run(p, initial)
    for initial in (5, "5", 2.5):
        with pytest.raises(ProgramError, match="^initial values must be a dict, a tuple or None"):
            run(p, initial)
    for max_steps in ("5", 2.5, True, None, -1):
        message = f"^max_steps must be a natural, got {re.escape(repr(max_steps))}$"
        with pytest.raises(ProgramError, match=message):
            run(p, max_steps=max_steps)
    with pytest.raises(ProgramError, match="^program must be a Program, got str$"):
        run("0: HALT\n")
    with pytest.raises(ProgramError, match=r"^unknown counters in initial values: \['x', 5\]$"):
        run(p, {"x": 2, 5: 1})
    assert run(p, [3], max_steps=2).final.counters == (4,)


_slot = st.sampled_from(["inc0", "inc1", "dec0", "jz0", "jz1", "halt"])


def _decode(slots):
    body = []
    n = len(slots)
    for s in slots:
        if s == "inc0":
            body.append(Inc("c0"))
        elif s == "inc1":
            body.append(Inc("c1"))
        elif s == "dec0":
            body.append(Dec("c0"))
        elif s == "jz0":
            body.append(Jz("c0", n - 1))
        elif s == "jz1":
            body.append(Jz("c1", 0))
        else:
            body.append(Halt())
    return Program(("c0", "c1"), tuple(body))


@given(slots=st.lists(_slot, min_size=1, max_size=6),
       init=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       budget=st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_run_matches_iterated_step(slots, init, budget):
    # run() is a fused loop; step() is the reference single-step. They must
    # tell the same story step by step.
    program = _decode(slots)
    config = MachineConfig(0, init)
    steps = 0
    n = len(program.instructions)
    while True:
        if config.pc >= n:
            expected = ("fell-off-end", config, steps)
            break
        if steps == budget:
            expected = ("budget-exhausted", config, steps)
            break
        if isinstance(program.instructions[config.pc], Halt):
            expected = ("halted", config, steps + 1)
            break
        config = step(program, config)
        steps += 1
    got = run(program, init, max_steps=budget)
    assert (got.status.value, got.final, got.steps) == expected


@given(slots=st.lists(_slot, min_size=1, max_size=5),
       init=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       budget=st.integers(0, 40), extra=st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_budget_is_monotone(slots, init, budget, extra):
    # Raising the budget never un-halts a halted run, never changes the
    # result of a finished one, and never decreases steps.
    program = _decode(slots)
    small = run(program, init, max_steps=budget)
    large = run(program, init, max_steps=budget + extra)
    if small.status is not RunStatus.BUDGET_EXHAUSTED:
        assert small == large
    else:
        assert large.steps >= small.steps


# ------------------------------------------------------------- fragments

def test_fragment_concat_shifts_targets():
    frag = Fragment(("c0",), (Inc("c0"), Jz("c0", 2)))  # 2 = fall-through
    rest = parse_program("0: JZ c1 1\n1: HALT\n")
    whole = frag.concat(rest)
    assert whole.counters == ("c0", "c1")
    assert whole.instructions == (
        Inc("c0"), Jz("c0", 2), Jz("c1", 3), Halt())
    assert run(whole, {"c0": 1}).status is RunStatus.HALTED


def test_fragment_concat_merges_counter_names():
    frag = Fragment(("a", "b"), (Inc("a"),))
    rest = Program(("b", "c"), (Halt(),))
    assert frag.concat(rest).counters == ("a", "b", "c")


def test_a_fragment_keeps_the_program_rule():
    # the one difference: a JZ target may be the fall-through point
    assert Fragment(("c0",), (Jz("c0", 1),)).instructions == (Jz("c0", 1),)
    with pytest.raises(ProgramError, match="out of range 0..0"):
        Program(("c0",), (Jz("c0", 1),))
    for counters, code in [(("",), ()), (("a b",), ()), (("c0", "c0"), ()),
                           (("c0",), (Inc("c1"),)), (("c0",), (Jz("c0", 2),)),
                           (("c0",), (Jz("c0", -1),))]:
        with pytest.raises(ProgramError):
            Fragment(counters, code)
