"""Counter machines with increment, saturating decrement, and jump-if-zero.

A program is a straight-line list of instructions over named counters:

    INC c      add 1 to counter c, fall through
    DEC c      subtract 1 from counter c, saturating at 0, fall through
    JZ c i     jump to instruction i if counter c is 0, else fall through
    HALT       stop

Counters hold naturals; there is no negative value and DEC of a zero counter
is a no-op (not an error).  A run ends in one of three ways: it executes a
HALT (Halted), the program counter walks past the last instruction
(FellOffEnd), or the step budget runs out first (BudgetExhausted).  The
distinction matters downstream: only HALT is treated as "success" by the
reductions built on top of these machines.

The assembly text format is line-oriented:

    # comment
    counters: c0 c1
    0: INC c0
    1: JZ c1 3
    2: DEC c0
    3: HALT

Indices must be 0..n-1 in order.  The ``counters:`` header is optional; when
present it is authoritative (using an undeclared counter is an error), when
absent counters are collected in first-use order.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum

log = logging.getLogger(__name__)

__all__ = [
    "Inc", "Dec", "Jz", "Halt", "Instruction",
    "Program", "Fragment", "MachineConfig",
    "RunStatus", "RunResult",
    "ProgramError", "StepError",
    "parse_program", "serialize_program", "validate_program",
    "step", "run",
]


class ProgramError(ValueError):
    """Raised for malformed assembly or an ill-formed Program."""


class StepError(RuntimeError):
    """Raised when step() is applied at a Halt or out-of-range pc."""


@dataclass(frozen=True)
class Inc:
    counter: str


@dataclass(frozen=True)
class Dec:
    counter: str


@dataclass(frozen=True)
class Jz:
    counter: str
    target: int


@dataclass(frozen=True)
class Halt:
    pass


Instruction = Inc | Dec | Jz | Halt


@dataclass(frozen=True)
class Program:
    """An immutable program: declared counter names + instruction list.

    Invariants (checked in __post_init__): counter names are unique
    identifiers, every instruction references a declared counter, and every
    JZ target lies in range 0..len(instructions) inclusive-exclusive.
    """

    counters: tuple[str, ...]
    instructions: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        seen = set()
        for name in self.counters:
            if not _NAME_RE.fullmatch(name):
                raise ProgramError(f"bad counter name {name!r}")
            if name in seen:
                raise ProgramError(f"duplicate counter {name!r}")
            seen.add(name)
        n = len(self.instructions)
        for idx, ins in enumerate(self.instructions):
            if isinstance(ins, (Inc, Dec, Jz)) and ins.counter not in seen:
                raise ProgramError(
                    f"instruction {idx} uses undeclared counter {ins.counter!r}")
            if isinstance(ins, Jz) and not (0 <= ins.target < n):
                raise ProgramError(
                    f"instruction {idx}: JZ target {ins.target} out of range 0..{n - 1}")

    def counter_index(self, name: str) -> int:
        return self.counters.index(name)


@dataclass(frozen=True)
class Fragment:
    """A program fragment meant to be concatenated before more code.

    Same shape as Program, but JZ targets may equal len(instructions): that
    is the fall-through point, i.e. the first instruction of whatever gets
    appended.  ``concat`` resolves this into a valid Program.
    """

    counters: tuple[str, ...]
    instructions: tuple[Instruction, ...]

    def concat(self, rest: Program | "Fragment") -> Program:
        """Fragment followed by ``rest``; rest's jump targets are shifted."""
        names = list(self.counters)
        for c in rest.counters:
            if c not in names:
                names.append(c)
        off = len(self.instructions)
        shifted: list[Instruction] = list(self.instructions)
        for ins in rest.instructions:
            if isinstance(ins, Jz):
                shifted.append(Jz(ins.counter, ins.target + off))
            else:
                shifted.append(ins)
        return Program(tuple(names), tuple(shifted))


@dataclass(frozen=True)
class MachineConfig:
    """pc + counter values, aligned with Program.counters order."""

    pc: int
    counters: tuple[int, ...]


class RunStatus(Enum):
    HALTED = "halted"
    FELL_OFF_END = "fell-off-end"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class RunResult:
    status: RunStatus
    final: MachineConfig
    steps: int


_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_LINE_RE = re.compile(r"(\d+)\s*:\s*(.*)")


def parse_program(text: str) -> Program:
    """Parse assembly text into a Program.

    Raises ProgramError with the offending line number on any syntax or
    consistency problem (bad mnemonic, wrong arity, undeclared counter,
    out-of-range or non-integer JZ target, indices out of order).
    """
    declared: list[str] | None = None
    body: list[tuple[int, int, str, list[str]]] = []  # (lineno, idx, op, args)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("counters:"):
            if declared is not None:
                raise ProgramError(f"line {lineno}: duplicate counters header")
            if body:
                raise ProgramError(
                    f"line {lineno}: counters header must precede instructions")
            declared = line.split(":", 1)[1].split()
            for name in declared:
                if not _NAME_RE.fullmatch(name):
                    raise ProgramError(f"line {lineno}: bad counter name {name!r}")
            if len(set(declared)) != len(declared):
                raise ProgramError(f"line {lineno}: duplicate counter in header")
            continue
        m = _LINE_RE.fullmatch(line)
        if not m:
            raise ProgramError(f"line {lineno}: expected 'INDEX: MNEMONIC ...', got {raw!r}")
        idx = int(m.group(1))
        parts = m.group(2).split()
        if not parts:
            raise ProgramError(f"line {lineno}: missing mnemonic")
        body.append((lineno, idx, parts[0].upper(), parts[1:]))

    names: list[str] = list(declared) if declared is not None else []

    def note_counter(lineno: int, name: str) -> None:
        if not _NAME_RE.fullmatch(name):
            raise ProgramError(f"line {lineno}: bad counter name {name!r}")
        if declared is not None:
            if name not in names:
                raise ProgramError(f"line {lineno}: undeclared counter {name!r}")
        elif name not in names:
            names.append(name)

    instructions: list[Instruction] = []
    for lineno, idx, op, args in body:
        if idx != len(instructions):
            raise ProgramError(
                f"line {lineno}: expected index {len(instructions)}, got {idx}")
        if op in ("INC", "DEC"):
            if len(args) != 1:
                raise ProgramError(f"line {lineno}: {op} takes one counter")
            note_counter(lineno, args[0])
            instructions.append(Inc(args[0]) if op == "INC" else Dec(args[0]))
        elif op == "JZ":
            if len(args) != 2:
                raise ProgramError(f"line {lineno}: JZ takes a counter and a target")
            note_counter(lineno, args[0])
            try:
                target = int(args[1])
            except ValueError:
                raise ProgramError(
                    f"line {lineno}: JZ target must be an integer, got {args[1]!r}") from None
            instructions.append(Jz(args[0], target))
        elif op == "HALT":
            if args:
                raise ProgramError(f"line {lineno}: HALT takes no arguments")
            instructions.append(Halt())
        else:
            raise ProgramError(f"line {lineno}: unknown mnemonic {op!r}")

    n = len(instructions)
    for lineno, idx, op, args in body:
        if op == "JZ" and not (0 <= int(args[1]) < n):
            raise ProgramError(
                f"line {lineno}: JZ target {args[1]} out of range 0..{n - 1}")
    return Program(tuple(names), tuple(instructions))


def serialize_program(program: Program) -> str:
    """Canonical assembly text: header line + one instruction per line."""
    out = ["counters: " + " ".join(program.counters)]
    for idx, ins in enumerate(program.instructions):
        if isinstance(ins, Inc):
            out.append(f"{idx}: INC {ins.counter}")
        elif isinstance(ins, Dec):
            out.append(f"{idx}: DEC {ins.counter}")
        elif isinstance(ins, Jz):
            out.append(f"{idx}: JZ {ins.counter} {ins.target}")
        else:
            out.append(f"{idx}: HALT")
    return "\n".join(out) + "\n"


def validate_program(program: Program) -> list[str]:
    """Non-fatal lints.  Currently: a run can fall off the end."""
    warnings = []
    if not program.instructions:
        warnings.append("empty program always falls off the end")
    elif not isinstance(program.instructions[-1], Halt):
        warnings.append(
            f"last instruction ({len(program.instructions) - 1}) is not HALT; "
            "a run reaching it can fall off the end")
    return warnings


def step(program: Program, config: MachineConfig) -> MachineConfig:
    """One instruction.  Raises StepError at HALT or out-of-range pc."""
    if not (0 <= config.pc < len(program.instructions)):
        raise StepError(f"pc {config.pc} out of range")
    ins = program.instructions[config.pc]
    if isinstance(ins, Halt):
        raise StepError(f"cannot step a HALT at pc {config.pc}")
    i = program.counter_index(ins.counter)
    vals = config.counters
    if isinstance(ins, Inc):
        return MachineConfig(config.pc + 1, vals[:i] + (vals[i] + 1,) + vals[i + 1:])
    if isinstance(ins, Dec):
        return MachineConfig(config.pc + 1, vals[:i] + (max(vals[i] - 1, 0),) + vals[i + 1:])
    # Jz
    return MachineConfig(ins.target if vals[i] == 0 else config.pc + 1, vals)


def run(program: Program, initial: dict[str, int] | tuple[int, ...] | None = None,
        max_steps: int = 10_000) -> RunResult:
    """Execute from pc 0 until HALT, fall-off, or the step budget.

    ``initial`` assigns starting counter values (dict by name, or a tuple in
    declaration order; missing names are 0).  Values must be naturals.
    """
    if max_steps < 0:
        raise ProgramError(f"max_steps must be a natural, got {max_steps}")
    if initial is None:
        vals = (0,) * len(program.counters)
    elif isinstance(initial, dict):
        unknown = set(initial) - set(program.counters)
        if unknown:
            raise ProgramError(f"unknown counters in initial values: {sorted(unknown)}")
        vals = tuple(initial.get(c, 0) for c in program.counters)
    else:
        if len(initial) != len(program.counters):
            raise ProgramError(
                f"expected {len(program.counters)} initial values, got {len(initial)}")
        vals = tuple(initial)
    if any(v < 0 or not isinstance(v, int) for v in vals):
        raise ProgramError("initial counter values must be naturals")

    # compact dispatch loop; step() is the same semantics one step at a time
    n = len(program.instructions)
    code: list[tuple[int, int, int]] = []
    for ins in program.instructions:
        if isinstance(ins, Inc):
            code.append((0, program.counter_index(ins.counter), 0))
        elif isinstance(ins, Dec):
            code.append((1, program.counter_index(ins.counter), 0))
        elif isinstance(ins, Jz):
            code.append((2, program.counter_index(ins.counter), ins.target))
        else:
            code.append((3, 0, 0))

    # Executed instructions are counted as steps, HALT included ("straight
    # line count": [INC, INC, HALT] halts after 3 steps).  Falling off the
    # end is an observation, not an instruction, and costs nothing.
    cs = list(vals)
    pc = 0
    steps = 0
    while steps < max_steps:
        if pc >= n:
            return RunResult(RunStatus.FELL_OFF_END, MachineConfig(pc, tuple(cs)), steps)
        op, ci, tgt = code[pc]
        if op == 3:
            return RunResult(RunStatus.HALTED, MachineConfig(pc, tuple(cs)), steps + 1)
        if op == 0:
            cs[ci] += 1
            pc += 1
        elif op == 1:
            if cs[ci]:
                cs[ci] -= 1
            pc += 1
        else:
            pc = tgt if cs[ci] == 0 else pc + 1
        steps += 1
    if pc >= n:
        return RunResult(RunStatus.FELL_OFF_END, MachineConfig(pc, tuple(cs)), steps)
    log.debug("run out of budget at pc=%d after %d steps", pc, steps)
    return RunResult(RunStatus.BUDGET_EXHAUSTED, MachineConfig(pc, tuple(cs)), steps)
