"""Counter machines, counter gadgets, and the reductions between them.

Five layers, lowest first:

- machine: counter-machine programs (INC/DEC/JZ/HALT) and their execution.
- gadgets: gadget specs (tunnel/switch components over one natural-valued
  state, or explicit finite tables), systems of wired-up instances, and
  their traversal semantics in concrete or possible-value-interval form.
- reach: bounded breadth-first reachability over a system, with honest
  verdicts about what a bounded search can and cannot conclude.
- lower: the reduction pipeline from machine programs down through
  Inc-Dec-JZ, Inc-JZDec, Inc-DecNZ-PZ, and ranged Inc[a,b]-DecNZ[c,d]-PZ
  gadgets, plus tunnel duplication and counter initializers.
- verify: boundary behavior of a subsystem as a labeled transition system,
  and bounded bisimulation against a spec gadget.

The ``gadgetforge`` console script fronts all of it; see the cli module.
"""

from . import cli, gadgets, lower, machine, reach, verify
from .gadgets import (
    SystemFormatError,
    SystemOfGadgets,
    canonicalize,
    catalog,
    parse_system,
    serialize_system,
    to_dot,
)
from .lower import (
    LoweringArtifact,
    compile_machine_to_incdecjz,
    emit_initializer,
    pipeline,
    substitute,
)
from .machine import Program, RunStatus, parse_program, run, serialize_program
from .reach import Verdict, bfs_reach, replay
from .verify import BisimVerdict, check_bisimulation, derive_boundary_lts

__version__ = "0.1.0"

__all__ = [
    "machine", "gadgets", "reach", "verify", "lower", "cli",
    "Program", "RunStatus", "parse_program", "run", "serialize_program",
    "SystemOfGadgets", "SystemFormatError", "canonicalize", "catalog",
    "parse_system", "serialize_system", "to_dot",
    "Verdict", "bfs_reach", "replay",
    "BisimVerdict", "check_bisimulation", "derive_boundary_lts",
    "LoweringArtifact", "compile_machine_to_incdecjz", "emit_initializer",
    "pipeline", "substitute",
    "__version__",
]
