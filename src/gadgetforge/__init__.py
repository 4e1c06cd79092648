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

Importing the package is cheap: it loads no layer.  Each layer, and each
name re-exported here, loads on first use (``gadgetforge.reach``,
``from gadgetforge import bfs_reach``), with the layers it imports:
``reach`` needs ``gadgets``, ``lower`` needs ``gadgets`` and ``machine``,
and ``verify`` needs ``gadgets``, ``machine``, ``lower`` and ``reach``.
The CLI loads ``machine``, ``gadgets`` and ``lower`` for every subcommand;
only ``reach`` and ``verify-sim`` load ``reach``, and only ``verify-sim``
loads ``verify``.
"""

import importlib

__version__ = "0.1.0"

# each layer and the names re-exported from it
_LAYERS = {
    "machine": ("Program", "RunStatus", "parse_program", "run", "serialize_program"),
    "gadgets": ("SystemOfGadgets", "SystemFormatError", "canonicalize", "catalog",
                "parse_system", "serialize_system", "to_dot"),
    "reach": ("Verdict", "bfs_reach", "replay"),
    "verify": ("BisimVerdict", "check_bisimulation", "derive_boundary_lts"),
    "lower": ("LoweringArtifact", "compile_machine_to_incdecjz", "emit_initializer",
              "pipeline", "substitute"),
    "cli": (),
}
# public name -> the layer that defines it; a layer's own name maps to itself
_HOME = {name: layer for layer, names in _LAYERS.items() for name in (layer, *names)}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Load a layer, or the layer a re-exported name lives in, on first use."""
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
