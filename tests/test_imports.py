"""The package loads each layer on first use, frees a dropped import, and
decorates only the dataclasses that declare fields of their own.

``import gadgetforge`` loads no layer, a layer loads only the layers it
imports, and each CLI subcommand only the layers it calls.  An import that
was dropped from ``sys.modules`` is freed once nothing of it is held: no
cache of the standard library keeps its classes alive.  In this process
the other tests have already imported every module, so the checks run in
one fresh interpreter, which drops the package from ``sys.modules`` before
each import it measures and reports what that import loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import get_args

import pytest

import gadgetforge
from gadgetforge import gadgets as G, lower

# the public names of the package, each reachable as gadgetforge.X and by
# ``from gadgetforge import X``
PUBLIC = {
    "machine", "gadgets", "reach", "verify", "lower", "cli",
    "Program", "RunStatus", "parse_program", "run", "serialize_program",
    "SystemOfGadgets", "SystemFormatError", "canonicalize", "catalog",
    "parse_system", "serialize_system", "to_dot",
    "Verdict", "bfs_reach", "replay",
    "BisimVerdict", "check_bisimulation", "derive_boundary_lts",
    "LoweringArtifact", "compile_machine_to_incdecjz", "emit_initializer",
    "pipeline", "substitute",
    "__version__",
}

# one object of each layer, which holds the layer's globals
HELD = {"machine": "Program", "gadgets": "SystemOfGadgets", "reach": "Sweep",
        "verify": "BisimReport", "lower": "LoweringArtifact", "cli": "main"}

_CHILD = r"""
import contextlib, dataclasses, gc, io, json, sys, types, weakref

def loaded():
    return sorted(n.split(".", 1)[1] for n in sys.modules if n.startswith("gadgetforge."))

def fresh(statement):
    for name in [n for n in sys.modules if n == "gadgetforge" or n.startswith("gadgetforge.")]:
        del sys.modules[name]
    namespace = {}
    exec(statement, namespace)
    return namespace

out = {}
for statement in ("import gadgetforge", "import gadgetforge.reach", "import gadgetforge.lower",
                  "from gadgetforge import bfs_reach", "from gadgetforge import Program"):
    fresh(statement)
    out[statement] = loaded()

for argv in json.loads(sys.argv[1]):
    main = fresh("from gadgetforge.cli import main")["main"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    out[argv[0]] = [code, loaded()]
del main

# a weakref to one object of each layer of an import that two later imports replace
fresh("from gadgetforge import *")
held = {layer: weakref.ref(getattr(sys.modules[f"gadgetforge.{layer}"], name))
        for layer, name in json.loads(sys.argv[2]).items()}
for _ in range(2):
    fresh("from gadgetforge import *")
gc.collect()
out["kept"] = sorted(layer for layer, ref in held.items() if ref() is not None)

gf = fresh("import gadgetforge")["gadgetforge"]
out["dir"] = sorted(set(gf.__all__) - set(dir(gf)))  # before any name is loaded
star = fresh("from gadgetforge import *")
gf = sys.modules["gadgetforge"]
out["all"] = sorted(gf.__all__)
out["star"] = sorted(name for name in gf.__all__ if name in star)

def at_home(name):
    value = getattr(gf, name)
    if isinstance(value, types.ModuleType):
        return value is sys.modules[f"gadgetforge.{name}"]
    return getattr(sys.modules[value.__module__], name) is value and star[name] is value

out["homes"] = {name: at_home(name) for name in gf.__all__ if name != "__version__"}

# the classes of each layer that run the dataclass generator, and those of
# them whose fields a dataclass base already declares
decorated = {layer: [value for value in vars(sys.modules[f"gadgetforge.{layer}"]).values()
                     if isinstance(value, type) and "__dataclass_params__" in vars(value)
                     and value.__module__ == f"gadgetforge.{layer}"]
             for layer in ("gadgets", "machine", "lower", "reach", "verify")}
out["decorated"] = {layer: len(classes) for layer, classes in decorated.items()}
out["redecorated"] = sorted(
    cls.__qualname__ for classes in decorated.values() for cls in classes
    if any(cls.__dataclass_fields__.keys() <= base.__dataclass_fields__.keys()
           for base in cls.__mro__[1:] if dataclasses.is_dataclass(base)))
try:
    gf.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def child(tmp_path_factory) -> dict:
    tmp_path = tmp_path_factory.mktemp("imports")
    program = tmp_path / "p.cm"
    program.write_text("0: INC c0\n1: HALT\n")
    system = tmp_path / "p.json"
    impl, meta = lower.export_artifact(lower.sim_incdecjz_via_incjzdec(), str(tmp_path / "q.json"))
    argvs = [["run", str(program)],
             ["compile", str(program), "-o", str(system)],  # before reach and dot read it
             ["reach", str(system), "--cap", "4"],
             ["dot", str(system)],
             ["init-prologue", "--values", "c0=2"],
             ["verify-sim", impl, "--spec", "inc-dec-jz", "--map", meta, "--cap", "2"]]
    env = dict(os.environ)
    env.pop("GADGETFORGE_LOG", None)
    root = os.path.dirname(os.path.dirname(os.path.abspath(gadgetforge.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs), json.dumps(HELD)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_layer_loads_on_first_use(child):
    out = child
    assert out["import gadgetforge"] == []
    assert out["import gadgetforge.reach"] == ["gadgets", "reach"]
    assert out["import gadgetforge.lower"] == ["gadgets", "lower", "machine"]
    assert out["from gadgetforge import bfs_reach"] == ["gadgets", "reach"]
    assert out["from gadgetforge import Program"] == ["machine"]

    front = ["cli", "gadgets", "lower", "machine"]
    for command in ("run", "compile", "dot", "init-prologue"):
        assert out[command] == [0, front], command
    assert out["reach"] == [0, sorted([*front, "reach"])]
    assert out["verify-sim"] == [0, sorted([*front, "reach", "verify"])]

    assert set(out["all"]) == PUBLIC
    assert out["star"] == sorted(PUBLIC)
    assert out["dir"] == []
    assert out["homes"] == {name: True for name in PUBLIC - {"__version__"}}
    assert out["unknown"] == "module 'gadgetforge' has no attribute 'no_such_name'"


def test_a_dropped_import_is_freed(child):
    # typing caches every Union[...] it builds, with its classes and so their
    # module, for the life of the process; the unions are PEP 604 ones
    assert child["kept"] == []
    assert get_args(G.ComponentKind) == (G.IncRange, G.DecNZRange, G.DecRange, G.PZ, G.PNZ,
                                         G.JZSwitch, G.JZDecSwitch)
    assert get_args(G.GadgetSpec) == (G.CounterGadgetSpec, G.FiniteGadgetSpec)


def test_each_record_that_adds_no_field_inherits_its_generated_methods(child):
    # every decorated class runs the dataclass generator at import; a kind
    # or record that adds no field shares its base's methods instead
    assert child["decorated"] == {"gadgets": 9, "machine": 6, "lower": 2, "reach": 3, "verify": 2}
    assert child["redecorated"] == []
