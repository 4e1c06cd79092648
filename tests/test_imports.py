"""The package loads each layer on first use.

``import gadgetforge`` loads no layer, a layer loads only the layers it
imports, and each CLI subcommand only the layers it calls.  In this process
the other tests have already imported every module, so the checks run in
one fresh interpreter, which drops the package from ``sys.modules`` before
each import it measures and reports what that import loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import gadgetforge
from gadgetforge import lower

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

_CHILD = r"""
import contextlib, io, json, sys, types

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
try:
    gf.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


def _child(tmp_path) -> dict:
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
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_layer_loads_on_first_use(tmp_path):
    out = _child(tmp_path)
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
