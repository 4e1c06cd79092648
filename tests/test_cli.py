"""Command-line interface tests.

Most tests drive main() in-process and read stdout through capsys; the
logging and cross-process determinism tests spawn real interpreters
(``python -m gadgetforge``) since both depend on fresh process state.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import gadgetforge
from gadgetforge import gadgets, lower, machine
from gadgetforge.cli import main
from gadgetforge.machine import RunStatus, parse_program, run


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the directory holding the gadgetforge package under test, so the child
# imports the same code whether or not the package is installed
_PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(gadgetforge.__file__)))


def _cli_subprocess(*argv, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("GADGETFORGE_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "gadgetforge", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


# ------------------------------------------------------------------ run

def test_run_two_increments(tmp_path, capsys):
    path = _write(tmp_path, "two.cm", "0: INC c0\n1: INC c0\n2: HALT\n")
    code, out, _ = _run_cli(capsys, "run", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "halted"
    assert doc["steps"] == 3
    assert doc["counters"] == {"c0": 2}
    assert doc["pc"] == 2


def test_run_exit_codes(tmp_path, capsys):
    loop = _write(tmp_path, "loop.cm", "0: JZ c0 0\n")
    code, out, _ = _run_cli(capsys, "run", loop, "--max-steps", "25")
    assert code == 2
    assert json.loads(out)["status"] == "budget-exhausted"

    off = _write(tmp_path, "off.cm", "0: INC c0\n")
    code, out, _ = _run_cli(capsys, "run", off)
    assert code == 3
    assert json.loads(out)["status"] == "fell-off-end"

    bad = _write(tmp_path, "bad.cm", "0: FROB c0\n")
    code, out, err = _run_cli(capsys, "run", bad)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "unknown mnemonic" in err

    code, _, err = _run_cli(capsys, "run", str(tmp_path / "missing.cm"))
    assert code == 1 and "error:" in err


def test_run_initial_counters(tmp_path, capsys):
    path = _write(tmp_path, "dec.cm",
                  "counters: c0 c1\n0: DEC c0\n1: HALT\n")
    code, out, _ = _run_cli(capsys, "run", path, "--counters", "3,5")
    assert code == 0
    assert json.loads(out)["counters"] == {"c0": 2, "c1": 5}

    code, _, err = _run_cli(capsys, "run", path, "--counters", "1,2,3")
    assert code == 1 and "counter values for" in err


# -------------------------------------------------------------- compile

def test_compile_writes_system_and_sidecar(tmp_path, capsys):
    src = _write(tmp_path, "p.cm", "0: INC c0\n1: HALT\n")
    out_path = tmp_path / "sys.json"
    code, _, _ = _run_cli(capsys, "compile", src, "-o", str(out_path))
    assert code == 0
    system = gadgets.parse_system(out_path.read_text())
    assert len(system.instances) == 2
    meta = json.loads((tmp_path / "sys.json.meta.json").read_text())
    assert meta["mode"] == "concrete"
    assert meta["roles"]["c:c0"] == "counter:c0"


def test_compile_target_and_initials(tmp_path, capsys):
    src = _write(tmp_path, "p.cm", "0: INC c0\n1: HALT\n")
    out_path = tmp_path / "q.json"
    code, _, _ = _run_cli(capsys, "compile", src, "--target", "inc-jzdec",
                          "--counters", "2", "-o", str(out_path))
    assert code == 0
    system = gadgets.parse_system(out_path.read_text())
    assert len(system.instances) == 20
    assert {i.spec for i in system.instances} == {"inc-jzdec"}
    by_id = {i.id: i for i in system.instances}
    assert by_id["c:c0/g0"].initial == 2  # seeded through the encoding


def test_compile_range_must_be_positive(tmp_path, capsys):
    src = _write(tmp_path, "p.cm", "0: INC c0\n1: HALT\n")
    code, out, err = _run_cli(capsys, "compile", src, "--target", "inc-ab",
                              "--range", "0,2,1,2", "-o", str(tmp_path / "x.json"))
    assert code == 1 and out == ""
    assert "a > 0" in err
    code, _, err = _run_cli(capsys, "compile", src, "--target", "inc-ab",
                            "--range", "1,2", "-o", str(tmp_path / "x.json"))
    assert code == 1 and "a,b,c,d" in err
    code, _, err = _run_cli(capsys, "compile", src, "--target", "inc-ab",
                            "-o", str(tmp_path / "x.json"))
    assert code == 1 and "range_params" in err


def test_compile_rejects_a_range_too_large_to_build(tmp_path):
    # 1,1000000,1,1 chains three million tunnels per counter, minutes of work
    # and gigabytes of output if built, so it runs in a child that a timeout
    # kills; the bound must reject it before anything is built
    src = _write(tmp_path, "two.cm", _TWO_CM)
    out_path = tmp_path / "x.json"
    began = time.perf_counter()
    proc = _cli_subprocess("compile", src, "--target", "inc-ab", "--range", "1,1000000,1,1",
                           "-o", str(out_path), timeout=5)
    assert time.perf_counter() - began < 1.0
    assert _rejected(proc.returncode, proc.stdout, proc.stderr)
    assert "tunnels" in proc.stderr
    assert not out_path.exists() and not (tmp_path / "x.json.meta.json").exists()


def test_compile_bounds_the_system_a_duplicator_expansion_builds(tmp_path, capsys):
    # 1,300,1,1 chains 901 tunnels, under the tunnel bound; expanded via
    # duplicators they need 1,794 wrapper instances and over 11,000 edges
    src = _write(tmp_path, "two.cm", _TWO_CM)
    out_path = tmp_path / "x.json"
    began = time.perf_counter()
    proc = _cli_subprocess("compile", src, "--target", "inc-ab", "--range", "1,300,1,1",
                           "--expand", "via-duplicators", "-o", str(out_path), timeout=5)
    assert time.perf_counter() - began < 1.0
    assert _rejected(proc.returncode, proc.stdout, proc.stderr)
    assert "instances and edges" in proc.stderr
    assert not out_path.exists() and not (tmp_path / "x.json.meta.json").exists()
    code, _, _ = _run_cli(capsys, "compile", src, "--target", "inc-ab", "--range", "1,300,1,1",
                          "-o", str(out_path))
    assert code == 0 and out_path.exists()


def test_compile_rejects_a_negative_counter_value(tmp_path, capsys):
    src = _write(tmp_path, "p.cm", "0: INC c0\n1: HALT\n")
    out_path = tmp_path / "neg.json"
    code, out, err = _run_cli(capsys, "compile", src, "--counters=-1",
                              "-o", str(out_path))
    assert code == 1 and out == ""
    assert "error:" in err and "natural" in err
    assert not out_path.exists()


def test_compile_rejects_more_counter_values_than_counters(tmp_path, capsys):
    src = _write(tmp_path, "one.cm", "0: INC c0\n1: HALT\n")
    out_path = tmp_path / "one.json"
    code, out, err = _run_cli(capsys, "compile", src, "--counters", "1,2,3",
                              "-o", str(out_path))
    assert code == 1 and out == ""
    assert "3 counter values for 1 counters" in err
    assert not out_path.exists()


def test_compile_inc_ab_tunnel_multiplicities(tmp_path, capsys):
    # (a,b,c,d)=(1,2,1,2): the low-anchor counter carries 2 inc and 4
    # decnz tunnels, the high-anchor one the transpose
    src = _write(tmp_path, "p.cm", "0: INC c0\n1: HALT\n")
    out_path = tmp_path / "ab.json"
    code, _, _ = _run_cli(capsys, "compile", src, "--target", "inc-ab",
                          "--range", "1,2,1,2", "-o", str(out_path))
    assert code == 0
    names = {s.name for s in gadgets.parse_system(out_path.read_text()).specs}
    assert "inc[1,2]x2-decnz[1,2]x4-pz" in names
    assert "inc[1,2]x4-decnz[1,2]x2-pz" in names
    # the whole-machine artifact seeds concrete states; only the bare
    # counter-pair gadget suggests interval checking
    meta = json.loads((tmp_path / "ab.json.meta.json").read_text())
    assert meta["mode"] == "concrete"


# ---------------------------------------------------------------- reach

def _compiled_file(tmp_path, capsys, text, name="sys.json", *compile_args):
    src = _write(tmp_path, "prog.cm", text)
    out_path = tmp_path / name
    code, _, _ = _run_cli(capsys, "compile", src, *compile_args,
                          "-o", str(out_path))
    assert code == 0
    return str(out_path)


def test_reach_exit_codes(tmp_path, capsys):
    halting = _compiled_file(tmp_path, capsys, "0: INC c0\n1: HALT\n", "a.json")
    code, out, _ = _run_cli(capsys, "reach", halting, "--cap", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "reachable"
    assert doc["witness"] and doc["witness"][0]["instance"] == "i:0"
    assert doc["stats"]["explored"] >= 1

    looping = _compiled_file(tmp_path, capsys, "0: JZ c0 0\n", "b.json")
    code, out, _ = _run_cli(capsys, "reach", looping, "--cap", "8")
    assert code == 3
    assert json.loads(out)["verdict"] == "unreachable-within-cap"

    pumped = _compiled_file(tmp_path, capsys, "0: JZ c0 0\n", "c.json",
                            "--target", "inc-jzdec")
    code, out, _ = _run_cli(capsys, "reach", pumped, "--cap", "8")
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "unknown" and doc["reason"] == "cap-overflow-seen"

    code, _, err = _run_cli(capsys, "reach", str(tmp_path / "nope.json"),
                            "--cap", "4")
    assert code == 1 and "error:" in err


def test_reach_rejects_wrong_types_without_a_traceback(tmp_path, capsys):
    halting = _compiled_file(tmp_path, capsys, "0: INC c0\n1: HALT\n")
    with open(halting) as fh:
        text = fh.read()
    int_endpoint, int_id = json.loads(text), json.loads(text)
    int_endpoint["edges"][0][0] = 1
    int_id["instances"][0]["id"] = 1
    docs = {"endpoint": int_endpoint, "id": int_id}
    for bound, value in (("lo", 1.5), ("hi", True), ("hi", "2")):  # not coerced
        docs[f"{bound}-{value}"] = doc = json.loads(text)
        doc["specs"][0]["components"][0][bound] = value
    for name, doc in docs.items():
        path = _write(tmp_path, f"bad-{name}.json", json.dumps(doc))
        code, out, err = _run_cli(capsys, "reach", path, "--cap", "4")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_reach_budget_flag(tmp_path, capsys):
    looping = _compiled_file(tmp_path, capsys, "0: JZ c0 0\n", "b.json")
    code, out, _ = _run_cli(capsys, "reach", looping, "--cap", "8",
                            "--budget", "1")
    assert code == 2
    assert json.loads(out)["reason"] == "budget-exhausted"


# ----------------------------------------------------------- verify-sim

def _exported(tmp_path, artifact, stem):
    system_path, meta_path = lower.export_artifact(
        artifact, str(tmp_path / f"{stem}.json"))
    return system_path, meta_path


def test_verify_sim_equivalent(tmp_path, capsys):
    impl, meta = _exported(tmp_path, lower.sim_incdecjz_via_incjzdec(), "q")
    code, out, _ = _run_cli(capsys, "verify-sim", impl, "--spec", "inc-dec-jz",
                            "--map", meta, "--cap", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "equivalent"
    assert doc["mode"] == "concrete"
    assert doc["seeds_checked"] == 5
    assert doc["relation_size"] >= doc["seeds_checked"]


def test_verify_sim_catches_a_twisted_port_map(tmp_path, capsys):
    impl, meta = _exported(tmp_path, lower.build_sscd_from_incdecnz(), "sscd")
    doc = json.loads(Path(meta).read_text())
    doc["ports"]["R1"], doc["ports"]["R2"] = doc["ports"]["R2"], doc["ports"]["R1"]
    twisted = _write(tmp_path, "twisted.map.json", json.dumps(doc))
    code, out, _ = _run_cli(capsys, "verify-sim", impl, "--spec", "sscd",
                            "--map", twisted, "--cap", "6")
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "not-equivalent"
    assert doc["counterexample"]["trace"]  # replayable boundary trace


def test_verify_sim_inconclusive_at_cap_zero(tmp_path, capsys):
    impl, meta = _exported(tmp_path, lower.sim_incdecjz_via_incjzdec(), "q")
    code, out, _ = _run_cli(capsys, "verify-sim", impl, "--spec", "inc-dec-jz",
                            "--map", meta, "--cap", "0")
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive-at-cap"


def test_verify_sim_interval_mode_from_sidecar(tmp_path, capsys):
    impl, meta = _exported(
        tmp_path, lower.sim_incdecnzpz_via_incab(1, 2, 1, 2), "ab")
    code, out, _ = _run_cli(capsys, "verify-sim", impl, "--spec",
                            "inc-decnz-pz", "--map", meta, "--cap", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "equivalent" and doc["mode"] == "interval"


def test_verify_sim_rejects_unknown_spec(tmp_path, capsys):
    impl, meta = _exported(tmp_path, lower.sim_incdecjz_via_incjzdec(), "q")
    code, _, err = _run_cli(capsys, "verify-sim", impl, "--spec", "warp-core",
                            "--map", meta, "--cap", "4")
    assert code == 1 and "unknown spec" in err


def _verify_sim_with_sidecar(tmp_path, capsys, edit,
                             build=lower.sim_incdecjz_via_incjzdec, spec="inc-dec-jz"):
    """verify-sim on an exported artifact (by default the quintet) with its
    sidecar changed by ``edit``."""
    impl, meta = _exported(tmp_path, build(), "q")
    doc = edit(json.loads(Path(meta).read_text()))
    bad = _write(tmp_path, "bad.map.json", json.dumps(doc))
    return _run_cli(capsys, "verify-sim", impl, "--spec", spec,
                    "--map", bad, "--cap", "4")


def _rejected(code, out, err):
    return code == 1 and out == "" and err.startswith("error:") and "Traceback" not in err


def test_verify_sim_rejects_ports_that_are_not_an_object(tmp_path, capsys):
    assert _rejected(*_verify_sim_with_sidecar(
        tmp_path, capsys, lambda doc: {**doc, "ports": 5}))


def test_verify_sim_rejects_an_encoding_of_the_wrong_length(tmp_path, capsys):
    def short(doc):
        assert doc["encoding"]["kind"] == "affine"
        doc["encoding"]["per_instance"] = [[1, 0]]
        return doc
    code, out, err = _verify_sim_with_sidecar(tmp_path, capsys, short)
    assert _rejected(code, out, err) and "one state per instance" in err


def test_verify_sim_rejects_an_empty_port_map(tmp_path, capsys):
    # an empty map is a map, not the identity
    code, out, err = _verify_sim_with_sidecar(tmp_path, capsys, lambda doc: {**doc, "ports": {}})
    assert _rejected(code, out, err) and "misses implementation ports" in err


def test_verify_sim_rejects_a_port_map_key_that_is_no_boundary_port(tmp_path, capsys):
    # the exported quintet without its jz_out_nonzero port, its sidecar
    # mapping a key that is no port to that location: nothing covers it
    impl, meta = _exported(tmp_path, lower.sim_incdecjz_via_incjzdec(), "q2")
    system = json.loads(Path(impl).read_text())
    system["boundary"].remove("node:jz_out_nonzero")
    Path(impl).write_text(json.dumps(system))
    doc = json.loads(Path(meta).read_text())
    del doc["ports"]["jz_out_nonzero"]
    doc["ports"]["extra"] = "jz_out_nonzero"
    Path(meta).write_text(json.dumps(doc))
    code, out, err = _run_cli(capsys, "verify-sim", impl, "--spec", "inc-dec-jz",
                              "--map", meta, "--cap", "3")
    assert _rejected(code, out, err)
    assert err == ("error: port_map covers no implementation port for spec locations "
                   "['jz_out_nonzero']\n")


def test_verify_sim_rejects_an_unknown_sidecar_mode(tmp_path, capsys):
    code, out, err = _verify_sim_with_sidecar(
        tmp_path, capsys, lambda doc: {**doc, "mode": "sideways"})
    assert _rejected(code, out, err) and "sideways" in err


def test_verify_sim_rejects_a_sidecar_that_is_not_an_object(tmp_path, capsys):
    assert _rejected(*_verify_sim_with_sidecar(tmp_path, capsys, lambda doc: []))


@pytest.mark.parametrize("scale", [[10**30, 0], [-1, 100]])
def test_verify_sim_ends_a_huge_scale_sidecar_at_the_state_budget(tmp_path, capsys, scale):
    # the seeds lie far above --cap, so the closure runs to its state budget:
    # about half a second on a 2-core 2.1 GHz Xeon, against 9.7 s once
    impl, meta = _exported(tmp_path, lower.sim_incdecjz_via_incjzdec(), "q")
    doc = json.loads(Path(meta).read_text())
    doc["encoding"]["per_instance"][0] = scale
    huge = _write(tmp_path, "huge.map.json", json.dumps(doc))
    began = time.perf_counter()
    code, out, err = _run_cli(capsys, "verify-sim", impl, "--spec", "inc-dec-jz",
                              "--map", huge, "--cap", "3")
    assert time.perf_counter() - began < 5.0
    assert _rejected(code, out, err)
    assert "boundary closure exceeded 100000 at-rest states" in err


# verify-sim on exported artifacts whose sidecars are mutated: every run
# ends in a verdict or an error exit, and says the same the second time
_SIDECAR_BUILDS = {"quintet": (lower.sim_incdecjz_via_incjzdec, "inc-dec-jz"),
                   "interval": (lambda: lower.sim_incdecnzpz_via_incab(1, 2, 1, 2),
                                "inc-decnz-pz")}
_SIDECAR_NUMBERS = st.one_of(st.integers(-2, 6), st.sampled_from([10**30, -(10**30), 2**63]),
                             st.sampled_from([None, "1", 1.5, True, [], {}]))
_SIDECAR_EDITS = st.lists(st.one_of(
    st.tuples(st.just("number"), st.integers(0, 500), _SIDECAR_NUMBERS),
    st.tuples(st.just("ports"), st.sampled_from(["drop", "swap", "unknown", "extra", "null",
                                                 "list"]), st.integers(0, 50)),
    st.tuples(st.just("mode"), st.sampled_from([None, "concrete", "interval", "sideways", 5,
                                                [5], "drop"])),
    st.tuples(st.just("kind"), st.sampled_from(["affine", "table", "interval-affine", "x",
                                                None, "drop"]))), max_size=3)


def _number_paths(node, path=()):
    """The path to every number in a JSON document, in document order."""
    if isinstance(node, list):
        return [p for k, item in enumerate(node) for p in _number_paths(item, path + (k,))]
    if isinstance(node, dict):
        return [p for k in sorted(node) for p in _number_paths(node[k], path + (k,))]
    return [path] if isinstance(node, int) else []


def _edit_sidecar(doc: dict, edits) -> dict:
    for what, *args in edits:
        encoding, ports = doc.get("encoding"), doc.get("ports")
        if what == "number" and isinstance(encoding, dict) and _number_paths(encoding):
            at, value = args
            paths = _number_paths(encoding)
            *head, last = paths[at % len(paths)]
            node = encoding
            for k in head:
                node = node[k]
            node[last] = value
        elif what == "ports" and isinstance(ports, dict) and ports:
            how, k = args
            names = sorted(ports)
            name, other = names[k % len(names)], names[(k + 1) % len(names)]
            if how == "drop":
                del ports[name]
            elif how == "swap":
                ports[name], ports[other] = ports[other], ports[name]
            elif how == "unknown":
                ports[name] = "nowhere"
            elif how == "extra":
                ports["zz"] = ports[name]
            else:
                doc["ports"] = None if how == "null" else sorted(ports.items())
        elif what == "mode":
            if args[0] == "drop":
                doc.pop("mode", None)
            else:
                doc["mode"] = args[0]
        elif what == "kind" and isinstance(encoding, dict):
            if args[0] == "drop":
                encoding.pop("kind", None)
            else:
                encoding["kind"] = args[0]
    return doc


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SIDECAR_BUILDS)), _SIDECAR_EDITS, st.integers(0, 6),
       st.one_of(st.none(), st.integers(0, 6)))
def test_verify_sim_on_a_mutated_sidecar_ends_in_an_exit_code(build, edits, cap, impl_cap):
    make, spec = _SIDECAR_BUILDS[build]
    with tempfile.TemporaryDirectory() as tmp:
        impl, meta = lower.export_artifact(make(), os.path.join(tmp, "a.json"))
        doc = _edit_sidecar(json.loads(Path(meta).read_text()), edits)
        Path(meta).write_text(json.dumps(doc))
        argv = ["verify-sim", impl, "--spec", spec, "--map", meta, "--cap", str(cap)]
        if impl_cap is not None:
            argv += ["--impl-cap", str(impl_cap)]
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            runs.append((code, out.getvalue()))
    assert runs[0][0] in (0, 1, 2, 3)
    assert runs[0] == runs[1]
    assert (runs[0][1] == "") == (runs[0][0] == 1)


def _sscd_table(tmp_path, capsys, table):
    """verify-sim on the sscd construction with its table encoding replaced."""
    def edit(doc):
        assert doc["encoding"]["kind"] == "table"
        doc["encoding"]["map"] = table
        return doc
    return _verify_sim_with_sidecar(tmp_path, capsys, edit,
                                    lower.build_sscd_from_incdecnz, "sscd")


def test_verify_sim_rejects_a_table_encoding_that_lacks_a_state(tmp_path, capsys):
    code, out, err = _sscd_table(tmp_path, capsys, [["1", [1, 0]]])
    assert _rejected(code, out, err) and "'2'" in err


def test_verify_sim_rejects_list_valued_table_vectors(tmp_path, capsys):
    assert _rejected(*_sscd_table(tmp_path, capsys,
                                  [["1", [[1], [0]]], ["2", [[0], [1]]]]))


def test_verify_sim_rejects_a_boolean_in_a_table_vector(tmp_path, capsys):
    assert _rejected(*_sscd_table(tmp_path, capsys,
                                  [["1", [True, 0]], ["2", [0, 1]]]))


def test_verify_sim_rejects_an_encoding_that_seeds_a_negative_counter(tmp_path, capsys):
    def offset(doc):
        doc["encoding"]["per_instance"][0] = [1, -5]
        return doc
    code, out, err = _verify_sim_with_sidecar(tmp_path, capsys, offset)
    assert _rejected(code, out, err) and "natural" in err


@pytest.mark.parametrize("encoding", [
    {"kind": "affine", "per_instance": [[1, 0], [0, 1]]},
    {"kind": "interval-affine", "per_instance": [[[1, 0], [1, 0]], [[0, 1], [0, 1]]],
     "concrete": [[1, 0], [0, 1]]},
], ids=["affine", "interval-affine"])
def test_verify_sim_rejects_an_arithmetic_encoding_of_a_finite_spec(
        tmp_path, capsys, encoding):
    # sscd's states are the names "1" and "2", not counter values
    code, out, err = _verify_sim_with_sidecar(
        tmp_path, capsys, lambda doc: {**doc, "encoding": encoding},
        lower.build_sscd_from_incdecnz, "sscd")
    assert _rejected(code, out, err) and "'1'" in err


@pytest.mark.parametrize("scale", [float("inf"), 2.7, True, "3"],
                         ids=["infinity", "float", "bool", "string"])
def test_verify_sim_rejects_an_encoding_number_that_is_not_an_integer(
        tmp_path, capsys, scale):
    def edit(doc):
        doc["encoding"]["per_instance"][0] = [scale, 0]
        return doc
    code, out, err = _verify_sim_with_sidecar(tmp_path, capsys, edit)
    assert _rejected(code, out, err) and "not an integer" in err


@pytest.mark.parametrize("where", ["reach", "dot", "verify-sim", "spec", "map"])
def test_a_document_nested_too_deep_is_an_error(tmp_path, capsys, where):
    impl, meta = _exported(tmp_path, lower.sim_incdecjz_via_incjzdec(), "q")
    deep = _write(tmp_path, "deep.json", "[" * 200_000 + "]" * 200_000)
    argv = {"reach": ["reach", deep, "--cap", "2"],
            "dot": ["dot", deep],
            "verify-sim": ["verify-sim", deep, "--spec", "inc-dec-jz", "--map", meta, "--cap", "2"],
            "spec": ["verify-sim", impl, "--spec", deep, "--map", meta, "--cap", "2"],
            "map": ["verify-sim", impl, "--spec", "inc-dec-jz", "--map", deep, "--cap", "2"],
            }[where]
    code, out, err = _run_cli(capsys, *argv)
    assert _rejected(code, out, err) and "not valid JSON" in err


def _catalog_spec_file(tmp_path, name, edit):
    """A spec file holding the catalog spec ``name`` changed by ``edit``."""
    system = gadgets.SystemOfGadgets(specs=(gadgets.catalog()[name],), instances=())
    doc = json.loads(gadgets.serialize_system(system))["specs"][0]
    edit(doc)
    return _write(tmp_path, "spec.json", json.dumps(doc))


@pytest.mark.parametrize("name, edit", [
    ("inc-decnz-pz", lambda doc: doc["components"][0].update(lo=1.5)),
    ("inc-decnz-pz", lambda doc: doc["components"][0].update(entry=["inc_in"])),
    ("sscd", lambda doc: doc.update(states=[], transitions=[])),
], ids=["float-lo", "list-port", "no-states"])
def test_verify_sim_rejects_a_malformed_spec_file(tmp_path, capsys, name, edit):
    build = {"inc-decnz-pz": lambda: lower.sim_incdecnzpz_via_incab(1, 1, 1, 1),
             "sscd": lower.build_sscd_from_incdecnz}[name]
    impl, meta = _exported(tmp_path, build(), "impl")
    spec = _catalog_spec_file(tmp_path, name, edit)
    code, out, err = _run_cli(capsys, "verify-sim", impl, "--spec", spec,
                              "--map", meta, "--cap", "2")
    assert _rejected(code, out, err) and "bad spec entry" in err


@pytest.mark.parametrize("command, flags", [
    ("reach", ["--cap", "-1"]),
    ("reach", ["--cap", "4", "--budget", "-3"]),
    ("run", ["--max-steps", "-1"]),
    ("verify-sim", ["--cap", "-1"]),
    ("verify-sim", ["--cap", "4", "--impl-cap", "-2"]),
    ("verify-sim", ["--cap", "1000000000"]),  # more spec states than the budget
], ids=["reach-cap", "reach-budget", "run-max-steps", "verify-sim-cap",
        "verify-sim-impl-cap", "verify-sim-huge-cap"])
def test_bounds_that_make_no_sense_are_rejected(tmp_path, capsys, command, flags):
    if command == "run":
        files = [_write(tmp_path, "loop.cm", "0: JZ c0 0\n")]
    elif command == "reach":
        files = [_compiled_file(tmp_path, capsys, "0: INC c0\n1: HALT\n")]
    else:
        impl, meta = _exported(tmp_path, lower.sim_incdecjz_via_incjzdec(), "q")
        files = [impl, "--spec", "inc-dec-jz", "--map", meta]
    began = time.perf_counter()
    assert _rejected(*_run_cli(capsys, command, *files, *flags))
    assert time.perf_counter() - began < 1.0  # rejected before anything is built


# ------------------------------------------------------------------ dot

def test_dot_output(tmp_path, capsys):
    compiled = _compiled_file(tmp_path, capsys, "0: INC c0\n1: HALT\n")
    code, out, _ = _run_cli(capsys, "dot", compiled)
    assert code == 0
    assert out.startswith("graph ")
    assert "subgraph cluster_" in out
    assert '"node:start" -- ' in out
    code, out2, _ = _run_cli(capsys, "dot", compiled)
    assert out2 == out


# -------------------------------------------------------- init-prologue

def test_init_prologue_runs_to_the_requested_values(tmp_path, capsys):
    code, out, _ = _run_cli(capsys, "init-prologue",
                            "--values", "c0=7,c1=3", "--halt")
    assert code == 0
    program = parse_program(out)
    result = run(program, max_steps=10_000)
    assert result.status is RunStatus.HALTED
    final = dict(zip(program.counters, result.final.counters))
    assert final["c0"] == 7 and final["c1"] == 3


def test_init_prologue_without_halt_is_a_fragment(capsys):
    code, out, _ = _run_cli(capsys, "init-prologue", "--values", "c0=5")
    assert code == 0
    program = parse_program(out)
    assert not any(isinstance(i, machine.Halt) for i in program.instructions)
    result = run(program, max_steps=10_000)
    assert result.status is RunStatus.FELL_OFF_END
    assert result.final.counters[program.counters.index("c0")] == 5


@pytest.mark.parametrize("values", ["=3", "a b=9", "c0=8,c0=3", "c0=1, c0 =2"])
def test_init_prologue_rejects_names_no_program_declares(capsys, values):
    code, out, err = _run_cli(capsys, "init-prologue", "--values", values)
    assert (code, out) == (1, "") and err.startswith("error:")


_PROLOGUE_NAMES = st.one_of(
    st.sampled_from(["c0", "c1", "x", "_", "A9", " c0"]),  # repeats come often
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.sampled_from(["", " ", "a b", "1a", "a-b", "#", "init_tmp", "é", "aé"]),
    st.text(max_size=4))
_PROLOGUE_VALUES = st.one_of(st.integers(0, 40).map(str),
                             st.sampled_from(["", "-1", "x", " 2", "1.5"]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_PROLOGUE_NAMES, _PROLOGUE_VALUES), min_size=1, max_size=4),
       st.booleans())
def test_init_prologue_prints_a_program_that_builds_its_values(pairs, halt):
    values = ",".join(f"{name}={value}" for name, value in pairs)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["init-prologue", "--values", values] + ["--halt"] * halt)
    assert code in (0, 1)
    text = out.getvalue()
    if code == 1:
        assert text == ""
        return
    want = {}
    for tok in values.split(","):
        name, _, value = tok.partition("=")
        want[name.strip()] = int(value)
    if not halt:  # a fragment falls through to whatever comes next
        text += f"{len(text.splitlines()) - 1}: HALT\n"
    program = parse_program(text)
    result = run(program, max_steps=10**5)
    assert result.status is RunStatus.HALTED
    assert {c: v for c, v in zip(program.counters, result.final.counters) if c in want} == want


def test_init_prologue_rejects_bad_tokens(capsys):
    code, _, err = _run_cli(capsys, "init-prologue", "--values", "c0")
    assert code == 1 and "name=value" in err
    code, _, err = _run_cli(capsys, "init-prologue", "--values", "init_tmp=2")
    assert code == 1 and "reserved" in err


# ------------------------------------------------- process-level checks

def test_log_env_var_controls_stderr(tmp_path):
    src = _write(tmp_path, "p.cm", "0: INC c0\n1: HALT\n")
    argv = ("compile", src, "-o", str(tmp_path / "out.json"))

    quiet = _cli_subprocess(*argv)
    assert quiet.returncode == 0 and quiet.stderr == ""

    info = _cli_subprocess(*argv, env_extra={"GADGETFORGE_LOG": "info"})
    assert info.returncode == 0
    assert "wrote" in info.stderr and "2 instances" in info.stderr

    debug = _cli_subprocess(*argv, env_extra={"GADGETFORGE_LOG": "debug"})
    assert debug.returncode == 0 and "wrote" in debug.stderr

    junk = _cli_subprocess(*argv, env_extra={"GADGETFORGE_LOG": "shouting"})
    assert junk.returncode == 0 and junk.stderr == ""  # unknown -> quiet


def test_reach_info_line_goes_to_stderr_only(tmp_path):
    src = _write(tmp_path, "p.cm", "0: INC c0\n1: JZ c0 3\n2: HALT\n3: HALT\n")
    system = str(tmp_path / "p.json")
    assert _cli_subprocess("compile", src, "-o", system).returncode == 0
    quiet = _cli_subprocess("reach", system, "--cap", "4")
    info = _cli_subprocess("reach", system, "--cap", "4",
                           env_extra={"GADGETFORGE_LOG": "info"})
    assert quiet.returncode == info.returncode == 0 and quiet.stderr == ""
    assert info.stdout == quiet.stdout
    line, = info.stderr.splitlines()
    assert line.startswith("INFO gadgetforge.reach: reachable (")
    assert "configs explored" in line and "key bytes per visited config" in line


@pytest.mark.parametrize("command", ["reach", "verify-sim"])
def test_reach_and_verify_sim_in_a_fresh_process_match_main(tmp_path, capsys, command):
    # each of the two loads its layer inside the subcommand, and only a
    # fresh process shows that load missing: in this one every layer is loaded
    if command == "reach":
        argv = [_compiled_file(tmp_path, capsys, "0: INC c0\n1: HALT\n"), "--cap", "4"]
    else:
        impl, meta = _exported(tmp_path, lower.sim_incdecjz_via_incjzdec(), "q")
        argv = [impl, "--spec", "inc-dec-jz", "--map", meta, "--cap", "4"]
    code, out, _ = _run_cli(capsys, command, *argv)
    proc = _cli_subprocess(command, *argv)
    assert code == 0 and json.loads(out)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_compile_is_byte_identical_across_processes(tmp_path):
    src = _write(tmp_path, "p.cm",
                 "counters: c0 c1\n0: INC c0\n1: JZ c1 3\n2: DEC c0\n3: HALT\n")
    for target, extra in (("inc-dec-jz", ()), ("inc-jzdec", ()),
                          ("inc-ab", ("--range", "1,2,1,2"))):
        a, b = (tmp_path / f"{target}-a.json"), (tmp_path / f"{target}-b.json")
        # distinct hash seeds, so any output that follows the order of a
        # set of strings differs, even where the caller fixes PYTHONHASHSEED
        ra = _cli_subprocess("compile", src, "--target", target, *extra,
                             "-o", str(a), env_extra={"PYTHONHASHSEED": "1"})
        rb = _cli_subprocess("compile", src, "--target", target, *extra,
                             "-o", str(b), env_extra={"PYTHONHASHSEED": "2"})
        assert ra.returncode == 0 and rb.returncode == 0, (ra.stderr, rb.stderr)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / f"{target}-a.json.meta.json").read_bytes() \
            == (tmp_path / f"{target}-b.json.meta.json").read_bytes()


_TWO_CM = """\
# counters are declared implicitly by use, or explicitly:
counters: c0
0: INC c0
1: INC c0
2: HALT
"""

# sha256 of the system JSON and of the sidecar that `compile` writes, per
# program and target: compile output is pinned across versions, not only
# across processes
_GOLDEN = {
    ("p", "inc-dec-jz", ()): (
        "1ebaa0d11fba23c1cb1791ed1edcbe57640942d5228a215996296e384832bf49",
        "d260777b8b449e683292307b4142f47b768dcffde04f8475ea4ff7c6e24a6393"),
    ("p", "inc-jzdec", ()): (
        "08911ae0b39e774f93ca783800876ee71fc529ddf20df6bc8dbf6ffa6500eaf3",
        "fa4e9e32eb3950c81c0ee167bd250adb1596361378a577bdf918f413d166f4eb"),
    ("p", "inc-decnz-pz", ()): (
        "b7854ddc68be5f7aad0268db48ceaf2b62fb1878166a89c6cbc99bd34786d78a",
        "7112d06ab4cedc1fd8039c33757286719f17ff1af59d89641edb9516dd5ad723"),
    ("p", "inc-ab", ("--range", "1,2,1,2", "--expand", "direct")): (
        "1c136b6ddac2be7f8c9dbc1a1e89301931c09832a453180083115e512fdba3ec",
        "ad1b698876abd99235060776aa9c30836ce419d489834bcf2ea21b324c02cda8"),
    ("p", "inc-ab", ("--range", "1,2,1,2", "--expand", "via-duplicators")): (
        "aa90a6ed79a3c588c9c9cc1f9c65c7b5d76460ceb47b035e86c267b285477fec",
        "3f18e465e5da38561c869ebec08685a6779b1b9df47a5e6cd21ae68aba037728"),
    ("two", "inc-dec-jz", ()): (
        "b5c01f7b9c5c2565bb4f6112b8722a8af4429817caa24dcfbfcfb1d94a7b0dba",
        "e579eeb2410fca2b250d3383ffa5860659676c0838e723473e851fe6e612e864"),
    ("two", "inc-jzdec", ()): (
        "be25e432efc87067d70d490211bcb2e86cd516fc9ddd26dfb5b6a41a1845a07c",
        "6125b0d59ea16843708fe669f3dc41e3ea5ef2d881269e417d18011836c580a8"),
    ("two", "inc-decnz-pz", ()): (
        "0056057c8d81aec846566870743b44c64cc00c58ffd02a2efaa13af039c13c6a",
        "bafa63e0989110d19cf161ecf6ee0a42a933f4507247511084e71df0d35dccd7"),
    ("two", "inc-ab", ("--range", "1,2,1,2", "--expand", "direct")): (
        "ea2836eed379c489c2c36cfec037a566a65b4766a965e5dcc1a797da555eec7a",
        "c00c3c687f869b139fd2328d1fa82828974ae897c9baa7c59b8c8c8715072ca3"),
    ("two", "inc-ab", ("--range", "1,2,1,2", "--expand", "via-duplicators")): (
        "5e4ab827693a722fbf5cf8f73ea6bfc5fa145a01e2d6fc0d766b779c558fad2b",
        "10a63346d7b8847615e9fc07495df1d413011818e444fcddc8dd1acbde456de1"),
}


@pytest.mark.parametrize("program, target, extra", list(_GOLDEN),
                         ids=[f"{p}-{t}{'-' + x[-1] if x else ''}" for p, t, x in _GOLDEN])
def test_compile_output_matches_its_golden_digests(tmp_path, capsys, program, target, extra):
    text = {"p": "counters: c0 c1\n0: INC c0\n1: JZ c1 3\n2: DEC c0\n3: HALT\n",
            "two": _TWO_CM}[program]
    out_path = tmp_path / "out.json"
    code, _, _ = _run_cli(capsys, "compile", _write(tmp_path, f"{program}.cm", text),
                          "--target", target, *extra, "-o", str(out_path))
    assert code == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out_path, tmp_path / "out.json.meta.json"))
    assert digests == _GOLDEN[program, target, extra]


def test_missing_subcommand_exits_with_usage():
    proc = _cli_subprocess()
    assert proc.returncode == 1
    assert "usage:" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["reach", "two.json"],
    ["reach", "two.json", "--cap", "x"],
    ["warp", "two.json"],
    ["verify-sim", "q.json", "--spec", "inc-dec-jz", "--cap", "2"],
], ids=["missing-cap", "non-integer-cap", "unknown-subcommand", "verify-sim-without-map"])
def test_usage_errors_exit_1_not_a_verdict_code(capsys, argv):
    # 2 is the code of Unknown, Inconclusive and BudgetExhausted
    code, out, err = _run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("usage:")


def test_help_exits_0(capsys):
    code, out, _ = _run_cli(capsys, "verify-sim", "--help")
    assert code == 0 and "--map MAP" in out and "[--map" not in out  # --map is required
