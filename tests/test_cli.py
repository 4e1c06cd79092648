"""Command-line interface tests.

Most tests drive main() in-process and read stdout through capsys; the
logging and cross-process determinism tests spawn real interpreters
(``python -m gadgetforge``) since both depend on fresh process state.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def _cli_subprocess(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("GADGETFORGE_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "gadgetforge", *argv],
                          capture_output=True, text=True, env=env)


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


def test_compile_rejects_a_negative_counter_value(tmp_path, capsys):
    src = _write(tmp_path, "p.cm", "0: INC c0\n1: HALT\n")
    out_path = tmp_path / "neg.json"
    code, out, err = _run_cli(capsys, "compile", src, "--counters=-1",
                              "-o", str(out_path))
    assert code == 1 and out == ""
    assert "error:" in err and "natural" in err
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
    for name, doc in (("endpoint", int_endpoint), ("id", int_id)):
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


def test_verify_sim_rejects_an_unknown_sidecar_mode(tmp_path, capsys):
    code, out, err = _verify_sim_with_sidecar(
        tmp_path, capsys, lambda doc: {**doc, "mode": "sideways"})
    assert _rejected(code, out, err) and "sideways" in err


def test_verify_sim_rejects_a_sidecar_that_is_not_an_object(tmp_path, capsys):
    assert _rejected(*_verify_sim_with_sidecar(tmp_path, capsys, lambda doc: []))


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


def test_missing_subcommand_exits_with_usage():
    proc = _cli_subprocess()
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
