"""Command-line front end.

``python -m gadgetforge ...`` is equivalent to the ``gadgetforge`` script.

Subcommands:

  run            execute a machine program, print the result as JSON
  compile        lower a machine program to a system of gadgets
  reach          bounded reachability search over a system JSON file
  verify-sim     bounded bisimulation check of a system against a spec
  dot            Graphviz export of a system
  init-prologue  emit machine code that builds given counter values

Exit codes encode verdicts so shell harnesses need no JSON parsing:

  run         0 Halted, 2 BudgetExhausted, 3 FellOffEnd
  reach       0 Reachable, 3 UnreachableWithinCap, 2 Unknown
  verify-sim  0 Equivalent, 3 NotEquivalent, 2 InconclusiveAtCap

and 1 for parse/usage/file errors, with diagnostics on stderr: input files are
checked where ``machine``, ``gadgets`` and ``lower`` read them, never here.

GADGETFORGE_LOG in {quiet, info, debug} controls diagnostic verbosity on
stderr (default quiet).  Nothing here is randomized.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import gadgets, lower, machine

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = {"quiet": logging.WARNING,
             "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("GADGETFORGE_LOG"), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _initial_counters(program: machine.Program, text: str | None) -> dict[str, int]:
    values = [int(tok) for tok in text.split(",")] if text else []
    if len(values) > len(program.counters):
        raise machine.ProgramError(
            f"{len(values)} counter values for {len(program.counters)} counters")
    return dict(zip(program.counters, values))


# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    program = machine.parse_program(_read(args.machine_file))
    initial = _initial_counters(program, args.counters)
    result = machine.run(program, initial, max_steps=args.max_steps)
    _emit({
        "status": result.status.value,
        "steps": result.steps,
        "pc": result.final.pc,
        "counters": dict(zip(program.counters, result.final.counters)),
    })
    return {machine.RunStatus.HALTED: 0,
            machine.RunStatus.BUDGET_EXHAUSTED: 2,
            machine.RunStatus.FELL_OFF_END: 3}[result.status]


def cmd_compile(args) -> int:
    program = machine.parse_program(_read(args.machine_file))
    initial = _initial_counters(program, args.counters)
    range_params = None
    if args.range:
        parts = [int(tok) for tok in args.range.split(",")]
        if len(parts) != 4:
            raise gadgets.SystemFormatError("--range wants a,b,c,d")
        range_params = tuple(parts)
    artifact = lower.pipeline(program, args.target, initial=initial,
                              range_params=range_params, expand=args.expand)
    system_path, meta_path = lower.export_artifact(artifact, args.output)
    log.info("wrote %s and %s (%d instances)", system_path, meta_path,
             len(artifact.system.instances))
    return 0


def cmd_reach(args) -> int:
    from . import reach  # loaded here so that the other subcommands never load it

    system = gadgets.parse_system(_read(args.system_file))
    outcome = reach.bfs_reach(system, counter_cap=args.cap, visit_budget=args.budget)
    witness = None
    if outcome.witness is not None:
        witness = [dataclasses.asdict(t) for t in outcome.witness]
    _emit({
        "verdict": outcome.verdict.value,
        "reason": outcome.reason,
        "witness": witness,
        "stats": dataclasses.asdict(outcome.stats),
    })
    return {reach.Verdict.REACHABLE: 0,
            reach.Verdict.UNREACHABLE_WITHIN_CAP: 3,
            reach.Verdict.UNKNOWN: 2}[outcome.verdict]


def _load_spec(ref: str) -> gadgets.GadgetSpec:
    """--spec takes a catalog name or a path to a spec JSON file."""
    cat = gadgets.catalog()
    if ref in cat:
        return cat[ref]
    if os.path.exists(ref):
        return gadgets.parse_spec(gadgets.read_json(_read(ref)))
    raise gadgets.SystemFormatError(
        f"unknown spec {ref!r}; catalog has {', '.join(sorted(cat))}")


def cmd_verify_sim(args) -> int:
    from . import verify

    system = gadgets.parse_system(_read(args.impl_file))
    spec = _load_spec(args.spec)
    port_map, encoding, sidecar_mode = lower.read_sidecar(args.map)
    mode = args.mode or sidecar_mode or "concrete"
    report = verify.check_bisimulation(system, spec, port_map, cap=args.cap, mode=mode,
                                       encoding=encoding, impl_cap=args.impl_cap)
    ce = None
    if report.counterexample is not None:
        (x0, y0), trace = report.counterexample
        ce = {"seed_impl": x0, "seed_spec": y0, "trace": trace}
    _emit(dataclasses.asdict(report) | {
        "verdict": report.verdict.value, "counterexample": ce, "mode": mode})
    return {verify.BisimVerdict.EQUIVALENT: 0,
            verify.BisimVerdict.NOT_EQUIVALENT: 3,
            verify.BisimVerdict.INCONCLUSIVE_AT_CAP: 2}[report.verdict]


def cmd_dot(args) -> int:
    system = gadgets.parse_system(_read(args.system_file))
    print(gadgets.to_dot(system), end="")
    return 0


def cmd_init_prologue(args) -> int:
    values = {}
    for tok in args.values.split(","):
        name, eq, val = tok.partition("=")
        if not eq or name.strip() in values:
            raise machine.ProgramError(f"expected name=value, each name once, got {tok!r}")
        values[name.strip()] = int(val)
    frag = lower.emit_initializer(values)
    if args.halt:
        frag = frag.concat(machine.Program(frag.counters, (machine.Halt(),)))
    print(machine.serialize_program(frag), end="")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gadgetforge",
        description="counter machines, counter gadgets, and the reductions "
                    "between them")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a machine program")
    p.add_argument("machine_file")
    p.add_argument("--counters", help="initial values v0,v1,... in declaration order")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compile", help="lower a machine program to gadgets")
    p.add_argument("machine_file")
    p.add_argument("--target", default="inc-dec-jz",
                   choices=list(lower.PIPELINE_TARGETS))
    p.add_argument("--range", help="a,b,c,d for --target inc-ab")
    p.add_argument("--expand", default="direct",
                   choices=["direct", "via-duplicators"])
    p.add_argument("--counters", help="initial values v0,v1,...")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("reach", help="bounded reachability search")
    p.add_argument("system_file")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_reach)

    p = sub.add_parser("verify-sim", help="bounded bisimulation vs a spec gadget")
    p.add_argument("impl_file")
    p.add_argument("--spec", required=True,
                   help="catalog spec name or spec JSON file")
    p.add_argument("--map", required=True, help="sidecar JSON with ports/encoding/mode")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--impl-cap", type=int, default=None)
    p.add_argument("--mode", choices=["concrete", "interval"], default=None)
    p.set_defaults(fn=cmd_verify_sim)

    p = sub.add_parser("dot", help="Graphviz DOT export")
    p.add_argument("system_file")
    p.set_defaults(fn=cmd_dot)

    p = sub.add_parser("init-prologue", help="emit counter-initializing code")
    p.add_argument("--values", required=True, help="name=value,name=value,...")
    p.add_argument("--halt", action="store_true",
                   help="append HALT so the output runs standalone")
    p.set_defaults(fn=cmd_init_prologue)
    return ap


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 after a usage error
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # SystemFormatError, ProgramError, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
