"""End-to-end acceptance gate: eight checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
check recomputes its expectation from an independent restatement of the
semantics -- a component transition table, a reference-interpreter corpus,
hop-level angelic enumeration -- never from the code under test.
"""

from __future__ import annotations

import math
import random
import time

from gadgetforge import gadgets as G, lower, verify
from gadgetforge.gadgets import (
    DecNZRange,
    DecRange,
    IncRange,
    JZDecSwitch,
    JZSwitch,
    PNZ,
    PZ,
    SystemOfGadgets,
    serialize_system,
)
from gadgetforge.machine import Dec, Halt, Inc, Jz, Program, RunStatus, run
from gadgetforge.reach import Verdict, bfs_reach
from gadgetforge.verify import (
    BisimVerdict,
    check_bisimulation,
    check_interval_invariant,
    derive_boundary_lts,
    spec_closure_lts,
    trace_splits,
)


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------- corpus

def _corpus() -> list[tuple[Program, dict[str, int]]]:
    """509 small machines: every 1-instruction program over one counter
    with each start value 0..3; every 2-instruction program over two
    counters with three start vectors; every 3-instruction program over
    one counter (two jump targets available) with two start values."""
    cases = []
    for op in (Inc("c0"), Dec("c0"), Jz("c0", 0), Halt()):
        for v in range(4):
            cases.append((Program(("c0",), (op,)), {"c0": v}))
    slots = [Inc("c0"), Inc("c1"), Dec("c0"), Dec("c1"),
             Jz("c0", 0), Jz("c0", 1), Jz("c1", 0), Jz("c1", 1), Halt()]
    for i0 in slots:
        for i1 in slots:
            for v0, v1 in ((0, 0), (3, 1), (1, 2)):
                cases.append((Program(("c0", "c1"), (i0, i1)),
                              {"c0": v0, "c1": v1}))
    slots3 = [Inc("c0"), Dec("c0"), Jz("c0", 0), Jz("c0", 2), Halt()]
    for i0 in slots3:
        for i1 in slots3:
            for i2 in slots3:
                for v in (2, 0):
                    cases.append((Program(("c0",), (i0, i1, i2)), {"c0": v}))
    assert len(cases) == 509
    return cases


def _halts(program: Program, initial: dict[str, int]) -> bool:
    return run(program, initial, max_steps=200).status is RunStatus.HALTED


# every legal (a,b,c,d) in {1,2}^4: a <= b and c <= d
_RANGE_PARAMS = [(a, b, c, d)
                 for a in (1, 2) for b in range(a, 3)
                 for c in (1, 2) for d in range(c, 3)]


# -------------------------------------------------- 1: component table

def test_criterion_1_component_semantics_table():
    t0 = time.perf_counter()

    def expected(tag, params, s):
        if tag == "inc":
            a, b = params
            return {(0, s + i) for i in range(a, b + 1)}
        if tag == "decnz":
            c, d = params
            if s < c:
                return set()
            return {(0, s - i) for i in range(c, min(s, d) + 1)}
        if tag == "dec":
            a, b = params
            return {(0, max(s - i, 0)) for i in range(a, b + 1)}
        if tag == "pz":
            return {(0, 0)} if s == 0 else set()
        if tag == "pnz":
            return {(0, s)} if s >= 1 else set()
        if tag == "jz":
            return {(0, 0)} if s == 0 else {(1, s)}
        return {(0, 0)} if s == 0 else {(1, s - 1)}  # jzdec

    kinds = []
    for a in range(1, 5):
        for b in range(a, 5):
            kinds += [("inc", (a, b), IncRange(a, b)),
                      ("decnz", (a, b), DecNZRange(a, b)),
                      ("dec", (a, b), DecRange(a, b))]
    kinds += [("pz", (), PZ()), ("pnz", (), PNZ()),
              ("jz", (), JZSwitch()), ("jzdec", (), JZDecSwitch())]

    mismatches = 0
    for tag, params, kind in kinds:
        for s in range(101):
            got = {(e, s2) for (_, s2, e) in kind.moves(s)}
            if got != expected(tag, params, s):
                mismatches += 1
    # the merged-entrance identities, against the same table
    for s in range(101):
        jz = {(e, s2) for (_, s2, e) in JZSwitch().moves(s)}
        if jz != expected("pz", (), s) | {(1, s2) for (_, s2)
                                          in expected("pnz", (), s)}:
            mismatches += 1
        jzdec = {(e, s2) for (_, s2, e) in JZDecSwitch().moves(s)}
        if jzdec != expected("pz", (), s) | {(1, s2) for (_, s2)
                                             in expected("decnz", (1, 1), s)}:
            mismatches += 1
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and elapsed < 1.0
    _report(1, ok, f"{len(kinds)} kinds x 101 states, "
                   f"{mismatches} mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 1.0


# ------------------------------------- 2: halting <=> reachability

def test_criterion_2_halting_iff_reachable():
    t0 = time.perf_counter()
    mismatches = []
    for program, initial in _corpus():
        halts = _halts(program, initial)
        art = lower.compile_machine_to_incdecjz(program, initial)
        outcome = bfs_reach(art.system, counter_cap=8, visit_budget=10**6)
        if halts != (outcome.verdict is Verdict.REACHABLE):
            mismatches.append((program, initial, halts, outcome.verdict))
    elapsed = time.perf_counter() - t0

    ok = not mismatches and elapsed < 60
    _report(2, ok, f"509 machines, {len(mismatches)} mismatches, {elapsed:.1f}s")
    assert mismatches == []
    assert elapsed < 60


# ------------------------------------------- 3: lowering equivalences

def test_criterion_3_lowering_equivalences():
    checks = [
        ("flow-expanded", lambda: check_bisimulation(
            lower.build_inc_decnz_decnz(),
            G.catalog()["inc-decnz-decnz"], cap=8)),
        ("quintet", lambda: check_bisimulation(
            lower.sim_incdecjz_via_incjzdec(),
            G.catalog()["inc-dec-jz"], cap=8)),
        ("merged", lambda: check_bisimulation(
            lower.sim_incjzdec_via_incdecnzpz(),
            G.catalog()["inc-jzdec"], cap=8)),
        ("sscd", lambda: check_bisimulation(
            lower.build_sscd_from_incdecnz(), G.catalog()["sscd"], cap=8)),
        ("duplicator-no-leak", lambda: check_bisimulation(
            _spliced_duplicator(1, 2, 1, 2), G.catalog()["two-tunnel"], cap=8)),
    ]
    for a, b, c, d in _RANGE_PARAMS:
        checks.append((
            f"incab-{a}{b}{c}{d}",
            lambda a=a, b=b, c=c, d=d: check_bisimulation(
                lower.sim_incdecnzpz_via_incab(a, b, c, d),
                G.catalog()["inc-decnz-pz"], cap=8, mode="interval")))

    failures, worst = [], 0.0
    for name, go in checks:
        t0 = time.perf_counter()
        report = go()
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if report.verdict is not BisimVerdict.EQUIVALENT or dt >= 120:
            failures.append((name, report.verdict.value, f"{dt:.1f}s"))

    ok = not failures
    _report(3, ok, f"{len(checks)} checks at cap 8 all Equivalent, "
                   f"slowest {worst:.1f}s" if ok else f"failing: {failures}")
    assert failures == []


def _spliced_duplicator(a, b, c, d):
    """The duplicator plus an actual guarded tunnel between its splice
    nodes; no-leak means the whole reads exactly like two-tunnel."""
    art = lower.build_edge_duplicator(a, b, c, d)
    sys0 = art.system
    shared = G.spec_inc_ab(a, b, c, d)
    system = SystemOfGadgets(
        specs=sys0.specs,
        instances=sys0.instances + (G.GadgetInstance("shared", shared.name, 0),),
        nodes=sys0.nodes,
        edges=sys0.edges + (("node:E0", "shared.inc_in"),
                            ("shared.inc_out", "node:E1")),
        boundary=sys0.boundary)
    return lower.LoweringArtifact(
        system, roles=dict(art.roles),
        encoding=lower.Encoding("table", table=(("idle", (0, 0, 0)),)),
        provenance=dict(art.provenance))


# --------------------------------------------- 4: interval invariant

def _angelic_step(a, b, c, d):
    """Reachable-set transformer for one simulated op, stated hop by hop:
    an inc op rides a*c*d Inc[a,b] tunnels on g0 and b*c*d on g1; a decnz
    op rides a*b*d DecNZ[c,d] tunnels on g0 and a*b*c on g1; a pz op rides
    one PZ tunnel on each.  Choices inside one gadget are independent of
    the other's, so the reachable pairs stay a product of two sets."""
    def inc_hop(S):
        return {s + i for s in S for i in range(a, b + 1)}

    def decnz_hop(S):
        return {s - i for s in S if s >= c for i in range(c, min(s, d) + 1)}

    def pz_hop(S):
        return {0} if 0 in S else set()

    def apply(op, S, n_inc, n_dec):
        if op == "inc":
            for _ in range(n_inc):
                S = inc_hop(S)
        elif op == "decnz":
            for _ in range(n_dec):
                S = decnz_hop(S)
        else:
            S = pz_hop(S)
        return S

    def step(op, G0, G1):
        return (apply(op, G0, a * c * d, a * b * d),
                apply(op, G1, b * c * d, a * b * c))

    return step


def test_criterion_4_interval_anchor_invariant():
    t0 = time.perf_counter()

    # all angelic resolutions, enumerated concretely while n <= 3
    exhaustive_steps = 0
    for a, b, c, d in _RANGE_PARAMS:
        anchor = a * b * c * d
        step = _angelic_step(a, b, c, d)

        def recurse(n, G0, G1, left, *, anchor=anchor, step=step):
            nonlocal exhaustive_steps
            if left == 0:
                return
            for op in (["inc"] if n < 3 else []) + \
                      (["decnz"] if n else ["pz"]):
                n2 = n + (op == "inc") - (op == "decnz")
                H0, H1 = step(op, G0, G1)
                assert H0 and H1, (a, b, c, d, op, n)
                assert max(H0) == min(H1) == anchor * n2, \
                    (a, b, c, d, op, n2, sorted(H0), sorted(H1))
                exhaustive_steps += 1
                recurse(n2, H0, H1, left - 1)

        recurse(0, {0}, {0}, 8)

    # random legal sequences of length 20 through the artifact itself
    rng = random.Random(509)
    walks = 0
    for a, b, c, d in _RANGE_PARAMS:
        art = lower.sim_incdecnzpz_via_incab(a, b, c, d)
        by_role = {art.roles[i.id]: k
                   for k, i in enumerate(art.system.instances)}
        i0, i1 = by_role["low-anchor"], by_role["high-anchor"]
        anchor = art.provenance["anchor"]
        for _ in range(3):
            ops, n = [], 0
            for _ in range(20):
                op = rng.choice(["inc", "decnz"] if n else ["inc", "pz"])
                ops.append(op)
                n += (op == "inc") - (op == "decnz")
            snaps = check_interval_invariant(art, ops)  # raises on violation
            assert len(snaps) == 21
            for _, m, vec in snaps:  # and re-check the anchor ourselves
                assert vec[i0][1] == vec[i1][0] == anchor * m
            walks += 1
    elapsed = time.perf_counter() - t0

    ok = True  # any violation would have raised above
    _report(4, ok, f"{exhaustive_steps} exhaustive steps (n<=3), "
                   f"{walks} random length-20 walks, {elapsed:.1f}s")


# ------------------------------------------- 5: mutation sensitivity

def test_criterion_5_single_edge_deletions_are_caught():
    t0 = time.perf_counter()
    art = lower.sim_incdecjz_via_incjzdec()
    spec = G.catalog()["inc-dec-jz"]
    enc = lower.Encoding("affine", affine=((1, 0), (1, 0), (0, 0), (0, 0), (0, 0)))
    cap = 8

    total = len(art.system.edges)
    caught = replayed = 0
    for k in range(total):
        sys0 = art.system
        mutant = SystemOfGadgets(
            specs=sys0.specs, instances=sys0.instances, nodes=sys0.nodes,
            edges=sys0.edges[:k] + sys0.edges[k + 1:],
            boundary=sys0.boundary)
        report = check_bisimulation(mutant, spec, encoding=enc, cap=cap)
        if report.verdict is BisimVerdict.NOT_EQUIVALENT:
            caught += 1
            (x0, y0), trace = report.counterexample
            if trace is not None:
                # replay on independently recomputed transition systems:
                # the trace must strand exactly one side
                impl_lts = derive_boundary_lts(
                    mutant, [enc.state_for(q) for q in range(cap + 1)],
                    impl_cap=report.impl_cap)
                spec_lts = spec_closure_lts(spec, cap)
                xs, ys = trace_splits(impl_lts.out_map(), spec_lts.out_map(),
                                      x0, y0, trace)
                assert (len(xs) == 0) != (len(ys) == 0)
                replayed += 1
    elapsed = time.perf_counter() - t0

    ok = caught >= math.ceil(0.9 * total)
    _report(5, ok, f"{caught}/{total} deletions non-Equivalent "
                   f"({replayed} traces replayed), {elapsed:.1f}s")
    assert caught >= math.ceil(0.9 * total)


# ----------------------------------------------------- 6: initializer

def test_criterion_6_initializer_values_and_size():
    t0 = time.perf_counter()
    halt = Program(("c0",), (Halt(),))
    bad = []
    worst_len = 0
    for v in range(1001):
        frag = lower.emit_initializer([v])
        program = frag.concat(halt)
        result = run(program, max_steps=200_000)
        got = result.final.counters[frag.counters.index("c0")]
        bound = 8 * (math.floor(math.log2(v + 1)) + 1)
        worst_len = max(worst_len, len(frag.instructions))
        if result.status is not RunStatus.HALTED or got != v \
                or len(frag.instructions) > bound:
            bad.append(v)
    elapsed = time.perf_counter() - t0

    ok = not bad
    _report(6, ok, f"v=0..1000 exact, longest prologue {worst_len} "
                   f"instructions, {elapsed:.1f}s")
    assert bad == []


# -------------------------------------------- 7: pipeline preservation

def test_criterion_7_pipeline_preserves_halting_verdicts():
    t0 = time.perf_counter()
    mismatches = []
    for program, initial in _corpus():
        halts = _halts(program, initial)
        for target in ("inc-jzdec", "inc-decnz-pz"):
            art = lower.pipeline(program, target, initial=initial)
            outcome = bfs_reach(art.system, counter_cap=12, visit_budget=10**6)
            if halts != (outcome.verdict is Verdict.REACHABLE):
                mismatches.append((program, initial, target))
    elapsed = time.perf_counter() - t0

    ok = not mismatches and elapsed < 600
    _report(7, ok, f"509 machines x 2 targets at cap 12, "
                   f"{len(mismatches)} mismatches, {elapsed:.1f}s")
    assert mismatches == []
    assert elapsed < 600


# ------------------------------------------------------ 8: determinism

def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    corpus = _corpus()

    unstable_bytes = witness_diffs = 0
    for program, initial in corpus:
        a = lower.compile_machine_to_incdecjz(program, initial)
        b = lower.compile_machine_to_incdecjz(program, initial)
        if serialize_system(a.system) != serialize_system(b.system):
            unstable_bytes += 1
        wa = bfs_reach(a.system, counter_cap=8, visit_budget=10**6).witness
        wb = bfs_reach(b.system, counter_cap=8, visit_budget=10**6).witness
        if wa != wb:
            witness_diffs += 1

    # spot-check the on-disk story too, sidecars included
    for idx, (program, initial) in enumerate(corpus[::26]):
        pa = tmp_path / f"{idx}-a.json"
        pb = tmp_path / f"{idx}-b.json"
        lower.export_artifact(lower.compile_machine_to_incdecjz(program, initial),
                              str(pa))
        lower.export_artifact(lower.compile_machine_to_incdecjz(program, initial),
                              str(pb))
        if pa.read_bytes() != pb.read_bytes():
            unstable_bytes += 1
        if (tmp_path / f"{idx}-a.json.meta.json").read_bytes() \
                != (tmp_path / f"{idx}-b.json.meta.json").read_bytes():
            unstable_bytes += 1
    elapsed = time.perf_counter() - t0

    ok = unstable_bytes == 0 and witness_diffs == 0
    _report(8, ok, f"509 double compiles + {len(corpus[::26])} file exports, "
                   f"{unstable_bytes} byte diffs, {witness_diffs} witness "
                   f"diffs, {elapsed:.1f}s")
    assert unstable_bytes == 0
    assert witness_diffs == 0
