"""Differential test of the bisimulation refinement against the one it replaced.

The oracle below is the earlier ``check_bisimulation``, kept verbatim except
that its refinement loop sits in ``reference_relation``: a fixpoint over a
set of (impl state, spec state) pairs, with a "missing label" loop and an
``any`` scan over the pair set for each direction of the match.  The current
code keeps one set of related spec states per impl state.  Both must give
the same ``BisimReport`` and the same relation, pair for pair, on every
criterion-3 artifact, the quintet at a larger cap, every criterion-5
single-edge mutant, and a case that is NotEquivalent only through the
spec-to-impl direction of the match.  ``_refine``, which checks one impl
state at a time and re-checks the predecessors of a state whose related
set shrank, is also compared with the oracle's relation on 2,000 small
seeded random transition systems, and on 400 larger ones: up to 12 impl
states, up to 70 spec states (masks past 64 bits), up to 3 targets per
label and frontier states on both sides.

A second oracle, ``worklist_refine``, is the earlier ``_refine`` kept
verbatim: the same worklist on tuple states, ``frozenset`` labels and sets
of related spec states.  ``_refine`` now runs on int ids, with one bitmask
of related spec ids per impl state; it must give the same relation, and
its log line the same initial and removed pair counts.  The third count is
the work each did (local pair re-checks in the oracle, impl-state checks
now), so it is not compared.

``_refine``'s first pass follows the ids (DFS postorder from id 0 up), so
it is also run on a seeded random renumbering of its own arguments (impl
ids, spec ids and the order of each successor list) for every compared
check and 300 random systems: the relation, mapped back, must not change.
"""

from __future__ import annotations

import logging
import random
import re

from gadgetforge import gadgets as G, lower, verify
from gadgetforge.gadgets import (
    PZ,
    Component,
    CounterGadgetSpec,
    DecNZRange,
    GadgetSpec,
    IncRange,
    SystemFormatError,
    SystemOfGadgets,
    canonicalize,
)
from gadgetforge.verify import (
    BisimReport,
    BisimVerdict,
    _default_impl_cap,
    check_bisimulation,
    derive_boundary_lts,
    distinguishing_trace,
    log,
    spec_closure_lts,
)

from test_acceptance import _RANGE_PARAMS, _spliced_duplicator
from test_verify import identity_subsystem


# ------------------------------------------------------------- the oracle

# the earlier verify._promote, whose job SystemIndex.at_rest now does
def _promote(vec: tuple, mode: str) -> tuple:
    if mode != "interval":
        return tuple(vec)
    return tuple((v, v) if isinstance(v, int) else v for v in vec)


def reference_relation(impl_states, spec_states, impl_out: dict, spec_out: dict,
                       fx: frozenset, fy: frozenset) -> set:
    """The refinement loop of the earlier check_bisimulation, verbatim."""
    # coarsest relation by refinement; frontier pairs are never killed
    relation = {(x, y) for x in impl_states for y in spec_states}

    def pair_ok(x, y) -> bool:
        xo = impl_out[x]
        yo = spec_out[y]
        for lab, xs in xo.items():
            ys = yo.get(lab)
            if not ys:
                return False
            for x2 in xs:
                if not any((x2, y2) in relation for y2 in ys):
                    return False
        for lab, ys in yo.items():
            xs = xo.get(lab)
            if not xs:
                return False
            for y2 in ys:
                if not any((x2, y2) in relation for x2 in xs):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in list(relation):
            x, y = pair
            if x in fx or y in fy:
                continue
            if not pair_ok(x, y):
                relation.discard(pair)
                changed = True
    return relation


def worklist_refine(impl_out: dict, spec_out: dict, fx: frozenset, fy: frozenset) -> dict:
    """impl state -> set of related spec states, by the refinement and the
    frontier rule of the module docstring."""
    # label sets never change, so pairs that differ in them go at the start
    by_labels: dict = {}
    for y, yo in spec_out.items():
        by_labels.setdefault(frozenset(yo), set()).add(y)
    relation = {x: set(spec_out) if x in fx else by_labels.get(frozenset(xo), set()) | fy
                for x, xo in impl_out.items()}
    initial = sum(map(len, relation.values()))

    # predecessors by label; frontier sources are never re-checked
    impl_pred: dict = {}
    for x, xo in impl_out.items():
        if x not in fx:
            for lab, xs in xo.items():
                for x2 in xs:
                    impl_pred.setdefault(x2, []).append((x, lab))
    spec_pred: dict = {}
    for y, yo in spec_out.items():
        if y not in fy:
            for lab, ys in yo.items():
                for y2 in ys:
                    spec_pred.setdefault(y2, {}).setdefault(lab, set()).add(y)

    # one full pass; a pair that fails goes on the worklist.  The union of an
    # impl move's related sets is taken once per x: if it goes stale, the
    # removal that staled it is on the worklist and re-checks the pair.
    removed = []  # pairs taken out whose predecessors are not yet re-checked
    for x, ys in relation.items():
        if x in fx:
            continue
        moves = []
        for lab, xs in impl_out[x].items():
            related = [relation[x2] for x2 in xs]
            moves.append((lab, related, set().union(*related)))
        for y in list(ys):
            if y in fy:
                continue
            yo = spec_out[y]
            # every spec move is matched by an impl move, and every impl move
            # by a spec move
            if any(not yo[lab] <= union or any(r.isdisjoint(yo[lab]) for r in related)
                   for lab, related, union in moves):
                ys.discard(y)
                removed.append((x, y))
    rechecks = 0
    while removed:
        x2, y2 = removed.pop()
        spec_in = spec_pred.get(y2)
        if spec_in is None:
            continue
        r2 = relation[x2]
        # (x, y) with x -lab-> x2 and y -lab-> y2 lost a match through
        # (x2, y2).  It fails if none of x's lab-moves is still related to
        # y2 (the same for every such y), or if x2 is now related to none
        # of y's lab-moves.
        for x, lab in impl_pred.get(x2, ()):
            ys = spec_in.get(lab)
            if ys is None:
                continue
            rx = relation[x]
            hit = ys & rx
            if not hit:
                continue
            rechecks += len(hit)
            if any(y2 in relation[x3] for x3 in impl_out[x][lab]):
                hit = [y for y in hit if r2.isdisjoint(spec_out[y][lab])]
            rx.difference_update(hit)
            removed.extend((x, y) for y in hit)
    log.info("refinement: %d initial pairs, %d removed, %d local re-checks",
             initial, initial - sum(map(len, relation.values())), rechecks)
    return relation


def _bits(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _int_tables(impl_out: dict, spec_out: dict, fx, fy) -> tuple:
    """The int-id arguments of _refine for out maps on any states, and the
    impl and spec states in id order."""
    xs, ys = list(impl_out), list(spec_out)
    x_id, y_id = {x: k for k, x in enumerate(xs)}, {y: k for k, y in enumerate(ys)}
    labels: dict = {}
    impl_succ = [{labels.setdefault(lab, len(labels)): [x_id[x2] for x2 in targets]
                  for lab, targets in impl_out[x].items()} for x in xs]
    spec_succ = [{labels.setdefault(lab, len(labels)): sum(1 << y_id[y2] for y2 in targets)
                  for lab, targets in spec_out[y].items()} for y in ys]
    return (impl_succ, spec_succ, {x_id[x] for x in fx}, sum(1 << y_id[y] for y in fy)), xs, ys


def _out_maps(impl_succ: list, spec_succ: list, fx: set, fy: int) -> tuple:
    """The out maps, on int states, that _refine's arguments stand for."""
    impl_out = {x: {lab: set(targets) for lab, targets in xo.items()}
                for x, xo in enumerate(impl_succ)}
    spec_out = {y: {lab: set(_bits(mask)) for lab, mask in yo.items()}
                for y, yo in enumerate(spec_succ)}
    return impl_out, spec_out, frozenset(fx), frozenset(_bits(fy))


def _counts(caplog) -> tuple[int, int]:
    """The initial and removed pair counts of the last refinement log line."""
    line = [r.getMessage() for r in caplog.records if "refinement" in r.getMessage()][-1]
    initial, removed, rechecks = map(int, re.findall(r"\d+", line))
    return initial, removed


def reference_check_bisimulation(impl, spec: GadgetSpec,
                                 port_map: dict[str, str] | None = None,
                                 *, cap: int, mode: str = "concrete",
                                 encoding: lower.Encoding | None = None,
                                 impl_cap: int | None = None) -> BisimReport:
    """Is the implementation system bisimilar (through its boundary ports,
    up to the cap) to the spec gadget?

    ``impl`` is a system with boundary endpoints, or any object carrying
    ``.system`` and ``.encoding`` (a lowering artifact).  ``port_map``
    translates implementation boundary port names to spec locations; by
    convention artifacts name their boundary nodes after the spec locations,
    so identity (None) usually works.  ``encoding`` maps each spec state to
    the implementation's at-rest state vector; artifacts carry their own.

    Seeds are (encoding(q), q) for every spec state q (0..cap for counter
    specs).  The verdict is Equivalent only if every seed pair survives
    refinement and at least one seed pair is clear of the cap frontier.
    """
    system = getattr(impl, "system", impl)
    if encoding is None:
        encoding = getattr(impl, "encoding", None)
    if encoding is None:
        raise SystemFormatError("no encoding given and impl carries none")
    enc = encoding.state_for

    if isinstance(spec, CounterGadgetSpec):
        spec_seed_states: list = list(range(cap + 1))
    else:
        spec_seed_states = list(spec.states)
    seed_vectors = [_promote(tuple(enc(q, mode)), mode) for q in spec_seed_states]
    if any(len(vec) != len(system.instances) for vec in seed_vectors):
        raise SystemFormatError("encoding vectors must have one state per instance")

    index = canonicalize(system, mode)
    if impl_cap is None:
        impl_cap = _default_impl_cap(index, seed_vectors, cap)

    spec_lts = spec_closure_lts(spec, cap)
    impl_lts = derive_boundary_lts(index, seed_vectors, impl_cap=impl_cap)

    # the map must be a bijection: boundary ports <-> spec locations
    if port_map is None:
        port_map = {p: p for p in impl_lts.ports}
    missing = set(impl_lts.ports) - set(port_map)
    if missing:
        raise SystemFormatError(f"port_map misses implementation ports {sorted(missing)}")
    bad = set(port_map.values()) - set(spec_lts.ports)
    if bad:
        raise SystemFormatError(f"port_map targets unknown spec locations {sorted(bad)}")
    if len(set(port_map.values())) != len(port_map):
        raise SystemFormatError("port_map is not injective")
    uncovered = set(spec_lts.ports) - set(port_map.values())
    if uncovered:
        raise SystemFormatError(
            f"port_map covers no implementation port for spec locations "
            f"{sorted(uncovered)}")

    impl_out: dict = {s: {} for s in impl_lts.states}
    for (s, a, b, s2) in impl_lts.transitions:
        impl_out[s].setdefault((port_map[a], port_map[b]), set()).add(s2)
    spec_out = spec_lts.out_map()

    fx = impl_lts.cap_frontier
    fy = spec_lts.cap_frontier

    relation = reference_relation(impl_lts.states, spec_lts.states, impl_out, spec_out,
                                  fx, fy)

    skipped = sum(1 for (x, y) in relation if x in fx or y in fy)
    seed_pairs = list(zip(seed_vectors, spec_seed_states))
    dead = [p for p in seed_pairs if p not in relation]

    if dead:
        x0, y0 = dead[0]
        trace = distinguishing_trace(impl_out, spec_out, fx, fy, x0, y0)
        log.info("not equivalent: seed %s / %s", x0, y0)
        return BisimReport(
            BisimVerdict.NOT_EQUIVALENT, cap, impl_cap, len(relation),
            len(seed_pairs), skipped, len(impl_lts.states), len(spec_lts.states),
            ((x0, y0), trace) if trace is not None else ((x0, y0), None),
            note="first dead seed pair shown")

    tainted = [1 for (x, y) in seed_pairs if x in fx or y in fy]
    if len(tainted) == len(seed_pairs) or impl_lts.truncated or spec_lts.truncated:
        why = ("every seed pair touches the cap frontier"
               if len(tainted) == len(seed_pairs) else "inner search truncated")
        return BisimReport(
            BisimVerdict.INCONCLUSIVE_AT_CAP, cap, impl_cap, len(relation),
            len(seed_pairs), skipped, len(impl_lts.states), len(spec_lts.states),
            None, note=why)

    return BisimReport(
        BisimVerdict.EQUIVALENT, cap, impl_cap, len(relation),
        len(seed_pairs), skipped, len(impl_lts.states), len(spec_lts.states),
        None,
        note=f"bounded claim at cap {cap} (impl cap {impl_cap}); "
             f"{skipped} frontier pair(s) skipped")


# -------------------------------------------------------------- the cases

def _cases():
    """(name, impl, spec, keyword arguments) of every compared check."""
    cat = G.catalog()
    yield "flow-expanded", lower.build_inc_decnz_decnz(), cat["inc-decnz-decnz"], {}
    yield "merged", lower.sim_incjzdec_via_incdecnzpz(), cat["inc-jzdec"], {}
    yield "sscd", lower.build_sscd_from_incdecnz(), cat["sscd"], {}
    yield "duplicator-no-leak", _spliced_duplicator(1, 2, 1, 2), cat["two-tunnel"], {}
    for a, b, c, d in _RANGE_PARAMS:
        yield (f"incab-{a}{b}{c}{d}", lower.sim_incdecnzpz_via_incab(a, b, c, d),
               cat["inc-decnz-pz"], {"mode": "interval"})
    for cap in (8, 12):
        yield (f"quintet-{cap}", lower.sim_incdecjz_via_incjzdec(), cat["inc-dec-jz"],
               {"cap": cap})
    quintet = lower.sim_incdecjz_via_incjzdec().system
    quintet_encoding = lower.Encoding("affine", affine=((1, 0), (1, 0), (0, 0), (0, 0), (0, 0)))
    for k in range(len(quintet.edges)):
        mutant = SystemOfGadgets(
            specs=quintet.specs, instances=quintet.instances, nodes=quintet.nodes,
            edges=quintet.edges[:k] + quintet.edges[k + 1:], boundary=quintet.boundary)
        for cap in (0, 3, 8):
            yield (f"mutant-{k}-{cap}", mutant, cat["inc-dec-jz"],
                   {"cap": cap, "encoding": quintet_encoding})
    # seeds above an explicit small impl cap
    yield ("quintet-impl-cap-4", lower.sim_incdecjz_via_incjzdec(), cat["inc-dec-jz"],
           {"impl_cap": 4})
    # a PZ tunnel from a port straight back to it: at 0 each side's
    # excursion from "a" revisits its start
    loop = CounterGadgetSpec("loop", (Component(PZ(), "a", ("a",)),
                                      Component(IncRange(1, 1), "a", ("b",)),
                                      Component(DecNZRange(1, 1), "b", ("a",))))
    identity = lower.Encoding("affine", affine=((1, 0),))
    yield "pz-loop", identity_subsystem(loop), loop, {"encoding": identity}
    # an Inc[1,1] gadget against Inc[1,2]: every impl move has its match,
    # but the spec's +2 increment has none
    yield ("inc-decnz-pz-vs-inc[1,2]", identity_subsystem(G.spec_inc_decnz_pz()),
           G.spec_inc_ab(1, 2, 1, 1), {"encoding": identity})


def test_refinement_matches_the_reference(monkeypatch, caplog):
    refined = []  # (arguments, result) of each _refine call

    def recording_refine(*args):
        relation = real_refine(*args)
        refined.append((args, relation, _counts(caplog)))
        return relation

    real_refine = verify._refine
    monkeypatch.setattr(verify, "_refine", recording_refine)
    caplog.set_level(logging.INFO, logger="gadgetforge.verify")
    verdicts, skipped = {}, 0
    for name, impl, spec, kwargs in _cases():
        kwargs = {"cap": 8, **kwargs}
        got = check_bisimulation(impl, spec, **kwargs)
        want = reference_check_bisimulation(impl, spec, **kwargs)
        assert got == want, name
        (args, relation, counts), = refined
        refined.clear()
        pairs = {(x, y) for x, ys in enumerate(relation) for y in _bits(ys)}
        out_maps = _out_maps(*args)
        assert pairs == reference_relation(*out_maps[:2], *out_maps), name
        assert pairs == {(x, y) for x, ys in worklist_refine(*out_maps).items()
                         for y in ys}, name
        assert counts == _counts(caplog), name
        verdicts.setdefault(got.verdict, []).append(name)
        skipped += got.skipped_pairs
    assert set(verdicts) == set(BisimVerdict) and skipped
    assert verdicts[BisimVerdict.NOT_EQUIVALENT][-1] == "inc-decnz-pz-vs-inc[1,2]"
    assert "pz-loop" in verdicts[BisimVerdict.EQUIVALENT]


def test_truncated_closures_give_the_reference_report(monkeypatch):
    # derive_boundary_lts with an inner budget too small for one excursion
    truncated = 0
    for budget in (1, 3):
        monkeypatch.setattr(verify, "_INNER_BUDGET", budget)
        for name, impl, spec, kwargs in list(_cases())[:4]:
            kwargs = {"cap": 6, **kwargs}
            got = check_bisimulation(impl, spec, **kwargs)
            assert got == reference_check_bisimulation(impl, spec, **kwargs), name
            truncated += got.note == "inner search truncated"
    assert truncated


def _random_out(rng, states, labels, targets=2, p=0.5) -> dict:
    """state -> {label: 1 to ``targets`` target states}, each label with
    probability ``p``; a state may have no moves."""
    return {s: {lab: set(rng.sample(states, rng.randint(1, min(targets, len(states)))))
                for lab in labels if rng.random() < p}
            for s in states}


def test_refinement_matches_the_reference_on_random_systems():
    for k in range(2000):
        rng = random.Random(k)
        labels = [("in", out) for out in "abc"[:rng.randint(1, 3)]]
        impl_states = [f"x{i}" for i in range(rng.randint(1, 6))]
        spec_states = list(range(rng.randint(1, 6)))
        impl_out = _random_out(rng, impl_states, labels)
        spec_out = _random_out(rng, spec_states, labels)
        fx = frozenset(x for x in impl_states if rng.random() < 0.2)
        fy = frozenset(y for y in spec_states if rng.random() < 0.2)
        args, xs, ys = _int_tables(impl_out, spec_out, fx, fy)
        relation = verify._refine(*args)
        pairs = {(xs[x], ys[y]) for x, mask in enumerate(relation) for y in _bits(mask)}
        assert pairs == reference_relation(impl_states, spec_states, impl_out,
                                           spec_out, fx, fy), k
        assert pairs == {(x, y) for x, related in worklist_refine(
            impl_out, spec_out, fx, fy).items() for y in related}, k


def test_refinement_matches_the_reference_on_larger_random_systems(caplog):
    # masks past 64 bits (every other case has 65 to 70 spec states), up to
    # 3 targets per label, frontier states on both sides
    caplog.set_level(logging.INFO, logger="gadgetforge.verify")
    wide = live = 0
    for k in range(400):
        rng = random.Random(k)
        labels = [("in", out) for out in "abc"[:rng.randint(1, 3)]]
        impl_states = [f"x{i}" for i in range(rng.randint(1, 12))]
        spec_states = list(range(rng.randint(65, 70) if k % 2 else rng.randint(1, 70)))
        p = rng.choice([0.5, 0.8, 1.0])
        impl_out = _random_out(rng, impl_states, labels, 3, p)
        spec_out = _random_out(rng, spec_states, labels, 3, p)
        fx = frozenset(x for x in impl_states if rng.random() < 0.2)
        fy = frozenset(y for y in spec_states if rng.random() < 0.1)
        args, xs, ys = _int_tables(impl_out, spec_out, fx, fy)
        relation = verify._refine(*args)
        counts = _counts(caplog)
        pairs = {(xs[x], ys[y]) for x, mask in enumerate(relation) for y in _bits(mask)}
        assert pairs == reference_relation(impl_states, spec_states, impl_out,
                                           spec_out, fx, fy), k
        assert pairs == {(x, y) for x, related in worklist_refine(
            impl_out, spec_out, fx, fy).items() for y in related}, k
        assert counts == _counts(caplog), k
        wide += len(spec_states) > 64
        live += any(x not in fx and y not in fy for x, y in pairs)
    assert wide >= 200 and live >= 200


def _renumbered(args: tuple, rng: random.Random) -> tuple:
    """A copy of _refine's arguments with the impl ids, the spec ids and the
    order of each successor list shuffled; also the new impl id of each old
    one and the map of a spec bitmask to new ids."""
    impl_succ, spec_succ, fx, fy = args
    new_x = rng.sample(range(len(impl_succ)), len(impl_succ))
    new_y = rng.sample(range(len(spec_succ)), len(spec_succ))

    def spec_mask(mask: int) -> int:
        return sum(1 << new_y[y] for y in _bits(mask))

    impl2: list = [None] * len(impl_succ)
    for x, xo in enumerate(impl_succ):
        impl2[new_x[x]] = {lab: rng.sample([new_x[x2] for x2 in xs], len(xs))
                           for lab, xs in xo.items()}
    spec2: list = [None] * len(spec_succ)
    for y, yo in enumerate(spec_succ):
        spec2[new_y[y]] = {lab: spec_mask(mask) for lab, mask in yo.items()}
    return (impl2, spec2, {new_x[x] for x in fx}, spec_mask(fy)), new_x, spec_mask


def test_refinement_does_not_depend_on_the_ids(monkeypatch):
    # the first pass follows the ids (DFS postorder from id 0 up), so the
    # relation must not: on a randomly renumbered copy of its arguments
    # _refine gives the same relation, mapped back; on every compared
    # check's arguments and on seeded random systems
    real_refine = verify._refine
    recorded = []
    monkeypatch.setattr(verify, "_refine", lambda *args: recorded.append(args)
                        or real_refine(*args))
    for name, impl, spec, kwargs in _cases():
        check_bisimulation(impl, spec, **{"cap": 8, **kwargs})
    for k in range(300):
        rng = random.Random(k)
        labels = [("in", out) for out in "abc"[:rng.randint(1, 3)]]
        impl_states = list(range(rng.randint(1, 12)))
        spec_states = list(range(rng.randint(1, 70)))
        impl_out = _random_out(rng, impl_states, labels, 3, rng.choice([0.5, 0.8, 1.0]))
        spec_out = _random_out(rng, spec_states, labels, 3)
        fx = frozenset(x for x in impl_states if rng.random() < 0.2)
        fy = frozenset(y for y in spec_states if rng.random() < 0.1)
        recorded.append(_int_tables(impl_out, spec_out, fx, fy)[0])
    partial = 0
    for k, args in enumerate(recorded):
        relation = real_refine(*args)
        renumbered, new_x, spec_mask = _renumbered(args, random.Random(k))
        again = real_refine(*renumbered)
        assert [again[new_x[x]] for x in range(len(relation))] == list(map(spec_mask, relation)), k
        partial += sum(r.bit_count() for r in relation) < len(args[1]) * len(relation)
    assert len(recorded) > 300 and partial > 200
