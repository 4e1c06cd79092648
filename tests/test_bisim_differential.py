"""Differential test of the bisimulation refinement against the one it replaced.

The oracle below is the earlier ``check_bisimulation``, kept verbatim except
that its refinement loop sits in ``reference_relation``: a fixpoint over a
set of (impl state, spec state) pairs, with a "missing label" loop and an
``any`` scan over the pair set for each direction of the match.  The current
code keeps one set of related spec states per impl state.  Both must give
the same ``BisimReport`` and the same relation, pair for pair, on every
criterion-3 artifact, the quintet at a larger cap, every criterion-5
single-edge mutant, and a case that is NotEquivalent only through the
spec-to-impl direction of the match.
"""

from __future__ import annotations

from typing import Callable

from gadgetforge import gadgets as G, lower, verify
from gadgetforge.gadgets import (
    CounterGadgetSpec,
    GadgetSpec,
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


def reference_check_bisimulation(impl, spec: GadgetSpec,
                                 port_map: dict[str, str] | None = None,
                                 *, cap: int, mode: str = "concrete",
                                 encoding: Callable | None = None,
                                 impl_cap: int | None = None,
                                 inner_budget: int = 200_000) -> BisimReport:
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
    enc = encoding.state_for if hasattr(encoding, "state_for") else encoding

    if isinstance(spec, CounterGadgetSpec):
        spec_seed_states: list = list(range(cap + 1))
    else:
        spec_seed_states = list(spec.states)
    seed_vectors = [_promote(tuple(enc(q, mode)), mode) for q in spec_seed_states]
    if any(len(vec) != len(system.instances) for vec in seed_vectors):
        raise SystemFormatError("encoding vectors must have one state per instance")

    if impl_cap is None:
        impl_cap = _default_impl_cap(seed_vectors, cap)

    spec_lts = spec_closure_lts(spec, cap)
    impl_lts = derive_boundary_lts(canonicalize(system, mode), seed_vectors,
                                   impl_cap=impl_cap, inner_budget=inner_budget)

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
    for k in range(len(quintet.edges)):
        mutant = SystemOfGadgets(
            specs=quintet.specs, instances=quintet.instances, nodes=quintet.nodes,
            edges=quintet.edges[:k] + quintet.edges[k + 1:], boundary=quintet.boundary)
        for cap in (0, 3, 8):
            yield (f"mutant-{k}-{cap}", mutant, cat["inc-dec-jz"],
                   {"cap": cap, "encoding": lambda q, mode: (q, q, 0, 0, 0)})
    # an Inc[1,1] gadget against Inc[1,2]: every impl move has its match,
    # but the spec's +2 increment has none
    yield ("inc-decnz-pz-vs-inc[1,2]", identity_subsystem(G.spec_inc_decnz_pz()),
           G.spec_inc_ab(1, 2, 1, 1), {"encoding": lambda q, mode: (q,)})


def test_refinement_matches_the_reference(monkeypatch):
    refined = []  # (arguments, result) of each _refine call

    def recording_refine(*args):
        relation = real_refine(*args)
        refined.append((args, relation))
        return relation

    real_refine = verify._refine
    monkeypatch.setattr(verify, "_refine", recording_refine)
    verdicts, skipped = {}, 0
    for name, impl, spec, kwargs in _cases():
        kwargs = {"cap": 8, **kwargs}
        got = check_bisimulation(impl, spec, **kwargs)
        want = reference_check_bisimulation(impl, spec, **kwargs)
        assert got == want, name
        (args, relation), = refined
        refined.clear()
        impl_out, spec_out = args[:2]
        pairs = {(x, y) for x, ys in relation.items() for y in ys}
        assert pairs == reference_relation(impl_out, spec_out, *args), name
        verdicts.setdefault(got.verdict, []).append(name)
        skipped += got.skipped_pairs
    assert set(verdicts) == set(BisimVerdict) and skipped
    assert verdicts[BisimVerdict.NOT_EQUIVALENT][-1] == "inc-decnz-pz-vs-inc[1,2]"
