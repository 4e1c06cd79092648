"""Lowering passes: counter machines down to systems of weaker gadgets.

The passes compose, and every pass emits a LoweringArtifact: the wired
system plus the bookkeeping needed to audit it (which instance plays which
role, how an abstract state maps onto gadget states, and which construction
with which parameters produced it).

The chain, top to bottom:

  machine program          compile_machine_to_incdecjz: one Inc-Dec-JZ
                           gadget per counter, one flow gadget per
                           instruction, goal node reachable iff some HALT
                           executes
  inc-dec-jz               sim_incdecjz_via_incjzdec: five Inc-JZDec
                           gadgets replace one Inc-Dec-JZ gadget
  inc-jzdec                sim_incjzdec_via_incdecnzpz: merging the DecNZ
                           and PZ entrances of one Inc-DecNZ-PZ gadget is
                           already a JZDec switch
  inc-decnz-pz             sim_incdecnzpz_via_incab: two Inc[a,b]-
                           DecNZ[c,d]-PZ gadgets, tunnels chained so each
                           abstract step moves a fixed product of the range
                           parameters; verified in interval semantics
  (tunnel duplication)     build_edge_duplicator: two wrapper gadgets give
                           two interchangeable copies of one tunnel

plus build_sscd_from_incdecnz (a symmetric self-closing door from two
Inc-DecNZ gadgets) and emit_initializer (machine code that builds large
counter values in logarithmically many instructions, for talking about
succinct inputs).

Substitution is name-based: an artifact that simulates spec S names its
boundary nodes exactly after S's locations, so splicing it in place of an
S-instance is purely mechanical (``substitute``).  Every part is built by
``_part``, which is where that rule lives, and ``pipeline`` runs a prefix
of one list of stages, each a replaced spec and the part that replaces it.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

from .gadgets import (
    GadgetInstance,
    GadgetSpec,
    SystemFormatError,
    SystemOfGadgets,
    check_integer,
    check_state,
    node_endpoint,
    port_endpoint,
    read_json,
    serialize_system,
    spec_inc_ab,
    spec_inc_ab_multi,
    spec_inc_dec_jz,
    spec_inc_decnz,
    spec_inc_decnz_decnz,
    spec_inc_decnz_pz,
    spec_inc_decnz_pz_merged,
    spec_inc_jzdec,
    spec_sscd,
    spec_two_tunnel,
    split_endpoint,
    split_for_prefix,
)
from .machine import Dec, Fragment, Halt, Inc, Jz, Program, ProgramError

log = logging.getLogger(__name__)

__all__ = [
    "Encoding", "LoweringArtifact", "substitute",
    "compile_machine_to_incdecjz", "build_inc_decnz_decnz",
    "sim_incdecjz_via_incjzdec", "sim_incjzdec_via_incdecnzpz",
    "build_sscd_from_incdecnz", "build_edge_duplicator",
    "sim_incdecnzpz_via_incab", "emit_initializer", "pipeline",
    "export_artifact", "read_sidecar", "PIPELINE_TARGETS",
]

# chained Inc and DecNZ tunnels per sim_incdecnzpz_via_incab part, which grow
# with products of the range parameters (--range 1,300,1,1 needs 901)
_MAX_TUNNELS = 1_000
# instances plus edges of that part: a direct part has at most 1,007, a
# part expanded via duplicators 14 more per tunnel past the first four
_MAX_PARTS = 2_000


@dataclass(frozen=True)
class Encoding:
    """Maps an abstract (spec gadget or counter) state to the at-rest state
    vector of an implementation system, aligned with its instance order.

    kinds:
      affine            state_for(q) = (scale*q + offset per instance)
      table             explicit map, for finite state sets
      interval-affine   interval mode gets ((ls*q+lo, hs*q+ho) per
                        instance); concrete mode gets the canonical
                        representative from ``concrete``
    """

    kind: str
    affine: tuple[tuple[int, int], ...] | None = None
    table: tuple[tuple[int | str, tuple], ...] | None = None
    iaffine: tuple[tuple[tuple[int, int], tuple[int, int]], ...] | None = None
    concrete: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        """Each field ``kind`` reads is a tuple of pairs: of ints (not bools),
        of such int pairs (``iaffine``) or of (state, tuple) (``table``)."""
        def pairs(value, each) -> bool:
            return isinstance(value, tuple) and all(
                isinstance(p, tuple) and len(p) == 2 and each(p) for p in value)

        def ints(pair) -> bool:
            for x in pair:
                check_integer(x)  # its error names a number that is no int
            return True
        fields = {"affine": {"affine": ints}, "table": {"table": lambda p: isinstance(p[1], tuple)},
                  "interval-affine": {"iaffine": lambda p: pairs(p, ints), "concrete": ints}}
        if not isinstance(self.kind, str) or self.kind not in fields:
            raise SystemFormatError(f"unknown encoding kind {self.kind!r}")
        for name, each in fields[self.kind].items():
            if not pairs(value := getattr(self, name), each):
                raise SystemFormatError(
                    f"{self.kind} encoding needs {name} as a tuple of pairs, got {value!r:.200}")

    def state_for(self, q, mode: str = "concrete") -> tuple:
        if type(q) is not int and self.kind != "table":
            raise SystemFormatError(f"{self.kind} encoding maps counter values, not state {q!r}")
        if self.kind == "affine":
            return tuple(s * q + o for (s, o) in self.affine)
        if self.kind == "table":
            for key, vec in self.table:
                if key == q:
                    return tuple(vec)
            raise SystemFormatError(f"no encoding for state {q!r}")
        if mode == "interval":  # interval-affine
            return tuple(((ls * q + lo), (hs * q + ho)) for ((ls, lo), (hs, ho)) in self.iaffine)
        return tuple(s * q + o for (s, o) in self.concrete)

    def to_json(self) -> dict:
        if self.kind == "affine":
            return {"kind": "affine", "per_instance": [list(p) for p in self.affine]}
        if self.kind == "table":
            return {"kind": "table",
                    "map": [[k, list(v)] for k, v in self.table]}
        return {"kind": "interval-affine",
                "per_instance": [[list(l), list(h)] for (l, h) in self.iaffine],
                "concrete": [list(p) for p in self.concrete]}

    @staticmethod
    def from_json(doc: dict) -> "Encoding":
        try:
            kind = doc["kind"]
            if kind == "affine":
                return Encoding("affine", affine=tuple((s, o) for (s, o) in doc["per_instance"]))
            if kind == "table":
                return Encoding("table", table=tuple((k, tuple(v)) for (k, v) in doc["map"]))
            if kind == "interval-affine":
                return Encoding("interval-affine", iaffine=tuple(
                    ((a, b), (c, d)) for ((a, b), (c, d)) in doc["per_instance"]),
                    concrete=tuple((s, o) for (s, o) in doc["concrete"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemFormatError(f"bad encoding document: {exc}") from exc
        raise SystemFormatError(f"unknown encoding kind {doc.get('kind')!r}")


@dataclass(frozen=True)
class LoweringArtifact:
    """A lowered system plus its audit trail."""

    system: SystemOfGadgets
    roles: dict[str, str] = field(default_factory=dict)
    encoding: Encoding | None = None
    provenance: dict = field(default_factory=dict)

    def suggested_mode(self) -> str:
        return "interval" if (self.encoding is not None
                              and self.encoding.kind == "interval-affine") else "concrete"


def _dedupe_specs(specs) -> tuple[GadgetSpec, ...]:
    out: list[GadgetSpec] = []
    for s in specs:
        if s not in out:
            if any(t.name == s.name for t in out):
                raise SystemFormatError(f"conflicting definitions for spec {s.name!r}")
            out.append(s)
    return tuple(out)


def _part(specs, instances, ports, edges, *, inner=(), roles, encoding,
          provenance) -> LoweringArtifact:
    """A part that simulates a spec, by the splice rule ``substitute``
    relies on: one port per location of the simulated spec, each a
    boundary node, and the nodes are the ports first, then the inner ones."""
    system = SystemOfGadgets(
        specs=_dedupe_specs(specs),
        instances=tuple(instances),
        nodes=(*ports, *inner),
        edges=tuple(edges),
        boundary=tuple(node_endpoint(q) for q in ports),
    )
    return LoweringArtifact(system, roles=roles, encoding=encoding, provenance=provenance)


# ---------------------------------------------------------------------------
# flow gadget: Inc-DecNZ-DecNZ out of three Inc-Dec-JZ

def build_inc_decnz_decnz() -> LoweringArtifact:
    """One Inc[1,1]-DecNZ[1,1]-DecNZ[1,1] gadget built from three Inc-Dec-JZ
    gadgets.  The held value lives in ``top``.  Each DecNZ tunnel is entered
    by depositing a token in its own guard counter (mid/bot); the guard's JZ
    forces the token back out through the matching exit, and top's JZ blocks
    the crossing entirely at zero, which is exactly DecNZ's refusal."""
    idj = spec_inc_dec_jz()
    ids = ("top", "mid", "bot")
    ports = ("inc_in", "inc_out", "d0_in", "d0_out", "d1_in", "d1_out")
    edges = (
        (node_endpoint("inc_in"), port_endpoint("top", "inc_in")),
        (port_endpoint("top", "inc_out"), node_endpoint("inc_out")),
        (node_endpoint("d0_in"), port_endpoint("mid", "inc_in")),
        (port_endpoint("mid", "inc_out"), port_endpoint("top", "jz_in")),
        (node_endpoint("d1_in"), port_endpoint("bot", "inc_in")),
        (port_endpoint("bot", "inc_out"), port_endpoint("top", "jz_in")),
        (port_endpoint("top", "jz_out_nonzero"), port_endpoint("top", "dec_in")),
        (port_endpoint("top", "dec_out"), port_endpoint("mid", "jz_in")),
        (port_endpoint("top", "dec_out"), port_endpoint("bot", "jz_in")),
        (port_endpoint("mid", "jz_out_nonzero"), port_endpoint("mid", "dec_in")),
        (port_endpoint("mid", "dec_out"), node_endpoint("d0_out")),
        (port_endpoint("bot", "jz_out_nonzero"), port_endpoint("bot", "dec_in")),
        (port_endpoint("bot", "dec_out"), node_endpoint("d1_out")),
    )
    return _part(
        (idj,), (GadgetInstance(i, idj.name, 0) for i in ids), ports, edges,
        roles={"top": "value", "mid": "d0-return-guard", "bot": "d1-return-guard"},
        encoding=Encoding("affine", affine=((1, 0), (0, 0), (0, 0))),
        provenance={"construction": "flow-from-inc-dec-jz",
                    "simulates": spec_inc_decnz_decnz().name},
    )


# ---------------------------------------------------------------------------
# Inc-Dec-JZ out of five Inc-JZDec

def sim_incdecjz_via_incjzdec() -> LoweringArtifact:
    """One Inc-Dec-JZ gadget from five Inc-JZDec gadgets.

    g0 and g1 hold the value twice, in lockstep.  Saturating Dec tests g0
    (its JZDec zero exit doubles as the free pass at 0); the real decrement
    then happens on g1, with h2 escorting the agent so it cannot leave
    early.  JZ bumps h0 (a one-way turnstile that hides the test's entrance
    from the outside), tests g1, and on the nonzero branch h1 escorts the
    agent while g1 is restored via its Inc.  h0 only ever grows; h1 and h2
    always return to 0 between visits."""
    spec = spec_inc_jzdec()
    ports = ("inc_in", "inc_out", "dec_in", "dec_out",
             "jz_in", "jz_out_zero", "jz_out_nonzero")
    ids = ("g0", "g1", "h0", "h1", "h2")
    p = port_endpoint
    edges = (
        (node_endpoint("inc_in"), p("g0", "inc_in")),
        (p("g0", "inc_out"), p("g1", "inc_in")),
        (p("h1", "inc_out"), p("g1", "inc_in")),
        (p("g1", "inc_out"), p("h1", "jz_in")),
        (p("h1", "jz_out_zero"), node_endpoint("inc_out")),
        (p("h1", "jz_out_nonzero"), node_endpoint("jz_out_nonzero")),
        (node_endpoint("dec_in"), p("g0", "jz_in")),
        (p("g0", "jz_out_zero"), node_endpoint("dec_out")),
        (p("h2", "jz_out_nonzero"), node_endpoint("dec_out")),
        (p("g0", "jz_out_nonzero"), p("h2", "inc_in")),
        (p("h2", "inc_out"), p("g1", "jz_in")),
        (p("h0", "inc_out"), p("g1", "jz_in")),
        (node_endpoint("jz_in"), p("h0", "inc_in")),
        (p("g1", "jz_out_zero"), node_endpoint("jz_out_zero")),
        (p("g1", "jz_out_nonzero"), p("h2", "jz_in")),
        (p("h2", "jz_out_zero"), p("h1", "inc_in")),
    )
    return _part(
        (spec,), (GadgetInstance(i, spec.name, 0) for i in ids), ports, edges,
        roles={"g0": "value-copy-0", "g1": "value-copy-1",
               "h0": "jz-entry-turnstile", "h1": "restore-escort",
               "h2": "decrement-escort"},
        encoding=Encoding("affine",
                          affine=((1, 0), (1, 0), (0, 0), (0, 0), (0, 0))),
        provenance={"construction": "inc-dec-jz-from-inc-jzdec",
                    "simulates": spec_inc_dec_jz().name},
    )


# ---------------------------------------------------------------------------
# Inc-JZDec out of Inc-DecNZ-PZ with merged entrances

def sim_incjzdec_via_incdecnzpz() -> LoweringArtifact:
    """Routing DecNZ and PZ through one shared entrance *is* the JZDec
    switch: at 0 only the PZ side is open, at >=1 only the DecNZ side."""
    spec = spec_inc_decnz_pz_merged()
    ports = ("inc_in", "inc_out", "jz_in", "jz_out_zero", "jz_out_nonzero")
    return _part(
        (spec,), (GadgetInstance("g", spec.name, 0),), ports,
        ((node_endpoint(q), port_endpoint("g", q)) for q in ports),
        roles={"g": "counter"},
        encoding=Encoding("affine", affine=((1, 0),)),
        provenance={"construction": "jzdec-from-merged-entrances",
                    "simulates": spec_inc_jzdec().name},
    )


# ---------------------------------------------------------------------------
# symmetric self-closing door out of two Inc-DecNZ

def build_sscd_from_incdecnz() -> LoweringArtifact:
    """Crossing tunnel 1 drains latch a (one-shot: DecNZ refuses at 0) and
    arms latch b, which is what opens tunnel 2, and symmetrically."""
    spec = spec_inc_decnz()
    p = port_endpoint
    return _part(
        (spec,), (GadgetInstance("a", spec.name, 1), GadgetInstance("b", spec.name, 0)),
        ("L1", "R1", "L2", "R2"),
        ((node_endpoint("L1"), p("a", "dec_in")),
         (p("a", "dec_out"), p("b", "inc_in")),
         (p("b", "inc_out"), node_endpoint("R1")),
         (node_endpoint("L2"), p("b", "dec_in")),
         (p("b", "dec_out"), p("a", "inc_in")),
         (p("a", "inc_out"), node_endpoint("R2"))),
        roles={"a": "door-1-latch", "b": "door-2-latch"},
        encoding=Encoding("table", table=(("1", (1, 0)), ("2", (0, 1)))),
        provenance={"construction": "sscd-from-inc-decnz",
                    "simulates": spec_sscd().name},
    )


# ---------------------------------------------------------------------------
# tunnel duplication

def _duplicator_edges(prefix: str, w0: str, w1: str,
                      shared_entry: str | None,
                      shared_exit: str | None) -> tuple[list, list]:
    """Nodes and edges for one duplicator stage.  The duplicated tunnel is
    spliced between nodes E0 and E1; pass its endpoints to wire it in, or
    None to leave the splice points open."""
    n = lambda x: f"{prefix}{x}"  # noqa: E731
    p = port_endpoint
    nodes = [n("In0"), n("Out0"), n("In1"), n("Out1"), n("E0"), n("E1")]
    edges = [
        (node_endpoint(n("In0")), p(w0, "inc_in")),
        (p(w0, "inc_out"), node_endpoint(n("E0"))),
        (node_endpoint(n("In1")), p(w1, "inc_in")),
        (p(w1, "inc_out"), node_endpoint(n("E0"))),
        (node_endpoint(n("E1")), p(w0, "dec_in")),
        (node_endpoint(n("E1")), p(w1, "dec_in")),
        (p(w0, "dec_out"), p(w0, "pz_in")),
        (p(w0, "pz_out"), node_endpoint(n("Out0"))),
        (p(w1, "dec_out"), p(w1, "pz_in")),
        (p(w1, "pz_out"), node_endpoint(n("Out1"))),
    ]
    if shared_entry is not None:
        edges.append((node_endpoint(n("E0")), shared_entry))
    if shared_exit is not None:
        edges.append((shared_exit, node_endpoint(n("E1"))))
    return nodes, edges


def _require_overlap(a: int, b: int, c: int, d: int) -> None:
    if max(a, c) > min(b, d):
        raise SystemFormatError(
            f"tunnel duplication needs [a,b] and [c,d] to overlap "
            f"(the wrapper must draw an amount it can pay back exactly); "
            f"got [{a},{b}] and [{c},{d}]")


def build_edge_duplicator(a: int, b: int, c: int, d: int) -> LoweringArtifact:
    """Two interchangeable copies of one tunnel, from two Inc[a,b]-
    DecNZ[c,d]-PZ wrapper gadgets.

    The tunnel to duplicate gets spliced between nodes E0 and E1 (entry
    side E0).  Interface i is Ini -> Outi: the wrapper draws an amount s in
    [a,b] n [c,d], the agent crosses the shared tunnel once, pays s back
    exactly (anything else strands it before the PZ), and leaves.  The idle
    wrapper's DecNZ is shut at 0, so there is no cross talk; with the shared
    tunnel blocked the agent strands at E0 and no boundary transition
    exists at all."""
    for v in (a, b, c, d):
        check_integer(v, message=f"range parameters must be integers; got {(a, b, c, d)!r}")
    _require_overlap(a, b, c, d)
    wrap = spec_inc_ab(a, b, c, d)
    # standalone artifact: E0/E1 stay open splice points, no shared tunnel yet
    nodes, edges = _duplicator_edges("", "w0", "w1", None, None)
    return _part(
        (wrap,), (GadgetInstance("w0", wrap.name, 0), GadgetInstance("w1", wrap.name, 0)),
        nodes[:4], edges, inner=nodes[4:],
        roles={"w0": "interface-0-wrapper", "w1": "interface-1-wrapper"},
        encoding=Encoding("table", table=(("idle", (0, 0)),)),
        provenance={"construction": "edge-duplicator",
                    "a": a, "b": b, "c": c, "d": d,
                    "splice": ["E0", "E1"],
                    "simulates": spec_two_tunnel().name},
    )


# ---------------------------------------------------------------------------
# Inc-DecNZ-PZ out of Inc[a,b]-DecNZ[c,d]-PZ

def _chain(edges: list, head: str, hops: list[tuple[str, str]], tail: str) -> None:
    cur = head
    for (entry, exit_) in hops:
        edges.append((cur, entry))
        cur = exit_
    edges.append((cur, tail))


def sim_incdecnzpz_via_incab(a: int, b: int, c: int, d: int, *,
                             merged: bool = False,
                             expand: str = "direct") -> LoweringArtifact:
    """Inc[1,1]-DecNZ[1,1]-PZ behavior out of Inc[a,b]-DecNZ[c,d]-PZ
    gadgets (a,c >= 1).

    Two counters g0, g1 hold value n as possible-value intervals anchored at
    max(g0) = min(g1) = abcd*n.  Simulated Inc crosses a*c*d Inc tunnels of
    g0 then b*c*d of g1 (raising both anchors by abcd); simulated DecNZ
    crosses a*b*d DecNZ tunnels of g0 then a*b*c of g1; simulated PZ crosses
    g1's PZ first (min(g1) = 0 forces n = 0) then g0's.

    expand="direct" uses multi-tunnel gadget variants; "via-duplicators"
    uses single-tunnel gadgets and stacks of edge duplicators (needs
    [a,b] n [c,d] nonempty).  merged=True exposes the JZDec-style boundary
    (jz_in feeding both the DecNZ chain and the PZ chain) instead of
    separate dec/pz ports."""
    for v in (a, b, c, d):
        check_integer(v, message=f"range parameters must be integers; got {(a, b, c, d)!r}")
    if min(a, c) < 1:
        raise SystemFormatError(
            f"range parameters need a > 0 and c > 0 (Inc must add and DecNZ "
            f"must subtract at least 1); got a={a}, c={c}")
    if a > b or c > d:
        raise SystemFormatError(f"need a <= b and c <= d; got ({a},{b},{c},{d})")
    acd, abd, bcd, abc = a * c * d, a * b * d, b * c * d, a * b * c
    tunnels = acd + abd + bcd + abc
    if tunnels > _MAX_TUNNELS:
        raise SystemFormatError(
            f"range ({a},{b},{c},{d}) needs acd + abd + bcd + abc = {tunnels} "
            f"tunnels per simulated counter; at most {_MAX_TUNNELS} are built")
    # each tunnel past one per chain costs a duplicator: two wrappers, 12 edges
    duplicators = tunnels - 4 if expand == "via-duplicators" else 0
    n_instances, n_edges = 2 + 2 * duplicators, tunnels + 5 + 12 * duplicators
    if n_instances + n_edges > _MAX_PARTS:
        raise SystemFormatError(
            f"range ({a},{b},{c},{d}) expanded {expand} needs {n_instances} instances "
            f"and {n_edges} edges for {tunnels} tunnels per simulated counter; at most "
            f"{_MAX_PARTS} instances and edges are built")
    abcd = a * b * c * d
    p = port_endpoint

    specs: list[GadgetSpec] = []
    instances: list[GadgetInstance] = []
    nodes: list[str] = []
    edges: list = []
    roles: dict[str, str] = {"g0": "low-anchor", "g1": "high-anchor"}

    if expand == "direct":
        g0spec = spec_inc_ab_multi(a, b, c, d, acd, abd)
        g1spec = spec_inc_ab_multi(a, b, c, d, bcd, abc)
        specs += [g0spec, g1spec]
        instances += [GadgetInstance("g0", g0spec.name, 0),
                      GadgetInstance("g1", g1spec.name, 0)]
        inc_hops = ([(p("g0", f"inc{k}_in"), p("g0", f"inc{k}_out")) for k in range(acd)]
                    + [(p("g1", f"inc{k}_in"), p("g1", f"inc{k}_out")) for k in range(bcd)])
        dec_hops = ([(p("g0", f"dec{k}_in"), p("g0", f"dec{k}_out")) for k in range(abd)]
                    + [(p("g1", f"dec{k}_in"), p("g1", f"dec{k}_out")) for k in range(abc)])
    elif expand == "via-duplicators":
        _require_overlap(a, b, c, d)
        base = spec_inc_ab(a, b, c, d)
        wrap = base
        specs += [base]
        instances += [GadgetInstance("g0", base.name, 0),
                      GadgetInstance("g1", base.name, 0)]

        def leaves(gid: str, tunnel: str, count: int, tag: str
                   ) -> list[tuple[str, str]]:
            """count interchangeable copies of one tunnel of gadget gid,
            stacking count-1 duplicators."""
            cur = (p(gid, f"{tunnel}_in"), p(gid, f"{tunnel}_out"))
            if count == 1:
                return [cur]
            out = []
            for j in range(count - 1):
                prefix = f"{gid}/{tag}{j}/"
                w0, w1 = f"{gid}-{tag}{j}-w0", f"{gid}-{tag}{j}-w1"
                instances.append(GadgetInstance(w0, wrap.name, 0))
                instances.append(GadgetInstance(w1, wrap.name, 0))
                roles[w0] = roles[w1] = f"duplicator-wrapper/{gid}/{tunnel}"
                dn, de = _duplicator_edges(prefix, w0, w1, cur[0], cur[1])
                nodes.extend(dn)
                edges.extend(de)
                out.append((node_endpoint(f"{prefix}In0"), node_endpoint(f"{prefix}Out0")))
                cur = (node_endpoint(f"{prefix}In1"), node_endpoint(f"{prefix}Out1"))
            out.append(cur)
            return out

        inc_hops = leaves("g0", "inc", acd, "i") + leaves("g1", "inc", bcd, "i")
        dec_hops = leaves("g0", "dec", abd, "d") + leaves("g1", "dec", abc, "d")
    else:
        raise SystemFormatError(f"unknown expand mode {expand!r}")

    pz_hops = [(p("g1", "pz_in"), p("g1", "pz_out")),
               (p("g0", "pz_in"), p("g0", "pz_out"))]

    if merged:
        ports = ("inc_in", "inc_out", "jz_in", "jz_out_zero", "jz_out_nonzero")
        chains = [("inc_in", "inc_out"), ("jz_in", "jz_out_nonzero"), ("jz_in", "jz_out_zero")]
        simulates = spec_inc_decnz_pz_merged().name
    else:
        ports = ("inc_in", "inc_out", "dec_in", "dec_out", "pz_in", "pz_out")
        chains = [("inc_in", "inc_out"), ("dec_in", "dec_out"), ("pz_in", "pz_out")]
        simulates = spec_inc_decnz_pz().name
    for (head, tail), hops in zip(chains, (inc_hops, dec_hops, pz_hops)):
        _chain(edges, node_endpoint(head), hops, node_endpoint(tail))

    n_wrappers = len(instances) - 2
    ia = [((a * acd, 0), (abcd, 0)), ((abcd, 0), (b * bcd, 0))]
    ia += [((0, 0), (0, 0))] * n_wrappers
    conc = [(abcd, 0), (abcd, 0)] + [(0, 0)] * n_wrappers
    return _part(
        specs, instances, ports, edges, inner=nodes,
        roles=roles,
        encoding=Encoding("interval-affine", iaffine=tuple(ia), concrete=tuple(conc)),
        provenance={"construction": "inc-decnz-pz-from-inc-ab",
                    "a": a, "b": b, "c": c, "d": d,
                    "expand": expand, "merged": merged,
                    "anchor": abcd, "simulates": simulates},
    )


# ---------------------------------------------------------------------------
# machine -> gadgets

def compile_machine_to_incdecjz(program: Program,
                                initial: dict[str, int] | None = None,
                                flow: str = "primitive") -> LoweringArtifact:
    """One Inc-Dec-JZ gadget per counter, one flow gadget per non-HALT
    instruction, a start node wired to instruction 0 and a goal node
    standing in for every HALT.  The agent can reach the goal iff the
    machine run (from the given initial counter values) executes a HALT;
    falling off the end strands the agent instead.

    Flow gadget i guards instruction i: entering crosses its Inc (arming
    it), the counter operation happens, and the only way onward is back
    through one of i's DecNZ tunnels.  Counter exits are pooled: every
    counter exit connects to the d0 return of *every* instruction gadget
    (and every jz zero exit to every d1 return), which is safe because all
    unarmed instructions' returns are shut.  d1 carries the jump branch of
    JZ instructions, d0 everything else.

    flow="primitive" keeps flow gadgets as single Inc-DecNZ-DecNZ
    instances; flow="expanded" builds each from three more Inc-Dec-JZ
    gadgets (build_inc_decnz_decnz), leaving a pure Inc-Dec-JZ system.
    """
    if not isinstance(program, Program):
        raise ProgramError(f"program must be a Program, got {type(program).__name__}")
    if flow not in ("primitive", "expanded"):
        raise SystemFormatError(f"unknown flow mode {flow!r}")
    if not isinstance(initial, (dict, type(None))):
        raise SystemFormatError(
            f"initial values must be a dict or None, got {type(initial).__name__}")
    initial = dict(initial or {})
    unknown = set(initial) - set(program.counters)
    if unknown:
        raise SystemFormatError(
            f"initial values for unknown counters {sorted(unknown, key=repr)}")
    idj = spec_inc_dec_jz()
    flow_spec = spec_inc_decnz_decnz()
    p = port_endpoint

    instances = [GadgetInstance(f"c:{name}", idj.name, initial.get(name, 0))
                 for name in program.counters]
    roles = {f"c:{name}": f"counter:{name}" for name in program.counters}
    flows: dict[int, str] = {}
    for i, ins in enumerate(program.instructions):
        if isinstance(ins, Halt):
            continue
        fid = f"i:{i}"
        flows[i] = fid
        instances.append(GadgetInstance(fid, flow_spec.name, 0))
        roles[fid] = f"instruction:{i}:{type(ins).__name__.lower()}"

    def entrance(i: int) -> str:
        """Endpoint standing for 'control arrives at instruction i'.
        Empty string means falling off the end: no edge at all."""
        if i >= len(program.instructions):
            return ""
        if isinstance(program.instructions[i], Halt):
            return node_endpoint("goal")
        return p(flows[i], "inc_in")

    edges: list[tuple[str, str]] = []

    def wire(src: str, dst: str) -> None:
        if src and dst:
            edges.append((src, dst))

    wire(node_endpoint("start"), entrance(0))
    # instruction gadget -> its counter's operation entrance
    for i, ins in enumerate(program.instructions):
        if isinstance(ins, Halt):
            continue
        cid = f"c:{ins.counter}"
        op_in = {"Inc": "inc_in", "Dec": "dec_in", "Jz": "jz_in"}[type(ins).__name__]
        wire(p(flows[i], "inc_out"), p(cid, op_in))
    # pooled returns: every counter exit to every instruction gadget's
    # matching return tunnel
    for i in sorted(flows):
        for name in program.counters:
            cid = f"c:{name}"
            wire(p(cid, "inc_out"), p(flows[i], "d0_in"))
            wire(p(cid, "dec_out"), p(flows[i], "d0_in"))
            wire(p(cid, "jz_out_nonzero"), p(flows[i], "d0_in"))
            wire(p(cid, "jz_out_zero"), p(flows[i], "d1_in"))
    # fall-through chain and jump targets
    for i in sorted(flows):
        wire(p(flows[i], "d0_out"), entrance(i + 1))  # none past the last instruction
    for i in sorted(flows):
        ins = program.instructions[i]
        if isinstance(ins, Jz):
            wire(p(flows[i], "d1_out"), entrance(ins.target))

    system = SystemOfGadgets(
        specs=_dedupe_specs([idj] + ([flow_spec] if flows else [])),
        instances=tuple(instances),
        nodes=("start", "goal"),
        edges=tuple(edges),
        start=node_endpoint("start"),
        goal=node_endpoint("goal"),
    )
    artifact = LoweringArtifact(
        system,
        roles=roles,
        encoding=None,
        provenance={"construction": "machine-to-gadgets", "flow": flow,
                    "instructions": len(program.instructions),
                    "counters": list(program.counters)},
    )
    if flow == "expanded" and flows:
        artifact = substitute(artifact, flow_spec.name, _constant_part(build_inc_decnz_decnz))
    return artifact


@cache
def _constant_part(build) -> LoweringArtifact:
    """``build()``, built on first use and kept for the process: a part that
    takes no parameters is the same every time.  Only ``substitute`` reads
    it, and it writes nothing into a part, so the public builders still
    hand every caller dicts of its own."""
    return build()


# ---------------------------------------------------------------------------
# substitution

def substitute(host: LoweringArtifact, spec_name: str,
               part: LoweringArtifact) -> LoweringArtifact:
    """Replace every instance of ``spec_name`` in the host with a copy of
    the ``part`` artifact (which must simulate that spec: its boundary
    nodes are named after the spec's locations).  Copies are namespaced by
    the replaced instance's id; the replaced instance's state seeds the
    copy through the part's encoding.

    The output is valid by the splice rule, so ``_validate`` does not run
    on it: host and part are valid systems, the part's boundary is nodes
    named exactly after the spec's locations, every instance id and node
    name of the output is fresh, and every seeded copy holds a state of
    its gadget.  Every edge then joins endpoints that exist.  The tests
    run the full validator on substitute outputs as the oracle.  A seed is
    made and checked once per distinct host state (int or str, else every
    time), so a bad one is named by the first copy of that state."""
    if not (isinstance(host, LoweringArtifact) and isinstance(part, LoweringArtifact)):
        raise SystemFormatError("substitute takes a host and a part LoweringArtifact")
    if not isinstance(spec_name, str):
        raise SystemFormatError(f"spec name must be a string, got {type(spec_name).__name__}")
    hsys = host.system
    target_spec = hsys.spec_of.get(spec_name)
    if target_spec is None:
        raise SystemFormatError(f"no spec named {spec_name!r}")
    psys = part.system
    if psys.start or psys.goal:
        raise SystemFormatError("substitution part must not carry start/goal")
    if any(split_endpoint(ep)[0] != "node" for ep in psys.boundary):
        raise SystemFormatError("substitution part boundary must be nodes")
    part_boundary_names = set(psys.boundary_ports)
    if part_boundary_names != set(target_spec.locations):
        raise SystemFormatError(
            f"part boundary {sorted(part_boundary_names)} does not match "
            f"{spec_name} locations {sorted(target_spec.locations)}")
    if part.encoding is None:
        raise SystemFormatError("substitution part needs an encoding")

    replaced = [inst for inst in hsys.instances if inst.spec == spec_name]
    kept = [inst for inst in hsys.instances if inst.spec != spec_name]

    out_instances: list[GadgetInstance] = list(kept)
    out_nodes: list[str] = list(hsys.nodes)
    out_edges: list[tuple[str, str]] = []
    roles = {i.id: host.roles.get(i.id, "") for i in kept}

    # the replaced instances' ports become nodes named INSTANCE/PORT; the
    # part's endpoints are copied under the prefix INSTANCE/
    hoisted: dict[str, str] = {}
    part_edges = [(*split_for_prefix(ea), *split_for_prefix(eb)) for ea, eb in psys.edges]
    subs = [(sub.id, sub.spec, part.roles.get(sub.id, "")) for sub in psys.instances]
    seeds: dict[tuple | None, tuple] = {}  # (type, host state) -> its checked seed

    for x in replaced:
        prefix = f"{x.id}/"
        # x.PORT and node:x/PORT are each an endpoint prefix plus PORT
        port, node = port_endpoint(x.id, ""), node_endpoint(prefix)
        for loc in target_spec.locations:
            hoisted[port + loc] = node + loc
        q = x.initial
        key = (type(q), q) if type(q) in (int, str) else None
        if key is None or (seed := seeds.get(key)) is None:
            seed = part.encoding.state_for(q, "concrete")
            if len(seed) != len(subs):
                raise SystemFormatError("part encoding arity mismatch")
            for (sub_id, sub_spec, _), s0 in zip(subs, seed):
                check_state(psys.spec_of[sub_spec], s0, prefix, sub_id, ": initial state")
            seeds[key] = seed
        role = host.roles.get(x.id, x.id)
        for (sub_id, sub_spec, sub_role), s0 in zip(subs, seed):
            out_instances.append(GadgetInstance(prefix + sub_id, sub_spec, s0))
            roles[prefix + sub_id] = f"{role}/{sub_role}" if sub_role else role
        out_nodes += [prefix + n for n in psys.nodes]
        out_edges += [(ha + prefix + ta, hb + prefix + tb) for ha, ta, hb, tb in part_edges]

    out_edges += [(hoisted.get(ea, ea), hoisted.get(eb, eb)) for ea, eb in hsys.edges]
    names = [i.id for i in out_instances] + out_nodes
    if len(set(names)) != len(names):  # e.g. a host node g0/x beside a copy of part node x
        reused = sorted(n for n, k in Counter(names).items() if k > 1)
        raise SystemFormatError(
            f"substitution reuses instance ids or node names: {reused}")

    needed = {i.spec for i in out_instances}
    out_specs = _dedupe_specs(
        [s for s in hsys.specs if s.name in needed]
        + [s for s in psys.specs if s.name in needed])

    system = SystemOfGadgets._spliced(
        specs=out_specs,
        instances=tuple(out_instances),
        nodes=tuple(out_nodes),
        edges=tuple(out_edges),
        start=hoisted.get(hsys.start, hsys.start),
        goal=hoisted.get(hsys.goal, hsys.goal),
        boundary=tuple(hoisted.get(ep, ep) for ep in hsys.boundary),
    )
    provenance = dict(host.provenance)
    subs = list(provenance.get("substitutions", []))
    subs.append({"replaced": spec_name,
                 "with": part.provenance.get("construction", "?"),
                 "copies": len(replaced)})
    provenance["substitutions"] = subs
    return LoweringArtifact(system, roles=roles, encoding=host.encoding,
                            provenance=provenance)


# ---------------------------------------------------------------------------
# initializer fragments

def emit_initializer(values) -> Fragment:
    """Machine code that sets counters to the given values and falls
    through.  ``values`` is a dict name -> value or a list (counters then
    named c0, c1, ...).

    Values up to 7 are plain INC runs.  Larger values are built in binary,
    most significant bit first: double by draining between the target and
    one scratch counter (init_tmp), add one INC per set bit.  The doubling
    loop's backward jump needs a counter that is always 0; init_zero is
    reserved for that.  Instruction count is O(log value) per counter,
    inside 8*(floor(log2(v+1)) + 1)."""
    if isinstance(values, (list, tuple)):
        values = {f"c{i}": v for i, v in enumerate(values)}
    elif not (isinstance(values, dict) and all(isinstance(k, str) for k in values)):
        raise SystemFormatError(
            "initializer values must be a dict with string names, a list or a tuple")
    for name, v in values.items():
        check_integer(v, 0, f"{name}: initializer values must be naturals")
    if {"init_tmp", "init_zero"} & set(values):
        raise SystemFormatError("counter names init_tmp/init_zero are reserved")

    code: list = []
    counters = list(values)
    if any(v > 7 for v in values.values()):
        counters += ["init_tmp", "init_zero"]

    for name, v in values.items():
        if v == 0:
            continue
        if v <= 7:
            code.extend(Inc(name) for _ in range(v))
            continue
        bits = bin(v)[2:]
        # value must land in `name` after len(bits)-1 ping-pong doublings
        here = name if (len(bits) - 1) % 2 == 0 else "init_tmp"
        other = "init_tmp" if here == name else name
        code.append(Inc(here))  # the leading 1 bit
        src, dst = here, other
        for bit in bits[1:]:
            loop = len(code)
            code.append(Jz(src, loop + 5))   # drained -> continue below
            code.append(Dec(src))
            code.append(Inc(dst))
            code.append(Inc(dst))
            code.append(Jz("init_zero", loop))  # unconditional back jump
            if bit == "1":
                code.append(Inc(dst))
            src, dst = dst, src
        assert src == name, "doubling parity bug"
    return Fragment(tuple(counters), tuple(code))


# ---------------------------------------------------------------------------
# pipeline

PIPELINE_TARGETS = ("inc-dec-jz", "inc-jzdec", "inc-decnz-pz", "inc-ab")

# (replaced spec, part builder) below the expanded compile, one per target
# past inc-dec-jz.  The builders are looked up when a stage runs, so a
# patched module attribute is the one called.
_STAGES = (
    (spec_inc_dec_jz().name,
     lambda range_params, expand: _constant_part(sim_incdecjz_via_incjzdec)),
    (spec_inc_jzdec().name,
     lambda range_params, expand: _constant_part(sim_incjzdec_via_incdecnzpz)),
    (spec_inc_decnz_pz_merged().name,
     lambda range_params, expand: sim_incdecnzpz_via_incab(
         *range_params, merged=True, expand=expand)),
)


def pipeline(program: Program, target: str,
             initial: dict[str, int] | None = None,
             range_params: tuple[int, int, int, int] | None = None,
             expand: str = "direct") -> LoweringArtifact:
    """Compile a machine all the way down to the chosen gadget family.

    inc-dec-jz keeps the primitive flow gadget.  Every further target first
    expands flows into pure Inc-Dec-JZ, then substitutes construction by
    construction: five Inc-JZDec per Inc-Dec-JZ; one merged-entrance
    Inc-DecNZ-PZ per Inc-JZDec; two chained Inc[a,b]-DecNZ[c,d]-PZ counters
    per merged gadget (inc-ab needs range_params=(a,b,c,d))."""
    if target not in PIPELINE_TARGETS:
        raise SystemFormatError(
            f"unknown target {target!r}; expected one of {PIPELINE_TARGETS}")
    if target == "inc-ab" and not (isinstance(range_params, (list, tuple))
                                   and len(range_params) == 4):
        raise SystemFormatError("target inc-ab needs range_params=(a,b,c,d)")
    if target == "inc-dec-jz":
        return compile_machine_to_incdecjz(program, initial, flow="primitive")
    art = compile_machine_to_incdecjz(program, initial, flow="expanded")
    for replaced, build in _STAGES[:PIPELINE_TARGETS.index(target)]:
        # every part is built, so its arguments are checked; a program with
        # no counters compiles to a bare start->goal system, with nothing to
        # replace
        part = build(range_params, expand)
        if replaced in art.system.spec_of:
            art = substitute(art, replaced, part)
    return art


# ---------------------------------------------------------------------------
# artifact export

def export_artifact(artifact: LoweringArtifact, path: str) -> tuple[str, str]:
    """Write system JSON to ``path`` and the audit sidecar (roles, encoding,
    provenance, identity port map, suggested verification mode) next to it.
    Returns (system_path, meta_path)."""
    with open(path, "w") as fh:
        fh.write(serialize_system(artifact.system))
    meta = {
        "roles": artifact.roles,
        "encoding": artifact.encoding.to_json() if artifact.encoding else None,
        "provenance": artifact.provenance,
        "ports": {p: p for p in artifact.system.boundary_ports},
        "mode": artifact.suggested_mode(),
    }
    meta_path = path + ".meta.json"
    with open(meta_path, "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path, meta_path


def read_sidecar(path: str) -> tuple[dict[str, str] | None, Encoding | None, str | None]:
    """(port map, encoding, mode) from a sidecar that export_artifact wrote,
    each None where it is left out; the mode is checked when indexing."""
    with open(path) as fh:
        doc = read_json(fh.read())
    if not isinstance(doc, dict):
        raise SystemFormatError("sidecar must be a JSON object")
    ports, encoding = doc.get("ports"), doc.get("encoding")
    if ports is not None and not (isinstance(ports, dict) and all(
            isinstance(v, str) for v in ports.values())):
        raise SystemFormatError("sidecar ports must map port names to spec locations")
    return ports, Encoding.from_json(encoding) if encoding else None, doc.get("mode")
