"""Unbounded-state gadgets, systems of gadgets, and their step semantics.

A *counter gadget* holds a natural number and offers tunnels/switches whose
traversability depends on that number:

    Inc[a,b]     tunnel, always open; crossing adds some i in [a,b]
    DecNZ[c,d]   tunnel, open iff state >= c; crossing subtracts i in
                 [c, min(state, d)] (never goes negative, never free)
    Dec[a,b]     tunnel, always open; subtracts i in [a,b] saturating at 0
    PZ           tunnel, open iff state == 0; state unchanged
    PNZ          tunnel, open iff state >= 1; state unchanged
    JZ           switch: one entrance, zero-exit taken iff state == 0,
                 nonzero-exit otherwise; state unchanged
    JZDec        switch: zero-exit iff state == 0; otherwise nonzero-exit
                 and the state decrements by 1

A gadget *spec* is a named bundle of such components with named ports.
Using one port name in several components merges those locations (that is
how "combine the entrances" constructions are expressed).  Finite-state
gadget specs (explicit state/location/transition tables) are also supported
so that constructions like self-closing doors can be stated as targets.

A *system* instantiates specs, adds free-standing connection nodes, and
joins endpoints with undirected edges (free travel).  The agent's position
is the connectivity class of its endpoint; a move is a single component
traversal from a class containing the component's entrance to the class of
the chosen exit.  The agent is angelic: ``successors`` enumerates every
choice as a separate labeled transition.

Two state modes share all of this machinery:

- concrete: counter-gadget states are naturals;
- interval: states are (lo, hi) pairs meaning "every value in [lo, hi] is
  possible here".  Component rules are the exact possible-set transformers
  (e.g. DecNZ[c,d] applies iff hi >= c and maps to [max(lo-d,0), hi-c]).
  With [1,1] ranges intervals stay singletons, so the modes coincide.

The mode is fixed, and an unknown one rejected, when the system is indexed:
``canonicalize(system, mode)``.  Whatever takes that index runs in its
mode; a plain SystemOfGadgets means concrete.

Endpoint strings: ``node:NAME`` for a connection node, ``INSTANCE.PORT``
for a gadget port.  Only this module reads or writes that format.
Instance ids are nonempty strings with no dots, and ``node`` (or a
``node:`` prefix) is reserved, so every endpoint splits one way.

A ``SystemOfGadgets`` is validated when it is constructed, whether it comes
from a document, a lowering pass or code: wrong types, unknown specs,
instances, nodes or ports, and bad initial states raise SystemFormatError
there, so every SystemOfGadgets value is well formed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import NamedTuple, Union

log = logging.getLogger(__name__)

__all__ = [
    "IncRange", "DecNZRange", "DecRange", "PZ", "PNZ", "JZSwitch", "JZDecSwitch",
    "ComponentKind", "Component", "CounterGadgetSpec", "FiniteGadgetSpec", "GadgetSpec",
    "GadgetInstance", "SystemOfGadgets", "SystemFormatError",
    "Configuration", "Traversal", "SystemIndex",
    "node_endpoint", "port_endpoint", "split_endpoint", "boundary_port",
    "check_state", "canonicalize", "successors", "initial_config",
    "serialize_system", "parse_system", "parse_spec", "to_dot",
    "spec_inc_dec_jz", "spec_inc_jzdec", "spec_inc_decnz", "spec_inc_decnz_pz",
    "spec_inc_decnz_pz_merged", "spec_inc_decnz_decnz", "spec_inc_ab",
    "spec_inc_ab_multi", "spec_sscd", "spec_two_tunnel", "catalog",
]


class SystemFormatError(ValueError):
    """Malformed spec/system description (construction or JSON)."""


# ---------------------------------------------------------------------------
# component kinds

Interval = tuple[int, int]


def _check_range(lo: int, hi: int) -> None:
    if not (1 <= lo <= hi):
        raise SystemFormatError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")


@dataclass(frozen=True)
class IncRange:
    """Always-open tunnel adding a chosen amount in [lo, hi]."""

    lo: int
    hi: int
    exits = 1
    tag = "inc"

    def __post_init__(self) -> None:
        _check_range(self.lo, self.hi)

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        # under a cap, stop at the first amount past it: the rest are pruned alike
        hi = self.hi if cap is None else min(self.hi, max(self.lo, cap - s + 1))
        return [(i, s + i, 0) for i in range(self.lo, hi + 1)]

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        lo, hi = iv
        return [(0, (lo + self.lo, hi + self.hi), 0)]


@dataclass(frozen=True)
class DecNZRange:
    """Tunnel open iff state >= lo; subtracts a chosen amount in
    [lo, min(state, hi)] so the state never goes negative."""

    lo: int
    hi: int
    exits = 1
    tag = "decnz"

    def __post_init__(self) -> None:
        _check_range(self.lo, self.hi)

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        if s < self.lo:
            return []
        return [(i, s - i, 0) for i in range(self.lo, min(s, self.hi) + 1)]

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        lo, hi = iv
        if hi < self.lo:
            return []
        return [(0, (max(lo - self.hi, 0), hi - self.lo), 0)]


@dataclass(frozen=True)
class DecRange:
    """Always-open tunnel subtracting a chosen amount in [lo, hi],
    saturating at 0."""

    lo: int
    hi: int
    exits = 1
    tag = "dec"

    def __post_init__(self) -> None:
        _check_range(self.lo, self.hi)

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        # under a cap, stop at the first amount that saturates: the rest repeat it
        hi = self.hi if cap is None else min(self.hi, max(self.lo, s))
        return [(i, max(s - i, 0), 0) for i in range(self.lo, hi + 1)]

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        lo, hi = iv
        return [(0, (max(lo - self.hi, 0), max(hi - self.lo, 0)), 0)]


@dataclass(frozen=True)
class PZ:
    """Tunnel open iff state == 0."""

    exits = 1
    tag = "pz"

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        return [(0, 0, 0)] if s == 0 else []

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        return [(0, (0, 0), 0)] if iv[0] == 0 else []


@dataclass(frozen=True)
class PNZ:
    """Tunnel open iff state >= 1."""

    exits = 1
    tag = "pnz"

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        return [(0, s, 0)] if s >= 1 else []

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        lo, hi = iv
        return [(0, (max(lo, 1), hi), 0)] if hi >= 1 else []


@dataclass(frozen=True)
class JZSwitch:
    """One entrance, two exits: exit 0 iff state == 0, exit 1 otherwise.
    Behaviorally PZ and PNZ glued at the entrance."""

    exits = 2
    tag = "jz"

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        return [(0, 0, 0)] if s == 0 else [(0, s, 1)]

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        lo, hi = iv
        out = []
        if lo == 0:
            out.append((0, (0, 0), 0))
        if hi >= 1:
            out.append((1, (max(lo, 1), hi), 1))
        return out


@dataclass(frozen=True)
class JZDecSwitch:
    """Like JZ, but taking the nonzero exit decrements the state.
    Behaviorally PZ and DecNZ[1,1] glued at the entrance."""

    exits = 2
    tag = "jzdec"

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        return [(0, 0, 0)] if s == 0 else [(0, s - 1, 1)]

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        lo, hi = iv
        out = []
        if lo == 0:
            out.append((0, (0, 0), 0))
        if hi >= 1:
            out.append((1, (max(lo, 1) - 1, hi - 1), 1))
        return out


ComponentKind = Union[IncRange, DecNZRange, DecRange, PZ, PNZ, JZSwitch, JZDecSwitch]

_RANGED_TAGS = {"inc": IncRange, "decnz": DecNZRange, "dec": DecRange}
_PLAIN_TAGS = {"pz": PZ, "pnz": PNZ, "jz": JZSwitch, "jzdec": JZDecSwitch}


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class Component:
    """A kind with its port names.  Tunnels take exits=(out,); switches take
    exits=(zero_exit, nonzero_exit)."""

    kind: ComponentKind
    entry: str
    exit_ports: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.exit_ports) != self.kind.exits:
            raise SystemFormatError(
                f"{self.kind.tag} needs {self.kind.exits} exit port(s), "
                f"got {self.exit_ports!r}")


@dataclass(frozen=True)
class CounterGadgetSpec:
    """A named bundle of counter components over one shared natural state."""

    name: str
    components: tuple[Component, ...]

    @property
    def locations(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for comp in self.components:
            seen.setdefault(comp.entry)
            for p in comp.exit_ports:
                seen.setdefault(p)
        return tuple(seen)


@dataclass(frozen=True)
class FiniteGadgetSpec:
    """Explicit finite gadget: states, locations, and one-step traversals
    (state, entry-location) -> (state', exit-location)."""

    name: str
    states: tuple[str, ...]
    locations: tuple[str, ...]
    transitions: tuple[tuple[str, str, str, str], ...]

    def __post_init__(self) -> None:
        for (s, a, s2, b) in self.transitions:
            if s not in self.states or s2 not in self.states:
                raise SystemFormatError(f"{self.name}: unknown state in {(s, a, s2, b)}")
            if a not in self.locations or b not in self.locations:
                raise SystemFormatError(f"{self.name}: unknown location in {(s, a, s2, b)}")


GadgetSpec = Union[CounterGadgetSpec, FiniteGadgetSpec]


# ---------------------------------------------------------------------------
# systems

@dataclass(frozen=True)
class GadgetInstance:
    id: str
    spec: str
    initial: int | str


@dataclass(frozen=True)
class SystemOfGadgets:
    specs: tuple[GadgetSpec, ...]
    instances: tuple[GadgetInstance, ...]
    nodes: tuple[str, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()
    start: str | None = None
    goal: str | None = None
    boundary: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _validate(self)

    def spec_named(self, name: str) -> GadgetSpec:
        for s in self.specs:
            if s.name == name:
                return s
        raise SystemFormatError(f"no spec named {name!r}")


def node_endpoint(name: str) -> str:
    return f"node:{name}"


def port_endpoint(instance_id: str, port: str) -> str:
    return f"{instance_id}.{port}"


def split_endpoint(ep: str) -> tuple[str, str]:
    """-> ("node", name) or (instance_id, port)."""
    if ep.startswith("node:"):
        return ("node", ep[5:])
    inst, dot, port = ep.partition(".")
    if not dot or not inst or not port:
        raise SystemFormatError(f"bad endpoint {ep!r}")
    return (inst, port)


def boundary_port(ep: str) -> str:
    """The port name a boundary endpoint stands for: NAME for ``node:NAME``,
    the endpoint itself for an instance port."""
    return ep[5:] if ep.startswith("node:") else ep


class Configuration(NamedTuple):
    """Agent position (connectivity-class id) + per-instance state vector."""

    position: int
    states: tuple


@dataclass(frozen=True)
class Traversal:
    """One component traversal: the label on a system transition."""

    instance: str
    entry: str
    exit: str
    choice: int
    before: int | str | Interval
    after: int | str | Interval


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def add(self, x: str) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class _FiniteStep:
    """A finite transition as a one-exit kind; its index is the choice."""

    before: str
    after: str
    index: int

    def moves(self, s: str, cap: int | None = None) -> list[tuple[int, str, int]]:
        return [(self.index, self.after, 0)] if s == self.before else []

    interval_moves = moves


class SystemIndex:
    """canonicalize() result: connectivity classes + the move table, in one
    state mode ("concrete" or "interval").

    Classes are numbered deterministically (sorted by their lexicographically
    least endpoint).  ``moves`` maps each class to one row per component
    (or finite transition) entered there, in (instance declaration order,
    component order), so successor enumeration is reproducible byte for
    byte.  A row is (slot, instance id, entry port, kind, exit ports, exit
    classes): everything a move needs but the state, fixed once here.
    """

    def __init__(self, system: SystemOfGadgets, mode: str = "concrete") -> None:
        if mode not in ("concrete", "interval"):
            raise SystemFormatError(f"mode must be concrete or interval, got {mode!r}")
        self.system = system
        self.interval = mode == "interval"
        uf = _UnionFind()
        for name in system.nodes:
            uf.add(node_endpoint(name))
        locations = {spec.name: spec.locations for spec in system.specs}
        for inst in system.instances:
            for loc in locations[inst.spec]:
                uf.add(port_endpoint(inst.id, loc))
        for (a, b) in system.edges:
            uf.union(a, b)

        members: dict[str, list[str]] = {}
        for ep in uf.parent:
            members.setdefault(uf.find(ep), []).append(ep)
        classes = sorted((sorted(eps) for eps in members.values()), key=lambda eps: eps[0])
        self.classes: list[tuple[str, ...]] = [tuple(eps) for eps in classes]
        self.class_of = {ep: cid for cid, eps in enumerate(self.classes) for ep in eps}

        # per spec, its entrances as (entry port, kind, exit ports)
        parts = {spec.name: ([(c.entry, c.kind, c.exit_ports) for c in spec.components]
                             if isinstance(spec, CounterGadgetSpec) else
                             [(a, _FiniteStep(s, s2, k), (b,))
                              for k, (s, a, s2, b) in enumerate(spec.transitions)])
                 for spec in system.specs}
        cls = self.class_of
        self.moves: dict[int, list[tuple]] = {}
        for i, inst in enumerate(system.instances):
            for entry, kind, exits in parts[inst.spec]:
                self.moves.setdefault(cls[port_endpoint(inst.id, entry)], []).append(
                    (i, inst.id, entry, kind, exits,
                     tuple([cls[port_endpoint(inst.id, p)] for p in exits])))

        self.start_class = self.class_of[system.start] if system.start else None
        self.goal_class = self.class_of[system.goal] if system.goal else None
        self.boundary_classes: dict[int, str] = {}
        for ep in system.boundary:
            cid = self.class_of[ep]
            if cid in self.boundary_classes:
                raise SystemFormatError(
                    f"boundary endpoints {self.boundary_classes[cid]!r} and {ep!r} "
                    "fell into the same connectivity class")
            self.boundary_classes[cid] = ep

    def endpoint_class(self, ep: str) -> int:
        return self.class_of[ep]

    def at_rest(self, vec) -> tuple:
        """A state vector in this index's mode: in interval mode each counter
        value v becomes the interval (v, v)."""
        if not self.interval:
            return tuple(vec)
        return tuple((v, v) if isinstance(v, int) else v for v in vec)

    def initial_states(self) -> tuple:
        return self.at_rest(inst.initial for inst in self.system.instances)

    def start_config(self) -> Configuration:
        if self.start_class is None:
            raise SystemFormatError("system has no start endpoint")
        return Configuration(self.start_class, self.initial_states())

    def successors(self, config: Configuration, cap: int | None = None
                   ) -> list[tuple[Traversal, Configuration]]:
        """Every move from ``config``; under a ``cap`` ranged kinds stop early."""
        states = config.states
        interval = self.interval
        out: list[tuple[Traversal, Configuration]] = []
        for (i, inst_id, entry, kind, exit_ports, exit_classes) in self.moves.get(
                config.position, ()):
            state = states[i]
            for (choice, s2, e) in (kind.interval_moves(state) if interval
                                    else kind.moves(state, cap)):
                out.append((Traversal(inst_id, entry, exit_ports[e], choice, state, s2),
                            Configuration(exit_classes[e],
                                          states[:i] + (s2,) + states[i + 1:])))
        return out


def check_state(spec: GadgetSpec, state, where: str, mode: str = "concrete") -> None:
    """The one rule for a given gadget state (initial state, bisimulation seed):
    a natural for a counter gadget, in interval mode a (lo, hi) pair of
    naturals with lo <= hi; one of its states for a finite gadget."""
    if not isinstance(spec, CounterGadgetSpec):
        if state not in spec.states:
            raise SystemFormatError(f"{where} {state!r} is not a state of {spec.name}")
        return
    pair = mode == "interval" and isinstance(state, tuple) and len(state) == 2
    lo, hi = state if pair else (state, state)
    if not (type(lo) is int and type(hi) is int and 0 <= lo <= hi):  # no bools
        want = "an interval of naturals" if mode == "interval" else "a natural"
        raise SystemFormatError(
            f"{where} of a counter gadget must be {want}, got {state!r}")


def _validate(system: SystemOfGadgets) -> None:
    """The one validity check, run by SystemOfGadgets on construction.
    Linear in specs, instances, nodes and endpoints."""
    specs: dict[str, GadgetSpec] = {}
    spec_locations: dict[str, frozenset[str]] = {}
    for spec in system.specs:
        if not isinstance(spec.name, str):
            raise SystemFormatError(f"spec name must be a string, got {spec.name!r}")
        if spec.name in specs:
            raise SystemFormatError(f"duplicate spec name {spec.name!r}")
        specs[spec.name] = spec
        # read the ports off the components: CounterGadgetSpec.locations
        # hashes them, which fails on a malformed name before it is checked
        locs = (spec.locations if isinstance(spec, FiniteGadgetSpec) else
                [p for comp in spec.components for p in (comp.entry, *comp.exit_ports)])
        if not all(isinstance(loc, str) for loc in locs):
            raise SystemFormatError(f"{spec.name}: port names must be strings")
        spec_locations[spec.name] = frozenset(locs)
    ports_of: dict[str, frozenset[str]] = {}  # instance id -> its locations
    for inst in system.instances:
        if not isinstance(inst.id, str) or "." in inst.id or not inst.id:
            raise SystemFormatError(f"bad instance id {inst.id!r} (no dots, nonempty)")
        if inst.id == "node" or inst.id.startswith("node:"):
            raise SystemFormatError(
                f"instance id {inst.id!r} is reserved: its port endpoints "
                "would read as connection nodes")
        if inst.id in ports_of:
            raise SystemFormatError(f"duplicate instance id {inst.id!r}")
        spec = specs.get(inst.spec) if isinstance(inst.spec, str) else None
        if spec is None:
            raise SystemFormatError(f"no spec named {inst.spec!r}")
        check_state(spec, inst.initial, f"{inst.id}: initial state")
        ports_of[inst.id] = spec_locations[spec.name]
    for name in system.nodes:
        if not isinstance(name, str):
            raise SystemFormatError(f"node name must be a string, got {name!r}")
    node_set = set(system.nodes)
    if len(node_set) != len(system.nodes):
        raise SystemFormatError("duplicate node name")
    if not node_set.isdisjoint(ports_of):
        raise SystemFormatError("node names and instance ids overlap")

    def check_ep(ep: str) -> None:
        if not isinstance(ep, str):
            raise SystemFormatError(f"endpoint must be a string, got {ep!r}")
        kind, rest = split_endpoint(ep)
        if kind == "node":
            if rest not in node_set:
                raise SystemFormatError(f"unknown node in endpoint {ep!r}")
        else:
            locs = ports_of.get(kind)
            if locs is None:
                raise SystemFormatError(f"unknown instance in endpoint {ep!r}")
            if rest not in locs:
                raise SystemFormatError(f"unknown port in endpoint {ep!r}")

    for (a, b) in system.edges:
        check_ep(a)
        check_ep(b)
    for ep in (system.start, system.goal):
        if ep is not None:
            check_ep(ep)
    for ep in system.boundary:
        check_ep(ep)


def canonicalize(system: SystemOfGadgets, mode: str = "concrete") -> SystemIndex:
    """Compute a system's connectivity classes and move table, once."""
    return SystemIndex(system, mode)


def initial_config(system: SystemOfGadgets) -> Configuration:
    return canonicalize(system).start_config()


def successors(system: SystemOfGadgets | SystemIndex, config: Configuration
               ) -> list[tuple[Traversal, Configuration]]:
    """Convenience wrapper; build a SystemIndex once for bulk exploration."""
    index = system if isinstance(system, SystemIndex) else canonicalize(system)
    return index.successors(config)


# ---------------------------------------------------------------------------
# JSON round trip

def _kind_to_json(kind: ComponentKind) -> dict:
    d: dict = {"kind": kind.tag}
    if isinstance(kind, (IncRange, DecNZRange, DecRange)):
        d["lo"] = kind.lo
        d["hi"] = kind.hi
    return d


def _list(value, what: str) -> list:
    """A list-valued document entry; any other JSON value is rejected
    rather than iterated (a string would split into characters)."""
    if not isinstance(value, list):
        raise SystemFormatError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _kind_from_json(d: dict) -> ComponentKind:
    if not isinstance(d, dict):
        raise SystemFormatError(f"component must be an object, got {type(d).__name__}")
    tag = d.get("kind")
    if tag in _RANGED_TAGS:
        try:
            return _RANGED_TAGS[tag](int(d["lo"]), int(d["hi"]))
        except KeyError as exc:
            raise SystemFormatError(f"{tag} component needs lo/hi") from exc
    if tag in _PLAIN_TAGS:
        return _PLAIN_TAGS[tag]()
    raise SystemFormatError(f"unknown component kind {tag!r}")


def _spec_to_json(spec: GadgetSpec) -> dict:
    if isinstance(spec, CounterGadgetSpec):
        return {
            "name": spec.name,
            "type": "counter",
            "components": [
                _kind_to_json(c.kind) | {"entry": c.entry, "exits": list(c.exit_ports)}
                for c in spec.components
            ],
        }
    return {
        "name": spec.name,
        "type": "finite",
        "states": list(spec.states),
        "locations": list(spec.locations),
        "transitions": [list(t) for t in spec.transitions],
    }


def _spec_from_json(d: dict) -> GadgetSpec:
    try:
        name = d["name"]
        if d["type"] == "counter":
            comps = tuple(
                Component(_kind_from_json(c), c["entry"], tuple(_list(c["exits"], "exits")))
                for c in _list(d["components"], "components"))
            return CounterGadgetSpec(name, comps)
        if d["type"] == "finite":
            return FiniteGadgetSpec(
                name,
                tuple(str(s) for s in _list(d["states"], "states")),
                tuple(_list(d["locations"], "locations")),
                tuple((str(a), b, str(c), e) for (a, b, c, e) in (
                    _list(t, "transition") for t in _list(d["transitions"], "transitions"))),
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SystemFormatError(f"bad spec entry: {exc}") from exc
    raise SystemFormatError(f"unknown spec type {d.get('type')!r}")


def serialize_system(system: SystemOfGadgets) -> str:
    """Deterministic JSON: equal systems serialize to identical bytes."""
    doc = {
        "specs": [_spec_to_json(s) for s in system.specs],
        "instances": [
            {"id": i.id, "spec": i.spec, "initial": i.initial}
            for i in system.instances
        ],
        "nodes": list(system.nodes),
        "edges": [list(e) for e in system.edges],
        "start": system.start,
        "goal": system.goal,
        "boundary": list(system.boundary),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_system(text: str) -> SystemOfGadgets:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SystemFormatError("top level must be an object")

    def entries(key: str) -> list:
        return _list(doc.get(key, []), key)

    try:
        return SystemOfGadgets(
            specs=tuple(_spec_from_json(s) for s in entries("specs")),
            instances=tuple(
                GadgetInstance(i["id"], i["spec"], i["initial"])
                for i in entries("instances")),
            nodes=tuple(entries("nodes")),
            edges=tuple((a, b) for (a, b) in (_list(e, "edge") for e in entries("edges"))),
            start=doc.get("start"),
            goal=doc.get("goal"),
            boundary=tuple(entries("boundary")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SystemFormatError):
            raise
        raise SystemFormatError(f"bad system document: {exc}") from exc


def parse_spec(doc: dict) -> GadgetSpec:
    """Parse one gadget spec from its JSON object form (the shape used in a
    system document's ``specs`` list)."""
    try:
        return _spec_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SystemFormatError):
            raise
        raise SystemFormatError(f"bad spec document: {exc}") from exc


# ---------------------------------------------------------------------------
# DOT export

def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(system: SystemOfGadgets) -> str:
    """Undirected DOT graph: one cluster per instance (a node per port),
    one box node per connection node, free-travel edges between them."""
    lines = ["graph system {", "  node [shape=circle, fontsize=10];"]
    for n, inst in enumerate(system.instances):
        spec = system.spec_named(inst.spec)
        lines.append(f"  subgraph cluster_{n} {{")
        lines.append(f"    label={_q(f'{inst.id} : {inst.spec} = {inst.initial}')};")
        for loc in spec.locations:
            ep = port_endpoint(inst.id, loc)
            lines.append(f"    {_q(ep)} [label={_q(loc)}];")
        lines.append("  }")
    for name in system.nodes:
        ep = node_endpoint(name)
        shape = "box"
        extra = ""
        if ep == system.goal:
            extra = ", peripheries=2"
        lines.append(f"  {_q(ep)} [shape={shape}, label={_q(name)}{extra}];")
    for (a, b) in system.edges:
        lines.append(f"  {_q(a)} -- {_q(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# standard specs

def spec_inc_dec_jz() -> CounterGadgetSpec:
    """Inc[1,1] + Dec[1,1] (saturating) + JZ switch, separate entrances."""
    return CounterGadgetSpec("inc-dec-jz", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(DecRange(1, 1), "dec_in", ("dec_out",)),
        Component(JZSwitch(), "jz_in", ("jz_out_zero", "jz_out_nonzero")),
    ))


def spec_inc_jzdec() -> CounterGadgetSpec:
    """Inc[1,1] + JZDec switch (decrement folded into the nonzero branch)."""
    return CounterGadgetSpec("inc-jzdec", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(JZDecSwitch(), "jz_in", ("jz_out_zero", "jz_out_nonzero")),
    ))


def spec_inc_decnz() -> CounterGadgetSpec:
    """Inc[1,1] + DecNZ[1,1]: decrement refuses to cross at zero."""
    return CounterGadgetSpec("inc-decnz", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(DecNZRange(1, 1), "dec_in", ("dec_out",)),
    ))


def spec_inc_decnz_pz() -> CounterGadgetSpec:
    """Inc[1,1] + DecNZ[1,1] + PZ, all with their own entrances."""
    return CounterGadgetSpec("inc-decnz-pz", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(DecNZRange(1, 1), "dec_in", ("dec_out",)),
        Component(PZ(), "pz_in", ("pz_out",)),
    ))


def spec_inc_decnz_pz_merged() -> CounterGadgetSpec:
    """Inc + DecNZ + PZ with the DecNZ and PZ entrances merged.  Port names
    deliberately match spec_inc_jzdec(): the shared entrance behaves exactly
    like the JZDec switch entrance (zero goes out the PZ side, nonzero out
    the DecNZ side), so the two specs are drop-in substitutes."""
    return CounterGadgetSpec("inc-decnz-pz-merged", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(DecNZRange(1, 1), "jz_in", ("jz_out_nonzero",)),
        Component(PZ(), "jz_in", ("jz_out_zero",)),
    ))


def spec_inc_decnz_decnz() -> CounterGadgetSpec:
    """Inc[1,1] + two DecNZ[1,1] tunnels: the "flow" gadget that sequences
    instruction execution in the machine reduction."""
    return CounterGadgetSpec("inc-decnz-decnz", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(DecNZRange(1, 1), "d0_in", ("d0_out",)),
        Component(DecNZRange(1, 1), "d1_in", ("d1_out",)),
    ))


def spec_inc_ab(a: int, b: int, c: int, d: int) -> CounterGadgetSpec:
    """Inc[a,b] + DecNZ[c,d] + PZ with separate entrances."""
    return CounterGadgetSpec(f"inc[{a},{b}]-decnz[{c},{d}]-pz", (
        Component(IncRange(a, b), "inc_in", ("inc_out",)),
        Component(DecNZRange(c, d), "dec_in", ("dec_out",)),
        Component(PZ(), "pz_in", ("pz_out",)),
    ))


def spec_inc_ab_multi(a: int, b: int, c: int, d: int,
                      n_inc: int, n_dec: int) -> CounterGadgetSpec:
    """Like spec_inc_ab but with n_inc Inc tunnels (ports inc0_in...) and
    n_dec DecNZ tunnels (dec0_in...), all over the one shared counter."""
    comps = [Component(IncRange(a, b), f"inc{k}_in", (f"inc{k}_out",))
             for k in range(n_inc)]
    comps += [Component(DecNZRange(c, d), f"dec{k}_in", (f"dec{k}_out",))
              for k in range(n_dec)]
    comps.append(Component(PZ(), "pz_in", ("pz_out",)))
    return CounterGadgetSpec(
        f"inc[{a},{b}]x{n_inc}-decnz[{c},{d}]x{n_dec}-pz", tuple(comps))


def spec_sscd() -> FiniteGadgetSpec:
    """Symmetric self-closing door: crossing L1->R1 closes tunnel 1 and
    opens tunnel 2, and vice versa."""
    return FiniteGadgetSpec(
        "sscd",
        states=("1", "2"),
        locations=("L1", "R1", "L2", "R2"),
        transitions=(("1", "L1", "2", "R1"), ("2", "L2", "1", "R2")),
    )


def spec_two_tunnel() -> FiniteGadgetSpec:
    """Two always-open independent tunnels, no state change; the contract a
    tunnel duplicator has to meet."""
    return FiniteGadgetSpec(
        "two-tunnel",
        states=("idle",),
        locations=("In0", "Out0", "In1", "Out1"),
        transitions=(("idle", "In0", "idle", "Out0"),
                     ("idle", "In1", "idle", "Out1")),
    )


def catalog() -> dict[str, GadgetSpec]:
    """The fixed named specs (parameterized families excluded)."""
    specs = [
        spec_inc_dec_jz(), spec_inc_jzdec(), spec_inc_decnz(),
        spec_inc_decnz_pz(), spec_inc_decnz_pz_merged(),
        spec_inc_decnz_decnz(), spec_sscd(), spec_two_tunnel(),
    ]
    return {s.name: s for s in specs}
