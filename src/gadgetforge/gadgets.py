"""Unbounded-state gadgets, systems of gadgets, and their step semantics.

A *counter gadget* holds a natural number and offers components whose
traversability depends on that number.  Each kind follows one of two rules:

- a ranged tunnel crosses by a chosen amount i in [lo, hi], 1 <= lo <= hi:
      Inc[a,b]     always open; adds i
      DecNZ[c,d]   open iff state >= c; subtracts i in [c, min(state, d)]
                   (never goes negative, never free)
      Dec[a,b]     always open; subtracts i, saturating at 0
- a zero test leaves by its zero exit iff state == 0, the state staying 0,
  and else by its nonzero exit, subtracting its step down; a missing exit
  is closed:
      PZ           tunnel: zero exit only
      PNZ          tunnel: nonzero exit only, step 0
      JZ           switch: zero exit 0, nonzero exit 1, step 0
      JZDec        switch: zero exit 0, nonzero exit 1, step 1

Each kind's ``floor`` T is the least value from which the kind acts the
same on every value: for s >= T, ``moves(s + 1)`` is ``moves(s)`` with every
new value + 1 and the same choices and exits, and ``interval_moves`` acts
alike on an interval whose lo is at least T.  A ranged tunnel's floor is
hi, except Inc's, which is 0; a zero test's is 1 (``verify`` reuses
boundary excursions by it).  ``move(s, choice)`` is the one move of
``moves(s)`` with that choice, if any, built alone: a replay step costs the
same however wide the range.  ``ComponentKind``, the seven kinds, and
``GadgetSpec``, the counter and finite specs, are PEP 604 unions, which
``isinstance`` and ``get_args`` read.

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
  With [1,1] ranges intervals stay singletons, and a move's choice and
  exit are its concrete twin's, so the modes coincide: an interval
  witness with each (v, v) read as v is the concrete witness.

The mode is fixed, and an unknown one rejected, when the system is indexed:
``canonicalize(system, mode)``.  Whatever takes that index runs in its
mode; a plain SystemOfGadgets means concrete.

Endpoint strings: ``node:NAME`` for a connection node, ``INSTANCE.PORT``
for a gadget port.  Only this module reads or writes that format.
Instance ids are nonempty strings with no dots, and ``node`` (or a
``node:`` prefix) is reserved, so every endpoint splits one way.  Each
endpoint string is read once, into one integer table: the nodes in order,
then each instance's locations, in spec order, from its offset
(``SystemOfGadgets.endpoints``, built by ``_validate``, or by the first
index of a ``lower.substitute`` output).  The index reads only numbers:
its union-find, class ids and move table all run on them.

A ``SystemOfGadgets`` is validated when it is constructed, whether it comes
from a document, a lowering pass or code: wrong types, unknown specs,
instances, nodes or ports, and bad initial states raise SystemFormatError
there, so every SystemOfGadgets value is well formed, as are the specs,
components and kinds it holds.  The one exception is ``lower.substitute``,
whose splice of valid systems is valid by the checks it makes on its
inputs.  ``read_json`` reads every JSON document.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from dataclasses import asdict, dataclass, fields
from functools import cache, cached_property
from itertools import chain, count
from typing import NamedTuple, NoReturn, get_args

log = logging.getLogger(__name__)

__all__ = [
    "IncRange", "DecNZRange", "DecRange", "PZ", "PNZ", "JZSwitch", "JZDecSwitch",
    "ComponentKind", "Component", "CounterGadgetSpec", "FiniteGadgetSpec", "GadgetSpec",
    "GadgetInstance", "SystemOfGadgets", "SystemFormatError",
    "Configuration", "Traversal", "SystemIndex", "KeyCodec",
    "node_endpoint", "port_endpoint", "split_endpoint", "split_for_prefix",
    "boundary_port",
    "check_integer", "check_mode", "check_state", "canonicalize",
    "serialize_system", "read_json", "parse_system", "parse_spec", "to_dot",
    "spec_inc_dec_jz", "spec_inc_jzdec", "spec_inc_decnz", "spec_inc_decnz_pz",
    "spec_inc_decnz_pz_merged", "spec_inc_decnz_decnz", "spec_inc_ab",
    "spec_inc_ab_multi", "spec_sscd", "spec_two_tunnel", "catalog",
]


class SystemFormatError(ValueError):
    """Malformed spec/system description (construction or JSON)."""


# ---------------------------------------------------------------------------
# component kinds

Interval = tuple[int, int]


def check_integer(value, low: int | None = None, message: str | None = None) -> int:
    """A range bound, a document number, a cap or a budget: an int (not a
    bool or a float), at least ``low`` if given; ``message`` is the error's."""
    if type(value) is not int or (low is not None and value < low):
        raise SystemFormatError(message or f"{value!r} is not an integer"
                                + ("" if low is None else f" >= {low}"))
    return value


def check_mode(mode) -> None:
    """A state mode of an index: "concrete" or "interval"."""
    if mode not in ("concrete", "interval"):
        raise SystemFormatError(f"mode must be concrete or interval, got {mode!r}")


@dataclass(frozen=True)
class _Ranged:
    """A tunnel that draws its amount from [lo, hi], 1 <= lo <= hi; it acts
    alike from its floor hi up (Inc's is 0).  Its kinds add no field, so
    they inherit the methods generated here: ``__slots__`` keeps them
    immutable, and ``__reduce__`` rebuilds a copy or a pickle through
    ``__init__``, as the frozen ``__setattr__`` refuses field-by-field
    filling."""

    __slots__ = ("lo", "hi")
    lo: int
    hi: int
    exits = 1

    def __post_init__(self) -> None:
        if not (1 <= check_integer(self.lo) <= check_integer(self.hi)):
            raise SystemFormatError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def __reduce__(self):
        return type(self), (self.lo, self.hi)

    @property
    def floor(self) -> int:
        return self.hi

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        # one move or none; its choice is a one-amount range's amount, as in moves, else 0
        hull = self.hull(*iv)
        return [] if hull is None else [(self.lo if self.lo == self.hi else 0, hull, 0)]


class IncRange(_Ranged):
    """Always-open tunnel adding a chosen amount in [lo, hi]."""

    __slots__ = ()
    tag = "inc"
    floor = 0

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        # under a cap, stop at the first amount past it: the rest are pruned alike
        hi = self.hi if cap is None else min(self.hi, max(self.lo, cap - s + 1))
        return [(i, s + i, 0) for i in range(self.lo, hi + 1)]

    def move(self, s: int, i) -> list[tuple[int, int, int]]:
        return [(i, s + i, 0)] if type(i) is int and self.lo <= i <= self.hi else []

    def hull(self, lo: int, hi: int) -> Interval | None:
        return (lo + self.lo, hi + self.hi)


class DecNZRange(_Ranged):
    """Tunnel open iff state >= lo; subtracts a chosen amount in
    [lo, min(state, hi)] so the state never goes negative."""

    __slots__ = ()
    tag = "decnz"

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        if s < self.lo:
            return []
        return [(i, s - i, 0) for i in range(self.lo, min(s, self.hi) + 1)]

    def move(self, s: int, i) -> list[tuple[int, int, int]]:
        return [(i, s - i, 0)] if type(i) is int and self.lo <= i <= min(s, self.hi) else []

    def hull(self, lo: int, hi: int) -> Interval | None:
        return None if hi < self.lo else (max(lo - self.hi, 0), hi - self.lo)


class DecRange(_Ranged):
    """Always-open tunnel subtracting a chosen amount in [lo, hi],
    saturating at 0."""

    __slots__ = ()
    tag = "dec"

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        # under a cap, stop at the first amount that saturates: the rest repeat it
        hi = self.hi if cap is None else min(self.hi, max(self.lo, s))
        return [(i, max(s - i, 0), 0) for i in range(self.lo, hi + 1)]

    def move(self, s: int, i) -> list[tuple[int, int, int]]:
        return [(i, max(s - i, 0), 0)] if type(i) is int and self.lo <= i <= self.hi else []

    def hull(self, lo: int, hi: int) -> Interval | None:
        return (max(lo - self.hi, 0), max(hi - self.lo, 0))


@dataclass(frozen=True)
class _ZeroTest:
    """A zero test: from 0 it leaves by exit ``zero`` and the state stays 0;
    from s >= 1 it leaves by exit ``nonzero`` and the state becomes
    s - ``step``.  An exit of None is closed.  Each kind states its tag, its
    two exits and its step as unannotated class attributes, which are no
    dataclass fields: a kind is built with no argument, writes to JSON as
    its tag alone, and equals only its own kind.  A kind adds no field, so
    it inherits the methods generated here; ``__slots__`` keeps it
    immutable and ``__reduce__`` rebuilds it through ``__init__``, as for
    ``_Ranged``."""

    __slots__ = ()
    floor = 1

    def __reduce__(self):
        return type(self), ()

    @property
    def exits(self) -> int:
        return 2 - (self.zero, self.nonzero).count(None)

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        e = self.nonzero if s else self.zero
        return [] if e is None else [(0, s - self.step if s else 0, e)]

    def move(self, s: int, choice) -> list[tuple[int, int, int]]:
        return self.moves(s) if choice == 0 else []

    def interval_moves(self, iv: Interval) -> list[tuple[int, Interval, int]]:
        lo, hi = iv
        out = []
        if lo == 0 and self.zero is not None:
            out.append((0, (0, 0), self.zero))
        if hi >= 1 and self.nonzero is not None:
            out.append((0, (max(lo, 1) - self.step, hi - self.step), self.nonzero))
        return out


class PZ(_ZeroTest):
    """Tunnel open iff state == 0."""

    __slots__ = ()
    tag, zero, nonzero, step = "pz", 0, None, 0


class PNZ(_ZeroTest):
    """Tunnel open iff state >= 1; state unchanged."""

    __slots__ = ()
    tag, zero, nonzero, step = "pnz", None, 0, 0


class JZSwitch(_ZeroTest):
    """Exit 0 iff state == 0, exit 1 otherwise; state unchanged.
    Behaviorally PZ and PNZ glued at the entrance."""

    __slots__ = ()
    tag, zero, nonzero, step = "jz", 0, 1, 0


class JZDecSwitch(_ZeroTest):
    """Like JZ, but taking the nonzero exit decrements the state.
    Behaviorally PZ and DecNZ[1,1] glued at the entrance."""

    __slots__ = ()
    tag, zero, nonzero, step = "jzdec", 0, 1, 1


# a PEP 604 union, unlike typing.Union, is not cached: a dropped import's classes are freed
ComponentKind = IncRange | DecNZRange | DecRange | PZ | PNZ | JZSwitch | JZDecSwitch

_KINDS = {kind.tag: kind for kind in get_args(ComponentKind)}  # tag -> kind, for JSON


# ---------------------------------------------------------------------------
# specs

def _check_names(what: str, names) -> None:
    for name in names:
        if not isinstance(name, str):
            raise SystemFormatError(f"{what} must be a string, got {name!r}")


def _check_tuples(value, names: str, where: str = "") -> None:
    """Each field of ``value`` named in ``names`` is a tuple."""
    for name in names.split():
        if not isinstance(field := getattr(value, name), tuple):
            raise SystemFormatError(f"{where}{name} must be a tuple, got {type(field).__name__}")


@dataclass(frozen=True)
class Component:
    """A kind with its port names.  Tunnels take exits=(out,); switches take
    exits=(zero_exit, nonzero_exit)."""

    kind: ComponentKind
    entry: str
    exit_ports: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, ComponentKind) and isinstance(self.exit_ports, tuple)):
            raise SystemFormatError(f"need a kind and a tuple of exit ports, got {self!r}")
        if len(self.exit_ports) != self.kind.exits:
            raise SystemFormatError(
                f"{self.kind.tag} needs {self.kind.exits} exit port(s), "
                f"got {self.exit_ports!r}")
        _check_names("port name", (self.entry, *self.exit_ports))


@dataclass(frozen=True)
class CounterGadgetSpec:
    """A named bundle of counter components over one shared natural state."""

    name: str
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        _check_names("spec name", (self.name,))
        if not (isinstance(self.components, tuple)
                and all(isinstance(c, Component) for c in self.components)):
            raise SystemFormatError(f"{self.name}: components must be a tuple of Components")

    @cached_property  # computed on first read; not a field, so eq and hash ignore it
    def locations(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(chain.from_iterable(
            (comp.entry, *comp.exit_ports) for comp in self.components)))


@dataclass(frozen=True)
class FiniteGadgetSpec:
    """Explicit finite gadget: states, locations, and one-step traversals
    (state, entry-location) -> (state', exit-location)."""

    name: str
    states: tuple[str, ...]
    locations: tuple[str, ...]
    transitions: tuple[tuple[str, str, str, str], ...]

    def __post_init__(self) -> None:
        _check_names("spec name", (self.name,))
        _check_tuples(self, "states locations transitions", f"{self.name}: ")
        _check_names(f"{self.name}: state or location", (*self.states, *self.locations))
        if not self.states:
            raise SystemFormatError(f"{self.name}: a finite gadget needs a state")
        for t in self.transitions:
            if not (isinstance(t, tuple) and len(t) == 4):
                raise SystemFormatError(
                    f"{self.name}: a transition must be a tuple (state, entry, state, exit), "
                    f"got {t!r:.200}")
            s, a, s2, b = t
            if s not in self.states or s2 not in self.states:
                raise SystemFormatError(f"{self.name}: unknown state in {(s, a, s2, b)}")
            if a not in self.locations or b not in self.locations:
                raise SystemFormatError(f"{self.name}: unknown location in {(s, a, s2, b)}")


GadgetSpec = CounterGadgetSpec | FiniteGadgetSpec  # PEP 604, as ComponentKind


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

    @classmethod
    def _spliced(cls, **fields) -> SystemOfGadgets:
        """The system ``lower.substitute`` spliced from valid parts, built
        without ``_validate``: the splice rule it checks makes it valid."""
        system = object.__new__(cls)
        system.__dict__.update(fields)
        return system

    @cached_property  # computed on first read; not a field, so eq and hash ignore it
    def spec_of(self) -> dict[str, GadgetSpec]:
        """Spec name -> spec: the one such map of a system."""
        return {spec.name: spec for spec in self.specs}

    @cached_property
    def boundary_ports(self) -> tuple[str, ...]:
        """The port name of each boundary endpoint, in boundary order."""
        return tuple(map(boundary_port, self.boundary))

    @cached_property
    def endpoints(self) -> Endpoints:
        """The one reading of the endpoint strings into table numbers, kept:
        made by ``_validate``, or by the first index of a system that skipped
        it.  An endpoint that is none of the system's raises KeyError, or
        TypeError when unhashable; ``_validate`` then names it."""
        number = dict(zip(map("node:".__add__, self.nodes), count()))
        of_spec = {name: dict(zip(dict.fromkeys(spec.locations), count()))
                   for name, spec in self.spec_of.items()}
        table = {}
        n = len(self.nodes)
        for inst in self.instances:
            place = of_spec[inst.spec]
            table[inst.id] = (n, place)
            number.update(zip(map(f"{inst.id}.".__add__, place), count(n)))
            if "" in place:  # no endpoint: split_endpoint rejects "ID."
                del number[port_endpoint(inst.id, "")]
            n += len(place)
        at = number.__getitem__
        return Endpoints(number, table, n,
                         None if self.start is None else at(self.start),
                         None if self.goal is None else at(self.goal),
                         list(map(at, self.boundary)),
                         list(map(at, chain.from_iterable(self.edges))))


def node_endpoint(name: str) -> str:
    return f"node:{name}"


def port_endpoint(instance_id: str, port: str) -> str:
    return f"{instance_id}.{port}"


class Endpoints(NamedTuple):
    """``SystemOfGadgets.endpoints``, numbered as the module docstring says:
    endpoint string -> number, instance id -> (offset, place of each
    location), the count of numbers, and the numbers of the start, goal,
    boundary endpoints and edge ends (two per edge), in order."""

    number: dict[str, int]
    table: dict[str, tuple[int, dict[str, int]]]
    size: int
    start: int | None
    goal: int | None
    boundary: list[int]
    edges: list[int]


def split_for_prefix(ep: str) -> tuple[str, str]:
    """(head, tail) such that ``head + prefix + tail`` is ``ep`` in a copy of
    its system whose node names and instance ids all start with ``prefix``;
    the one place the ``node:`` prefix is taken off an endpoint."""
    return ("node:", ep[5:]) if ep.startswith("node:") else ("", ep)


def split_endpoint(ep: str) -> tuple[str, str]:
    """-> ("node", name) or (instance_id, port)."""
    head, name = split_for_prefix(ep)
    if head:
        return ("node", name)
    inst, dot, port = ep.partition(".")
    if not dot or not inst or not port:
        raise SystemFormatError(f"bad endpoint {ep!r}")
    return (inst, port)


def boundary_port(ep: str) -> str:
    """The port name a boundary endpoint stands for: NAME for ``node:NAME``,
    the endpoint itself for an instance port."""
    return split_for_prefix(ep)[1]


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


@dataclass(frozen=True)
class _FiniteStep:
    """A finite transition as a one-exit kind over interned state codes;
    its index is the choice."""

    before: int
    after: int
    index: int

    def moves(self, s: int, cap: int | None = None) -> list[tuple[int, int, int]]:
        return [(self.index, self.after, 0)] if s == self.before else []

    def move(self, s: int, choice) -> list[tuple[int, int, int]]:
        return self.moves(s) if choice == self.index else []


class SystemIndex:
    """canonicalize() result: connectivity classes and the tables every
    search reads, in one state mode ("concrete" or "interval").

    It reads the system's endpoint numbering (module docstring), built
    before it when the system was validated, and keeps only numbers:
    ``class_at[number]`` is a class id, each class numbered from 0 in the
    order of its first member's number, ``table`` is the numbering's table
    of instances, which the codec reads, ``boundary_classes`` the class of
    each boundary endpoint in boundary order, ``prefix[cid]`` class ``cid``
    as a key prefix and ``spec_of`` the system's spec map.  The one move
    table is built by the codec (``codec(limit)``, see KeyCodec) and read by
    the BFS kernel, the boundary closure and ``successors`` alike.
    """

    def __init__(self, system: SystemOfGadgets, mode: str = "concrete") -> None:
        check_mode(mode)
        self.system = system
        self.mode = mode
        self.interval = mode == "interval"
        self.spec_of = spec_of = system.spec_of
        eps = system.endpoints
        self.table = eps.table

        # union-find over the edge ends (path halving)
        parent = list(range(eps.size))
        ends = iter(eps.edges)
        for a, b in zip(ends, ends):
            while a != (up := parent[a]):
                parent[a] = a = parent[up]
            while b != (up := parent[b]):
                parent[b] = b = parent[up]
            if a != b:
                parent[b] = a

        self.class_at = class_at = [0] * eps.size
        roots: dict[int, int] = {}
        for e in range(eps.size):
            root = e
            while root != (up := parent[root]):
                parent[root] = root = parent[up]
            class_at[e] = roots.setdefault(root, len(roots))

        # the codec's fixed part: which instances hold counters, every
        # finite-gadget state interned to a small int, each class as a key
        # prefix of the position width
        self.counter = tuple(isinstance(spec_of[inst.spec], CounterGadgetSpec)
                             for inst in system.instances)
        self.finite_states = tuple(dict.fromkeys(
            s for spec in system.specs if isinstance(spec, FiniteGadgetSpec)
            for s in spec.states))
        self.finite_code = {s: k for k, s in enumerate(self.finite_states)}
        self.pos_width = pw = _bytes_for(len(roots) - 1)
        self.prefix = [cid.to_bytes(pw, "big") for cid in range(len(roots))]
        self._codecs: dict[int, KeyCodec] = {}

        self.start_class = None if eps.start is None else class_at[eps.start]
        self.goal_class = None if eps.goal is None else class_at[eps.goal]
        self.boundary_classes = [class_at[k] for k in eps.boundary]
        first: dict[int, int] = {}
        for k, cid in enumerate(self.boundary_classes):
            if (j := first.setdefault(cid, k)) != k:
                raise SystemFormatError(
                    f"boundary endpoints {system.boundary[j]!r} and {system.boundary[k]!r} "
                    "fell into the same connectivity class")

    def endpoint_class(self, ep: str) -> int:
        try:
            return self.class_at[self.system.endpoints.number[ep]]
        except (KeyError, TypeError):
            raise SystemFormatError(f"no endpoint {ep!r} in this system") from None

    def at_rest(self, vec) -> tuple:
        """A state vector in this index's mode: in interval mode each counter
        value v becomes the interval (v, v)."""
        if not self.interval:
            return tuple(vec)
        return tuple((v, v) if isinstance(v, int) else v for v in vec)

    def counter_values(self, states: tuple) -> dict[int, int]:
        """Slot -> counter value, for each counter gadget's slot of ``states``:
        the int, or hi of an interval.  A finite gadget has no value."""
        interval = self.interval
        return {i: s[1] if interval else s
                for i, (s, c) in enumerate(zip(states, self.counter)) if c}

    def top(self, states: tuple) -> int:
        """The largest counter value in ``states``, or 0."""
        return max(self.counter_values(states).values(), default=0)

    def slots_above(self, states: tuple, cap: int) -> frozenset[int]:
        """The slots of ``states`` whose counter value exceeds ``cap``."""
        return frozenset(i for i, v in self.counter_values(states).items() if v > cap)

    def check_states(self, states, where: str) -> None:
        """The one check of a state vector given from outside (a sweep's
        start, a ``successors`` or replay configuration, a bisimulation
        seed): a tuple of one state per instance, each a state of its
        gadget in this index's mode."""
        instances = self.system.instances
        if not isinstance(states, tuple) or len(states) != len(instances):
            raise SystemFormatError(
                f"{where} must have one state per instance ({len(instances)}), "
                f"got {states!r:.200}")
        for inst, state in zip(instances, states):
            check_state(self.spec_of[inst.spec], state, where, ": ", inst.id, " state",
                        mode=self.mode)

    def check_config(self, config, where: str) -> None:
        """``check_states`` of a configuration given from outside, whose
        position is an int (a class id or not)."""
        if not isinstance(config, Configuration) or type(config.position) is not int:
            raise SystemFormatError(
                f"{where} must be a Configuration at an int position, got {config!r:.200}")
        self.check_states(config.states, where)

    def start_config(self) -> Configuration:
        if self.start_class is None:
            raise SystemFormatError("system has no start endpoint")
        return Configuration(self.start_class,
                             self.at_rest(inst.initial for inst in self.system.instances))

    def successors(self, config: Configuration) -> list[tuple[Traversal, Configuration]]:
        """Every move from ``config``, by the codec's rows applied to tuple
        states; a position that is no class id has none."""
        self.check_config(config, "configuration")
        pos, states = config.position, config.states
        if not 0 <= pos < len(self.prefix):
            return []
        code, names, codec = self.finite_code, self.finite_states, self.codec(0)
        out: list[tuple[Traversal, Configuration]] = []
        for _, _, _, exits, i, (entry, exit_ports, step, _, counted) in codec.moves.get(
                self.prefix[pos], ()):
            state = states[i]
            for (choice, s2, e) in step(state if counted else code[state]):
                if not counted:
                    s2 = names[s2]
                # a move that keeps the state shares the tuple (so do replay traces)
                out.append((Traversal(codec.ids[i], entry, exit_ports[e], choice, state, s2),
                            Configuration(int.from_bytes(exits[e], "big"), states if s2 == state
                                          else states[:i] + (s2,) + states[i + 1:])))
        return out

    def codec(self, limit: int) -> KeyCodec:
        """The key codec whose slots hold every counter value up to ``limit``
        and every interned finite state; one per width, built on first use."""
        width = _bytes_for(max(limit, len(self.finite_states)))
        if width not in self._codecs:
            self._codecs[width] = KeyCodec(self, width)
        return self._codecs[width]


def _bytes_for(n: int) -> int:
    """Bytes in the shortest unsigned big-endian slot that holds 0..n."""
    return max(1, (n.bit_length() + 7) // 8)


class KeyCodec:
    """Packed configuration keys for one SystemIndex at one slot width.

    A key is a ``bytes``: the position in ``pos_width`` bytes, then the state
    of each instance in declaration order, in ``width``-byte big-endian
    slots.  A counter value takes one slot, an interval (lo, hi) two, and a
    finite-gadget state one slot holding its interned code.  A successor key
    is its parent key with the position and one state's slots spliced in,
    so a move costs the same however many instances there are.  Only
    ``state`` and ``unpack`` turn keys back into states.

    ``moves`` is the system's one move table: position prefix -> one row
    per component (or finite transition) entered there, in (instance
    declaration order, component order), so successor enumeration is
    reproducible byte for byte.  A row is (first byte of the state's slots,
    one past its last, its memo table or None, exit positions as key
    prefixes, slot, entrance): the BFS kernel's five fields, then the
    entrance record (entry port, exit ports, kind.moves or
    kind.interval_moves, two slots?, a counter?), built once per (spec,
    component) and shared by every instance's row.  ``ids[slot]`` is the
    instance id.  A finite step's row compares interned codes.  Rows of
    equal kinds share one memo table, slot bytes -> ``slot_moves``; a
    concrete ranged kind with lo < hi has none (``reach`` docstring).
    """

    def __init__(self, index: SystemIndex, width: int) -> None:
        # not the index, which keeps its codecs: no cycle, so a dropped index is freed at once
        self.finite_code, self.finite_states = index.finite_code, index.finite_states
        self.width = width
        self.pos_width = off = index.pos_width
        self.top = (1 << 8 * width) - 1  # the largest value a slot holds
        self.ids = tuple(index.table)  # instance ids, in instance order
        code, prefix, cls = index.finite_code, index.prefix, index.class_at
        # per instance: (first byte, two slots?, counter?)
        self.layout: list[tuple[int, bool, bool]] = []
        self.moves: dict[bytes, list[tuple]] = {}
        memos: defaultdict[object, dict[bytes, tuple]] = defaultdict(dict)
        templates: dict[str, list[tuple]] = {}  # spec name -> (places, memo, entrance) per row
        for i, (inst, counted) in enumerate(zip(index.system.instances, index.counter)):
            pair = counted and index.interval
            base, place = index.table[inst.id]
            if (rows := templates.get(inst.spec)) is None:
                spec = index.spec_of[inst.spec]
                # its entrances as (entry port, kind, exit ports)
                parts = ([(c.entry, c.kind, c.exit_ports) for c in spec.components] if counted
                         else [(a, _FiniteStep(code[s], code[s2], k), (b,))
                               for k, (s, a, s2, b) in enumerate(spec.transitions)])
                rows = templates[inst.spec] = [
                    (place[entry], [place[p] for p in exit_ports],
                     memos[kind] if pair or not isinstance(kind, _Ranged) or kind.lo == kind.hi
                     else None, (entry, exit_ports, kind.interval_moves if pair else kind.moves,
                                 pair, counted))
                    for entry, kind, exit_ports in parts]
            self.layout.append((off, pair, counted))
            end = off + width * (2 if pair else 1)
            for at, exits, memo, entrance in rows:
                self.moves.setdefault(prefix[cls[base + at]], []).append(
                    (off, end, memo, tuple([prefix[cls[base + p]] for p in exits]), i, entrance))
            off = end
        self.size = off  # bytes per key

    def pack(self, config: Configuration) -> bytes:
        """The key of ``config``: its position, then ``pack_states``."""
        states = self.pack_states(config.states)
        try:
            return config.position.to_bytes(self.pos_width, "big") + states
        except (AttributeError, OverflowError) as exc:
            raise SystemFormatError(f"position {config.position!r} does not fit") from exc

    def pack_states(self, states: tuple) -> bytes:
        """The state slots of a key: ``pack`` without the position."""
        w = self.width
        code = self.finite_code
        try:
            parts = []
            for (_, pair, counted), state in zip(self.layout, states, strict=True):
                if pair:
                    lo, hi = state
                    if lo > hi:
                        raise ValueError("empty interval")
                    parts += (lo.to_bytes(w, "big"), hi.to_bytes(w, "big"))
                else:
                    parts.append((state if counted else code[state]).to_bytes(w, "big"))
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SystemFormatError(
                f"states {states!r} do not fit {w}-byte slots of this system's states"
            ) from exc
        return b"".join(parts)

    def state(self, key: bytes, i: int):
        """The state of instance ``i`` in ``key``."""
        off, pair, counted = self.layout[i]
        w = self.width
        v = int.from_bytes(key[off:off + w], "big")
        if pair:
            return (v, int.from_bytes(key[off + w:off + 2 * w], "big"))
        return v if counted else self.finite_states[v]

    def unpack(self, key: bytes) -> Configuration:
        """The configuration ``key`` holds: ``state`` for every instance."""
        return Configuration(int.from_bytes(key[:self.pos_width], "big"),
                             tuple([self.state(key, i) for i in range(len(self.layout))]))

    def slot_moves(self, move: tuple, slot: bytes, cap: int) -> tuple:
        """The moves of a ``moves`` row from its slot bytes ``slot``, ranged
        amounts bounded by ``cap``, as (choice, the new slot bytes or None
        when the value exceeds ``top``, exit, the new counter value or None);
        kept in the row's memo table, if it has one."""
        _, _, memo, _, _, (_, _, step, pair, counted) = move
        w, base, v = self.width, self.top + 1, int.from_bytes(slot, "big")
        if pair:  # (lo, hi) as one number, lo * base + hi
            out = tuple((choice, (lo * base + m).to_bytes(2 * w, "big") if m < base else None,
                         e, m) for choice, (lo, m), e in step(divmod(v, base)))
        else:
            out = tuple((choice, s2.to_bytes(w, "big") if not counted or s2 < base else None,
                         e, s2 if counted else None) for choice, s2, e in step(v, cap))
        if memo is not None:
            memo[slot] = out
        return out

    def label(self, move: tuple, choice: int, e: int, before: bytes,
              after: bytes) -> Traversal:
        """The Traversal of a ``moves`` row from key ``before`` to ``after``."""
        i, (entry, exit_ports, *_) = move[4:]
        return Traversal(self.ids[i], entry, exit_ports[e], choice,
                         self.state(before, i), self.state(after, i))


def check_state(spec: GadgetSpec, state, *where: str, mode: str = "concrete") -> None:
    """The one rule for a given gadget state (initial state, bisimulation seed):
    a natural for a counter gadget, in interval mode a (lo, hi) pair of
    naturals with lo <= hi; one of its states for a finite gadget.  The
    parts of ``where`` are joined into the message only when it fails."""
    if not isinstance(spec, CounterGadgetSpec):
        if state not in spec.states:
            raise SystemFormatError(f"{''.join(where)} {state!r} is not a state of {spec.name}")
        return
    pair = isinstance(state, tuple) and len(state) == 2
    lo, hi = state if pair else (state, state)
    if pair != (mode == "interval") or not (
            type(lo) is int and type(hi) is int and 0 <= lo <= hi):  # no bools
        want = "an interval of naturals" if mode == "interval" else "a natural"
        raise SystemFormatError(
            f"{''.join(where)} of a counter gadget must be {want}, got {state!r}")


def _validate(system: SystemOfGadgets) -> None:
    """The one validity check, run by SystemOfGadgets on construction.
    Linear in specs, instances, nodes and endpoints.  A ``lower.substitute``
    output skips it: it is valid by the splice rule, and this check is its
    test oracle.  An initial is checked once per distinct (spec, type, value)
    when an int or str, else every time (True == 1 == 1.0 hash alike).  An
    edge must be a tuple pair: a list pair would build a system that does
    not hash."""
    _check_tuples(system, "specs instances nodes edges boundary")
    spec_locations: dict[str, frozenset[str]] = {}
    for spec in system.specs:  # each spec checked itself when it was built
        if not isinstance(spec, GadgetSpec):
            raise SystemFormatError(f"not a gadget spec: {spec!r}")
        if spec.name in spec_locations:
            raise SystemFormatError(f"duplicate spec name {spec.name!r}")
        spec_locations[spec.name] = frozenset(spec.locations)
    ports_of: dict[str, frozenset[str]] = {}  # instance id -> its locations
    checked: set[tuple | None] = set()
    for inst in system.instances:
        try:
            iid, spec_name, q = inst.id, inst.spec, inst.initial
        except AttributeError:
            raise SystemFormatError(
                f"instances must hold GadgetInstances, got {inst!r:.200}") from None
        if not isinstance(iid, str) or "." in iid or not iid:
            raise SystemFormatError(f"bad instance id {iid!r} (no dots, nonempty)")
        if iid == "node" or iid.startswith("node:"):
            raise SystemFormatError(
                f"instance id {iid!r} is reserved: its port endpoints "
                "would read as connection nodes")
        if iid in ports_of:
            raise SystemFormatError(f"duplicate instance id {iid!r}")
        spec = system.spec_of.get(spec_name) if isinstance(spec_name, str) else None
        if spec is None:
            raise SystemFormatError(f"no spec named {spec_name!r}")
        key = (spec_name, type(q), q) if type(q) in (int, str) else None
        if key is None or key not in checked:
            check_state(spec, q, iid, ": initial state")
            checked.add(key)
        ports_of[iid] = spec_locations[spec_name]
    _check_names("node name", system.nodes)
    node_set = set(system.nodes)
    if len(node_set) != len(system.nodes):
        raise SystemFormatError("duplicate node name")
    if not node_set.isdisjoint(ports_of):
        raise SystemFormatError("node names and instance ids overlap")

    # the numbering reads each endpoint once, and the index keeps it; only a
    # miss walks the edges and endpoints one by one, so that the first bad one is named
    try:
        if {*map(type, system.edges)} <= {tuple} and {*map(len, system.edges)} <= {2}:
            system.endpoints
            return
    except (KeyError, TypeError):  # an unknown, unhashable or unsized value
        pass

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

    for edge in system.edges:
        if type(edge) is not tuple or len(edge) != 2:
            _bad_edge(edge)
        check_ep(edge[0])
        check_ep(edge[1])
    for ep in chain([ep for ep in (system.start, system.goal) if ep is not None],
                    system.boundary):
        check_ep(ep)


def canonicalize(system: SystemOfGadgets | SystemIndex, mode: str | None = None
                 ) -> SystemIndex:
    """Index a system in ``mode`` (concrete when None), once.  An index is
    returned as it is; an explicit ``mode`` must then be its own.  Anything
    else is no system."""
    if isinstance(system, SystemIndex):
        if mode is not None and mode != system.mode:
            raise SystemFormatError(f"index is in {system.mode} mode, not {mode!r}")
        return system
    if not isinstance(system, SystemOfGadgets):
        raise SystemFormatError(
            f"want a SystemOfGadgets or a SystemIndex, got {type(system).__name__}")
    return SystemIndex(system, "concrete" if mode is None else mode)


# ---------------------------------------------------------------------------
# JSON round trip

def _kind_to_json(kind: ComponentKind) -> dict:
    return {"kind": kind.tag, **asdict(kind)}  # lo and hi for a ranged kind


def _list(value, what: str) -> list:
    """A list-valued document entry; any other JSON value is rejected
    rather than iterated (a string would split into characters)."""
    if not isinstance(value, list):
        raise SystemFormatError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _bad_edge(value) -> NoReturn:
    """The one error for an edge that is not a pair of endpoints, whether a
    document's entry or one built in code."""
    raise SystemFormatError(f"edge must be a pair of endpoints, got {value!r:.200}")


def _kind_from_json(d: dict) -> ComponentKind:
    if not isinstance(d, dict):
        raise SystemFormatError(f"component must be an object, got {type(d).__name__}")
    tag = d.get("kind")
    kind = _KINDS.get(tag) if isinstance(tag, str) else None
    if kind is None:
        raise SystemFormatError(f"unknown component kind {tag!r}")
    try:
        return kind(*[d[field.name] for field in fields(kind)])  # lo and hi, if ranged
    except KeyError as exc:
        raise SystemFormatError(f"{tag} component needs lo/hi") from exc


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


def _check_system(system) -> None:
    """The argument of a writer is a system."""
    if not isinstance(system, SystemOfGadgets):
        raise SystemFormatError(f"system must be a SystemOfGadgets, got {type(system).__name__}")


_quote = json.encoder.encode_basestring_ascii  # the string encoder json.dumps uses


def _write(value, indent: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values a valid
    system holds (str, int, None, and lists and dicts of them), with every
    line after the first indented by ``indent``."""
    if isinstance(value, str):
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_quote(k)}: {_write(value[k], inner)}" for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if not value:
        return "[]"
    items = [_write(v, inner) for v in value]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _top_list(items: list[str]) -> str:
    """A top-level list of items already written at their indent."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def serialize_system(system: SystemOfGadgets) -> str:
    """Deterministic JSON: equal systems serialize to identical bytes.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``
    plus a newline, written directly, because with an indent json.dumps runs
    its pure-Python encoder."""
    _check_system(system)
    q = _quote
    return "".join((
        '{\n  "boundary": ', _top_list(list(map(q, system.boundary))),
        ',\n  "edges": ', _top_list([f"[\n      {q(a)},\n      {q(b)}\n    ]"
                                      for a, b in system.edges]),
        ',\n  "goal": ', _write(system.goal, ""),
        ',\n  "instances": ', _top_list([
            f'{{\n      "id": {q(i.id)},\n      "initial": {_write(i.initial, "")},'
            f'\n      "spec": {q(i.spec)}\n    }}' for i in system.instances]),
        ',\n  "nodes": ', _top_list(list(map(q, system.nodes))),
        ',\n  "specs": ', _write([_spec_to_json(s) for s in system.specs], "  "),
        ',\n  "start": ', _write(system.start, ""),
        "\n}\n"))


def read_json(text: str):
    """The one JSON reader (system documents, spec files, sidecars): bad JSON,
    an integer too long to convert and too deep a nesting are all errors."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SystemFormatError(f"not valid JSON: {exc}") from exc


def parse_system(text: str) -> SystemOfGadgets:
    doc = read_json(text)
    if not isinstance(doc, dict):
        raise SystemFormatError("top level must be an object")

    def entries(key: str) -> list:
        return _list(doc.get(key, []), key)

    try:
        return SystemOfGadgets(
            specs=tuple(parse_spec(s) for s in entries("specs")),
            instances=tuple(
                GadgetInstance(i["id"], i["spec"], i["initial"])
                for i in entries("instances")),
            nodes=tuple(entries("nodes")),
            edges=tuple([tuple(e) if type(e) is list and len(e) == 2 else _bad_edge(e)
                         for e in entries("edges")]),
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
        name = doc["name"]
        if doc["type"] == "counter":
            comps = tuple(
                Component(_kind_from_json(c), c["entry"], tuple(_list(c["exits"], "exits")))
                for c in _list(doc["components"], "components"))
            return CounterGadgetSpec(name, comps)
        if doc["type"] == "finite":
            return FiniteGadgetSpec(
                name,
                tuple(str(s) for s in _list(doc["states"], "states")),
                tuple(_list(doc["locations"], "locations")),
                tuple((str(a), b, str(c), e) for (a, b, c, e) in (
                    _list(t, "transition") for t in _list(doc["transitions"], "transitions"))),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemFormatError(f"bad spec entry: {exc}") from exc
    raise SystemFormatError(f"unknown spec type {doc.get('type')!r}")


# ---------------------------------------------------------------------------
# DOT export

def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(system: SystemOfGadgets) -> str:
    """Undirected DOT graph: one cluster per instance (a node per port),
    one box node per connection node, free-travel edges between them."""
    _check_system(system)
    lines = ["graph system {", "  node [shape=circle, fontsize=10];"]
    for n, inst in enumerate(system.instances):
        spec = system.spec_of[inst.spec]
        lines.append(f"  subgraph cluster_{n} {{")
        lines.append(f"    label={_q(f'{inst.id} : {inst.spec} = {inst.initial}')};")
        for loc in spec.locations:
            ep = port_endpoint(inst.id, loc)
            lines.append(f"    {_q(ep)} [label={_q(loc)}];")
        lines.append("  }")
    for name in system.nodes:
        ep = node_endpoint(name)
        extra = ", peripheries=2" if ep == system.goal else ""
        lines.append(f"  {_q(ep)} [shape=box, label={_q(name)}{extra}];")
    for (a, b) in system.edges:
        lines.append(f"  {_q(a)} -- {_q(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# standard specs; a spec is immutable, so each fixed one is built once

@cache
def spec_inc_dec_jz() -> CounterGadgetSpec:
    """Inc[1,1] + Dec[1,1] (saturating) + JZ switch, separate entrances."""
    return CounterGadgetSpec("inc-dec-jz", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(DecRange(1, 1), "dec_in", ("dec_out",)),
        Component(JZSwitch(), "jz_in", ("jz_out_zero", "jz_out_nonzero")),
    ))


@cache
def spec_inc_jzdec() -> CounterGadgetSpec:
    """Inc[1,1] + JZDec switch (decrement folded into the nonzero branch)."""
    return CounterGadgetSpec("inc-jzdec", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(JZDecSwitch(), "jz_in", ("jz_out_zero", "jz_out_nonzero")),
    ))


@cache
def spec_inc_decnz() -> CounterGadgetSpec:
    """Inc[1,1] + DecNZ[1,1]: decrement refuses to cross at zero."""
    return CounterGadgetSpec("inc-decnz", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(DecNZRange(1, 1), "dec_in", ("dec_out",)),
    ))


@cache
def spec_inc_decnz_pz() -> CounterGadgetSpec:
    """Inc[1,1] + DecNZ[1,1] + PZ, all with their own entrances."""
    return CounterGadgetSpec("inc-decnz-pz", (
        Component(IncRange(1, 1), "inc_in", ("inc_out",)),
        Component(DecNZRange(1, 1), "dec_in", ("dec_out",)),
        Component(PZ(), "pz_in", ("pz_out",)),
    ))


@cache
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


@cache
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


@cache
def spec_sscd() -> FiniteGadgetSpec:
    """Symmetric self-closing door: crossing L1->R1 closes tunnel 1 and
    opens tunnel 2, and vice versa."""
    return FiniteGadgetSpec(
        "sscd",
        states=("1", "2"),
        locations=("L1", "R1", "L2", "R2"),
        transitions=(("1", "L1", "2", "R1"), ("2", "L2", "1", "R2")),
    )


@cache
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
