"""Bounded breadth-first reachability over systems of gadgets.

Counter gadgets make reachability undecidable in general, so every search
here is bounded two ways:

- a counter cap: successor configurations in which any gadget state exceeds
  the cap are not enqueued (the search notes that pruning happened);
- a visit budget: a hard limit on dequeued configurations.

Start configurations are admitted unchecked, in the kernel (``_bfs``), so
a start may hold a state above the cap; a successor that keeps such a state
is pruned.  Every other admitted configuration is within the cap in every
slot, so a move from it needs only the slot it changed checked, however
many instances there are.

The verdict discipline keeps the bounds honest.  Reachable comes with a
replayable witness.  UnreachableWithinCap is only reported when the frontier
was exhausted and *no* cap pruning ever fired -- in that case the bounded
search actually saw the whole reachable space, so the answer is exact.
Anything else is Unknown, with the reason ("cap-overflow-seen" or
"budget-exhausted") preserved.

Exploration order is deterministic: FIFO queue, successors enumerated in
instance-declaration / component / choice order, goal tested at dequeue.

A sweep runs on packed keys (Holzmann, "State Compression in SPIN", 1997):
each configuration is one ``bytes`` of fixed-width slots (``gadgets.KeyCodec``),
with a width worked out per sweep from the cap, the largest start value and
the number of finite-gadget states.  A successor is its parent key with one
slot and the position spliced in.  The visited map keeps each key's parent
key (None for a start), the object the loop already holds, so a record
allocates nothing.  ``Sweep.path_to`` finds each move again (the witness
lemma): from a parent, the first (row, choice, exit) in the kernel's order
whose spliced key is the child admitted it.  An earlier one met the child
unvisited under the same budget flag, fixed per dequeue, so only the cap
test could refuse it; but the child is within the cap in every slot, and
from an over-cap start ``over == {i}`` forces the slot.  A change to the
admission rule must keep this proof.  Configurations are built only for
the keys a caller reads (``Sweep.configurations``).  The loop is
``_bfs``, under ``sweep`` and the closure and interval walk of ``verify``.

A move reads and writes one gadget's slots, so its successors depend only
on its kind and those slot bytes.  The codec keeps them in memo tables, one
per kind, from slot bytes to (choice, new slot bytes or None, exit, new
counter value), each entry built by ``KeyCodec.slot_moves`` the first time
its slot is seen, and kept across sweeps and closure excursions.  A cached
move ignores the cap: only a ranged kind reads it, to stop its amounts one
past the move cap, and with lo == hi, or in interval mode, it has one move
whatever the cap.  A concrete ranged kind with lo < hi gets no table: its
entries would change with the cap and hold up to hi - lo + 1 moves each,
O(cap x range) in all, so ``slot_moves`` runs for it on every dequeue.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Container, Iterable
from dataclasses import dataclass
from enum import Enum

from .gadgets import (
    Configuration,
    KeyCodec,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    Traversal,
    canonicalize,
    check_integer,
)

log = logging.getLogger(__name__)

__all__ = [
    "Verdict", "SearchStats", "SearchOutcome", "Sweep", "ReplayError",
    "sweep", "bfs_reach", "replay",
]


class Verdict(Enum):
    REACHABLE = "reachable"
    UNREACHABLE_WITHIN_CAP = "unreachable-within-cap"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchStats:
    explored: int
    frontier_peak: int
    max_counter: int


@dataclass(frozen=True)
class SearchOutcome:
    verdict: Verdict
    reason: str | None
    witness: tuple[Traversal, ...] | None
    stats: SearchStats


@dataclass
class Sweep:
    """Raw result of one bounded BFS sweep.

    The sweep runs on packed keys (``codec``, see ``gadgets.KeyCodec``):
    ``visited`` maps each reached key to its BFS parent's key (None at a
    start) in visit order, and ``goal_hit`` is a key.  Only ``path_to``
    builds Traversal labels (``move_cap`` lists a memo-less ranged row's
    amounts as the kernel did), and only ``configurations`` Configurations.
    start_revisited says whether some expanded configuration, or one the
    budget left queued, has a move back to a start: a revisit ``visited`` hides.
    """

    codec: KeyCodec
    visited: dict[bytes, bytes | None]
    goal_hit: bytes | None
    overflowed: bool
    budget_exhausted: bool
    stats: SearchStats
    start_revisited: bool
    move_cap: int

    def path_to(self, key: bytes) -> tuple[Traversal, ...]:
        """The labels on the BFS path from a start to ``key``, first first.
        Each step is the parent's first move, in the kernel's order, whose
        spliced key is the child (module docstring).  The rows from the
        parent's position to the child's are listed once per pair, and the
        other slots compared only where two or more are.  Each distinct label
        is built once, keyed by (row, exit position, slot bytes before, after)."""
        codec, visited = self.codec, self.visited
        if type(key) is not bytes or key not in visited:
            raise SystemFormatError(f"path_to: {key!r:.200} is no key this sweep reached")
        pw, cap, slot_moves = codec.pos_width, self.move_cap, codec.slot_moves
        rows: dict[bytes, list] = {}  # parent + child position -> [(row, its labels)]
        labels = []
        parent, pos = visited[key], key[:pw]
        while parent is not None:
            at = parent[:pw]
            if (found := rows.get(at + pos)) is None:
                found = rows[at + pos] = [(move, {}) for move in codec.moves[at] if pos in move[3]]
            for move, made in found:
                off, end = move[0], move[1]
                if len(found) > 1 and (parent[pw:off] != key[pw:off] or parent[end:] != key[end:]):
                    continue
                slot, new = parent[off:end], key[off:end]
                label = made.get((slot, new))
                if label is None:
                    out = move[2].get(slot) if move[2] is not None else None
                    for choice, s2, e, _ in slot_moves(move, slot, cap) if out is None else out:
                        if s2 == new and move[3][e] == pos:
                            label = made[slot, new] = codec.label(move, choice, e, parent, key)
                            break
                if label is not None:
                    break
            labels.append(label)
            key, parent, pos = parent, visited[parent], at
        return tuple(reversed(labels))

    def configurations(self, at: Container[int]
                       ) -> dict[bytes, tuple[Configuration, bytes | None]]:
        """Each reached key whose position is in ``at`` -> (its configuration,
        the BFS parent's key or None at a start), in visit order."""
        pw, unpack = self.codec.pos_width, self.codec.unpack
        try:
            return {key: (unpack(key), parent) for key, parent in self.visited.items()
                    if int.from_bytes(key[:pw], "big") in at}
        except TypeError:
            raise SystemFormatError(f"configurations: {at!r:.200} holds no classes") from None


def sweep(index: SystemOfGadgets | SystemIndex, starts: list[Configuration], *, counter_cap: int,
          visit_budget: int, goal_class: int | None = None) -> Sweep:
    """Bounded BFS from ``starts``, in the index's state mode.  Stops early
    when a configuration at ``goal_class`` is dequeued.  Start configurations
    are admitted without a cap check (they were given, not found)."""
    index = canonicalize(index)
    message = f"cap and budget must be naturals, got {counter_cap!r} and {visit_budget!r}"
    check_integer(counter_cap, 0, message)
    check_integer(visit_budget, 0, message)
    if not isinstance(starts, (list, tuple)):
        raise SystemFormatError(f"starts must be a list of configurations, got {starts!r:.200}")
    for cfg in starts:
        index.check_config(cfg, "start")
    tops = [index.top(cfg.states) for cfg in starts]
    start_max = max(tops, default=0)
    codec = index.codec(move_cap := max(counter_cap, start_max))  # holds every start, successor
    keys = [codec.pack(cfg) for cfg in starts]
    over_cap = {key: index.slots_above(cfg.states, counter_cap)
                for key, cfg, high in zip(keys, starts, tops) if high > counter_cap}
    if goal_class is not None and (type(goal_class) is not int
                                   or not 0 <= goal_class < len(index.prefix)):
        raise SystemFormatError(f"goal class {goal_class!r} is no class of this system")
    goal = None if goal_class is None else index.prefix[goal_class]
    (visited, goal_hit, overflowed, budget_exhausted, start_revisited, explored,
     frontier_peak, max_counter) = _bfs(codec, keys, over_cap, counter_cap,
                                        start_max, visit_budget, goal)
    return Sweep(codec, visited, goal_hit, overflowed, budget_exhausted,
                 SearchStats(explored, frontier_peak, max_counter), start_revisited, move_cap)


def _bfs(codec: KeyCodec, starts: Iterable[bytes], over_cap: dict[bytes, frozenset[int]],
         counter_cap: int, start_max: int, visit_budget: int, goal: bytes | None) -> tuple:
    """The one BFS loop on packed keys, under ``sweep`` and the closure and
    interval walk of ``verify``; it admits the starts.  ``over_cap`` maps each
    start above ``counter_cap`` to those slots, ``start_max`` is the largest
    start value, and ``codec`` must hold both caps.  Ranged moves stop one
    amount past the larger cap: nothing they skip could be admitted, or be
    a start.  ``goal`` is a position prefix or None.  Returns (visited,
    goal_hit, overflowed, budget_exhausted, start_revisited, explored,
    frontier_peak, max_counter), as ``Sweep`` and ``SearchStats`` hold them.
    """
    move_cap = max(counter_cap, start_max)
    visited: dict[bytes, bytes | None] = dict.fromkeys(starts)
    queue: deque[bytes] = deque(visited)
    pw, moves, slot_moves, join = codec.pos_width, codec.moves, codec.slot_moves, b"".join
    overflowed = False
    budget_exhausted = False
    start_revisited = False
    goal_hit: bytes | None = None
    explored = 0
    max_counter = start_max
    frontier_peak = len(queue)

    while queue:
        if explored >= visit_budget and not budget_exhausted:
            # from here on the queued keys, reached but never expanded, are
            # only searched for a move back to a start
            budget_exhausted = True
        if budget_exhausted and start_revisited:
            break
        key = queue.popleft()
        pos = key[:pw]
        if not budget_exhausted:
            explored += 1
            if goal is not None and pos == goal:
                goal_hit = key
                break
        # only a start above the cap needs its other slots checked (module docstring)
        over = over_cap.get(key) if over_cap else None
        for move in moves.get(pos, ()):
            off, end, memo, exits, i, _ = move
            slot = key[off:end]
            out = memo.get(slot) if memo is not None else None
            if out is None:
                out = slot_moves(move, slot, move_cap)
            if not out:
                continue
            head, tail = key[pw:off], key[end:]
            for _, new, e, m in out:
                # the successor key: this move's slots and exit spliced in
                if new is not None:  # else no key holds m: new, and above the cap
                    nxt = join((exits[e], head, new, tail))
                    if nxt in visited:
                        if visited[nxt] is None:  # a start
                            start_revisited = True
                        continue
                if budget_exhausted:
                    continue
                # over != {i}: a slot the move left alone is above the cap (witness lemma)
                if (over is not None and over != {i}) or (m is not None and m > counter_cap):
                    overflowed = True
                    continue
                if m is not None and m > max_counter:
                    max_counter = m
                visited[nxt] = key
                queue.append(nxt)
        if len(queue) > frontier_peak:
            frontier_peak = len(queue)

    return (visited, goal_hit, overflowed, budget_exhausted, start_revisited, explored,
            frontier_peak, max_counter)


def bfs_reach(system: SystemOfGadgets | SystemIndex, counter_cap: int,
              visit_budget: int = 1_000_000) -> SearchOutcome:
    """Can the agent get from the start endpoint to the goal endpoint?

    See the module docstring for the verdict discipline.  The witness on a
    Reachable verdict is the traversal sequence of a shortest path found,
    suitable for replay().
    """
    index = canonicalize(system)
    if index.goal_class is None:
        raise SystemFormatError("goal required: system document has no goal endpoint")
    start = index.start_config()
    result = sweep(index, [start], counter_cap=counter_cap,
                   visit_budget=visit_budget, goal_class=index.goal_class)
    witness = None
    if result.goal_hit is not None:
        witness = result.path_to(result.goal_hit)
        verdict, reason = Verdict.REACHABLE, None
    elif result.budget_exhausted:
        verdict, reason = Verdict.UNKNOWN, "budget-exhausted"
    elif result.overflowed:
        verdict, reason = Verdict.UNKNOWN, "cap-overflow-seen"
    else:
        verdict, reason = Verdict.UNREACHABLE_WITHIN_CAP, None
    stats = result.stats
    why = f"{len(witness)} traversals" if witness is not None else reason
    log.info("%s%s: %d configs explored, frontier peak %d, max counter %d, "
             "slot width %d B, %d key bytes per visited config",
             verdict.value, f" ({why})" if why else "", stats.explored,
             stats.frontier_peak, stats.max_counter, result.codec.width, result.codec.size)
    return SearchOutcome(verdict, reason, witness, stats)


class ReplayError(RuntimeError):
    def __init__(self, step: int, why: str) -> None:
        super().__init__(f"witness step {step}: {why}")
        self.step = step


def replay(system: SystemOfGadgets | SystemIndex, witness: tuple[Traversal, ...],
           start: Configuration | None = None) -> list[Configuration]:
    """Re-execute a traversal sequence, checking each step is legal.

    Returns the configuration sequence (len(witness) + 1 entries).  Raises
    ReplayError at the first label that matches no legal successor with the
    recorded states.  Moves that agree on every field of the label reach
    the same configuration, so the first of them is taken.
    """
    index = canonicalize(system)
    cfg = index.start_config() if start is None else start
    index.check_config(cfg, "start")  # each later step is a successor
    if not isinstance(witness, (list, tuple)) or not all(
            isinstance(label, Traversal) for label in witness):
        raise SystemFormatError(f"witness must be a tuple of traversals, got {witness!r:.200}")
    trace = [cfg]
    for i, label in enumerate(witness):
        before, after = label.before, label.after
        # a ranged move's choice is its amount, so a cap of before + choice
        # lists the move a good label names, but for a Dec amount past the
        # state, which the cap cuts; a label that no capped move fits is
        # matched against every move, so it replays or fails as uncapped
        caps = ((before + label.choice, None) if type(before) is int
                and type(label.choice) is int else (None,))
        for cap in caps:
            matches = [
                (lab, nxt) for (lab, nxt) in index._successors(cfg, cap)
                if (lab.instance, lab.entry, lab.exit, lab.choice)
                == (label.instance, label.entry, label.exit, label.choice)
            ]
            nxt = next((nxt for lab, nxt in matches
                        if lab.before == before and lab.after == after), None)
            if nxt is not None:
                break
        if not matches:
            raise ReplayError(i, f"no legal traversal matches {label}")
        if nxt is None:
            lab = matches[0][0]
            raise ReplayError(
                i, f"state change mismatch: recorded {before}->{after}, "
                   f"replayed {lab.before}->{lab.after}")
        cfg = nxt
        trace.append(cfg)
    return trace
