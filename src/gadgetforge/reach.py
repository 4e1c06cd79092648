"""Bounded breadth-first reachability over systems of gadgets.

Counter gadgets make reachability undecidable in general, so every search
here is bounded two ways:

- a counter cap: successor configurations in which any gadget state exceeds
  the cap are not enqueued (the search notes that pruning happened);
- a visit budget: a hard limit on dequeued configurations.

Start configurations are admitted unchecked, so a start may hold a state
above the cap; a successor that keeps such a state is pruned.  Every other
admitted configuration is within the cap in every slot, so a move from it
needs only the slot it changed checked, however many instances there are.

The verdict discipline keeps the bounds honest.  Reachable comes with a
replayable witness.  UnreachableWithinCap is only reported when the frontier
was exhausted and *no* cap pruning ever fired -- in that case the bounded
search actually saw the whole reachable space, so the answer is exact.
Anything else is Unknown, with the reason ("cap-overflow-seen" or
"budget-exhausted") preserved.

Exploration order is deterministic: FIFO queue, successors enumerated in
instance-declaration / component / choice order, goal tested at dequeue.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .gadgets import (
    Configuration,
    SystemFormatError,
    SystemIndex,
    SystemOfGadgets,
    Traversal,
    canonicalize,
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
    """Raw result of one bounded BFS sweep (shared by reach and verify).

    visited maps each reached configuration to its BFS parent edge
    (parent config, label), or None for a start configuration.
    start_revisited says whether some expanded configuration, or one the
    budget left queued, has a move back to a start: the one revisit
    ``visited`` cannot show.
    """

    visited: dict[Configuration, tuple[Configuration, Traversal] | None]
    goal_hit: Configuration | None
    overflowed: bool
    budget_exhausted: bool
    stats: SearchStats
    start_revisited: bool = False

    def path_to(self, config: Configuration) -> tuple[Traversal, ...]:
        return path_labels(self.visited, config)


def path_labels(parents: dict, node) -> tuple:
    """The labels on the path to ``node`` in a BFS parent map (node ->
    (parent node, label), or None at a start), first label first."""
    labels = []
    edge = parents[node]
    while edge is not None:
        node, label = edge
        labels.append(label)
        edge = parents[node]
    return tuple(reversed(labels))


def _magnitude(state) -> int | None:
    if isinstance(state, bool):  # bools are ints; refuse silently weird input
        return None
    if isinstance(state, int):
        return state
    if isinstance(state, tuple):
        return state[1]  # interval (lo, hi): cap applies to hi
    return None  # finite-gadget state


def sweep(index: SystemIndex, starts: list[Configuration], *, counter_cap: int,
          visit_budget: int, goal_class: int | None = None) -> Sweep:
    """Bounded BFS from ``starts``, in the index's state mode.  Stops early
    when a configuration at ``goal_class`` is dequeued.  Start configurations
    are admitted without a cap check (they were given, not found)."""
    visited: dict[Configuration, tuple[Configuration, Traversal] | None] = {}
    queue: deque[Configuration] = deque()
    max_counter = 0
    over_cap: set[Configuration] = set()  # starts with a slot above the cap
    for cfg in starts:
        if cfg not in visited:
            visited[cfg] = None
            queue.append(cfg)
            top = max((m for m in map(_magnitude, cfg.states) if m is not None), default=0)
            max_counter = max(max_counter, top)
            if top > counter_cap:
                over_cap.add(cfg)
    # ranged moves stop one amount past this: nothing they skip could be
    # admitted, or be a start
    move_cap = max(counter_cap, max_counter)
    overflowed = False
    budget_exhausted = False
    start_revisited = False
    goal_hit: Configuration | None = None
    explored = 0
    frontier_peak = len(queue)

    while queue:
        if explored >= visit_budget:
            budget_exhausted = True
            break
        cfg = queue.popleft()
        explored += 1
        if goal_class is not None and cfg.position == goal_class:
            goal_hit = cfg
            break
        # only a start above the cap needs every slot checked (module docstring)
        whole = over_cap and cfg in over_cap
        for label, nxt in index.successors(cfg, move_cap):
            parent = visited.get(nxt, False)  # False: not reached yet
            if parent is not False:
                if parent is None:
                    start_revisited = True
                continue
            for s in (nxt.states if whole else (label.after,)):
                m = _magnitude(s)
                if m is not None:
                    if m > counter_cap:
                        overflowed = True
                        break
                    if m > max_counter:
                        max_counter = m
            else:
                visited[nxt] = (cfg, label)
                queue.append(nxt)
        if len(queue) > frontier_peak:
            frontier_peak = len(queue)
    if budget_exhausted and not start_revisited:  # reached, never expanded
        start_revisited = any(visited.get(nxt, False) is None for cfg in queue
                              for _, nxt in index.successors(cfg, move_cap))

    return Sweep(visited, goal_hit, overflowed, budget_exhausted,
                 SearchStats(explored, frontier_peak, max_counter), start_revisited)


def bfs_reach(system: SystemOfGadgets | SystemIndex, counter_cap: int,
              visit_budget: int = 1_000_000) -> SearchOutcome:
    """Can the agent get from the start endpoint to the goal endpoint?

    See the module docstring for the verdict discipline.  The witness on a
    Reachable verdict is the traversal sequence of a shortest path found,
    suitable for replay().
    """
    if counter_cap < 0 or visit_budget < 0:
        raise SystemFormatError(
            f"cap and budget must be naturals, got {counter_cap} and {visit_budget}")
    index = system if isinstance(system, SystemIndex) else canonicalize(system)
    if index.goal_class is None:
        raise SystemFormatError("goal required: system document has no goal endpoint")
    start = index.start_config()
    result = sweep(index, [start], counter_cap=counter_cap,
                   visit_budget=visit_budget, goal_class=index.goal_class)
    if result.goal_hit is not None:
        witness = result.path_to(result.goal_hit)
        log.info("reachable in %d traversals (%d configs explored)",
                 len(witness), result.stats.explored)
        return SearchOutcome(Verdict.REACHABLE, None, witness, result.stats)
    if result.budget_exhausted:
        return SearchOutcome(Verdict.UNKNOWN, "budget-exhausted", None, result.stats)
    if result.overflowed:
        return SearchOutcome(Verdict.UNKNOWN, "cap-overflow-seen", None, result.stats)
    return SearchOutcome(Verdict.UNREACHABLE_WITHIN_CAP, None, None, result.stats)


class ReplayError(RuntimeError):
    def __init__(self, step: int, why: str) -> None:
        super().__init__(f"witness step {step}: {why}")
        self.step = step


def replay(system: SystemOfGadgets | SystemIndex, witness: tuple[Traversal, ...],
           start: Configuration | None = None) -> list[Configuration]:
    """Re-execute a traversal sequence, checking each step is legal.

    Returns the configuration sequence (len(witness) + 1 entries).  Raises
    ReplayError at the first label that does not match exactly one legal
    successor with the recorded states.
    """
    index = system if isinstance(system, SystemIndex) else canonicalize(system)
    cfg = index.start_config() if start is None else start
    trace = [cfg]
    for i, label in enumerate(witness):
        matches = [
            (lab, nxt) for (lab, nxt) in index.successors(cfg)
            if (lab.instance, lab.entry, lab.exit, lab.choice)
            == (label.instance, label.entry, label.exit, label.choice)
        ]
        if not matches:
            raise ReplayError(i, f"no legal traversal matches {label}")
        if len(matches) > 1:
            raise ReplayError(i, f"ambiguous traversal {label}")
        lab, nxt = matches[0]
        if lab.before != label.before or lab.after != label.after:
            raise ReplayError(
                i, f"state change mismatch: recorded {label.before}->{label.after}, "
                   f"replayed {lab.before}->{lab.after}")
        cfg = nxt
        trace.append(cfg)
    return trace
