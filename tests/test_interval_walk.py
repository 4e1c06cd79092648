"""The interval walk on packed keys, and the index an artifact keeps.

``verify._interval_walk`` runs the BFS kernel itself and decodes only the
keys at the op's exit class.  The oracle below is the walk as it was when
it ran ``reach.sweep`` on a fresh index, kept verbatim; every ranged
artifact with (a, b, c, d) in {1, 2}^4, direct and via duplicators, merged
and unmerged, must give the same outcome lists, in order, and the same
error texts, on seeded walks and on walks that hit the cap.  The oracle
runs on a fresh index and the walk on the artifact's kept one, so warm
memo tables are compared against cold ones too.

The work guard holds one interval benchmark case (a bisimulation and
three walks on one artifact) to one interval index and no ``sweep``.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

from gadgetforge import gadgets as G, lower, reach, verify
from gadgetforge.gadgets import Configuration, SystemFormatError, canonicalize
from gadgetforge.reach import sweep
from gadgetforge.verify import InvariantViolation, check_bisimulation, check_interval_invariant


def reference_interval_walk(index, op_classes, vec, op, counter_cap):
    """``verify._interval_walk`` as it was before it ran the kernel itself."""
    if not isinstance(op, str) or op not in op_classes:
        raise SystemFormatError(f"unknown op {op!r}; want inc/decnz/pz")
    entry_cls, exit_cls = op_classes[op]
    start = Configuration(entry_cls, index.at_rest(vec))
    result = sweep(index, [start], counter_cap=counter_cap, visit_budget=verify._WALK_BUDGET)
    if result.overflowed or result.budget_exhausted:
        raise InvariantViolation(
            f"op {op!r} from {vec} hit the cap/budget (cap={counter_cap}); "
            f"raise counter_cap to make the walk conclusive")
    return [cfg.states for cfg, parent in result.configurations((exit_cls,)).values()
            if parent is not None]


def _artifacts():
    """(id, build arguments) of every ranged artifact that builds; via
    duplicators needs [a, b] and [c, d] to overlap."""
    cases = []
    for params in itertools.product((1, 2), repeat=4):
        a, b, c, d = params
        if a > b or c > d:
            continue
        for expand, merged in itertools.product(("direct", "via-duplicators"), (False, True)):
            if expand == "via-duplicators" and (b < c or d < a):
                with pytest.raises(SystemFormatError, match="overlap"):
                    lower.sim_incdecnzpz_via_incab(*params, expand=expand)
                continue
            name = "".join(map(str, params)) + f"-{expand}" + ("-merged" if merged else "")
            cases.append(pytest.param(params, expand, merged, id=name))
    return cases


_ARTIFACTS = _artifacts()


def test_every_ranged_artifact_is_covered():
    # 9 ranges x (direct, via duplicators) x (merged, unmerged), less the
    # two ranges whose intervals do not overlap, via duplicators
    assert len(_ARTIFACTS) == 9 * 4 - 2 * 2


def _outcome(walk, *args):
    try:
        return walk(*args)
    except (InvariantViolation, SystemFormatError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("params, expand, merged", _ARTIFACTS)
def test_the_walk_matches_the_sweep_based_walk(params, expand, merged):
    art = lower.sim_incdecnzpz_via_incab(*params, expand=expand, merged=merged)
    index, classes = verify._op_classes(art)
    fresh = canonicalize(art.system, "interval")
    assert fresh is not index and fresh.class_at == index.class_at
    # the cap check_interval_invariant gives a walk of 20 ops
    full = max(h for (_, (h, _)) in art.encoding.iaffine) * 22 + 2
    anchor = art.provenance["anchor"]
    walks = 0
    for seed in (0, 1):
        rng = random.Random(f"{params} {expand} {merged} {seed}")
        n, vec = 0, index.at_rest(art.encoding.state_for(0, "interval"))
        for _ in range(20):
            # every op at that cap, at one that holds the anchors but not
            # the walk, and at 0
            for op in ("inc", "decnz", "pz"):
                for cap in (full, anchor * n, 0):
                    got = _outcome(verify._interval_walk, index, classes, vec, op, cap)
                    assert got == _outcome(reference_interval_walk, fresh, classes, vec, op, cap)
                    walks += 1
            op = rng.choice(["inc", "decnz"] if n else ["inc", "pz"])
            outcomes = verify._interval_walk(index, classes, vec, op, full)
            assert len(outcomes) == 1
            n, vec = n + verify._OPS[op], outcomes[0]
    assert walks == 2 * 20 * 9


@pytest.mark.parametrize("params, expand, merged", _ARTIFACTS[::5])
def test_bad_walk_inputs_get_the_sweep_based_texts(params, expand, merged):
    art = lower.sim_incdecnzpz_via_incab(*params, expand=expand, merged=merged)
    index, classes = verify._op_classes(art)
    fresh = canonicalize(art.system, "interval")
    vec = index.at_rest(art.encoding.state_for(1, "interval"))
    bad_vectors = [vec[:-1], vec + ((0, 0),), ((3, 2),) + vec[1:], ((-1, 0),) + vec[1:],
                   ((True, 1),) + vec[1:], ("x",) + vec[1:], [list(s) for s in vec]]
    cases = ([(vec, op, 8) for op in ("dec", None, ["inc"])]
             + [(vec, "inc", cap) for cap in (-1, 2.5, True, None, "8")]
             + [(bad, "inc", 8) for bad in bad_vectors]
             + [(bad, op, cap) for bad in bad_vectors[:2] for op, cap in (("x", 8), ("pz", -1))])
    for v, op, cap in cases:
        want = _outcome(reference_interval_walk, fresh, classes, v, op, cap)
        assert want[0] in ("SystemFormatError", "InvariantViolation"), (v, op, cap)
        assert _outcome(verify._interval_walk, index, classes, v, op, cap) == want


@pytest.mark.parametrize("params, expand, merged", _ARTIFACTS[::3])
def test_invariant_snapshots_match_the_sweep_based_walk(params, expand, merged, monkeypatch):
    art = lower.sim_incdecnzpz_via_incab(*params, expand=expand, merged=merged)
    rng = random.Random(f"{params} {expand} {merged}")
    walks, n = [[]], 0
    for _ in range(30):
        op = rng.choice(["inc", "decnz"] if n else ["inc", "pz"])
        walks[0].append(op)
        n += verify._OPS[op]
    walks.append(walks[0] + ["decnz"] * (n + 1))  # its last op is infeasible
    got = [_outcome(check_interval_invariant, art, ops) for ops in walks]
    monkeypatch.setattr(verify, "_interval_walk", lambda index, *args: reference_interval_walk(
        canonicalize(index.system, "interval"), *args))
    assert got == [_outcome(check_interval_invariant, art, ops) for ops in walks]
    assert got[1] == ("InvariantViolation", f"step {len(walks[1]) - 1}: op 'decnz' infeasible at n=0")


# ------------------------------------------------------------ the kept index

def test_an_artifact_keeps_one_index_per_mode():
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    interval = verify._index(art, "interval")
    assert interval.mode == "interval" and verify._index(art, "interval") is interval
    assert verify._op_classes(art)[0] is interval
    concrete = verify._index(art, "concrete")
    assert concrete.mode == "concrete" and concrete is not interval
    assert verify._index(art, None) is concrete
    # a system or an index is not kept: canonicalize stays fresh
    assert verify._index(art.system, "interval") is not interval
    assert canonicalize(art.system, "interval") is not canonicalize(art.system, "interval")
    assert verify._index(interval, None) is interval
    # another artifact, if equal, has its own
    copy = dataclasses.replace(art)
    assert copy == art and verify._index(copy, "interval") is not interval


def test_a_bisimulation_and_its_walks_share_the_artifact_index(monkeypatch):
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    built = _count_indexes(monkeypatch)
    spec = G.catalog()["inc-decnz-pz"]
    report = check_bisimulation(art, spec, cap=4, mode="interval")
    vec = art.encoding.state_for(1, "interval")
    assert verify.interval_step(art, vec, "inc", counter_cap=20)
    check_interval_invariant(art, ["inc", "decnz", "pz"])
    assert check_bisimulation(art, spec, cap=4, mode="interval") == report
    assert built.count("interval") == 1
    # a plain system is indexed by every check
    check_bisimulation(art.system, spec, cap=4, mode="interval", encoding=art.encoding)
    assert built.count("interval") == 2


@pytest.mark.parametrize("mode", ["sideways", [5], "", 5, "Interval"])
def test_a_bad_mode_is_named_before_any_lookup(mode):
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    kept = dict(vars(art))
    with pytest.raises(SystemFormatError,
                       match=rf"^mode must be concrete or interval, got {re.escape(repr(mode))}$"):
        check_bisimulation(art, G.catalog()["inc-decnz-pz"], cap=2, mode=mode)
    assert vars(art) == kept


def test_an_index_in_another_mode_is_no_kept_index():
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    spec = G.catalog()["inc-decnz-pz"]
    interval = verify._index(art, "interval")
    with pytest.raises(SystemFormatError, match="^index is in interval mode, not 'concrete'$"):
        check_bisimulation(interval, spec, cap=2, encoding=art.encoding, mode="concrete")
    with pytest.raises(SystemFormatError, match="^mode must be concrete or interval, got None$"):
        G.SystemIndex(art.system, None)
    # None on an artifact is concrete mode, whatever it kept before, as on
    # its system
    assert verify._index(art, None).mode == "concrete"
    assert (check_bisimulation(art, spec, cap=2)
            == check_bisimulation(art.system, spec, cap=2, encoding=art.encoding))


# --------------------------------------------------------------- work guard

def _count_indexes(monkeypatch) -> list[str]:
    """The mode of every SystemIndex built from here on."""
    built, init = [], G.SystemIndex.__init__

    def counting(self, system, mode="concrete"):
        built.append(mode)
        init(self, system, mode)

    monkeypatch.setattr(G.SystemIndex, "__init__", counting)
    return built


def test_an_interval_case_indexes_once_and_never_sweeps(monkeypatch):
    # as the interval benchmark runs one case: a bisimulation at cap 16 and
    # three seeded walks of 60 ops on one artifact
    rng = random.Random(0)
    walks = []
    for _ in range(3):
        ops, n = [], 0
        for _ in range(60):
            ops.append(op := rng.choice(["inc", "decnz"] if n else ["inc", "pz"]))
            n += verify._OPS[op]
        walks.append(ops)
    built = _count_indexes(monkeypatch)
    sweeps = []
    counted = lambda *args, **kwargs: sweeps.append(1) or sweep(*args, **kwargs)  # noqa: E731
    monkeypatch.setattr(reach, "sweep", counted)
    monkeypatch.setattr(verify, "sweep", counted)
    art = lower.sim_incdecnzpz_via_incab(1, 2, 1, 2)
    report = check_bisimulation(art, G.catalog()["inc-decnz-pz"], cap=16, mode="interval")
    assert report.relation_size == 4_835
    for ops in walks:
        assert len(check_interval_invariant(art, ops)) == 61
    assert built.count("interval") == 1
    assert sweeps == []
