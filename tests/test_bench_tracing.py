"""Guard for the benchmark's per-layer tracer.

``bench/tracing.py`` patches named attributes of the package's modules
(and ``SystemIndex.successors``) to time each layer, and reads counts off
what ``reach.sweep`` returns.  A refactor that renames or drops one of
them, or changes what a sweep result holds, would only show up under
``--trace 1``; these tests make it fail here instead.  They read
``bench/`` and change nothing there.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import gadgetforge
from gadgetforge import gadgets, lower, machine, reach

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_exists():
    tracing = _tracing()
    targets = tracing._targets(gadgetforge)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in targets
               if attr not in vars(owner)]
    assert missing == []


def test_a_sweep_feeds_the_tracer_hooks():
    tracing = _tracing()
    program = machine.parse_program("0: INC c0\n1: JZ c0 3\n2: HALT\n3: HALT\n")
    index = gadgets.canonicalize(lower.pipeline(program, "inc-jzdec").system)
    args = (index, [index.start_config()])
    kwargs = {"counter_cap": 6, "visit_budget": 10**6}
    result = reach.sweep(*args, **kwargs)

    tracer = tracing.Tracer()
    sid = tracer._enter("reach.sweep")
    tracer._exit(sid, 0.0, 1.0)
    tracing._on_sweep(tracer, sid, result, args, kwargs)
    explored, peak, visited, starts = tracer.numbers[sid]
    assert (explored, peak) == (result.stats.explored, result.stats.frontier_peak)
    assert visited == len(result.configurations(range(len(index.prefix)))) > 1
    assert starts == 1
    per_config = tracing.bytes_per_config(gadgetforge, tracer)
    assert isinstance(per_config, float) and per_config > 0


def test_the_tracer_sees_the_builders_through_pipeline():
    # pipeline looks its stage builders up when a stage runs, so the
    # patched module attributes are the ones it calls
    tracing = _tracing()
    program = machine.parse_program("0: INC c0\n1: JZ c0 0\n2: HALT\n")
    with tracing.installed(tracing.Tracer(), gadgetforge) as tracer:
        lower.pipeline(program, "inc-ab", range_params=(1, 2, 1, 2))
    assert {"lower.pipeline", "lower.substitute", "lower.sim_incdecjz_via_incjzdec",
            "lower.sim_incdecnzpz_via_incab"} <= set(tracer.names)
