"""gadgetforge benchmark: time to verdict on one workload.

    python3 bench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a checkout: it imports the package from the
checkout's ``src/`` directory and refuses any other copy.  One process
runs one workload, single-threaded, as a closed loop (each case starts
after the previous verdict).  Whole passes over the workload's cases
repeat while one more pass still fits in ``--seconds``; every case's
result is checked outside the timed span.

Times are in reference seconds (see ``speed.py``): seconds scaled by how
fast the machine ran a fixed loop around and during each timed span, so
that the drift of a shared machine's speed does not show up as a change in
the program.  The raw seconds are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
pass with the median wall time, the tracing overhead against the untraced
passes, and bytes per visited configuration from a tracemalloc rerun of
the pass's largest sweep; that pass's spans go to ``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print the
same metrics with their units, and the error rate.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_ROUNDS = 11

UNITS = {"setup_s": "s", "wall_s": "s", "verdict_p50_ms": "ms",
         "verdict_p99_ms": "ms", "peak_rss_mb": "MB"}  # the end-to-end metrics


def fresh_import():
    """Import gadgetforge from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "gadgetforge" or n.startswith("gadgetforge.")]:
        del sys.modules[name]
    gf = importlib.import_module("gadgetforge")
    if Path(gf.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"gadgetforge imported from {gf.__file__}, not from {SRC}")
    return gf


class Stopwatch:
    """Times spans of the main thread, minus what the probe took of them."""

    def __init__(self, probe: speed.Probe) -> None:
        self.probe = probe
        self.spans: list[tuple[float, float, float]] = []  # (start, end, probe time)

    def start(self) -> None:
        self._t0, self._spent0 = perf_counter(), self.probe.spent

    def stop(self) -> None:
        t1 = perf_counter()
        self.spans.append((self._t0, t1, self.probe.spent - self._spent0))

    def raw(self) -> list[float]:
        return [t1 - t0 - p for t0, t1, p in self.spans]

    def scales(self) -> list[float]:
        """Reference seconds per second, per span; call after the probe stopped."""
        return [self.probe.scale(t0, t1) for t0, t1, _ in self.spans]


def set_up(workload: str, seed: int, probe: speed.Probe):
    """Import, generate the seeded inputs and compute the reference answers,
    SETUP_ROUNDS times; the last round's package and plan are used."""
    watch = Stopwatch(probe)
    for _ in range(SETUP_ROUNDS):
        watch.start()
        gf = fresh_import()
        plan = workloads.setup(workload, gf, seed)
        watch.stop()
    return gf, plan, watch


@dataclass
class Pass:
    watch: Stopwatch  # one span per case
    failed: int
    errors: list[str]
    tracer: tracing.Tracer | None = None


def run_pass(plan: workloads.Plan, probe: speed.Probe,
             tracer: tracing.Tracer | None = None) -> Pass:
    watch = Stopwatch(probe)
    errors, summaries = [], []
    for k, case in enumerate(plan.cases):
        if tracer:
            tracer.case_id = k  # for the spans of the case and of its check
        watch.start()
        try:
            result = tracer.run_case(case.run) if tracer else case.run()
        except Exception as exc:  # a case that raises is a failed case
            watch.stop()
            errors.append(f"{case.label}: raised {exc!r}")
            continue
        watch.stop()
        try:
            err, summary = case.check(result)
        except Exception as exc:  # so is one whose check raises (a bad replay)
            err, summary = f"check raised {exc!r}", None
        del result
        summaries.append(summary)
        if err is not None:
            errors.append(f"{case.label}: {err}")
    failed = len(errors)
    if len(summaries) == len(plan.cases):
        pin_err = plan.check_pass(summaries)
        if pin_err is not None:
            # a pinned total moved and no single case can be blamed
            errors.append(pin_err)
            failed = len(plan.cases)
    return Pass(watch, failed, errors, tracer)


def repeat(step, seconds: float) -> None:
    """Call ``step`` at least once, then again while one more call as long
    as the last would still end within ``seconds`` of the start."""
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        step()
        now = perf_counter()
        if (now - t_start) + (now - t0) > seconds:
            return


def case_times(p: Pass) -> list[float]:
    """Reference seconds per case."""
    return [t * s for t, s in zip(p.watch.raw(), p.watch.scales())]


def end_to_end(passes: list[Pass], setup: Stopwatch) -> dict[str, float]:
    # each case at its median over the passes, so that a slow stretch of the
    # machine inflates one sample of a case rather than the whole pass
    per_pass = [case_times(p) for p in passes]
    per_case = [statistics.median(ts[k] for ts in per_pass) for k in range(len(per_pass[0]))]
    return {
        "setup_s": statistics.median(t * s for t, s in zip(setup.raw(), setup.scales())),
        "wall_s": sum(per_case),
        "verdict_p50_ms": statistics.median(per_case) * 1e3,
        # only corpus has enough cases to put ten beyond p99; elsewhere this
        # is close to the slowest case
        "verdict_p99_ms": statistics.quantiles(per_case, n=100, method="inclusive")[98] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(gf, untraced: list[Pass], traced: list[Pass], probe: speed.Probe
              ) -> tuple[dict[str, float], tracing.Tracer]:
    """The metrics of the traced pass with the median wall time, and its tracer."""
    probes = probe.samples()
    layers = [tracing.layer_metrics(p.tracer, p.watch.scales(), probes) for p in traced]
    k = sorted(range(len(traced)), key=lambda i: layers[i]["trace.wall_s"])[(len(traced) - 1) // 2]
    metrics, tracer = layers[k], traced[k].tracer
    untraced_wall = statistics.median(sum(case_times(p)) for p in untraced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_pct"] = (metrics["trace.wall_s"] / untraced_wall - 1) * 100
    metrics["reach.bytes_per_config"] = tracing.bytes_per_config(gf, tracer)
    return {name: metrics[name] for name in tracing.UNITS}, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    untraced: list[Pass] = []
    traced: list[Pass] = []

    def plain_pass():
        gc.collect()
        untraced.append(run_pass(plan, probe))

    def pass_pair():
        plain_pass()
        gc.collect()
        tracer = tracing.Tracer()
        with tracing.installed(tracer, gf):
            traced.append(run_pass(plan, probe, tracer))

    with speed.Probe() as probe:
        try:
            gf, plan, setup = set_up(args.workload, args.seed, probe)
        except ImportError as exc:
            print(f"error: cannot import gadgetforge from {SRC}: {exc}", file=sys.stderr)
            return 2
        gc.collect()
        repeat(pass_pair if args.trace else plain_pass, args.seconds)

    if args.trace:
        metrics, tracer = per_layer(gf, untraced, traced, probe)
        units = tracing.UNITS
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        print(f"# spans of the reported pass in {spans}")
    else:
        metrics, units = end_to_end(untraced, setup), UNITS

    passes = untraced + traced
    attempted = sum(len(p.watch.spans) for p in passes)
    failed = sum(p.failed for p in passes)
    for err in [e for p in passes for e in p.errors][:10]:
        print(f"FAILED {err}", file=sys.stderr)
    raw_wall = statistics.median(sum(p.watch.raw()) for p in untraced)
    ref_per_s = statistics.median(s for p in untraced for s in p.watch.scales())
    print(f"# workload {args.workload}, seed {args.seed}, {len(passes)} passes of "
          f"{len(plan.cases)} cases; untraced pass {raw_wall:.3f} raw s at "
          f"{ref_per_s:.3f} reference s per s")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6f} {units[name]}")
    print(f"{'error_rate':32s} {failed / attempted:>16.6f} ({failed} of {attempted} failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
