"""Guard for the benchmark's per-layer tracer.

``bench/tracing.py`` patches named attributes of the package's modules
(and ``SystemIndex.successors``) to time each layer.  A refactor that
renames or drops one of them would only show up under ``--trace 1``;
this test makes it fail here instead.  It reads ``bench/`` and changes
nothing there.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import gadgetforge

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets(gadgetforge)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in targets
               if attr not in vars(owner)]
    assert missing == []
