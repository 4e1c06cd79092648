"""Smoke test of the benchmark's workloads.

Runs the first case of each workload in ``bench/workloads.py`` at seed 0
through that case's own check, so a change to the package that breaks a
benchmark case (a renamed function, a moved pin) fails here rather than
only in a benchmark run.  The bisimulation workloads are cheap enough to
run every case, so each pinned relation size is checked here too.  It
reads ``bench/`` and changes nothing there.
"""

from __future__ import annotations

import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

import gadgetforge

_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@cache
def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["corpus", "ladder", "quintet", "interval"])
def test_first_case_of_each_workload_passes_its_check(name):
    workloads = _workloads()
    assert name in workloads.WORKLOADS
    case = workloads.setup(name, gadgetforge, workloads.DEFAULT_SEED).cases[0]
    error, _ = case.check(case.run())
    assert error is None, f"{name} {case.label}: {error}"


@pytest.mark.parametrize("name", ["quintet", "interval"])
def test_every_case_of_each_bisimulation_workload_passes_its_check(name):
    workloads = _workloads()
    for case in workloads.setup(name, gadgetforge, workloads.DEFAULT_SEED).cases:
        error, _ = case.check(case.run())
        assert error is None, f"{name} {case.label}: {error}"
