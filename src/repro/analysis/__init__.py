"""Determinism & store-phase-discipline checking for the reproduction.

Two halves, one contract:

* **Static** — :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules`:
  an AST lint engine with the repo-specific rules ``RPR001``–``RPR010``,
  one row each of :data:`~repro.analysis.rules.RULES`
  (``python -m repro.analysis --list-rules`` prints the catalogue).
  Run as ``python -m repro.analysis src tests benchmarks examples`` (the
  CI gate); suppress an intended exception with
  ``# repro: allow[RPRnnn]`` on or above the line.
* **Dynamic** — :mod:`repro.analysis.runtime`: debug-mode
  instrumentation that wraps a store's lock and container state with
  owner-asserting proxies, deterministically raising
  :class:`~repro.analysis.runtime.LockDisciplineError` on any access
  that does not hold the store lock — the dynamic check the static
  rules cannot make.
"""

from repro.analysis.engine import (
    Finding,
    ModuleContext,
    Rule,
    analyze_source,
    collect_files,
    run_analysis,
)
from repro.analysis.report import render, render_json, render_text
from repro.analysis.rules import RULES_BY_CODE, default_rules
from repro.analysis.runtime import (
    InstrumentedRLock,
    LockDisciplineError,
    StoreInstrumentation,
    instrument_store,
    lock_discipline,
)

__all__ = [
    "Finding",
    "InstrumentedRLock",
    "LockDisciplineError",
    "ModuleContext",
    "RULES_BY_CODE",
    "Rule",
    "StoreInstrumentation",
    "analyze_source",
    "collect_files",
    "default_rules",
    "instrument_store",
    "lock_discipline",
    "render",
    "render_json",
    "render_text",
    "run_analysis",
]
