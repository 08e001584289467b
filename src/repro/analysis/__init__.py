"""Determinism & store-phase-discipline checking for the reproduction.

:mod:`repro.analysis.engine` + :mod:`repro.analysis.rules`: an AST lint
engine with the repo-specific rules ``RPR001``–``RPR010`` (``RPR008`` retired), one row each
of :data:`~repro.analysis.rules.RULES` (``python -m repro.analysis
--list-rules`` prints the catalogue).  Run as ``python -m repro.analysis
src tests benchmarks examples`` (the CI gate); suppress an intended
exception with ``# repro: allow[RPRnnn]`` on or above the line.
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

__all__ = [
    "Finding",
    "ModuleContext",
    "RULES_BY_CODE",
    "Rule",
    "analyze_source",
    "collect_files",
    "default_rules",
    "render",
    "render_json",
    "render_text",
    "run_analysis",
]
