"""The benchmark harness behind ``benchmarks/``.

One function per figure of the paper's evaluation section, each returning
the rows of that figure (x-value plus measured series), plus table
formatting shared by the benchmark scripts and EXPERIMENTS.md generation.
"""

from benchmarks.bench.figures import (
    fig8_rows,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    fig12_rows,
)
from benchmarks.bench.tables import format_table

__all__ = [
    "fig10_rows",
    "fig11_rows",
    "fig12_rows",
    "fig8_rows",
    "fig9_rows",
    "format_table",
]
