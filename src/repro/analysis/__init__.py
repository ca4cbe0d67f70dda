"""Experiment drivers and reporting for every paper artifact.

One module per evaluation artifact:

- :mod:`~repro.analysis.table1` — detour availability across the nine
  ISP maps (Table 1);
- :mod:`~repro.analysis.fig3` — the fairness worked example, both
  analytic and chunk-level (Fig. 3);
- :mod:`~repro.analysis.fig4` — flow-level throughput and path-stretch
  experiments (Fig. 4a / Fig. 4b);
- :mod:`~repro.analysis.reporting` — ASCII tables, bar charts and CDF
  plots used by the benches and examples.
"""

from repro.analysis.records import Comparison, ComparisonTable
from repro.analysis.reporting import ascii_bar_chart, ascii_cdf, ascii_table
from repro.analysis.table1 import Table1Result, run_table1
from repro.analysis.fig3 import (
    Fig3Result,
    fig3_fluid,
    run_fig3_simulation,
)
from repro.analysis.fig4 import Fig4Result, run_fig4

__all__ = [
    "Comparison",
    "ComparisonTable",
    "ascii_table",
    "ascii_bar_chart",
    "ascii_cdf",
    "Table1Result",
    "run_table1",
    "Fig3Result",
    "fig3_fluid",
    "run_fig3_simulation",
    "Fig4Result",
    "run_fig4",
]
