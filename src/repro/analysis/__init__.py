"""Analysis and reporting: census of complexes, figure reconstructions,
experiment tables.

* :mod:`repro.analysis.counting` — f-vectors and per-color view censuses
  (the numbers behind Fig. 8 and Fig. 5);
* :mod:`repro.analysis.figures` — the structures shown in the paper's
  figures, reconstructed as data;
* :mod:`repro.analysis.reporting` — plain-text tables for EXPERIMENTS.md
  and the benchmark harness.
"""

from repro.analysis.counting import per_color_census
from repro.analysis.figures import (
    figure4_complex_and_map,
    figure5_complex,
    figure6_simplices,
    figure7_complex,
    figure8_census,
)
from repro.analysis.reporting import render_table, ExperimentRow
from repro.analysis.cache_report import (
    CacheStatsRow,
    cache_stats_rows,
    render_cache_report,
)

__all__ = [
    "per_color_census",
    "figure4_complex_and_map",
    "figure5_complex",
    "figure6_simplices",
    "figure7_complex",
    "figure8_census",
    "render_table",
    "ExperimentRow",
    "CacheStatsRow",
    "cache_stats_rows",
    "render_cache_report",
]
