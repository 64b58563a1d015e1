"""Analyses of meta-telescope data (the paper's Sections 6-8)."""

from repro.analysis.ports import (
    PortActivity,
    port_activity_by_group,
    top_ports,
    top_ports_per_group,
)
from repro.analysis.geo_dist import country_counts
from repro.analysis.nettypes import type_continent_matrix
from repro.analysis.prefix_index import prefix_index_distribution
from repro.analysis.hilbert_viz import render_hilbert_ascii, hilbert_grid
from repro.analysis.variability import daily_series
from repro.analysis.sampling_study import sampling_sweep
from repro.analysis.backscatter_analysis import BackscatterAnalysis, detect_victims
from repro.analysis.scanners_analysis import (
    ScannerReport,
    campaign_summary,
    classify_campaign,
    detect_scanners,
)
from repro.analysis.as_dark_share import dark_share_by_as
from repro.analysis.comparison import PortComparison, compare_port_statistics
from repro.analysis.stability import StabilityReport, stability_report

__all__ = [
    "PortActivity",
    "port_activity_by_group",
    "top_ports",
    "top_ports_per_group",
    "country_counts",
    "type_continent_matrix",
    "prefix_index_distribution",
    "render_hilbert_ascii",
    "hilbert_grid",
    "daily_series",
    "sampling_sweep",
    "BackscatterAnalysis",
    "detect_victims",
    "ScannerReport",
    "campaign_summary",
    "classify_campaign",
    "detect_scanners",
    "dark_share_by_as",
    "PortComparison",
    "compare_port_statistics",
    "StabilityReport",
    "stability_report",
]
