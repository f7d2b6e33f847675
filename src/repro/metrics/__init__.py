"""Measurement and analysis.

:class:`~repro.metrics.collector.Collector` records per-node
transmitted/received bytes with a warmup cutoff; the analysis helpers
aggregate them into the quantities the paper reports — average receive
rate per node group, total network throughput and the analytic
``tmax`` curve of figures 5–8; the improvement factors are the figure
drivers' (``repro.experiments``).
"""

from repro.metrics.collector import Collector
from repro.metrics.analysis import (
    mean_rate_gbps,
    group_rates,
    tmax_gbps,
    jain_fairness,
)
from repro.metrics.timeseries import TimeSeries
from repro.metrics.tree_tracker import (
    CongestionTreeTracker,
    TreeDynamics,
    congested_ports,
)
from repro.metrics.ascii_chart import sparkline, line_chart
from repro.metrics.latency import LatencyTracker

__all__ = [
    "Collector",
    "mean_rate_gbps",
    "group_rates",
    "tmax_gbps",
    "jain_fairness",
    "congested_ports",
    "TimeSeries",
    "CongestionTreeTracker",
    "TreeDynamics",
    "sparkline",
    "line_chart",
    "LatencyTracker",
]
