"""Measurement layer: samplers for queue/rate/utilization time series,
pause-frame accounting, and FCT-slowdown collection.

Everything samples on coarse timers or completion events — never per
packet — so measurement does not distort the hot path (per the HPC guides'
"profile realistic runs" advice).  Post-processing (means, percentiles,
binning) is plain python in :mod:`repro.metrics.stats`, bit-equal to the
numpy reductions it replaced; no figure process imports numpy.
"""

from repro.metrics.series import TimeSeries
from repro.metrics.monitors import (
    QueueSampler,
    RateSampler,
    UtilizationSampler,
    pause_frame_count,
    pfc_frame_totals,
    frame_hops,
    topo_frame_hops,
)
from repro.metrics.ideal import ideal_fct_ps
from repro.metrics.fct import FctCollector, SlowdownTable, SIZE_BINS_WEBSEARCH, SIZE_BINS_HADOOP

__all__ = [
    "TimeSeries",
    "QueueSampler",
    "RateSampler",
    "UtilizationSampler",
    "pause_frame_count",
    "pfc_frame_totals",
    "frame_hops",
    "topo_frame_hops",
    "ideal_fct_ps",
    "FctCollector",
    "SlowdownTable",
    "SIZE_BINS_WEBSEARCH",
    "SIZE_BINS_HADOOP",
]
