"""FCT-slowdown collection and the size-binned percentile tables of
Figs. 14 and 15.

``SIZE_BINS_*`` are exactly the x-axis bins of the paper's figures (a flow
falls in the first bin whose upper bound is >= its size).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.metrics.ideal import ideal_fct_ps
from repro.metrics.stats import mean, percentile
from repro.transport.flow import FlowRecord
from repro.units import KB, MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.topo.base import Topology
    from repro.transport.receiver import ReceiverQP

#: Fig. 14 x-axis (WebSearch): 10KB ... 30MB.
SIZE_BINS_WEBSEARCH: List[int] = [
    10 * KB, 20 * KB, 30 * KB, 50 * KB, 80 * KB, 200 * KB,
    1 * MB, 2 * MB, 5 * MB, 10 * MB, 30 * MB,
]

#: Fig. 15 x-axis (FB_Hadoop): 75B ... 1MB.
SIZE_BINS_HADOOP: List[int] = [
    75, 250, 350, 1 * KB, 2 * KB, 6 * KB, 10 * KB, 15 * KB,
    23 * KB, 24 * KB, 25 * KB, 100 * KB, 1 * MB,
]

PERCENTILE_COLUMNS = ("average", "median", "p95", "p99")

_PERCENTILE_OF = {"median": 50, "p95": 95, "p99": 99}


def _column_stat(vals: List[float], column: str) -> Optional[float]:
    """One ``PERCENTILE_COLUMNS`` statistic of ``vals``; None when empty."""
    if column not in PERCENTILE_COLUMNS:
        raise ValueError(f"unknown column {column!r}")
    if not vals:
        return None
    if column == "average":
        return mean(vals)
    return percentile(vals, _PERCENTILE_OF[column])


class FctCollector:
    """Attach to every host; records a :class:`FlowRecord` (with exact ideal
    FCT from the topology's path data) on each flow completion."""

    def __init__(self, topo: "Topology") -> None:
        self.topo = topo
        self.records: List[FlowRecord] = []
        for host in topo.hosts:
            host.fct_sink = self._on_complete

    def _on_complete(self, rqp: "ReceiverQP") -> None:
        flow = rqp.flow
        rec = FlowRecord(flow, rqp.finish_ps)
        mtu = self.topo.transport_config.mtu
        header = self.topo.transport_config.header_bytes
        rec.ideal_fct_ps = ideal_fct_ps(
            flow.size_bytes,
            self.topo.path_links(flow.src, flow.dst),
            mtu=mtu,
            header=header,
        )
        self.records.append(rec)

    # -- summaries -----------------------------------------------------------------
    def slowdowns(self) -> List[float]:
        return [r.slowdown for r in self.records]

    def completed(self) -> int:
        return len(self.records)

    def fingerprint(self) -> Tuple[Tuple[int, int], ...]:
        """``(flow_id, fct_ps)`` pairs, sorted — the FCT half of the
        byte-identity witness (the other half is
        :func:`repro.experiments.common.portstats_fingerprint`)."""
        return tuple(sorted((r.flow.flow_id, r.fct_ps) for r in self.records))

    def table(self, bins: Sequence[int]) -> "SlowdownTable":
        return SlowdownTable.from_records(self.records, bins)


class SlowdownTable:
    """Per-size-bin slowdown statistics — one table == one Fig. 14/15 panel
    family (avg / median / 95th / 99th across the bins)."""

    def __init__(self, bins: Sequence[int]) -> None:
        self.bins = list(bins)
        self.by_bin: Dict[int, List[float]] = {b: [] for b in self.bins}
        self.overflow: List[float] = []

    @classmethod
    def from_records(
        cls, records: Sequence[FlowRecord], bins: Sequence[int]
    ) -> "SlowdownTable":
        table = cls(bins)
        for rec in records:
            table.add(rec.flow.size_bytes, rec.slowdown)
        return table

    def add(self, size_bytes: int, slowdown: float) -> None:
        for b in self.bins:
            if size_bytes <= b:
                self.by_bin[b].append(slowdown)
                return
        self.overflow.append(slowdown)

    def stat(self, bin_upper: int, column: str) -> Optional[float]:
        return _column_stat(self.by_bin.get(bin_upper) or [], column)

    def aggregate(
        self, column: str, min_size: int = 0, max_size: int = 1 << 62
    ) -> Optional[float]:
        """A single statistic over all flows with min_size < size <= max_size
        (used for the paper's headline claims, e.g. 'flows shorter than
        100KB' or 'larger than 1MB')."""
        vals: List[float] = []
        prev = 0
        for b in self.bins:
            if prev >= min_size and b <= max_size:
                vals.extend(self.by_bin[b])
            prev = b
        if max_size >= 1 << 61:
            vals.extend(self.overflow)
        return _column_stat(vals, column)

    def row_counts(self) -> Dict[int, int]:
        return {b: len(v) for b, v in self.by_bin.items()}
