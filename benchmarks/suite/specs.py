"""Workload descriptors: one frozen, keyword-only, assert-validated spec
per workload holds every size the suite uses.  A smoke run and a full run
differ only in which table (:data:`SMOKE` / :data:`FULL`) they read;
nothing comes from the environment.

Sizes are set by the driver's budget (README "Run shape"): one run is
``--seconds`` of back-to-back cells, and a metric is the median over the
cells, so a cell has to cost about a second for the median to rest on ten
or more samples.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CCS = ("dcqcn", "hpcc", "fncc")


@functools.cache
def manifest() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@dataclass(frozen=True, kw_only=True)
class WebsearchFattree:
    """Fig. 14's default cell, one fat-tree run per CC."""

    ccs: tuple
    k: int
    load: float
    n_flows: int
    scale: float
    max_horizon_ms: float

    def __post_init__(self):
        assert self.ccs and set(self.ccs) <= set(CCS) and "fncc" in self.ccs
        assert self.k >= 4 and self.k % 2 == 0
        assert 0.0 < self.load < 1.0
        assert self.n_flows > 0 and self.scale > 0 and self.max_horizon_ms > 0


@dataclass(frozen=True, kw_only=True)
class IncastLasthop:
    """N-to-1 incast on a star, run to completion under each CC."""

    ccs: tuple
    n_senders: int
    flow_bytes: int
    pfc_xoff: int
    link_rate_gbps: float
    max_horizon_ms: float

    def __post_init__(self):
        assert self.ccs and set(self.ccs) <= set(CCS) and "fncc" in self.ccs
        assert self.n_senders >= 2 and self.flow_bytes > 0
        assert self.pfc_xoff > 0 and self.link_rate_gbps > 0
        assert self.max_horizon_ms > 0


@dataclass(frozen=True, kw_only=True)
class HybridFluid:
    """One FNCC cell under the hybrid backend's strict scale config."""

    k: int
    load: float
    n_flows: int
    scale: float
    threshold: float
    min_link_flows: int
    congested_frac: float
    refine_rounds: int
    mouse_bytes: int
    epoch_us: float
    bg_quantum_bytes: int

    def __post_init__(self):
        assert self.k >= 4 and self.k % 2 == 0
        assert 0.0 < self.load < 1.0 and self.n_flows > 0 and self.scale > 0
        assert 0.0 < self.threshold <= 1.0 and self.min_link_flows >= 1
        assert 0.0 <= self.congested_frac <= 1.0 and self.refine_rounds >= 0
        assert self.mouse_bytes >= 0 and self.epoch_us > 0
        assert self.bg_quantum_bytes >= 1


@dataclass(frozen=True, kw_only=True)
class CliFig15:
    """``python -m repro.experiments.runner fig15 --jobs N``: the sizes are
    the CLI's own defaults (k=4, 300 Hadoop flows per CC, load 0.5), which
    is the point — this is the command a user types."""

    experiment: str
    jobs: int
    ccs: tuple
    n_flows: int

    def __post_init__(self):
        assert self.experiment == "fig15" and self.jobs >= 2
        assert self.ccs == CCS and self.n_flows == 300


@dataclass(frozen=True, kw_only=True)
class ShardFattree:
    """One FNCC cell on the process-backed sharded engine."""

    shards: int
    k: int
    load: float
    n_flows: int
    scale: float

    def __post_init__(self):
        assert self.shards >= 2 and self.k >= 4 and self.k % 2 == 0
        assert self.k >= self.shards  # pods are split across shards
        assert 0.0 < self.load < 1.0 and self.n_flows > 0 and self.scale > 0


@dataclass(frozen=True, kw_only=True)
class RunShape:
    """How a run is measured, apart from the workloads' own sizes."""

    n_setup: int  # set-ups per run; setup_s is their median
    min_cells: int  # timed cells per run, even if --seconds is spent
    max_cells: int  # stop here even if --seconds is not spent
    kernel_batches: int  # a kernel reports the min over this many batches
    kernel_share: float  # share of --seconds the kernels may use
    kernel_k: int  # fat-tree arity of the "k8" topology kernels

    def __post_init__(self):
        assert self.n_setup >= 1 and self.n_setup % 2 == 1
        assert 1 <= self.min_cells <= self.max_cells
        assert self.kernel_batches >= 1 and 0.0 <= self.kernel_share <= 1.0
        assert self.kernel_k >= 4 and self.kernel_k % 2 == 0


_STRICT_HYBRID = dict(
    threshold=0.99,
    min_link_flows=10,
    congested_frac=0.9,
    refine_rounds=0,
    mouse_bytes=0,
    epoch_us=200.0,
    bg_quantum_bytes=64 * 1518,
)

FULL = {
    "websearch_fattree": WebsearchFattree(
        ccs=CCS, k=4, load=0.5, n_flows=80, scale=0.1, max_horizon_ms=50.0
    ),
    "incast_lasthop": IncastLasthop(
        ccs=("fncc", "hpcc", "dcqcn"),
        n_senders=32,
        flow_bytes=600_000,
        pfc_xoff=40_000,
        link_rate_gbps=100.0,
        max_horizon_ms=50.0,
    ),
    "hybrid_fluid_5k": HybridFluid(
        k=8, load=0.4, n_flows=800, scale=0.01, **_STRICT_HYBRID
    ),
    "cli_fig15_jobs2": CliFig15(experiment="fig15", jobs=2, ccs=CCS, n_flows=300),
    "shard_fattree_2proc": ShardFattree(
        shards=2, k=8, load=0.3, n_flows=300, scale=0.04
    ),
}
FULL_SHAPE = RunShape(
    n_setup=5, min_cells=3, max_cells=10_000, kernel_batches=3,
    kernel_share=0.35, kernel_k=8,
)

SMOKE = {
    "websearch_fattree": WebsearchFattree(
        ccs=CCS, k=4, load=0.5, n_flows=6, scale=0.02, max_horizon_ms=50.0
    ),
    "incast_lasthop": IncastLasthop(
        ccs=("fncc", "hpcc", "dcqcn"),
        n_senders=4,
        flow_bytes=30_000,
        pfc_xoff=40_000,
        link_rate_gbps=100.0,
        max_horizon_ms=50.0,
    ),
    "hybrid_fluid_5k": HybridFluid(
        k=4, load=0.4, n_flows=20, scale=0.01, **_STRICT_HYBRID
    ),
    "cli_fig15_jobs2": FULL["cli_fig15_jobs2"],
    "shard_fattree_2proc": ShardFattree(
        shards=2, k=4, load=0.3, n_flows=8, scale=0.02
    ),
}
SMOKE_SHAPE = RunShape(
    n_setup=1, min_cells=1, max_cells=1, kernel_batches=1,
    kernel_share=0.0, kernel_k=4,
)

WORKLOADS = tuple(FULL)
assert tuple(SMOKE) == WORKLOADS

#: What one unit of ``work_per_s`` is on each workload (README "Metrics").
WORK_UNIT = {
    "websearch_fattree": "frame-hops",
    "incast_lasthop": "frame-hops",
    "hybrid_fluid_5k": "flows",
    "cli_fig15_jobs2": "flows",
    "shard_fattree_2proc": "frame-hops",
}


def sub_seed(seed: int, cell: int) -> int:
    """The simulator seed of timed cell ``cell`` in a run with ``--seed``
    ``seed``: distinct per cell, so a run's median is taken over inputs as
    well as over box noise, and distinct across run seeds."""
    assert seed >= 0 and 0 <= cell < 1000
    return seed * 1000 + cell + 1
