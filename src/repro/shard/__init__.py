"""Topology-partitioned parallel simulation (DESIGN.md §11).

A fabric is cut at switch–switch boundaries into per-shard sub-fabrics;
each shard runs a complete, independently-built copy of the topology but
only *owns* (launches flows on, reports counters for) its partition.
Shards advance their event heaps in lockstep windows bounded by the cut
links' propagation delay (the conservative lookahead) and exchange
boundary-crossing frames as plain-data messages at each barrier.

Correctness bar: byte-identical FCT and port-counter fingerprints versus
the serial engine — pinned by ``tests/shard``.
"""

from repro.shard.partition import (
    Cut,
    PartitionError,
    PartitionPlan,
    fattree_plan,
    plan_partition,
)
from repro.shard.messages import decode_frame, encode_frame
from repro.shard.boundary import Boundary, rewire_boundaries
from repro.shard.runtime import (
    ShardCrash,
    ShardEngine,
    aligned_window,
    run_sharded,
)
from repro.shard.drivers import run_sharded_fct

__all__ = [
    "Boundary",
    "Cut",
    "PartitionError",
    "PartitionPlan",
    "ShardCrash",
    "ShardEngine",
    "aligned_window",
    "decode_frame",
    "encode_frame",
    "fattree_plan",
    "plan_partition",
    "rewire_boundaries",
    "run_sharded",
    "run_sharded_fct",
]
