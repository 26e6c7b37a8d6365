"""Partition planner, lookahead alignment, and frame-message units."""

import pytest

from repro.net.packet import DATA, INTRecord, Packet
from repro.shard import (
    PartitionError,
    aligned_window,
    decode_frame,
    encode_frame,
    fattree_plan,
    plan_partition,
)
from repro.sim.engine import Simulator
from repro.topo.fattree import fattree_wiring
from repro.units import MS, us


@pytest.fixture(scope="module")
def fattree_topo():
    return fattree_wiring(Simulator(), k=4)


def test_host_switch_cut_rejected(fattree_topo):
    owner = fattree_plan(fattree_topo, 2).owner.copy()
    # Strand a host on the wrong side of its edge switch.
    owner["h_0_0_0"] = 1
    with pytest.raises(PartitionError, match="switch--switch"):
        plan_partition(fattree_topo, owner)


def test_unassigned_node_rejected(fattree_topo):
    owner = fattree_plan(fattree_topo, 2).owner.copy()
    del owner["h_0_0_0"]
    with pytest.raises(PartitionError, match="without a shard"):
        plan_partition(fattree_topo, owner)


def test_cutless_map_rejected(fattree_topo):
    owner = {n: 0 for n in fattree_plan(fattree_topo, 2).owner}
    with pytest.raises(PartitionError, match="cuts no links"):
        plan_partition(fattree_topo, owner, n_shards=1)


def test_fattree_plan_cuts_at_core():
    from repro.experiments.fct_experiment import build_fct_fabric

    fab = build_fct_fabric("fncc", k=4, n_flows=1, scale=0.1)
    plan = fattree_plan(fab.topo, 2)
    assert plan.n_shards == 2
    for cut in plan.cuts:
        names = {cut.a.split("_")[0], cut.b.split("_")[0]}
        assert names == {"agg", "core"}
    # A pod never straddles shards.
    for sw in fab.topo.switches:
        if sw.name.startswith(("tor_", "agg_")):
            pod = sw.name.split("_")[1]
            assert plan.owner[sw.name] == plan.owner[f"agg_{pod}_0"]
    with pytest.raises(PartitionError, match="divide the pod count"):
        fattree_plan(fab.topo, 3)


@pytest.mark.parametrize("k, shards", [(4, 2), (4, 4), (8, 2)])
def test_plan_from_wiring_equals_plan_from_the_built_fabric(k, shards):
    """The coordinator plans from an unrouted fat-tree; the workers derive
    the cut set from their fully built ones.  Same cuts, same indices."""
    from repro.experiments.fct_experiment import build_fct_fabric
    from repro.shard import run_sharded_fct

    def facts(plan):
        cuts = [
            (c.index, c.a, c.b, c.owner_a, c.owner_b, c.prop_delay_ps)
            for c in plan.cuts
        ]
        return plan.n_shards, plan.owner, cuts, plan.lookahead_ps

    cell = dict(k=k, n_flows=1, scale=0.1)
    wired = run_sharded_fct("fncc", shards=shards, **cell).plan
    built = fattree_plan(build_fct_fabric("fncc", **cell).topo, shards)
    assert facts(wired) == facts(built)
    assert len(wired.cuts) == (k // 2) ** 2 * (k - k // shards)


def test_aligned_window_divides_chunk():
    w = aligned_window(us(1.5), MS // 2)
    assert w <= us(1.5)
    assert (MS // 2) % w == 0
    assert aligned_window(MS, MS // 2) == MS // 2
    with pytest.raises(ValueError):
        aligned_window(0, MS // 2)


def test_frame_roundtrip_preserves_every_slot():
    pkt = Packet(DATA, flow_id=7, src=1, dst=2, seq=3, size=1104, payload=1000)
    pkt.ecn = True
    pkt.ecn_echo = True
    pkt.int_records = [INTRecord(100.0, 123, 456, 789)]
    pkt.n_flows = 4
    pkt.rocc_rate_gbps = 25.0
    pkt.last = True
    pkt.sent_ts = 42
    pkt.echo_sent_ts = 41
    pkt.fncc_in_port = 5
    pkt.hops = 3
    pkt.lb_tag = 9
    pkt.lb_tail = 8
    out = decode_frame(encode_frame(pkt))
    for slot in (
        "kind", "flow_id", "src", "dst", "seq", "size", "payload", "ecn",
        "ecn_echo", "n_flows", "rocc_rate_gbps", "last", "sent_ts",
        "echo_sent_ts", "fncc_in_port", "hops", "lb_tag", "lb_tail",
    ):
        assert getattr(out, slot) == getattr(pkt, slot), slot
    (rec,) = out.int_records
    assert (rec.bandwidth_gbps, rec.ts, rec.tx_bytes, rec.qlen) == (
        100.0, 123, 456, 789,
    )
    # The rebuilt record is a fresh object — no aliasing across the cut.
    assert rec is not pkt.int_records[0]
