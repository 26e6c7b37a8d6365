"""Receiver OOO buffer under injected gray loss.

Satellite of the fault-injection PR: gray loss punches holes in the data
stream, so the reorder-tolerant receiver buffers past-the-hole frames,
NACK-flagged duplicate ACKs arm the sender's fast rewind, and the flow
still completes.  OOO-buffer mishandling — a purge victim counted twice,
buffered frames left behind at completion — trips the occupancy asserts.
"""

from repro.experiments.common import build_cc_env, launch_flows
from repro.faults import FaultInjector, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.dumbbell import dumbbell
from repro.transport.flow import Flow
from repro.transport.sender import TransportConfig
from repro.units import KB, us


def _run_grayloss(seed=7, prob=0.02, size=500 * KB):
    sim = Simulator()
    seeds = SeedSequenceFactory(seed)
    env = build_cc_env("fncc")
    tc = TransportConfig(
        retx_timeout_ps=us(200),
        retx_backoff_cap=3,
        retx_max_timeouts=10,
        reorder_window_bytes=256 * KB,
        dupack_rewind=3,
    )
    topo = dumbbell(
        sim, n_senders=1, n_switches=2, seeds=seeds, transport_config=tc,
        switch_config=env.switch_config, cnp_enabled=env.cnp_enabled,
    )
    plan = FaultPlan("gray").gray_loss(
        "sw0", "sw1", start_ps=us(2), end_ps=us(5000), prob=prob,
    )
    injector = FaultInjector(plan).arm(sim, topo, seeds=seeds)
    flow = Flow(0, 0, topo.hosts[-1].host_id, size)
    qps = launch_flows(topo, [flow], env)
    sim.run(until=us(20_000))
    return topo, qps[0], injector


def test_grayloss_ooo_recovery_drains_the_buffer():
    topo, qp, injector = _run_grayloss()
    rqp = topo.hosts[-1].receivers[0]
    # The fault bit and the loss-recovery machinery engaged.
    assert injector.counters["drops_gray"] > 0
    assert rqp.ooo_buffered > 0
    assert rqp.dup_acks_sent > 0
    # Recovery succeeded: the flow completed, not failed.
    assert rqp.completed
    assert not qp.failed
    # Every buffered frame was delivered or purged; the buffer and its
    # occupancy gauge drained to zero.
    assert rqp._ooo == {}
    assert rqp._ooo_bytes == 0
    assert rqp.ooo_delivered + rqp.ooo_duplicates >= rqp.ooo_buffered


def test_grayloss_fast_rewind_fires():
    # Heavier loss makes stale-retransmission dup ACKs (NACK-flagged)
    # inevitable, so the dup-ACK rewind path — not just RTO — recovers.
    topo, qp, injector = _run_grayloss(seed=11, prob=0.05)
    rqp = topo.hosts[-1].receivers[0]
    assert rqp.completed
    assert qp.fast_rewinds > 0
    assert rqp._ooo == {} and rqp._ooo_bytes == 0
