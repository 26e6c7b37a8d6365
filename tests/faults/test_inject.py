"""FaultInjector: zero-perturbation, reproducibility, recovery (DESIGN.md §10).

The acceptance criteria pinned here:

* ``faults=None`` vs an armed no-op plan → byte-identical FCT fingerprints
  AND byte-identical port counters (the wire-level witness);
* an identical (plan, seed) pair reproduces identical fingerprints across
  runs and across ``--jobs`` pool workers;
* a hard link failure leaves zero hung flows: every flow completes or
  reaches the flow-failed terminal state;
* switch fail-stop partitions its traffic into flow-failed, never a hang.
"""

import pytest

from repro.experiments.common import (
    build_cc_env,
    launch_flows,
    portstats_fingerprint,
)
from repro.experiments.faultmatrix import (
    QUICK_SLICE,
    run_fault_cell,
    run_faultmatrix,
)
from repro.experiments.fct_experiment import run_fct_experiment
from repro.faults import FaultInjector, FaultPlan
from repro.sim.rng import SeedSequenceFactory
from repro.topo.dumbbell import dumbbell
from repro.transport.flow import Flow
from repro.transport.sender import TransportConfig
from repro.units import KB, us

CELL = dict(cc="fncc", n_flows=40, max_horizon_ms=10.0, seed=3)


def test_noop_plan_is_zero_perturbation():
    off = run_fct_experiment(faults=None, **CELL)
    armed = run_fct_experiment(faults=FaultPlan.noop(), **CELL)
    assert off.fct_fingerprint() == armed.fct_fingerprint()
    assert portstats_fingerprint(off.topo) == portstats_fingerprint(armed.topo)


def test_same_plan_same_seed_reproduces():
    kw = dict(profile="flap", lb="ecmp", cc="fncc", seed=5)
    a = run_fault_cell(**kw)
    b = run_fault_cell(**kw)
    assert a.fct_fingerprint() == b.fct_fingerprint()
    assert a.stats == b.stats
    assert a.events_dispatched == b.events_dispatched


def test_fingerprints_identical_across_jobs():
    serial = run_faultmatrix(seed=2, jobs=1, **QUICK_SLICE)
    pooled = run_faultmatrix(seed=2, jobs=2, **QUICK_SLICE)
    assert set(serial) == set(pooled)
    for key, cell in serial.items():
        assert cell.fct_fingerprint() == pooled[key].fct_fingerprint(), key
        assert cell.stats == pooled[key].stats, key


def test_link_down_cell_zero_hung_flows():
    cell = run_fault_cell(profile="linkdown", lb="ecmp", cc="fncc", seed=1)
    assert cell.hung == 0
    # The fault actually fired and bit: some flows degraded to flow-failed.
    assert cell.failed > 0
    assert cell.completed() + cell.failed == cell.n_flows
    assert cell.stats["events"] > 0
    assert cell.stats["drops_link_down"] > 0


def test_adaptive_lb_recovers_more_than_ecmp():
    ecmp = run_fault_cell(profile="linkdown", lb="ecmp", cc="fncc", seed=1)
    flowlet = run_fault_cell(profile="linkdown", lb="flowlet", cc="fncc", seed=1)
    assert flowlet.hung == 0
    # Flowlet reroutes around the dead uplink at the agg hop; static ECMP
    # hashes cannot, so adaptive LB completes at least as many flows.
    assert flowlet.completed() >= ecmp.completed()


def _dumbbell_flow(sim, plan=None, retx=True, size=200 * KB):
    seeds = SeedSequenceFactory(9)
    env = build_cc_env("fncc")
    tc = TransportConfig(
        retx_timeout_ps=us(150) if retx else 0,
        retx_backoff_cap=3,
        retx_max_timeouts=5,
    )
    topo = dumbbell(
        sim, n_senders=1, n_switches=3, seeds=seeds, transport_config=tc,
        switch_config=env.switch_config, cnp_enabled=env.cnp_enabled,
    )
    injector = None
    if plan is not None:
        injector = FaultInjector(plan).arm(sim, topo, seeds=seeds)
    flow = Flow(0, 0, topo.hosts[-1].host_id, size)
    qps = launch_flows(topo, [flow], env)
    return topo, qps[0], injector


def test_switch_fail_degrades_to_flow_failed(sim):
    plan = FaultPlan("kill-sw1").switch_fail("sw1", at_ps=us(3))
    topo, qp, injector = _dumbbell_flow(sim, plan)
    sim.run(until=us(5000))
    assert qp.failed
    assert qp.finished
    assert injector.counters["drops_switch_fail"] > 0
    # The receiver never saw the tail: no completion record.
    assert not topo.hosts[-1].receivers[0].completed


def test_link_down_then_up_heals_single_path(sim):
    # Down for 40 us mid-transfer on the only path: the sender must ride
    # RTO backoff through the outage and still finish after it comes up.
    plan = FaultPlan("blip").link_flap(
        "sw0", "sw1", start_ps=us(5), flaps=1, down_ps=us(40), up_ps=0
    )
    topo, qp, injector = _dumbbell_flow(sim, plan)
    sim.run(until=us(5000))
    assert not qp.failed
    assert topo.hosts[-1].receivers[0].completed
    assert injector.counters["drops_link_down"] > 0


def test_injector_rejects_unknown_node(sim):
    plan = FaultPlan("typo").link_down("sw0", "nonexistent", at_ps=0)
    seeds = SeedSequenceFactory(1)
    topo = dumbbell(sim, n_senders=1, n_switches=2, seeds=seeds)
    with pytest.raises((KeyError, ValueError)):
        FaultInjector(plan).arm(sim, topo, seeds=seeds)


def test_gray_loss_armed_on_a_host_mid_run_filters_the_next_frame():
    """The injector's wrapper lands in the *host's* instance dict while
    frames are already flowing; ``Port._tx_deliver`` looks ``receive`` up
    per frame, so from the loss window's first instant every DATA frame
    the last hop delivers goes through the filter (prob=1: dropped) and
    none reaches the QP until the window closes."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    seeds = SeedSequenceFactory(3)
    env = build_cc_env("fncc")
    topo = dumbbell(
        sim, n_senders=1, n_switches=2, seeds=seeds,
        switch_config=env.switch_config,
        transport_config=TransportConfig(retx_timeout_ps=us(100)),
    )
    env.post_install(topo)
    receiver = topo.hosts[-1]
    qp = launch_flows(topo, [Flow(0, 0, receiver.host_id, 400_000)], env)[0]
    sim.run(until=us(20))
    rqp = receiver.receivers[0]
    nic = receiver.ports[0]
    seen, arrived = rqp.data_packets, nic.rx_packets
    assert 0 < seen and not rqp.completed  # genuinely mid-flow

    plan = FaultPlan("late").gray_loss(
        "sw1", receiver.name, start_ps=sim.now, end_ps=us(40), prob=1.0
    )
    inj = FaultInjector(plan).arm(sim, topo, seeds=seeds)
    sim.run(until=us(40) - 1)
    in_window = nic.rx_packets - arrived
    assert in_window > 10  # the wire kept delivering...
    assert inj.counters["drops_gray"] == nic.drops == in_window  # ...into the filter
    assert rqp.data_packets == seen  # and not one frame leaked past it

    sim.run(until=us(5_000))
    assert rqp.completed and not qp.failed and qp.timeouts > 0  # go-back-N repaired it
    assert inj.counters["drops_gray"] == in_window
