"""PfcWatchdog: stuck-XOFF detection, storm isolation, restoration.

Uses the storm-isolation scenario from :mod:`repro.net.pfc_analysis`: a
wedged host NIC sprays PAUSE refreshes at its ToR (the SONiC pfc_wd
motivating case).  PAUSE latches until RESUME in this simulator, so an
un-watchdogged storm is a *permanent* stall — the innocent flow sharing
the wedged host's NIC never completes and the victim flow only escapes
via the transport RTO budget (flow-failed).  With the watchdog armed the
storm is detected within ``detect_ps + poll_ps``, absorbed, and the
innocent flow finishes at its fault-free FCT scale.
"""

import pytest

from repro.net.pfc_analysis import run_storm_isolation
from repro.net.switch import PfcWatchdogConfig, arm_watchdog
from repro.sim.rng import SeedSequenceFactory
from repro.topo.dumbbell import dumbbell
from repro.units import us


def test_unwatched_storm_victimizes_innocent_flow():
    r = run_storm_isolation(watchdog=False)
    # Innocent flow shares the wedged NIC's ToR: PFC backpressure starves
    # it forever (no RESUME ever arrives).
    assert r.innocent_fct_ps is None
    # The storm victim degrades gracefully: flow-failed, not hung.
    assert r.victim_failed
    assert r.wd_state is None


def test_watchdog_detects_and_isolates_storm():
    r = run_storm_isolation(watchdog=True, detect_us=30.0, restore_us=60.0)
    wd = r.wd_state
    assert wd["storms_detected"] >= 1
    # Detection window: the first storm must latch within detect + poll of
    # storm onset; by end-of-run the stuck queue is long past that bound,
    # so absorbed PAUSE refreshes and dropped frames prove isolation ran.
    assert wd["pauses_ignored"] > 0
    assert wd["pkts_dropped"] > 0
    # Isolation payoff: the innocent flow completes.
    assert r.innocent_fct_ps is not None
    # The victim still cannot reach the wedged host: graceful degradation.
    assert r.victim_failed


def test_watchdog_restores_after_storm_ends():
    # Short storm (200 us) inside a long run: refreshes stop, and after
    # restore_ps of silence the watchdog returns the queue to normal PFC.
    r = run_storm_isolation(
        watchdog=True,
        detect_us=30.0,
        restore_us=60.0,
        storm_duration_us=200.0,
        duration_us=6000.0,
    )
    wd = r.wd_state
    assert wd["storms_detected"] >= 1
    assert wd["storms_restored"] >= 1
    assert wd["active"] == []


def test_watchdog_run_is_deterministic():
    a = run_storm_isolation(watchdog=True, seed=4)
    b = run_storm_isolation(watchdog=True, seed=4)
    assert a.innocent_fct_ps == b.innocent_fct_ps
    assert a.wd_state == b.wd_state
    assert a.upstream_pauses == b.upstream_pauses


def test_a_pause_shorter_than_detect_resets_the_watch(sim):
    topo = dumbbell(sim, seeds=SeedSequenceFactory(1))
    sw = topo.switches[0]
    wd = arm_watchdog(sw, PfcWatchdogConfig(detect_ps=us(40)))  # polled every 10 us
    port = sw.ports[0]
    sim.schedule_at(us(12), lambda _: port.pause())
    sim.schedule_at(us(33), lambda _: port.resume())
    sim.run(until=us(25))
    assert port.index in wd._since
    sim.run(until=us(60))
    assert port.index not in wd._since and not wd.storms


def test_a_watchdog_drop_below_xon_resumes_the_paused_ingress(sim):
    from repro.net.packet import DATA, Packet

    topo = dumbbell(sim, seeds=SeedSequenceFactory(1))
    sw = topo.switches[1]
    pkt = Packet(DATA, size=1000)
    pkt.in_port = 0
    sw.buffer_used += pkt.size
    sw._pfc_bytes[0] = pkt.size
    sw._pfc_paused_up[0] = True
    sw._wd_drop_frame(pkt, 1)
    assert sw.ports[0].resume_sent == 1 and not sw._pfc_paused_up[0]
    assert sw.ports[1].drops == 1


def test_double_arm_rejected(sim):
    topo = dumbbell(sim, n_senders=1, n_switches=1, seeds=SeedSequenceFactory(1))
    sw = topo.switches[0]
    arm_watchdog(sw, PfcWatchdogConfig(detect_ps=us(10)))
    with pytest.raises(RuntimeError):
        arm_watchdog(sw, PfcWatchdogConfig(detect_ps=us(10)))


def test_config_validation():
    with pytest.raises(ValueError):
        PfcWatchdogConfig(detect_ps=0)
