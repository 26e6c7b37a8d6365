"""Frame-train exact-equivalence suite (DESIGN.md §2.2).

Trains are a pure representation change: the fused delivery pipeline, the
per-train route memo and the widened commit window must never move a wire
timestamp, a counter, an RNG draw, or an FCT.  Every test here runs the
same scenario as shipped (the port fuses every hop it may) and again under
:func:`helpers.classic_hops_only` (every hop on the classic per-frame
chain — the reference) and asserts byte-identical observables — FCT
fingerprints, every per-port :class:`PortStats` counter, ECN mark counts,
:func:`repro.metrics.pfc_frame_totals` ledgers and the sampled series —
plus one *engagement* guard: on a train-friendly fabric the fused path must
actually fire (``Port.train_frames > 0``), so a silently broken predicate
cannot pass as vacuous equivalence.

Split triggers covered: PFC XOFF mid-train (both injected ``pause()``
calls and real PFC storms under a tight XOFF threshold), ECN kmin
crossings mid-train (DCQCN's RED marking draws from the shared RNG
stream), a PacketTap attached to a switch, and per-packet LB strategies
(spray) whose switches refuse fusion outright.  Both copies of the
forward-time stamp are exercised branch by branch: FNCC live and
snapshot-table (``int_table_refresh_ps > 0``) ACK stamps, HPCC DATA
stamps, RoCC fair-rate min-combine.
"""

import random

import pytest

from helpers import classic_hops_only
from repro.experiments.common import run_microbench
from repro.experiments.fct_experiment import run_fct_experiment
from repro.experiments.lbmatrix import run_lb_cell
from repro.metrics import pfc_frame_totals
from repro.metrics.tap import PacketTap
from repro.net.packet import DATA
from repro.units import KB, us


def _nodes(topo):
    return list(topo.hosts) + list(topo.switches)


def port_stats_fingerprint(topo):
    """Every PortStats counter of every port, in wiring order."""
    out = []
    for node in _nodes(topo):
        for port in node.ports:
            s = port.stats
            out.append(
                (
                    node.name,
                    port.index,
                    s.tx_packets,
                    s.tx_bytes,
                    s.rx_packets,
                    s.rx_bytes,
                    s.max_qlen,
                    s.drops,
                    s.ecn_marked,
                    s.pause_sent,
                    s.pause_received,
                    s.resume_sent,
                    s.resume_received,
                )
            )
    return tuple(out)


def train_frames_total(topo):
    return sum(p.train_frames for n in _nodes(topo) for p in n.ports)


def _microbench_obs(**kw):
    r = run_microbench(**kw)
    return (
        r.fingerprint(),
        port_stats_fingerprint(r.topo),
        pfc_frame_totals(_nodes(r.topo)),
        train_frames_total(r.topo),
    )


def _ab(fn):
    """Run ``fn`` fused (as shipped) and on the classic-only reference;
    return both observations."""
    on = fn()
    with classic_hops_only():
        off = fn()
    return on, off


class TestScenarioEquivalence:
    def test_fncc_dumbbell_and_trains_engage(self):
        on, off = _ab(
            lambda: _microbench_obs(
                cc="fncc", link_rate_gbps=100.0, duration_us=200.0, seed=1
            )
        )
        assert on[:3] == off[:3]
        # Engagement guard: the INT-heavy FNCC dumbbell is the train
        # archetype — the fused path must actually fire as shipped and
        # must never fire on the reference.
        assert on[3] > 0
        assert off[3] == 0

    def test_dcqcn_ecn_marking_mid_train(self):
        # DCQCN configures RED/ECN: kmin crossings inside bursts draw from
        # the shared per-switch RNG stream; one skipped or extra draw
        # would desynchronize every later mark.
        on, off = _ab(
            lambda: _microbench_obs(
                cc="dcqcn",
                link_rate_gbps=100.0,
                duration_us=300.0,
                stagger_us=20.0,  # both elephants overlap: queue crosses kmin
                seed=2,
            )
        )
        assert on[:3] == off[:3]
        marked = sum(rec[8] for rec in on[1])
        assert marked > 0, "scenario must actually exercise ECN marking"

    def test_pfc_storm_xoff_mid_train(self):
        # A tight XOFF threshold forces real PAUSE/RESUME traffic: frames
        # bulk-committed into a train window get uncommitted at the frame
        # boundary exactly like the per-frame engine.
        on, off = _ab(
            lambda: _microbench_obs(
                cc="fncc",
                link_rate_gbps=100.0,
                duration_us=300.0,
                stagger_us=30.0,  # overlapped elephants: queue hits XOFF
                seed=3,
                pfc_xoff=40_000,
            )
        )
        assert on[:3] == off[:3]
        pauses = on[2]["pause_sent"]
        assert pauses > 0, "scenario must actually exercise PFC"

    @pytest.mark.parametrize("cc", ["fncc", "hpcc", "rocc"])
    def test_fct_experiment_websearch(self, cc):
        # One CC per stamp branch the two copies carry: FNCC stamps ACKs
        # from the live All_INT_Table, HPCC stamps DATA with the egress
        # queue it is about to join, RoCC min-combines the per-port
        # controller's fair rate into every ACK.
        def run():
            r = run_fct_experiment(
                cc, workload="websearch", n_flows=60, seed=5, max_horizon_ms=30.0
            )
            return (
                r.fct_fingerprint(),
                port_stats_fingerprint(r.topo),
                pfc_frame_totals(_nodes(r.topo)),
                train_frames_total(r.topo),
                any(
                    c is not None
                    for sw in r.topo.switches
                    for c in sw.port_controllers
                ),
            )

        on, off = _ab(run)
        assert on[:3] == off[:3]
        assert on[3] > 0 and off[3] == 0
        assert on[4] == off[4] == (cc == "rocc"), "RoCC controllers installed"

    def test_fncc_snapshot_int_table(self):
        # int_table_refresh_ps > 0 (the staleness ablation's knob): ACKs
        # are stamped from the periodically refreshed snapshot instead of
        # live port state — the other arm of the FNCC stamp branch.
        def run():
            from repro.experiments.common import build_cc_env, launch_flows
            from repro.metrics.fct import FctCollector
            from repro.net.switch import IntMode, SwitchConfig
            from repro.sim.engine import Simulator
            from repro.sim.rng import SeedSequenceFactory
            from repro.topo.base import LinkSpec
            from repro.topo.dumbbell import dumbbell
            from repro.traffic.generator import staggered_elephants
            from repro.units import MB

            sim = Simulator()
            env = build_cc_env("fncc")
            topo = dumbbell(
                sim,
                n_senders=2,
                link=LinkSpec(100.0, us(1.5)),
                switch_config=SwitchConfig(
                    int_mode=IntMode.FNCC, int_table_refresh_ps=us(2)
                ),
                seeds=SeedSequenceFactory(1),
            )
            collector = FctCollector(topo)
            flows = staggered_elephants(
                [h.host_id for h in topo.hosts[:2]],
                topo.hosts[-1].host_id,
                1 * MB,
                us(30),
            )
            launch_flows(topo, flows, env)
            sim.run(until=us(600))
            assert all(sw._int_snapshot is not None for sw in topo.switches)
            return (
                tuple(sorted((r.flow.flow_id, r.fct_ps) for r in collector.records)),
                port_stats_fingerprint(topo),
                pfc_frame_totals(_nodes(topo)),
                train_frames_total(topo),
            )

        on, off = _ab(run)
        assert on[:3] == off[:3]
        assert len(on[0]) == 2, "both elephants must complete"
        assert on[3] > 0 and off[3] == 0

    def test_spray_cell_refuses_fusion_but_matches(self):
        def run():
            cell = run_lb_cell(
                "spray", "fncc", workload="websearch", n_flows=60, seed=4
            )
            return (
                cell.fct_fingerprint(),
                port_stats_fingerprint(cell.topo),
                train_frames_total(cell.topo),
                all(not sw.train_transparent() for sw in cell.topo.switches),
            )

        on, off = _ab(run)
        assert on[:2] == off[:2]
        # Per-packet LB: every switch refuses fusion, so zero frames ride
        # the fused path even as shipped.
        assert on[2] == 0 and off[2] == 0
        assert on[3] and off[3]

    def test_ecmp_cell_permutation_elephants(self):
        def run():
            cell = run_lb_cell(
                "ecmp", "fncc", workload="permutation",
                perm_flow_bytes=300 * KB, seed=6,
            )
            return (
                cell.fct_fingerprint(),
                port_stats_fingerprint(cell.topo),
                train_frames_total(cell.topo),
            )

        on, off = _ab(run)
        assert on[:2] == off[:2]
        assert on[2] > 0 and off[2] == 0


class TestDepartureCopy:
    def test_reference_calls_on_departure_where_the_product_inlines_it(self):
        """``Port._tx_deliver`` carries one inlined copy of
        ``Switch.on_departure`` (buffer + PFC ingress-counter release) for
        every frame leaving a stock switch — towards a switch or a host.
        The reference side must reach the *method*, or both sides of every
        equivalence test above would run the same copy and share its bugs.
        A PFC storm makes the copy's RESUME arm fire."""
        from unittest import mock

        from repro.net.switch import Switch

        stock, calls = Switch.on_departure, []

        def spy(sw, pkt, port):
            calls.append(sw)
            stock(sw, pkt, port)

        def run():
            del calls[:]
            r = run_microbench(
                cc="fncc", link_rate_gbps=100.0, duration_us=300.0,
                stagger_us=30.0, seed=3, pfc_xoff=40_000,
            )
            switch_tx = sum(p.tx_packets for sw in r.topo.switches for p in sw.ports)
            return (
                (r.fingerprint(), port_stats_fingerprint(r.topo),
                 pfc_frame_totals(_nodes(r.topo))),
                len(calls), switch_tx,
            )

        with mock.patch.object(Switch, "on_departure", spy):
            (on, on_calls, on_tx), (off, off_calls, off_tx) = _ab(run)
        assert on == off
        assert on[2]["resume_sent"] > 0, "scenario must release a paused ingress"
        assert on_calls == 0  # as shipped: the inlined copy, never the method
        assert off_calls == off_tx == on_tx > 0  # reference: the method, every frame


class TestCommitWindowExactness:
    def test_train_max_never_moves_a_packet_backend_result(self):
        """``TRAIN_MAX`` (how far a pause-free switch-facing port may
        batch-fill its pending window) is exact on the packet backend:
        any value gives the same FCTs and PortStats, PFC storms included.
        1 and 3 leave the window at ``commit_lookahead``.  (The hybrid
        backend's ``bg_drain`` is *not* window-independent — its golden
        table is pinned to the shipped 3 / 8; ROADMAP item 7.)"""
        from unittest import mock

        import repro.net.port as port_mod

        def run(train_max):
            with mock.patch.object(port_mod, "TRAIN_MAX", train_max):
                r = run_fct_experiment(
                    "fncc", workload="websearch", n_flows=60, seed=5,
                    load=0.7, pfc_xoff=12_000, max_horizon_ms=30.0,
                )
            assert r.collector.completed() == 60
            return (
                r.fct_fingerprint(),
                port_stats_fingerprint(r.topo),
                pfc_frame_totals(_nodes(r.topo)),
            )

        shipped = run(port_mod.TRAIN_MAX)
        assert shipped[2]["pause_sent"] > 100, "the cell must keep PFC live"
        for train_max in (1, 3, 8, 16):
            assert run(train_max) == shipped, f"TRAIN_MAX={train_max}"


class TestRandomizedPauseScripts:
    """Injected pause/resume at random instants on the bottleneck port —
    XOFF/XON landing anywhere inside a bulk-committed train window —
    must leave every observable identical to the per-frame engine."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_pause_script(self, seed):
        rng = random.Random(seed)
        script = sorted(
            (rng.randrange(0, round(us(250))), rng.random() < 0.5)
            for _ in range(40)
        )

        def run_scripted():
            from repro.experiments.common import build_cc_env, launch_flows
            from repro.sim.engine import Simulator
            from repro.sim.rng import SeedSequenceFactory
            from repro.topo.base import LinkSpec
            from repro.topo.dumbbell import dumbbell
            from repro.traffic.generator import staggered_elephants
            from repro.units import MB

            sim = Simulator()
            seeds = SeedSequenceFactory(seed)
            env = build_cc_env("fncc", link_rate_gbps=100.0)
            topo = dumbbell(
                sim,
                n_senders=2,
                n_switches=2,
                link=LinkSpec(rate_gbps=100.0, prop_delay_ps=us(1.5)),
                switch_config=env.switch_config,
                seeds=seeds,
                cnp_enabled=env.cnp_enabled,
            )
            env.post_install(topo)
            flows = staggered_elephants(
                sender_ids=[h.host_id for h in topo.hosts[:2]],
                receiver_id=topo.hosts[-1].host_id,
                size_bytes=2 * MB,
                stagger_ps=us(30),
            )
            launch_flows(topo, flows, env)
            sw = topo.switches[0]
            nxt = topo.switches[1].name
            port = sw.ports[topo.graph.edges[sw.name, nxt]["ports"][sw.name]]
            for t, is_pause in script:
                if is_pause:
                    sim.schedule(t, lambda _arg, _p=port: _p.pause(0))
                else:
                    sim.schedule(t, lambda _arg, _p=port: _p.resume(0))
            sim.run(until=round(us(250)))
            return (
                port_stats_fingerprint(topo),
                pfc_frame_totals(_nodes(topo)),
                train_frames_total(topo),
            )

        on, off = _ab(run_scripted)
        assert on[:2] == off[:2]


class TestSplitTriggers:
    def test_tap_on_switch_forces_per_frame(self):
        def run(tap_switch):
            from repro.experiments.common import build_cc_env, launch_flows
            from repro.sim.engine import Simulator
            from repro.sim.rng import SeedSequenceFactory
            from repro.topo.base import LinkSpec
            from repro.topo.dumbbell import dumbbell
            from repro.traffic.generator import staggered_elephants
            from repro.units import MB

            sim = Simulator()
            seeds = SeedSequenceFactory(7)
            env = build_cc_env("fncc", link_rate_gbps=100.0)
            topo = dumbbell(
                sim,
                n_senders=2,
                n_switches=2,
                link=LinkSpec(rate_gbps=100.0, prop_delay_ps=us(1.5)),
                switch_config=env.switch_config,
                seeds=seeds,
                cnp_enabled=env.cnp_enabled,
            )
            env.post_install(topo)
            flows = staggered_elephants(
                sender_ids=[h.host_id for h in topo.hosts[:2]],
                receiver_id=topo.hosts[-1].host_id,
                size_bytes=1 * MB,
                stagger_ps=us(30),
            )
            launch_flows(topo, flows, env)
            tap = PacketTap(topo.switches[1], kind=DATA) if tap_switch else None
            sim.run(until=round(us(150)))
            captured = (
                tuple((t, p.size, p.seq) for t, p in tap.records)
                if tap is not None
                else None
            )
            fused_into_tapped = sum(
                port.train_frames
                for node in _nodes(topo)
                for port in node.ports
                if port.peer is not None
                and port.peer.node is topo.switches[1]
            )
            stats = port_stats_fingerprint(topo)
            if tap is not None:
                tap.uninstall()
                # The gate must be restored for post-tap traffic.
                assert topo.switches[1].train_transparent()
            return captured, fused_into_tapped, stats

        cap_on, fused_on, stats_on = run(tap_switch=True)
        assert fused_on == 0, "a tapped switch must split trains per-frame"
        with classic_hops_only():
            cap_off, fused_off, stats_off = run(tap_switch=True)
        assert cap_on == cap_off
        assert stats_on == stats_off
        # Untapped control run: fusion engages through the same switch.
        _, fused_untapped, _ = run(tap_switch=False)
        assert fused_untapped > 0

    def test_reinstall_under_tap_keeps_gate_closed(self):
        # install_lb while a tap wraps the switch must not reopen the
        # fused-path gate (the spy would silently miss fused frames);
        # uninstall recomputes the gate from live state and leaves the
        # instance pristine.
        from repro.experiments.common import build_cc_env
        from repro.lb import install_lb
        from repro.sim.engine import Simulator
        from repro.sim.rng import SeedSequenceFactory
        from repro.topo.base import LinkSpec
        from repro.topo.dumbbell import dumbbell

        sim = Simulator()
        topo = dumbbell(
            sim,
            n_senders=2,
            n_switches=2,
            link=LinkSpec(rate_gbps=100.0, prop_delay_ps=us(1.5)),
            switch_config=build_cc_env("fncc").switch_config,
            seeds=SeedSequenceFactory(1),
        )
        sw = topo.switches[0]
        assert sw.train_transparent()
        tap = PacketTap(sw, kind=DATA)
        assert not sw.train_transparent()
        install_lb(topo, "ecmp")  # mid-run strategy change under the tap
        assert not sw._train_ok, "reinstall must not reopen a tapped gate"
        tap.uninstall()
        assert "receive" not in sw.__dict__  # pristine: class method back
        assert sw.train_transparent()

    def test_hand_swapped_router_splits(self):
        # A router assigned directly (not via install_lb) must refuse
        # fusion even though the lb flags still advertise transparency.
        from repro.experiments.common import build_cc_env
        from repro.sim.engine import Simulator
        from repro.sim.rng import SeedSequenceFactory
        from repro.topo.base import LinkSpec
        from repro.topo.dumbbell import dumbbell

        sim = Simulator()
        topo = dumbbell(
            sim,
            n_senders=2,
            n_switches=2,
            link=LinkSpec(rate_gbps=100.0, prop_delay_ps=us(1.5)),
            switch_config=build_cc_env("fncc").switch_config,
            seeds=SeedSequenceFactory(1),
        )
        sw = topo.switches[0]
        assert sw.train_transparent()
        orig = sw.router
        sw.router = lambda s, p: orig(s, p)
        assert not sw.train_transparent()

    def test_reference_never_fuses_and_demotion_after_pfc(self):
        with classic_hops_only():
            r = run_microbench(
                cc="fncc", link_rate_gbps=100.0, duration_us=120.0, seed=1
            )
        assert train_frames_total(r.topo) == 0
        # Real PFC traffic demotes the widened train window: a port that
        # has received XOFF keeps the tight commit_lookahead bound.
        r = run_microbench(
            cc="fncc",
            link_rate_gbps=100.0,
            duration_us=300.0,
            stagger_us=30.0,
            seed=3,
            pfc_xoff=40_000,
        )
        paused_ports = [
            p
            for n in _nodes(r.topo)
            for p in n.ports
            if p.stats.pause_received > 0
        ]
        assert paused_ports, "scenario must exercise PFC"
