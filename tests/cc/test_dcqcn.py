"""DCQCN rate state machine: CNP reaction, alpha dynamics, increase phases."""

import pytest

from repro.cc.dcqcn import Dcqcn, DcqcnConfig
from repro.cc.base import UNLIMITED_WINDOW
from repro.net.host import Host
from repro.net.packet import ACK, Packet
from repro.net.port import connect
from repro.transport.flow import Flow
from repro.units import MB, us


def started(sim, cfg=None):
    """A real QP on a direct wire (DCQCN needs sim timers)."""
    a = Host(sim, "a", host_id=0)
    b = Host(sim, "b", host_id=1)
    connect(sim, a, b, 100.0, 0)
    flow = Flow(0, 0, 1, 100 * MB)
    b.register_receiver(flow)
    cc = Dcqcn(cfg)
    qp = a.start_flow(flow, cc, us(10))
    return cc, qp, a, b


class TestInit:
    def test_starts_at_line_rate_unlimited_window(self, sim):
        cc, qp, a, b = started(sim)
        sim.run(until=1)
        assert qp.rate_gbps == 100.0
        assert qp.window == UNLIMITED_WINDOW
        assert cc.alpha == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DcqcnConfig(g=0.0)
        with pytest.raises(ValueError):
            DcqcnConfig(g=1.0)
        with pytest.raises(ValueError):
            DcqcnConfig(stage_threshold=0)


class TestCnpReaction:
    def test_rate_cut_by_half_alpha(self, sim):
        cc, qp, a, b = started(sim)
        sim.run(until=1)
        cc.on_cnp(qp)
        # alpha was 1 -> Rc = 100 * (1 - 0.5) = 50.
        assert qp.rate_gbps == pytest.approx(50.0)
        assert cc.rt == pytest.approx(100.0)

    def test_alpha_rises_on_cnp(self, sim):
        cc, qp, a, b = started(sim)
        sim.run(until=1)
        cc.alpha = 0.5
        cc.on_cnp(qp)
        g = cc.config.g
        assert cc.alpha == pytest.approx((1 - g) * 0.5 + g)

    def test_rate_floor(self, sim):
        cc, qp, a, b = started(sim)
        sim.run(until=1)
        for _ in range(200):
            cc.on_cnp(qp)
        assert qp.rate_gbps >= cc.config.min_rate_gbps

    def test_cnp_resets_increase_state(self, sim):
        cc, qp, a, b = started(sim)
        sim.run(until=1)
        cc.time_stage = 7
        cc.byte_stage = 3
        cc.on_cnp(qp)
        assert cc.time_stage == 0 and cc.byte_stage == 0


class TestAlphaDecay:
    def test_alpha_decays_without_cnps(self, sim):
        cc, qp, a, b = started(sim)
        sim.run(until=us(300))
        # ~5 alpha-timer periods of 55us each.
        assert cc.alpha < (1 - cc.config.g) ** 4 + 1e-9


class TestRateRecovery:
    def test_fast_recovery_halves_toward_rt(self, sim):
        cc, qp, a, b = started(sim)
        sim.run(until=1)
        cc.on_cnp(qp)  # Rc=50, Rt=100
        r0 = qp.rate_gbps
        sim.run(until=us(120))  # two timer periods -> two FR steps
        assert qp.rate_gbps > r0
        assert qp.rate_gbps <= 100.0

    def test_rate_converges_back_to_line(self, sim):
        cc, qp, a, b = started(sim)
        sim.run(until=1)
        cc.on_cnp(qp)
        sim.run(until=us(3000))
        assert qp.rate_gbps == pytest.approx(100.0, rel=0.05)

    def test_hyper_increase_engages_past_threshold(self, sim):
        cfg = DcqcnConfig(rhai_gbps=10.0)
        cc, qp, a, b = started(sim, cfg)
        sim.run(until=1)
        cc.on_cnp(qp)
        cc.time_stage = cfg.stage_threshold
        cc.byte_stage = cfg.stage_threshold
        rt0 = cc.rt
        cc._increase(qp)
        assert cc.rt == pytest.approx(min(100.0, rt0 + 10.0))

    def test_additive_increase_single_threshold(self, sim):
        cfg = DcqcnConfig(rai_gbps=1.0)
        cc, qp, a, b = started(sim, cfg)
        sim.run(until=1)
        cc.on_cnp(qp)
        cc.time_stage = cfg.stage_threshold
        cc.byte_stage = 0
        rt0 = cc.rt
        cc._increase(qp)
        assert cc.rt == pytest.approx(min(100.0, rt0 + 1.0))

    def test_byte_counter_drives_stage(self, sim):
        cfg = DcqcnConfig(byte_counter=100_000)
        cc, qp, a, b = started(sim, cfg)
        sim.run(until=us(50))  # ~400 KB acked at line rate
        assert cc.byte_stage >= 1


class TestLifecycle:
    def test_timers_cancelled_on_finish(self, sim):
        a = Host(sim, "a", host_id=0)
        b = Host(sim, "b", host_id=1)
        connect(sim, a, b, 100.0, 0)
        flow = Flow(0, 0, 1, 10_000)
        b.register_receiver(flow)
        cc = Dcqcn()
        a.start_flow(flow, cc, us(10))
        sim.run()
        assert cc._alpha_timer._event is None
        assert cc._inc_timer._event is None

    def test_ecn_to_cnp_to_slowdown_end_to_end(self, sim):
        """Full loop: CE-marked data -> receiver CNP -> sender rate cut."""
        a = Host(sim, "a", host_id=0, cnp_enabled=True)
        b = Host(sim, "b", host_id=1, cnp_enabled=True)
        connect(sim, a, b, 100.0, 0)
        flow = Flow(0, 0, 1, 50 * MB)
        b.register_receiver(flow)
        cc = Dcqcn()
        qp = a.start_flow(flow, cc, us(10))
        # Force-mark every data packet on arrival (the paced NIC queue never
        # backs up on a clean wire, so RED alone would not mark anything).
        orig = b.receive

        def mark_all(pkt, in_port):
            from repro.net.packet import DATA

            if pkt.kind == DATA:
                pkt.ecn = True
            orig(pkt, in_port)

        b.receive = mark_all
        sim.run(until=us(200))
        assert cc.cnps_received >= 1
        assert qp.rate_gbps < 100.0
