"""FNCC: ACK-path INT reversal and the LHCS jump of Alg. 2."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from cc_helpers import FakeQP, make_ack  # noqa: E402

from repro.cc.fncc import Fncc, FnccConfig
from repro.cc.hpcc import Hpcc
from repro.units import us


def started(cfg=None, rate=100.0):
    cc = Fncc(cfg)
    qp = FakeQP(rate_gbps=rate)
    cc.on_flow_start(qp)
    return cc, qp


def feed(cc, qp, records_sequence, n_flows=1):
    for i, recs in enumerate(records_sequence):
        qp.snd_nxt += 10_000
        cc.on_ack(
            qp,
            make_ack(seq=1 + i * 10_000, records=recs, n_flows=n_flows, reverse=True),
        )


def congested_last_hop(k, q=600_000):
    """Request-order records: hop0 idle, hop1 (last) congested."""
    return [
        {"B": 100.0, "ts": us(1 + k), "tx": 12_500 * k, "q": 0},
        {"B": 100.0, "ts": us(1 + k), "tx": 12_500 * k, "q": q},
    ]


def congested_first_hop(k, q=600_000):
    return [
        {"B": 100.0, "ts": us(1 + k), "tx": 12_500 * k, "q": q},
        {"B": 100.0, "ts": us(1 + k), "tx": 12_500 * k, "q": 0},
    ]


class TestConfig:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            FnccConfig(alpha=1.0)
        with pytest.raises(ValueError):
            FnccConfig(alpha=0.9)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            FnccConfig(beta=0.0)
        with pytest.raises(ValueError):
            FnccConfig(beta=1.5)

    def test_inherits_hpcc_knobs(self):
        cfg = FnccConfig(eta=0.9, max_stage=4)
        assert cfg.eta == 0.9 and cfg.max_stage == 4

    def test_defaults_match_paper(self):
        cfg = FnccConfig()
        assert cfg.alpha == pytest.approx(1.05)
        assert cfg.beta == pytest.approx(0.9)
        assert cfg.lhcs_enabled


class TestRecordOrdering:
    def test_records_reversed_to_request_order(self):
        cc, qp = started()
        # Return-path order: last request hop first.  make_ack(reverse=True)
        # stores request-order input reversed, so on_ack must undo it before
        # it keeps the records as the next ACK's reference.
        ack = make_ack(records=[{"B": 100.0, "ts": 1, "tx": 0, "q": 0},
                                {"B": 200.0, "ts": 2, "tx": 0, "q": 0}], reverse=True)
        cc.on_ack(qp, ack)
        assert [r.bandwidth_gbps for r in cc.prev_records] == [100.0, 200.0]
        assert [r.bandwidth_gbps for r in ack.int_records] == [200.0, 100.0]

    def test_no_records_passthrough(self):
        cc, qp = started()
        w0 = qp.window
        cc.on_ack(qp, make_ack(seq=1, records=None))
        assert cc.prev_records is None and qp.window == w0

    def test_hop_u_is_indexed_in_request_order(self):
        cc, qp = started()
        feed(cc, qp, [congested_first_hop(k) for k in range(3)])
        assert cc.hop_u[0] == pytest.approx(5.0) and cc.hop_u[1] == pytest.approx(1.0)


class TestLhcs:
    def test_jump_to_fair_share_on_last_hop_congestion(self):
        cc, qp = started()
        feed(cc, qp, [congested_last_hop(k) for k in range(6)], n_flows=4)
        # The jump target is B*T*beta/N = 150_000*0.9/4 = 33_750 (ComputeWind
        # then keeps draining Wc below it while U stays above eta).
        assert cc.lhcs_activations >= 1
        assert cc.last_lhcs_target == pytest.approx(150_000 * 0.9 / 4)
        assert cc.wc <= cc.last_lhcs_target

    def test_no_jump_when_congestion_not_last_hop(self):
        cc, qp = started()
        feed(cc, qp, [congested_first_hop(k) for k in range(6)], n_flows=4)
        assert cc.lhcs_activations == 0

    def test_no_jump_below_alpha(self):
        cc, qp = started()
        # Mild last-hop load: u slightly above 1 but below alpha=1.05 needs
        # q/(B*T) < 0.05 -> q < 7.5 KB.
        feed(cc, qp, [congested_last_hop(k, q=5_000) for k in range(6)], n_flows=4)
        assert cc.lhcs_activations == 0

    def test_disabled_lhcs_never_jumps(self):
        cc, qp = started(FnccConfig(lhcs_enabled=False))
        feed(cc, qp, [congested_last_hop(k) for k in range(6)], n_flows=4)
        assert cc.lhcs_activations == 0

    def test_n_floor_of_one(self):
        cc, qp = started()
        feed(cc, qp, [congested_last_hop(k) for k in range(6)], n_flows=0)
        # N=0 on the wire is treated as 1, never a division blowup.
        assert cc.wc <= cc.w_init

    def test_beta_scales_target(self):
        lo, qlo = started(FnccConfig(beta=0.5))
        hi, qhi = started(FnccConfig(beta=0.95))
        feed(lo, qlo, [congested_last_hop(k) for k in range(6)], n_flows=2)
        feed(hi, qhi, [congested_last_hop(k) for k in range(6)], n_flows=2)
        assert lo.last_lhcs_target < hi.last_lhcs_target

    def test_single_hop_path_is_last_hop(self):
        cc, qp = started()
        recs = lambda k: [{"B": 100.0, "ts": us(1 + k), "tx": 12_500 * k, "q": 600_000}]
        feed(cc, qp, [recs(k) for k in range(6)], n_flows=2)
        assert cc.lhcs_activations >= 1


class TestInteroperability:
    def test_same_int_same_behavior_as_hpcc_without_lhcs(self):
        """With LHCS off and identically ordered INT, FNCC == HPCC."""
        fncc, qf = started(FnccConfig(lhcs_enabled=False))
        hpcc = Hpcc()
        qh = FakeQP()
        hpcc.on_flow_start(qh)
        seq = [congested_last_hop(k) for k in range(8)]
        for i, recs in enumerate(seq):
            qf.snd_nxt += 10_000
            qh.snd_nxt += 10_000
            fncc.on_ack(qf, make_ack(seq=1 + i * 10_000, records=recs, reverse=True))
            hpcc.on_ack(qh, make_ack(seq=1 + i * 10_000, records=recs))
        assert qf.window == pytest.approx(qh.window)
        assert qf.rate_gbps == pytest.approx(qh.rate_gbps)
