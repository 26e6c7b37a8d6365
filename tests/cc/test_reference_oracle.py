"""The folded per-ACK body against the decomposed oracle.

``Hpcc.on_ack`` is one straight-line pass (order records, MeasureInFlight,
the LHCS hook, ComputeWind, clamp, store); ``reference_hpcc.py`` keeps
Alg. 3 / Alg. 2 as the separate methods the product used to have.  Both
are driven with the same generated ACK stream and must agree *bit for bit*
after every ACK — not approximately: the fold may reorder no float
expression.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from cc_helpers import FakeQP  # noqa: E402
from reference_hpcc import ReferenceFncc, ReferenceHpcc  # noqa: E402

from repro.cc.fncc import Fncc, FnccConfig
from repro.cc.hpcc import Hpcc, HpccConfig
from repro.net.packet import ACK, INTRecord, Packet
from repro.units import us

STATE = (
    "wc", "inc_stage", "last_update_seq", "u_ewma", "hop_u", "lhcs_activations",
    "last_lhcs_target",
)


def observable(cc, qp):
    # repr() of a float is exact: equal reprs <=> equal bits (and NaN == NaN).
    return [repr(qp.window), repr(qp.rate_gbps)] + [
        repr(getattr(cc, name, None)) for name in STATE
    ] + [
        None if cc.prev_records is None else
        [(r.bandwidth_gbps, r.ts, r.tx_bytes, r.qlen) for r in cc.prev_records]
    ]


# One hop's step between consecutive ACKs: dt == 0 is the carry-forward
# case (an All_INT_Table between refreshes), large dt exceeds the base RTT
# (tau clamps to T), qlen spans idle to far past the BDP.
hop_step = st.tuples(
    st.sampled_from([0, 0, us(0.1), us(1), us(3), us(12), us(40)]),  # dt
    st.integers(0, 60_000),  # tx byte delta
    st.sampled_from([0, 0, 1_000, 7_000, 8_000, 150_000, 600_000]),  # qlen
)


@st.composite
def ack_streams(draw):
    """A list of ACKs; each is (n_hops, [hop_step...], seq_advance, n_flows,
    snd_nxt_advance).  The hop count changes now and then (re-seed)."""
    n_hops = draw(st.integers(1, 6))
    acks = []
    for _ in range(draw(st.integers(2, 24))):
        if draw(st.integers(0, 9)) == 0:
            n_hops = draw(st.integers(1, 6))
        acks.append((
            [draw(hop_step) for _ in range(n_hops)],
            # 0: duplicate cumulative ACK (update_wc false); big: past
            # last_update_seq (update_wc true) — both edges of line 31.
            draw(st.sampled_from([0, 1_000, 1_000, 30_000])),
            draw(st.integers(0, 64)),
            draw(st.sampled_from([0, 1_000, 20_000])),
        ))
    bws = [draw(st.sampled_from([25.0, 100.0, 400.0])) for _ in range(6)]
    return bws, acks


def drive(cc, qp, stream, reverse):
    """Feed ``stream`` to one CC; yields its observable state per ACK."""
    bws, acks = stream
    ts = [us(1)] * 6
    tx = [0] * 6
    seq = 0
    for steps, seq_adv, n_flows, nxt_adv in acks:
        recs = []
        for h, (dt, dtx, q) in enumerate(steps):
            ts[h] += dt
            tx[h] += dtx
            recs.append(INTRecord(bws[h], ts[h], tx[h], q))
        seq += seq_adv
        qp.snd_nxt = max(qp.snd_nxt, seq) + nxt_adv
        ack = Packet(ACK, flow_id=0, src=1, dst=0, seq=seq, size=64)
        ack.n_flows = n_flows
        ack.int_records = recs[::-1] if reverse else recs
        cc.on_ack(qp, ack)
        yield observable(cc, qp)


def assert_same_trajectory(new, ref, stream, reverse):
    qn, qr = FakeQP(), FakeQP()
    new.on_flow_start(qn)
    ref.on_flow_start(qr)
    pairs = zip(drive(new, qn, stream, reverse), drive(ref, qr, stream, reverse))
    for k, (got, want) in enumerate(pairs):
        assert got == want, f"diverged at ACK {k}"


@settings(max_examples=150, deadline=None)
@given(stream=ack_streams(), eta=st.sampled_from([0.95, 0.5, 1.0]),
       max_stage=st.sampled_from([1, 5]))
def test_hpcc_fold_matches_decomposed_alg3(stream, eta, max_stage):
    cfg = dict(eta=eta, max_stage=max_stage)
    assert_same_trajectory(
        Hpcc(HpccConfig(**cfg)), ReferenceHpcc(HpccConfig(**cfg)), stream, False
    )


@settings(max_examples=150, deadline=None)
@given(stream=ack_streams(), lhcs=st.booleans(),
       min_window=st.sampled_from([1518.0, 500_000.0]))
def test_fncc_fold_matches_decomposed_alg2_and_alg3(stream, lhcs, min_window):
    # min_window above W_init exercises the clamp's "floor wins" order.
    cfg = dict(lhcs_enabled=lhcs, min_window_bytes=min_window)
    assert_same_trajectory(
        Fncc(FnccConfig(**cfg)), ReferenceFncc(FnccConfig(**cfg)), stream, True
    )


def test_streams_reach_the_branches_the_fold_merged():
    """The generator is only an oracle if it gets there: one fixed stream
    must activate LHCS, carry a hop forward, re-seed and flip update_wc."""
    cc, qp = Fncc(), FakeQP()
    cc.on_flow_start(qp)
    cool, hot = (us(1), 12_500, 0), (us(1), 12_500, 600_000)
    stream = ([100.0] * 6, [
        ([cool, hot], 1_000, 4, 1_000),
        ([cool, hot], 1_000, 4, 1_000),          # last hop hottest: LHCS
        ([(0, 0, 0), hot], 0, 4, 0),             # hop 0 carried forward, dup ACK
        ([hot], 30_000, 0, 20_000),              # hop count changed: re-seed
        ([hot], 1_000, 0, 1_000),                # single hop is the last hop
    ])
    hop_u, windows, update_seqs = [], [], []
    for _ in drive(cc, qp, stream, True):
        hop_u.append(list(cc.hop_u))
        windows.append(qp.window)
        update_seqs.append(cc.last_update_seq)
    assert cc.lhcs_activations == 3
    assert hop_u[2][0] == hop_u[1][0] == 1.0 and len(hop_u[4]) == 1
    assert windows[3] == windows[2]  # the re-seeding ACK moves no window
    assert update_seqs[2] == update_seqs[1] < update_seqs[4]  # dup ACK: no Wc commit
