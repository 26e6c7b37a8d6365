"""Property test of the shard batch codec: a batch of frames comes out of
``decode_batch(encode_batch(...))`` with every :class:`Packet` field it
went in with (``in_port`` is set by the injection, not carried)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import ACK, CNP, DATA, PAUSE, RESUME, INTRecord, Packet
from repro.shard.messages import (
    decode_batch,
    decode_frame,
    encode_batch,
    encode_frame,
)

CARRIED = [slot for slot in Packet.__slots__ if slot not in ("in_port", "int_records")]

ps = st.integers(min_value=0, max_value=10**15)
small = st.integers(min_value=-1, max_value=2**31)
gbps = st.floats(min_value=0.0, max_value=400.0, allow_nan=False)
int_records = st.lists(st.tuples(gbps, ps, ps, small), max_size=5)


@st.composite
def packets(draw):
    pkt = Packet(
        draw(st.sampled_from([DATA, ACK, CNP, PAUSE, RESUME])),
        flow_id=draw(small),
        src=draw(small),
        dst=draw(small),
        seq=draw(ps),
        size=draw(st.integers(min_value=0, max_value=9000)),
        payload=draw(st.integers(min_value=0, max_value=9000)),
    )
    pkt.ecn = draw(st.booleans())
    pkt.ecn_echo = draw(st.booleans())
    recs = draw(st.none() | int_records)
    if recs is not None:
        pkt.int_records = [INTRecord(*r) for r in recs]
    pkt.n_flows = draw(st.integers(min_value=0, max_value=2**16 - 1))
    pkt.rocc_rate_gbps = draw(st.none() | gbps)
    pkt.last = draw(st.booleans())
    pkt.sent_ts = draw(ps)
    pkt.echo_sent_ts = draw(ps)
    pkt.in_port = draw(small)
    pkt.fncc_in_port = draw(small)
    pkt.hops = draw(st.integers(min_value=0, max_value=64))
    pkt.lb_tag = draw(small)
    pkt.lb_tail = draw(st.booleans())
    return pkt


def int_rows(pkt):
    if pkt.int_records is None:
        return None
    return [(r.bandwidth_gbps, r.ts, r.tx_bytes, r.qlen) for r in pkt.int_records]


@given(st.lists(st.tuples(ps, st.integers(min_value=0, max_value=63), packets()), max_size=8))
@settings(max_examples=200, deadline=None)
def test_batch_roundtrip_preserves_order_and_every_field(entries):
    batch = encode_batch([(arrival, cut, encode_frame(pkt)) for arrival, cut, pkt in entries])
    assert isinstance(batch, bytes)
    decoded = decode_batch(batch)
    assert [(a, c) for a, c, _f in decoded] == [(a, c) for a, c, _p in entries]
    for (_a, _c, frame), (_a2, _c2, pkt) in zip(decoded, entries):
        out = decode_frame(frame)
        for slot in CARRIED:
            assert getattr(out, slot) == getattr(pkt, slot), slot
            assert type(getattr(out, slot)) is type(getattr(pkt, slot)), slot
        assert int_rows(out) == int_rows(pkt)
        assert out.in_port == -1
