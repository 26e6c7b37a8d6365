"""Plain-data frame messages for boundary crossings (DESIGN.md §11).

A frame leaving its shard is snapshotted into a flat tuple at the
barrier and rebuilt as a fresh :class:`~repro.net.packet.Packet` on the
receiving shard.  This is the *only* way state crosses a cut — shards
never share live objects (lint rule S501 enforces the discipline), so
the process-backed and in-process runtimes are observably identical.

Frames travel in *batches*: everything one shard exported for one
destination shard at one barrier, as a single byte string
(:func:`encode_batch`).  Only the two shards read it; the coordinator
forwards it by destination unopened.

The snapshot is sound because frames are immutable from forward time
onward: every per-hop mutation (INT stamp, RoCC min-stamp, ECN draw,
size growth) happens when the owning switch *forwards* the frame, before
it enters the egress port's in-flight FIFO that the barrier exports
from.
"""

from __future__ import annotations

import pickle
from typing import List, Optional, Tuple

from repro.net.packet import INTRecord, Packet

#: Message schema version — bump when the field tuple changes shape.
FRAME_SCHEMA = 2


def encode_frame(pkt: Packet) -> tuple:
    """Snapshot one in-flight frame as a flat, picklable tuple.

    ``in_port`` is deliberately not carried: the receiving shard's
    injection sets it to the real ingress port index, exactly as
    :meth:`Port._tx_deliver` does for a same-shard delivery.
    """
    recs = pkt.int_records
    return (
        pkt.kind,
        pkt.flow_id,
        pkt.src,
        pkt.dst,
        pkt.seq,
        pkt.size,
        pkt.payload,
        pkt.ecn,
        pkt.ecn_echo,
        None
        if recs is None
        else tuple((r.bandwidth_gbps, r.ts, r.tx_bytes, r.qlen) for r in recs),
        pkt.n_flows,
        pkt.rocc_rate_gbps,
        pkt.last,
        pkt.sent_ts,
        pkt.echo_sent_ts,
        pkt.fncc_in_port,
        pkt.hops,
        pkt.lb_tag,
        pkt.lb_tail,
    )


def decode_frame(data: tuple) -> Packet:
    """Rebuild a boundary frame on the receiving shard."""
    pkt = Packet(
        data[0],
        flow_id=data[1],
        src=data[2],
        dst=data[3],
        seq=data[4],
        size=data[5],
        payload=data[6],
    )
    pkt.ecn = data[7]
    pkt.ecn_echo = data[8]
    recs: Optional[Tuple[tuple, ...]] = data[9]
    if recs is not None:
        pkt.int_records = [INTRecord(r[0], r[1], r[2], r[3]) for r in recs]
    pkt.n_flows = data[10]
    pkt.rocc_rate_gbps = data[11]
    pkt.last = data[12]
    pkt.sent_ts = data[13]
    pkt.echo_sent_ts = data[14]
    pkt.fncc_in_port = data[15]
    pkt.hops = data[16]
    pkt.lb_tag = data[17]
    pkt.lb_tail = data[18]
    return pkt


def encode_batch(messages: List[tuple]) -> bytes:
    """Pack one barrier's ``(arrival_ps, cut_index, frame_tuple)``
    messages for one destination shard, in export order."""
    return pickle.dumps(messages, pickle.HIGHEST_PROTOCOL)


def decode_batch(data: bytes) -> List[tuple]:
    """The messages of a batch another shard of this run encoded, in the
    order they were exported."""
    return pickle.loads(data)
