"""Wire formats.

One :class:`Packet` class covers every frame kind; a ``kind`` tag plus a few
optional fields is far cheaper than a class hierarchy on the hot path
(millions of instances per run).  Field widths follow Fig. 7 of the paper:

* INT record: ``{B (bandwidth), TS (timestamp), txBytes, qLen}`` — one per
  hop, up to ``nHop``.
* ``n_flows`` (N): 16-bit count of concurrent flows written by the FNCC
  receiver (supports 64k QPs, §3.2.3).
"""

from __future__ import annotations

from typing import List, Optional

# Packet kinds --------------------------------------------------------------
# Ordering invariant relied on by the port/switch hot paths: control kinds
# (PFC PAUSE/RESUME) are exactly the values >= PAUSE, so "is this a control
# frame" is a single integer compare.  Add new data kinds BELOW PAUSE.
DATA: int = 0
ACK: int = 1
CNP: int = 2  # DCQCN congestion notification packet
PAUSE: int = 3  # PFC XOFF
RESUME: int = 4  # PFC XON

KIND_NAMES = {DATA: "DATA", ACK: "ACK", CNP: "CNP", PAUSE: "PAUSE", RESUME: "RESUME"}


class INTRecord:
    """One hop's telemetry: Fig. 7's ``{B, TS, txBytes, qLen}``.

    ``tx_bytes`` is the egress port's cumulative transmitted byte counter and
    ``ts`` the simulator time at stamping; the HPCC sender differentiates
    consecutive records to get the link's output rate.
    """

    __slots__ = ("bandwidth_gbps", "ts", "tx_bytes", "qlen")

    def __init__(self, bandwidth_gbps: float, ts: int, tx_bytes: int, qlen: int) -> None:
        self.bandwidth_gbps = bandwidth_gbps
        self.ts = ts
        self.tx_bytes = tx_bytes
        self.qlen = qlen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"INT(B={self.bandwidth_gbps}G ts={self.ts} "
            f"tx={self.tx_bytes} q={self.qlen})"
        )


class Packet:
    """A frame on the wire.

    Size conventions: ``size`` is the full frame length in bytes (what
    occupies link time and buffer space), ``payload`` the transport bytes it
    acknowledges/carries.  ``seq`` is a byte offset; for DATA it is the
    offset of the first payload byte, for ACK it is the *cumulative* next
    expected byte.
    """

    __slots__ = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "size",
        "payload",
        "priority",
        "ecn",
        "ecn_echo",
        "int_records",
        "n_flows",
        "rocc_rate_gbps",
        "last",
        "sent_ts",
        "echo_sent_ts",
        "in_port",
        "fncc_in_port",
        "pause_prio",
        "hops",
        "lb_tag",
        "lb_tail",
    )

    def __init__(
        self,
        kind: int,
        flow_id: int = -1,
        src: int = -1,
        dst: int = -1,
        seq: int = 0,
        size: int = 0,
        payload: int = 0,
        priority: int = 0,
    ) -> None:
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.payload = payload
        self.priority = priority
        self.ecn = False  # CE mark set by RED at a congested egress queue
        self.ecn_echo = False  # receiver -> sender echo on the ACK
        self.int_records: Optional[List[INTRecord]] = None
        self.n_flows = 0  # FNCC receiver's N field (Fig. 7)
        self.rocc_rate_gbps: Optional[float] = None  # RoCC advertised fair rate
        self.last = False  # final DATA packet of the flow / its ACK
        self.sent_ts = 0  # sender timestamp (Timely/Swift RTT measurement)
        self.echo_sent_ts = 0  # sender timestamp echoed back on the ACK
        self.in_port = -1  # ingress port at the node currently holding it
        self.fncc_in_port = -1  # Alg. 1 line 3: ACK input port metadata
        self.pause_prio = 0  # PFC frames: which priority to pause/resume
        self.hops = 0  # switch hops traversed (sanity/TTL checks)
        self.lb_tag = -1  # ConWeave-lite epoch/path tag (-1 = untagged)
        # On DATA: last packet of a rerouted epoch's old path (tail marker).
        # On ACK: explicit retransmit request (NACK) from a reorder-tolerant
        # receiver — survives cumulative-ACK coalescing, unlike inferring
        # "duplicate" from the seq field alone.
        self.lb_tail = False

    # -- helpers -------------------------------------------------------------
    def add_int(self, rec: INTRecord) -> None:
        if self.int_records is None:
            self.int_records = [rec]
        else:
            self.int_records.append(rec)

    @property
    def n_hops(self) -> int:
        return 0 if self.int_records is None else len(self.int_records)

    def is_control(self) -> bool:
        """PFC frames bypass data queues and pause state."""
        return self.kind >= PAUSE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{KIND_NAMES.get(self.kind, self.kind)} flow={self.flow_id} "
            f"seq={self.seq} size={self.size} {self.src}->{self.dst}>"
        )
