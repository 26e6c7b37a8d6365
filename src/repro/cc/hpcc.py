"""HPCC — High Precision Congestion Control (Li et al., SIGCOMM'19).

A faithful implementation of Algorithm 3 of the FNCC paper, which restates
HPCC's sender:

* ``MeasureInFlight`` — per-hop utilization ``u_i = min(qlen)/(B*T) +
  txRate/B`` from consecutive INT records, max across hops, smoothed by an
  EWMA with weight ``tau/T``.
* ``ComputeWind`` — multiplicative adjustment toward ``eta`` plus a small
  additive-increase term ``W_AI``; at most ``maxStage`` consecutive AI-only
  steps before a multiplicative step is forced.
* Per-RTT reference window ``Wc``: the sender only commits ``Wc <- W`` when
  the ACK acknowledges the first packet sent under the current ``Wc``
  (tracked by ``lastUpdateSeq``), avoiding per-ACK overreaction.

INT records arrive in *request-path order* (hop 0 = first switch) because
HPCC switches stamp data packets and the receiver echoes the stack.

All of it is one method, :meth:`Hpcc.on_ack` — it runs once per ACK and is
the most expensive thing a host does per frame (DESIGN.md §2.6) — with
two seams for FNCC: the ``reversed_int`` class flag (ACK-path INT arrives
last hop first) and ``_update_wc_hook`` (LHCS, Alg. 2), which receives the
bottleneck hop MeasureInFlight already found.  The algorithm as separate
steps lives on as a test oracle, ``tests/cc/reference_hpcc.py``, driven
against this body with generated ACK streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cc.base import CongestionControl
from repro.units import DEFAULT_MTU

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import INTRecord, Packet
    from repro.transport.sender import SenderQP


class HpccConfig:
    """HPCC knobs, defaults per the paper (eta=0.95, maxStage=5).

    ``wai_bytes`` defaults to ``bdp * (1 - eta) / wai_flows``: the HPCC
    paper's guidance that W_AI is the per-flow share of the spare bandwidth
    headroom for an expected degree of concurrency (``wai_flows``).
    """

    __slots__ = ("eta", "max_stage", "wai_bytes", "wai_flows", "min_window_bytes")

    def __init__(
        self,
        eta: float = 0.95,
        max_stage: int = 5,
        wai_bytes: Optional[float] = None,
        wai_flows: int = 8,
        min_window_bytes: float = float(DEFAULT_MTU),
    ) -> None:
        if not (0.0 < eta <= 1.0):
            raise ValueError(f"eta must be in (0,1], got {eta}")
        if max_stage < 1:
            raise ValueError("max_stage must be >= 1")
        if wai_flows < 1:
            raise ValueError("wai_flows must be >= 1")
        self.eta = eta
        self.max_stage = max_stage
        self.wai_bytes = wai_bytes
        self.wai_flows = wai_flows
        self.min_window_bytes = min_window_bytes


class Hpcc(CongestionControl):
    name = "hpcc"
    #: INT arrives in request-path order (hop 0 = first switch).  FNCC's
    #: ACK-path INT arrives last-request-hop first and sets this.
    reversed_int = False

    def __init__(self, config: Optional[HpccConfig] = None) -> None:
        self.config = config or HpccConfig()
        # Per-flow state (one CC instance per flow).
        self.wc: float = 0.0
        self.inc_stage: int = 0
        self.last_update_seq: int = 0
        self.prev_records: Optional[List["INTRecord"]] = None
        self.u_ewma: float = 0.0
        self.hop_u: List[float] = []
        self.t_ps: int = 0
        self.w_init: float = 0.0
        self.wai: float = 0.0

    # -- lifecycle --------------------------------------------------------------
    def on_flow_start(self, qp: "SenderQP") -> None:
        self.t_ps = qp.base_rtt_ps
        # W_init = B * T (bandwidth-delay product of the flow's own NIC).
        self.w_init = qp.line_rate_gbps / 8000.0 * self.t_ps
        cfg = self.config
        self.wai = (
            cfg.wai_bytes
            if cfg.wai_bytes is not None
            else self.w_init * (1.0 - cfg.eta) / cfg.wai_flows
        )
        self.wc = self.w_init
        self.u_ewma = 1.0  # assume the network is busy until told otherwise
        self.last_update_seq = 0
        self.set_window(qp, self.w_init, self.t_ps)

    # -- Alg. 3 ----------------------------------------------------------------------
    def on_ack(self, qp: "SenderQP", ack: "Packet") -> None:
        """One ACK, one pass: order the records, MeasureInFlight, FNCC's
        UpdateWc hook, ComputeWind, clamp, store ``W`` and ``R = W/T``.
        A straight-line body on purpose (it runs once per ACK);
        ``tests/cc/reference_hpcc.py`` keeps the decomposed form as an
        oracle and every float expression here is in that order."""
        recs = ack.int_records
        if not recs:
            return
        if self.reversed_int:
            recs = recs[::-1]
        prev = self.prev_records
        if prev is None or len(prev) != len(recs):
            # First usable ACK (or the path changed): just seed the
            # reference records.
            self.prev_records = recs
            return
        # MeasureInFlight (lines 4-14): normalized in-flight bytes per hop,
        # max across hops, EWMA-smoothed.
        t_ps = self.t_ps
        u_max = 0.0
        hop = 0  # index of the hop that set u_max
        tau = 0  # falls back to the observed ACK interval of hop 0
        prev_hop_u = self.hop_u
        n_prev_u = len(prev_hop_u)
        hop_u: List[float] = []
        self.hop_u = hop_u
        i = 0
        for cur in recs:
            old = prev[i]
            dt = cur.ts - old.ts
            b_bytes_per_ps = cur.bandwidth_gbps / 8000.0
            if dt > 0:
                tx_rate = (cur.tx_bytes - old.tx_bytes) / dt  # bytes/ps
                if tau == 0:
                    tau = dt
                qlen = cur.qlen  # min(cur, old), inlined
                oq = old.qlen
                if oq < qlen:
                    qlen = oq
                u_i = qlen / (b_bytes_per_ps * t_ps) + tx_rate / b_bytes_per_ps
            elif i < n_prev_u:
                # Telemetry unchanged (e.g. a periodically refreshed
                # All_INT_Table between refreshes): carry the hop forward.
                u_i = prev_hop_u[i]
            else:
                u_i = cur.qlen / (b_bytes_per_ps * t_ps) + 1.0
            hop_u.append(u_i)
            if u_i > u_max:
                u_max = u_i
                hop = i
                if dt > 0:
                    tau = dt
            i += 1
        if tau == 0 or tau > t_ps:
            tau = t_ps
        self.u_ewma = u = (1.0 - tau / t_ps) * self.u_ewma + (tau / t_ps) * u_max
        update_wc = ack.seq > self.last_update_seq
        # ComputeWind (lines 29-40); FNCC inserts UpdateWc at the top
        # (line 30), which may move Wc before it is read below.
        self._update_wc_hook(ack, prev, hop, u_max)
        cfg = self.config
        if u >= cfg.eta or self.inc_stage >= cfg.max_stage:
            # Floor u: an idle path (u ~ 0) means "multiply up as far as
            # allowed"; the clamp to W_init bounds the result anyway.
            w = self.wc / ((0.01 if u < 0.01 else u) / cfg.eta) + self.wai
            stage = 0
        else:
            w = self.wc + self.wai
            stage = self.inc_stage + 1
        if w < cfg.min_window_bytes:
            w = cfg.min_window_bytes
        elif w > self.w_init:
            w = self.w_init
        if update_wc:
            self.inc_stage = stage
            self.wc = w
            self.last_update_seq = qp.snd_nxt
        qp.window = w
        qp.rate_gbps = w / t_ps * 8000.0  # R = W/T (set_window, inlined)
        self.prev_records = recs

    def _update_wc_hook(
        self, ack: "Packet", prev: List["INTRecord"], hop: int, u_max: float
    ) -> None:
        """FNCC's last-hop congestion speedup plugs in here (Alg. 2).
        ``hop`` is the first hop whose utilization equals the unsmoothed
        ``u_max`` of this ACK; ``prev`` the previous ACK's records."""
