"""Test-only oracle: Alg. 3 (HPCC sender) and Alg. 2 (LHCS) as decomposed
methods — ``order_records`` / ``_measure_inflight`` / ``_compute_wind`` /
``_update_wc_hook`` / ``_clamp`` — exactly as ``repro.cc.hpcc`` and
``repro.cc.fncc`` carried them before the per-ACK path was folded into one
``on_ack`` body.  ``tests/cc/test_reference_oracle.py`` drives both with
generated ACK streams and requires bit-equal state after every ACK; nothing
under ``src/`` imports this file.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cc.base import CongestionControl
from repro.cc.fncc import FnccConfig
from repro.cc.hpcc import HpccConfig


class ReferenceHpcc(CongestionControl):
    name = "hpcc"

    def __init__(self, config: Optional[HpccConfig] = None) -> None:
        self.config = config or HpccConfig()
        # Per-flow state (one CC instance per flow).
        self.wc: float = 0.0
        self.inc_stage: int = 0
        self.last_update_seq: int = 0
        self.prev_records: Optional[List[object]] = None
        self.u_ewma: float = 0.0
        self.hop_u: List[float] = []
        self.t_ps: int = 0
        self.w_init: float = 0.0
        self.wai: float = 0.0

    # -- lifecycle --------------------------------------------------------------
    def on_flow_start(self, qp: object) -> None:
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

    # -- INT ordering hook (FNCC overrides: ACK-path order is reversed) -----------
    def order_records(self, ack: object) -> Optional[List[object]]:
        return ack.int_records

    # -- Alg. 3 ----------------------------------------------------------------------
    def on_ack(self, qp: object, ack: object) -> None:
        recs = self.order_records(ack)
        if not recs:
            return
        prev = self.prev_records
        if prev is None or len(prev) != len(recs):
            # First usable ACK: just seed the reference records.
            self.prev_records = recs
            return
        u = self._measure_inflight(recs, prev)
        update_wc = ack.seq > self.last_update_seq
        w = self._compute_wind(u, update_wc, ack, qp)
        if update_wc:
            self.last_update_seq = qp.snd_nxt
        w = self._clamp(w)
        self.set_window(qp, w, self.t_ps)
        self.prev_records = recs

    def _measure_inflight(
        self, recs: List[object], prev: List[object]
    ) -> float:
        """Alg. 3 lines 4-14: normalized in-flight bytes, EWMA-smoothed."""
        t_ps = self.t_ps
        u_max = 0.0
        tau = 0  # falls back to the observed ACK interval of hop 0
        prev_hop_u = self.hop_u
        n_prev_u = len(prev_hop_u)
        hop_u: List[float] = []
        self.hop_u = hop_u
        for i, (cur, old) in enumerate(zip(recs, prev)):
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
                if dt > 0:
                    tau = dt
        if tau == 0:
            tau = t_ps
        tau = min(tau, t_ps)
        self.u_ewma = (1.0 - tau / t_ps) * self.u_ewma + (tau / t_ps) * u_max
        return self.u_ewma

    def _compute_wind(
        self, u: float, update_wc: bool, ack: object, qp: object
    ) -> float:
        """Alg. 3 lines 29-40 (FNCC inserts UpdateWc at the top, line 30)."""
        self._update_wc_hook(ack, qp)
        cfg = self.config
        if u >= cfg.eta or self.inc_stage >= cfg.max_stage:
            # Floor u: an idle path (u ~ 0) means "multiply up as far as
            # allowed"; the clamp to W_init bounds the result anyway.
            w = self.wc / (max(u, 0.01) / cfg.eta) + self.wai
            if update_wc:
                self.inc_stage = 0
                self.wc = self._clamp(w)
        else:
            w = self.wc + self.wai
            if update_wc:
                self.inc_stage += 1
                self.wc = self._clamp(w)
        return w

    def _update_wc_hook(self, ack: object, qp: object) -> None:
        """FNCC's last-hop congestion speedup plugs in here (Alg. 2)."""

    def _clamp(self, w: float) -> float:
        if w < self.config.min_window_bytes:
            return self.config.min_window_bytes
        if w > self.w_init:
            return self.w_init
        return w


class ReferenceFncc(ReferenceHpcc):
    name = "fncc"

    def __init__(self, config: Optional[FnccConfig] = None) -> None:
        super().__init__(config or FnccConfig())
        self.lhcs_activations = 0
        self.last_lhcs_target: float = 0.0

    # ACK-path INT arrives last-request-hop first; restore request order.
    def order_records(self, ack: object) -> Optional[List[object]]:
        recs = ack.int_records
        if recs is None:
            return None
        return recs[::-1]

    # Alg. 2 — RP's last-hop congestion speedup, invoked from ComputeWind.
    def _update_wc_hook(self, ack: object, qp: object) -> None:
        cfg: FnccConfig = self.config  # type: ignore[assignment]
        if not cfg.lhcs_enabled:
            return
        hop_u = self.hop_u
        if not hop_u:
            return
        u_max = 0.0
        hop = 0
        for j, u_j in enumerate(hop_u):
            if u_j > u_max:
                u_max = u_j
                hop = j
        if hop == len(hop_u) - 1 and u_max > cfg.alpha:
            n = max(1, ack.n_flows)
            # B is the last hop's bandwidth from its own INT record (Alg. 3
            # line 25 uses ack.L[0].B — the record the last-hop switch wrote).
            last_rec = self.prev_records[-1] if self.prev_records else None
            b_gbps = last_rec.bandwidth_gbps if last_rec else qp.line_rate_gbps
            target = (b_gbps / 8000.0) * self.t_ps * cfg.beta / n
            self.wc = self._clamp(target)
            self.last_lhcs_target = target
            self.lhcs_activations += 1
