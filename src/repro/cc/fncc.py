"""FNCC — Fast Notification Congestion Control (the paper's contribution).

FNCC's sender *is* HPCC's sender (same MeasureInFlight / ComputeWind, §3.2.2)
with two differences:

1. **ACK-path INT.**  Switches insert INT into ACKs on the return path
   (Alg. 1), so records reach the sender sub-RTT fresh.  Because the ACK
   collects records receiver-side first, the list arrives in *reverse*
   request order; the ``reversed_int`` class flag makes ``Hpcc.on_ack``
   restore request order so hop 0 is the first switch, matching HPCC's
   indexing.

2. **Last-hop congestion speedup (LHCS, Alg. 2).**  Per ACK, find the hop
   with the largest utilization ``U_j`` (``Hpcc.on_ack``'s MeasureInFlight
   loop already has it and passes it to :meth:`Fncc._update_wc_hook`).  If
   it is the last hop and ``U_max > alpha`` (alpha slightly above 1, e.g.
   1.05), jump the reference window straight to the fair share
   ``Wc = B * RTT * beta / N`` where ``N`` is the concurrent-flow count the
   receiver wrote into the ACK and ``beta`` (slightly below 1, e.g. 0.9)
   drains the built-up queue.

The switch-side behaviour (All_INT_Table, ACK stamping) lives in
:class:`repro.net.switch.Switch` with ``IntMode.FNCC``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cc.hpcc import Hpcc, HpccConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import INTRecord, Packet


class FnccConfig(HpccConfig):
    """HPCC knobs plus the LHCS parameters of Alg. 2."""

    __slots__ = ("alpha", "beta", "lhcs_enabled")

    def __init__(
        self,
        alpha: float = 1.05,
        beta: float = 0.9,
        lhcs_enabled: bool = True,
        **hpcc_kwargs,
    ) -> None:
        super().__init__(**hpcc_kwargs)
        if alpha <= 1.0:
            raise ValueError(
                f"alpha must exceed 1 to avoid over-sensitivity (got {alpha})"
            )
        if not (0.0 < beta <= 1.0):
            raise ValueError(f"beta must be in (0,1], got {beta}")
        self.alpha = alpha
        self.beta = beta
        self.lhcs_enabled = lhcs_enabled


class Fncc(Hpcc):
    name = "fncc"
    #: ACK-path INT arrives last-request-hop first; on_ack restores request
    #: order before differencing.
    reversed_int = True

    def __init__(self, config: Optional[FnccConfig] = None) -> None:
        super().__init__(config or FnccConfig())
        self.lhcs_activations = 0
        self.last_lhcs_target: float = 0.0

    # Alg. 2 — RP's last-hop congestion speedup, invoked from ComputeWind.
    def _update_wc_hook(
        self, ack: "Packet", prev: List["INTRecord"], hop: int, u_max: float
    ) -> None:
        cfg: FnccConfig = self.config  # type: ignore[assignment]
        if hop == len(prev) - 1 and u_max > cfg.alpha and cfg.lhcs_enabled:
            n = ack.n_flows
            if n < 1:
                # census: an ACK that carries N = 0 — tests/cc/test_fncc.py::TestLhcs::test_n_floor_of_one
                n = 1
            # B is the last hop's bandwidth from its own INT record (Alg. 3
            # line 25 uses ack.L[0].B — the record the last-hop switch wrote).
            target = (prev[-1].bandwidth_gbps / 8000.0) * self.t_ps * cfg.beta / n
            wc = target
            if wc < cfg.min_window_bytes:
                # census: a target below the window floor — tests/cc/test_reference_oracle.py::test_fncc_fold_matches_decomposed_alg2_and_alg3
                wc = cfg.min_window_bytes
            elif wc > self.w_init:
                # census: a last hop faster than the NIC — tests/cc/test_fncc.py::TestLhcs::test_a_last_hop_faster_than_the_nic_is_clamped_to_w_init
                wc = self.w_init
            self.wc = wc
            self.last_lhcs_target = target
            self.lhcs_activations += 1
