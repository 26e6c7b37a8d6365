"""End host: a NIC port plus the per-flow transport endpoints.

The host owns every sender QP (Reaction Point) and receiver QP (ACK
Generation Point) terminating at it, dispatches arriving frames to them,
and maintains the concurrent-inbound-flow count that FNCC's receiver writes
into ACKs (§3.2.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.node import Node
from repro.net.packet import (
    ACK,
    CNP,
    DATA,
    PAUSE,
    RESUME,
    Packet,
)
from repro.transport.receiver import ReceiverQP
from repro.transport.sender import SenderQP, TransportConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.cc.base import CongestionControl
    from repro.sim.engine import Simulator
    from repro.transport.flow import Flow

CcFactory = Callable[["Flow", "Host"], "CongestionControl"]


class Host(Node):
    """A single-homed end host (one NIC port, index 0)."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        host_id: int,
        transport: Optional[TransportConfig] = None,
        cnp_enabled: bool = False,
    ) -> None:
        super().__init__(sim, name)
        self.host_id = host_id
        self.transport_config = transport or TransportConfig()
        self.cnp_enabled = cnp_enabled
        self.senders: Dict[int, SenderQP] = {}
        self.receivers: Dict[int, ReceiverQP] = {}
        self._active_inbound = 0
        self.fct_sink: Optional[Callable[[ReceiverQP], None]] = None
        self.sender_done_sink: Optional[Callable[[SenderQP], None]] = None

    # -- wiring -------------------------------------------------------------------
    @property
    def nic(self):
        return self.ports[0]

    def transmit(self, pkt: Packet) -> None:
        self.ports[0].enqueue(pkt)

    # -- flow management -----------------------------------------------------------
    def start_flow(
        self,
        flow: "Flow",
        cc: "CongestionControl",
        base_rtt_ps: int,
    ) -> SenderQP:
        """Create the sender QP and schedule its first transmission."""
        if flow.src != self.host_id:
            raise ValueError(f"flow {flow.flow_id} does not originate here")
        if flow.flow_id in self.senders:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        qp = SenderQP(
            self,
            flow,
            cc,
            self.transport_config,
            base_rtt_ps,
            self.ports[0].rate_gbps,
        )
        qp.on_complete = self._sender_finished
        self.senders[flow.flow_id] = qp
        delay = flow.start_ps - self.sim.now
        if delay < 0:
            raise ValueError(f"flow {flow.flow_id} starts in the past")
        self.sim.schedule(delay, lambda _: qp.start(), None, self.lane)
        return qp

    def register_receiver(self, flow: "Flow") -> ReceiverQP:
        """Pre-register the receive context for an inbound flow."""
        if flow.dst != self.host_id:
            raise ValueError(f"flow {flow.flow_id} does not terminate here")
        tc = self.transport_config
        rqp = ReceiverQP(
            self,
            flow,
            ack_every=tc.ack_every,
            cnp_enabled=self.cnp_enabled,
            reorder_window_bytes=tc.reorder_window_bytes,
            reorder_max_pkts=tc.reorder_max_pkts,
        )
        self.receivers[flow.flow_id] = rqp
        return rqp

    def deactivate_receiver(self, flow_id: int) -> None:
        """Tear down an inbound flow that will never complete (the sender
        aborted).  Keeps the concurrent-flow count N honest — a stale entry
        would make FNCC's LHCS divide the fair share by too many flows."""
        rqp = self.receivers.get(flow_id)
        if rqp is None or rqp.completed:
            return
        if rqp.data_packets > 0:
            self._active_inbound -= 1
        rqp.completed = True

    def active_inbound_flows(self) -> int:
        """The N of Fig. 7: concurrent flows currently delivering to this
        host.  Never less than 1 when asked while generating an ACK."""
        return max(1, self._active_inbound)

    # -- packet dispatch -----------------------------------------------------------
    def receive(self, pkt: Packet, in_port: int) -> None:
        kind = pkt.kind
        if kind == DATA:
            rqp = self.receivers.get(pkt.flow_id)
            if rqp is None:
                raise RuntimeError(
                    f"{self.name}: data for unregistered flow {pkt.flow_id}"
                )
            if rqp.data_packets == 0:
                self._active_inbound += 1
            rqp.on_data(pkt)
        elif kind == ACK:
            qp = self.senders.get(pkt.flow_id)
            if qp is not None:
                qp.on_ack(pkt)
        elif kind == CNP:
            qp = self.senders.get(pkt.flow_id)
            if qp is not None:
                qp.on_cnp()
        elif kind == PAUSE:
            self.ports[in_port].pause(pkt.pause_prio)
            self.ports[in_port].stats.pause_received += 1
        elif kind == RESUME:
            self.ports[in_port].resume(pkt.pause_prio)
            self.ports[in_port].stats.resume_received += 1
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unexpected packet kind {kind}")

    # -- completion hooks -----------------------------------------------------------
    def on_flow_received(self, rqp: ReceiverQP) -> None:
        """Last in-order byte arrived: the FCT measurement point."""
        self._active_inbound -= 1
        if self.fct_sink is not None:
            self.fct_sink(rqp)

    def _sender_finished(self, qp: SenderQP) -> None:
        if self.sender_done_sink is not None:
            self.sender_done_sink(qp)
