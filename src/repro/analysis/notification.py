"""The §5.4.1 theoretical model (Fig. 12): how long congestion news takes
to reach the sender.

Setting: a path of ``n`` switches sw1..swn, each link with propagation
delay ``d`` and data-frame serialization ``s`` (ACKs are negligible).
Congestion begins at switch ``j`` (1-based) at time t.

* **HPCC** stamps INT onto the next *data* packet passing sw_j; that packet
  still has to reach the receiver (hops j..n), be turned into an ACK, and
  come all the way back (hops n..1).  Delay ≈ time from sw_j to receiver
  with data serialization + full return path.
* **FNCC** stamps the next *ACK* passing sw_j on the return path; the ACK
  only has the remaining hops j-1..1 to travel.  Delay ≈ return path from
  sw_j only.

The paper's qualitative conclusion, which
:meth:`NotificationModel.gain_ps` makes exact: the gain (t7−t1 vs t6−t2
vs t5−t3 in Fig. 12) is **largest for first-hop congestion and smallest
for last-hop congestion** — which is precisely why Alg. 2 (LHCS) exists
for the last hop.
"""

from __future__ import annotations

from repro.units import ACK_SIZE, DEFAULT_MTU, serialization_ps, us


class NotificationModel:
    """Closed-form notification latencies on an n-switch symmetric path."""

    def __init__(
        self,
        n_switches: int,
        rate_gbps: float = 100.0,
        prop_delay_ps: int = us(1.5),
    ) -> None:
        if n_switches < 1:
            raise ValueError("need at least one switch")
        self.n = n_switches
        self.rate_gbps = rate_gbps
        self.d = prop_delay_ps
        self.s_data = serialization_ps(DEFAULT_MTU, rate_gbps)
        self.s_ack = serialization_ps(ACK_SIZE, rate_gbps)

    # A path host-sw1-...-swn-host has n+1 links.  "Hop j" = switch j's
    # egress toward the receiver, j in 1..n.

    def hpcc_delay_ps(self, hop: int) -> int:
        """Congestion at switch ``hop`` -> sender learns via data-then-ACK."""
        self._check(hop)
        # Data packet: from sw_hop's egress to the receiver = links hop+1..n+1
        # (each store-and-forward: serialize + propagate).
        data_links = self.n + 1 - hop
        forward = data_links * (self.s_data + self.d)
        # ACK: receiver back to sender = all n+1 links.
        back = (self.n + 1) * (self.s_ack + self.d)
        return forward + back

    def fncc_delay_ps(self, hop: int) -> int:
        """Congestion at switch ``hop`` -> the next returning ACK carries it."""
        self._check(hop)
        # The ACK is stamped leaving sw_hop toward the sender: links hop..1.
        return hop * (self.s_ack + self.d)

    def gain_ps(self, hop: int) -> int:
        return self.hpcc_delay_ps(hop) - self.fncc_delay_ps(hop)

    def _check(self, hop: int) -> None:
        if not (1 <= hop <= self.n):
            raise ValueError(f"hop must be in 1..{self.n}, got {hop}")
