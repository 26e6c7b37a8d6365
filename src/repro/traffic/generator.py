"""Workload patterns.

:class:`PoissonWorkload` implements the §5.5 open-loop model: flows arrive
as a Poisson process whose rate is chosen so the *average* offered load on
the host links equals ``load`` (e.g. 0.5 for the paper's 50%); sources and
destinations are uniform random distinct hosts; sizes come from a
:class:`~repro.traffic.cdf.PiecewiseCdf`.

The helpers below build the paper's microbenchmark patterns: staggered
elephants (Figs. 1/9), incast (last-hop congestion), and permutation
traffic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.rng import SeedSequenceFactory
from repro.traffic.cdf import PiecewiseCdf
from repro.transport.flow import Flow
from repro.units import SEC


class PoissonWorkload:
    """Pre-generates a deterministic flow list for an open-loop experiment.

    The arrival rate is ``load * n_hosts * host_rate_gbps / (8 * mean_size)``
    flows per second: each host link is offered ``load`` of its capacity on
    average (the standard data-center-simulation convention the paper uses).
    """

    def __init__(
        self,
        n_hosts: int,
        host_rate_gbps: float,
        cdf: PiecewiseCdf,
        load: float,
        seeds: SeedSequenceFactory,
    ) -> None:
        if not (0.0 < load < 1.0):
            raise ValueError(f"load must be in (0,1), got {load}")
        if n_hosts < 2:
            raise ValueError("need at least two hosts")
        self.n_hosts = n_hosts
        self.host_rate_gbps = host_rate_gbps
        self.cdf = cdf
        self.load = load
        self._rng = seeds.stream("traffic")
        mean_size = cdf.mean()
        bytes_per_sec = load * n_hosts * host_rate_gbps * 1e9 / 8.0
        self.lambda_flows_per_sec = bytes_per_sec / mean_size

    def generate(self, n_flows: int) -> List[Flow]:
        """The first ``n_flows`` arrivals (deterministic in the seed), flow
        ids ``0 .. n_flows - 1``, arriving from time 0."""
        rng = self._rng
        flows: List[Flow] = []
        t = 0.0
        mean_gap_ps = SEC / self.lambda_flows_per_sec
        for i in range(n_flows):
            t += rng.expovariate(1.0) * mean_gap_ps
            src = rng.randrange(self.n_hosts)
            dst = rng.randrange(self.n_hosts - 1)
            if dst >= src:
                dst += 1
            size = self.cdf.sample(rng)
            flows.append(Flow(i, src, dst, size, start_ps=round(t)))
        return flows


def staggered_elephants(
    sender_ids: Sequence[int],
    receiver_id: int,
    size_bytes: int,
    stagger_ps: int,
) -> List[Flow]:
    """The Figs. 1/9 pattern: elephant ``i`` (flow id ``i``) starts at
    ``i * stagger_ps``.  (Fig. 10: flow0 at t=0, flow1 joins at 300 µs.)"""
    return [
        Flow(i, src, receiver_id, size_bytes, start_ps=i * stagger_ps)
        for i, src in enumerate(sender_ids)
    ]


def incast_flows(
    sender_ids: Sequence[int],
    receiver_id: int,
    size_bytes: int,
) -> List[Flow]:
    """N-to-1 incast: every sender starts at time 0 (last-hop congestion,
    the LHCS showcase); flow ``i`` comes from ``sender_ids[i]``."""
    return [Flow(i, src, receiver_id, size_bytes) for i, src in enumerate(sender_ids)]


def permutation_flows(
    host_ids: Sequence[int],
    size_bytes: int,
    seeds: SeedSequenceFactory,
) -> List[Flow]:
    """A random permutation: every host sends one flow, every host receives
    one flow (classic full-bisection stress pattern), all at time 0."""
    rng = seeds.stream("permutation")
    hosts = list(host_ids)
    n = len(hosts)
    if n < 2:
        raise ValueError("need at least two hosts")
    # Sample a derangement by rejection (expected ~e tries).
    while True:
        perm = hosts[:]
        rng.shuffle(perm)
        if all(a != b for a, b in zip(hosts, perm)):
            break
    return [Flow(i, src, dst, size_bytes) for i, (src, dst) in enumerate(zip(hosts, perm))]
