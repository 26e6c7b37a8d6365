"""Fig. 13e — fairness over multiple flows.

Four senders share a dumbbell bottleneck.  A new long-lived flow joins
every epoch, then flows exit in sequence, producing the staircase
100 -> 50 -> 33 -> 25 -> 33 -> 50 -> 100 Gb/s.  The paper uses 100 ms
epochs; the default here is 1 ms (~80 RTTs — ample convergence time, see
DESIGN.md's scaling note), with the original value one argument away.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import build_fabric, launch_flows
from repro.metrics.monitors import RateSampler
from repro.metrics.series import TimeSeries
from repro.metrics.stats import total
from repro.sim.engine import Simulator
from repro.topo.dumbbell import dumbbell
from repro.transport.flow import Flow
from repro.units import GB, ms, us

LINK_RATE_GBPS = 100.0
#: Where in its epoch a staircase step is probed: late, once converged.
SETTLE_FRACTION = 0.9


class FairnessResult:
    def __init__(
        self,
        cc: str,
        link_rate_gbps: float,
        epoch_ps: int,
        n_flows: int,
        rates: Dict[int, TimeSeries],
        sim: Simulator,
    ) -> None:
        self.cc = cc
        self.link_rate_gbps = link_rate_gbps
        self.epoch_ps = epoch_ps
        self.n_flows = n_flows
        self.rates = rates
        self.sim = sim

    def active_flows_at(self, t_ps: int) -> List[int]:
        n, e = self.n_flows, self.epoch_ps
        joins = {i: i * e for i in range(n)}
        leaves = {i: (n + i) * e for i in range(n)}
        return [i for i in range(n) if joins[i] <= t_ps < leaves[i]]

    def fair_share_at(self, t_ps: int) -> float:
        active = self.active_flows_at(t_ps)
        return self.link_rate_gbps / len(active) if active else 0.0

    def jain_index_at(self, t_ps: int) -> float:
        """Jain's fairness index over the flows active at ``t_ps``."""
        xs = [self.rates[i].value_at(t_ps) for i in self.active_flows_at(t_ps)]
        s = total(xs)
        return s**2 / (len(xs) * total(x * x for x in xs))

    def epoch_probe_times(self) -> List[int]:
        """One probe per epoch, late in the epoch (post-convergence)."""
        total_epochs = 2 * self.n_flows
        return [
            round((k + SETTLE_FRACTION) * self.epoch_ps)
            for k in range(total_epochs)
            if self.active_flows_at(round((k + SETTLE_FRACTION) * self.epoch_ps))
        ]


def run_fairness(
    cc: str = "fncc",
    n_flows: int = 4,
    epoch_us: float = 1000.0,
    sample_us: float = 10.0,
    **cc_params,
) -> FairnessResult:
    fab = build_fabric(
        cc,
        dumbbell,
        dict(n_senders=n_flows),
        link_rate_gbps=LINK_RATE_GBPS,
        **cc_params,
    )
    sim, topo = fab.sim, fab.topo
    epoch_ps = us(epoch_us)
    receiver = topo.hosts[-1]
    # Long-lived flows: big enough never to finish; exits are scheduled aborts.
    flows = [
        Flow(i, topo.hosts[i].host_id, receiver.host_id, 10 * GB, start_ps=i * epoch_ps)
        for i in range(n_flows)
    ]
    qps = launch_flows(topo, flows, fab.env)

    def leave(fid: int) -> None:
        qps[fid].abort()
        receiver.deactivate_receiver(fid)

    for i in range(n_flows):
        leave_at = (n_flows + i) * epoch_ps
        sim.schedule(leave_at, lambda _arg, fid=i: leave(fid))
    rmons = {i: RateSampler(sim, qps[i], interval_ps=us(sample_us)) for i in range(n_flows)}
    sim.run(until=2 * n_flows * epoch_ps)
    return FairnessResult(
        cc, LINK_RATE_GBPS, epoch_ps, n_flows, {i: m.series for i, m in rmons.items()}, sim
    )


def main() -> None:
    res = run_fairness("fncc")
    print("Fig 13e — FNCC fairness staircase (rate per flow, Gb/s)")
    print(
        f"{'t(ms)':>7} {'active':>7} {'fair':>6} {'jain':>6} "
        + " ".join(f"{'f' + str(i):>6}" for i in range(res.n_flows))
    )
    for t in res.epoch_probe_times():
        active = res.active_flows_at(t)
        vals = " ".join(f"{res.rates[i].value_at(t):6.1f}" for i in range(res.n_flows))
        print(
            f"{t / ms(1):7.2f} {len(active):>7} {res.fair_share_at(t):6.1f} "
            f"{res.jain_index_at(t):6.3f} {vals}"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
