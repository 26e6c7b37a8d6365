#!/usr/bin/env python
"""Incast and the Last-Hop Congestion Speedup (LHCS, Alg. 2).

Eight senders blast one receiver through a single switch — the classic
last-hop congestion pattern (e.g. a distributed storage read, or the
reduce phase the paper's intro motivates).  The receiver writes the
concurrent-flow count N into every ACK; FNCC senders use it to jump
straight to the fair share B*RTT*beta/N instead of stepping down.

We compare FNCC with and without LHCS, and HPCC, on peak queue and the
95th-percentile FCT of the incast flows.

Run:  python examples/incast_lhcs.py
"""

from repro.experiments.common import build_cc_env, launch_flows
from repro.metrics.fct import FctCollector
from repro.metrics.monitors import QueueSampler
from repro.metrics.stats import mean, percentile
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.star import star
from repro.traffic.generator import incast_flows
from repro.units import KB, MB, us

N_SENDERS = 8
FLOW_BYTES = 1 * MB


def run(cc: str, **cc_params):
    sim = Simulator()
    env = build_cc_env(cc, **cc_params)
    topo = star(
        sim,
        N_SENDERS + 1,
        switch_config=env.switch_config,
        seeds=SeedSequenceFactory(1),
        cnp_enabled=env.cnp_enabled,
    )
    env.post_install(topo)
    collector = FctCollector(topo)
    receiver = topo.hosts[N_SENDERS]
    # Monitor the last hop: the switch's egress toward the receiver.
    port_idx = topo.adj["sw0"][receiver.name]["ports"]["sw0"]
    qmon = QueueSampler(sim, topo.switches[0].ports[port_idx], interval_ps=us(1))
    flows = incast_flows(range(N_SENDERS), receiver.host_id, FLOW_BYTES)
    launch_flows(topo, flows, env)
    sim.run(until=us(5000))
    assert collector.completed() == N_SENDERS, f"{cc}: incast did not finish"
    slowdowns = collector.slowdowns()
    # The first-RTT blast (every sender ships a full BDP window before any
    # feedback exists) is identical for all window CCs, so the interesting
    # number is the standing queue after notification has had time to act.
    return {
        "peak_queue_kb": qmon.series.max() / KB,
        "queue_after_50us_kb": qmon.series.max_after(us(50)) / KB,
        "p95_slowdown": percentile(slowdowns, 95),
        "mean_slowdown": mean(slowdowns),
    }


def main() -> None:
    print(f"{N_SENDERS}-to-1 incast, {FLOW_BYTES // MB} MB per sender, 100 Gb/s star.\n")
    rows = {
        "hpcc": run("hpcc"),
        "fncc (no LHCS)": run("fncc", lhcs_enabled=False),
        "fncc (LHCS)": run("fncc"),
    }
    print(
        f"{'scheme':>16} {'first-RTT peak':>15} {'standing queue':>15} "
        f"{'p95 slowdown':>13}"
    )
    for name, r in rows.items():
        print(
            f"{name:>16} {r['peak_queue_kb']:12.1f} KB "
            f"{r['queue_after_50us_kb']:12.1f} KB {r['p95_slowdown']:13.2f}"
        )
    print(
        "\nThe first-RTT blast is feedback-free and identical everywhere;"
        "\nonce ACKs carry N, LHCS drops the standing queue well below both"
        "\nHPCC and FNCC-without-LHCS (the Fig. 13c/d effect)."
    )


if __name__ == "__main__":
    main()
