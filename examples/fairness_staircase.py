#!/usr/bin/env python
"""The Fig. 13e fairness staircase, as a runnable demo.

Four long-lived flows share one bottleneck.  A new flow joins every epoch;
then flows leave one per epoch.  A fair CC shows a clean rate staircase
100 -> 50 -> 33 -> 25 -> 33 -> 50 -> 100 Gb/s with Jain index ~ 1 at every
step.  Try swapping the scheme to "dcqcn" or "rocc" to see rougher
staircases.

Run:  python examples/fairness_staircase.py [cc]
"""

import sys

from repro.experiments.fig13_fairness import run_fairness


def main() -> None:
    cc = sys.argv[1] if len(sys.argv) > 1 else "fncc"
    print(f"Fairness staircase under {cc} (4 flows, 1 ms epochs)\n")
    res = run_fairness(cc, n_flows=4, epoch_us=1000.0, sample_us=10.0)
    n = res.n_flows
    print(f"{'epoch':>6} {'active':>7} {'fair':>7} {'jain':>6} " + " ".join(f"{'f'+str(i):>6}" for i in range(n)))
    for t in res.epoch_probe_times():
        active = res.active_flows_at(t)
        rates = " ".join(f"{res.rates[i].value_at(t):6.1f}" for i in range(n))
        print(
            f"{t / res.epoch_ps:6.1f} {len(active):>7} "
            f"{res.fair_share_at(t):7.1f} {res.jain_index_at(t):6.3f} {rates}"
        )
    print("\n(rates in Gb/s; 'fair' is capacity / active flows)")


if __name__ == "__main__":
    main()
