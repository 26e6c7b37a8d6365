#!/usr/bin/env python
"""Large-scale FCT study on a fat-tree (the §5.5 experiment, scaled).

Runs WebSearch-distributed Poisson traffic at 50% load on a k=4 fat-tree
under DCQCN, HPCC and FNCC, and prints the Fig. 14-style slowdown table
plus the headline comparisons.  Use --flows / --k / --scale to go bigger
(k=8 with scale=1.0 is the paper's full configuration — slow in pure
Python, see DESIGN.md).

Run:  python examples/fattree_fct.py [--flows 200] [--k 4] [--scale 0.1]
"""

import argparse

from repro.experiments.fct_experiment import compare_ccs_sweep, format_panel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=200)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workload", choices=("websearch", "hadoop"), default="websearch"
    )
    args = parser.parse_args()

    print(
        f"{args.workload} @ {args.load:.0%} load, k={args.k} fat-tree, "
        f"{args.flows} flows, size scale {args.scale}\n"
    )
    results = compare_ccs_sweep(
        ("dcqcn", "hpcc", "fncc"),
        workload=args.workload,
        k=args.k,
        load=args.load,
        n_flows=args.flows,
        scale=args.scale,
        seed=args.seed,
    )
    for col in ("average", "p95", "p99"):
        print(format_panel(results, col, f"FCT slowdown ({col})"))
        print()
    for cc, r in results.items():
        agg = r.table.aggregate("p95")
        print(f"{cc:>7}: completed {r.completed()}/{r.n_flows}, overall p95 slowdown {agg:.2f}")


if __name__ == "__main__":
    main()
