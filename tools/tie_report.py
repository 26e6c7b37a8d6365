#!/usr/bin/env python
"""Generate the event-tie ordering-hazard report (DESIGN.md §4.1/§9).

Runs three traffic regimes under the event-tie sanitizer
(``REPRO_SANITIZE=tie``) and writes one merged tie report per regime to
``benchmarks/TIE_REPORT.json``.  Each site pair names the callback popped
and the same-timestamp callback left pending, as ``module:qualname``;
DESIGN.md §4.1 sorts every pair into a bucket and says how the sharded
engine's lane key orders it.

The regimes are defined here, through public entry points, because the
report needs live ``Simulator`` objects (the repo benchmark's cells return
counts and digests only): the paper's websearch FCT workload, a
load-balancer matrix slice and a PFC-heavy dumbbell.

Usage::

    python tools/tie_report.py                     # all three -> benchmarks/
    python tools/tie_report.py --scenario pfc_dumbbell --out /tmp/ties.json
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "TIE_REPORT.json"


def _fig14_websearch() -> list:
    from repro.experiments.fct_experiment import compare_ccs

    results = compare_ccs(("fncc",), workload="websearch", n_flows=200, seed=1)
    return [r.sim for r in results.values()]


def _lbmatrix() -> list:
    from repro.experiments.lbmatrix import run_lb_cell
    from repro.units import KB

    spray = run_lb_cell("spray", "fncc", workload="websearch", n_flows=200, seed=1)
    conweave = run_lb_cell(
        "conweave", "fncc", workload="permutation", perm_flow_bytes=600 * KB, seed=1
    )
    return [spray.sim, conweave.sim]


def _pfc_dumbbell() -> list:
    from repro.experiments.common import run_microbench

    # A tight XOFF keeps the switch in sustained PAUSE/RESUME churn.
    return [run_microbench("fncc", duration_us=400.0, seed=3, pfc_xoff=40_000).sim]


#: regime name -> zero-arg callable returning the Simulators it ran
SCENARIOS = {
    "fig14_websearch": _fig14_websearch,
    "lbmatrix": _lbmatrix,
    "pfc_dumbbell": _pfc_dumbbell,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="regime to scan (repeatable; default: all three)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--top",
        type=int,
        default=0,
        help="keep only the N most frequent site pairs per scenario "
        "(0 = all; the count of dropped pairs is recorded either way)",
    )
    args = parser.parse_args(argv)

    # Construction-time default: every Simulator the scenarios build picks
    # this up.
    os.environ["REPRO_SANITIZE"] = "tie"

    from repro.sim.sanitize import (
        TIE_REPORT_SCHEMA,
        merge_tie_reports,
        write_tie_report,
    )

    out = {"schema": TIE_REPORT_SCHEMA, "scenarios": {}}
    for name in args.scenario or SCENARIOS:
        print(f"tie-scan {name} ...", flush=True)
        report = merge_tie_reports(s.tie_report() for s in SCENARIOS[name]())
        if args.top and len(report["sites"]) > args.top:
            report["sites_dropped"] = len(report["sites"]) - args.top
            report["sites"] = report["sites"][: args.top]
        out["scenarios"][name] = report
        tied = report["tied_pops"]
        total = report["total_pops"]
        print(
            f"  {tied}/{total} pops tied "
            f"({tied / total:.2%}) across {report['site_pairs']} site pair(s)"
        )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_tie_report(args.out, out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
