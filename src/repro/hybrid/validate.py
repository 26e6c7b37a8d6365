"""Fidelity gate: hybrid backend vs packet-level ground truth.

Runs one Fig. 14/15 configuration under both backends and compares
per-size-bin slowdown statistics: the hybrid's mean must sit within
:data:`MEAN_TOL` (relative) and its p99 within :data:`P99_TOL` of the
packet simulator's, on every bin holding at least :data:`MIN_SAMPLES` flows in
both runs; the whole-distribution Kolmogorov–Smirnov distance is reported
alongside (and gated loosely, at :data:`KS_TOL` — it catches shape drift
between the bins).

CLI::

    python -m repro.hybrid.validate --scenario fig14 [--quick] [--cc fncc]

exits 0 when the gate passes, 1 when it fails — the CI ``hybrid-smoke``
job runs the ``--quick`` slice.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import build_cc_env
from repro.experiments.fct_experiment import run_fct_experiment
from repro.hybrid.backend import HybridConfig, run_fct_hybrid
from repro.metrics.stats import ks_distance
from repro.sim.rng import SeedSequenceFactory

#: Scenario -> experiment kwargs.  The full rows match the fig14/fig15
#: runner defaults; the quick slices shrink the flow count for CI.
SCENARIOS: Dict[str, dict] = {
    "fig14": dict(workload="websearch", k=4, load=0.5, n_flows=400, scale=0.1),
    "fig15": dict(workload="hadoop", k=4, load=0.5, n_flows=400, scale=1.0),
}
QUICK_N_FLOWS = 200
#: Per-bin tolerances, relative to the packet simulator's value: 10% on
#: the mean slowdown, 20% on the p99.
MEAN_TOL = 0.10
P99_TOL = 0.20
#: The whole-distribution Kolmogorov–Smirnov distance the gate allows.
KS_TOL = 0.25
#: The flows both runs must put in a bin to gate its mean, and its p99:
#: below ~20 samples the 99th percentile *is* the sample maximum, and two
#: noisy maxima differ by noise (the KS distance still covers those bins).
MIN_SAMPLES = 8
P99_MIN_SAMPLES = 20
#: In the quick slice, bins rarely reach 50 samples, so the p99 check is
#: effectively off: quick is a smoke gate on the means + KS distance; the
#: full run is the fidelity instrument.
QUICK_P99_MIN_SAMPLES = 50
#: The quick slice also halves every bin's population, so the mean gate
#: needs more than the full run's 8-sample floor: an 11-sample hadoop bin
#: sits at ~10% mean error from sampling noise alone (the full 400-flow
#: run puts the same bin under 1%).  Quick gates means only on bins that
#: keep a meaningful population at half scale.
QUICK_MIN_SAMPLES = 12


class BinCheck:
    """One bin's verdict."""

    __slots__ = ("bin_upper", "n_packet", "n_hybrid", "mean_err", "p99_err", "ok")

    def __init__(self, bin_upper, n_packet, n_hybrid, mean_err, p99_err, ok) -> None:
        self.bin_upper = bin_upper
        self.n_packet = n_packet
        self.n_hybrid = n_hybrid
        self.mean_err = mean_err
        self.p99_err = p99_err
        self.ok = ok


class GateReport:
    """Everything the gate measured, plus the pass/fail verdict."""

    def __init__(
        self,
        scenario: str,
        cc: str,
        checks: List[BinCheck],
        ks: float,
        demoted: int,
        n_flows: int,
        completed_packet: int,
        completed_hybrid: int,
    ) -> None:
        self.scenario = scenario
        self.cc = cc
        self.checks = checks
        self.ks = ks
        self.demoted = demoted
        self.n_flows = n_flows
        self.completed_packet = completed_packet
        self.completed_hybrid = completed_hybrid

    @property
    def passed(self) -> bool:
        return (
            all(c.ok for c in self.checks)
            and self.ks <= KS_TOL
            and self.completed_hybrid == self.n_flows
        )

    def format(self) -> str:
        lines = [
            f"hybrid validation: {self.scenario} cc={self.cc} "
            f"({self.demoted}/{self.n_flows} demoted, "
            f"packet completed {self.completed_packet}, "
            f"hybrid completed {self.completed_hybrid})",
            f"{'bin':>10} {'n_pkt':>6} {'n_hyb':>6} {'mean_err':>9} {'p99_err':>9}  verdict",
        ]
        for c in self.checks:
            lines.append(
                f"{c.bin_upper:>10} {c.n_packet:>6} {c.n_hybrid:>6} "
                f"{c.mean_err:>8.1%} {c.p99_err:>8.1%}  {'ok' if c.ok else 'FAIL'}"
            )
        lines.append(
            f"KS distance {self.ks:.3f} (tol {KS_TOL:.2f}) -> "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def _bin_values(table, bins: Sequence[int]) -> Dict[int, List[float]]:
    return {b: table.by_bin.get(b, []) for b in bins}


def validate(
    scenario: str = "fig14",
    cc: str = "fncc",
    seed: int = 1,
    quick: bool = False,
    config: Optional[HybridConfig] = None,
    **overrides,
) -> GateReport:
    """Run both backends on one scenario and gate the deltas.

    Bins with fewer than :data:`MIN_SAMPLES` flows in either run are
    reported but not gated, and the p99 check additionally requires
    :data:`P99_MIN_SAMPLES` (the quick slice raises both floors).

    What this gates is mostly the packet engine against itself: under the
    default :class:`~repro.hybrid.backend.HybridConfig` FNCC demotes 195
    of the 200 flows of the ``--quick`` fig14 run and 398 of the 400 of
    the full fig15 run, so 2.5 % and 0.5 % of the flows stay fluid, and
    the tier boundary's error is bounded on those few alone.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {sorted(SCENARIOS)}")
    kwargs = dict(SCENARIOS[scenario])
    min_samples, p99_min_samples = MIN_SAMPLES, P99_MIN_SAMPLES
    if quick:
        kwargs["n_flows"] = QUICK_N_FLOWS
        min_samples, p99_min_samples = QUICK_MIN_SAMPLES, QUICK_P99_MIN_SAMPLES
    kwargs.update(overrides)
    kwargs["seed"] = seed

    pres = run_fct_experiment(cc, **kwargs)
    hres = run_fct_hybrid(cc, config=config, **kwargs)

    ptab, htab = pres.table, hres.table
    pvals = _bin_values(ptab, pres.bins)
    hvals = _bin_values(htab, pres.bins)
    checks: List[BinCheck] = []
    for b in pres.bins:
        np_, nh = len(pvals[b]), len(hvals[b])
        if np_ == 0 or nh == 0:
            # census: a bin one side left empty — tests/hybrid/test_backend.py::TestBackendSelection::test_validate_fails_a_run_that_completes_no_flow
            continue
        pmean = ptab.stat(b, "average")
        hmean = htab.stat(b, "average")
        pp99 = ptab.stat(b, "p99")
        hp99 = htab.stat(b, "p99")
        mean_err = abs(hmean - pmean) / pmean
        p99_err = abs(hp99 - pp99) / pp99
        gated = np_ >= min_samples and nh >= min_samples
        gate_p99 = np_ >= p99_min_samples and nh >= p99_min_samples
        ok = (not gated) or (
            mean_err <= MEAN_TOL and ((not gate_p99) or p99_err <= P99_TOL)
        )
        checks.append(BinCheck(b, np_, nh, mean_err, p99_err, ok))

    pslow, hslow = pres.slowdowns(), hres.slowdowns()
    # A side that completed no flow is as far from the other as can be.
    ks = ks_distance(pslow, hslow) if pslow and hslow else 1.0
    return GateReport(
        scenario,
        cc,
        checks,
        ks,
        hres.stats.get("demoted", 0),
        hres.n_flows,
        pres.completed(),
        hres.completed(),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scenario", default="fig14", choices=sorted(SCENARIOS))
    ap.add_argument("--cc", default="fncc")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true", help="CI slice (fewer flows)")
    ap.add_argument("--threshold", type=float, default=None,
                    help="override the demotion utilization threshold")
    args = ap.parse_args(argv)
    # Each value is checked by the one place that owns its rule, before any
    # cell runs: the scheme names, the seed range, the threshold.
    try:
        build_cc_env(args.cc)
        SeedSequenceFactory(args.seed)
        cfg = HybridConfig(threshold=args.threshold) if args.threshold is not None else None
    # census: a bad scheme, seed or threshold — tests/hybrid/test_backend.py::TestBackendSelection::test_validate_cli_unknown_cc_is_one_line_error
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = validate(args.scenario, cc=args.cc, seed=args.seed, quick=args.quick,
                      config=cfg)
    print(report.format())
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
