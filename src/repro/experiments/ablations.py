"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper — these probe *why* FNCC behaves as it does:

* ``beta_sweep`` — LHCS drain factor beta (paper: "slightly smaller than
  one, e.g. 0.9").  Smaller beta drains faster but sacrifices utilization.
* ``alpha_sweep`` — LHCS trigger threshold alpha (paper: 1.05).  Too low
  over-triggers; too high never fires.
* ``ack_coalescing_sweep`` — cumulative-ACK factor m (§3.2.3 supports one
  ACK per m packets): coarser ACKs slow notification for every scheme.
* ``lhcs_contribution`` — FNCC with vs without LHCS on last-hop congestion
  (Fig. 13c/d decomposition).
* ``int_staleness_sweep`` — All_INT_Table refresh period (§4.1 "updated
  periodically"): stale telemetry converges toward HPCC-like sluggishness.

Every sweep point is an independent run, so each sweep takes ``jobs=N``
and fans points over the :mod:`repro.exec` process pool; the per-point
functions (``beta_point`` etc.) are module-level and return plain floats
— the picklable spec/reduce shape DESIGN.md §5 describes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.common import run_microbench, sweep
from repro.experiments.fig13_congestion_location import run_location
from repro.net.switch import IntMode, SwitchConfig
from repro.transport.sender import TransportConfig
from repro.units import KB, us


#: Run length of every point but the LHCS contribution's, which runs the
#: Fig. 13 cell's own 800 us.
DURATION_US = 600.0
BETAS = (0.7, 0.8, 0.9, 0.95)
ALPHAS = (1.01, 1.05, 1.5, 3.0)
ACK_EVERY = (1, 2, 4, 8)
REFRESH_PERIODS_US = (0.0, 1.0, 5.0, 20.0)


# -- per-point spec targets (module-level, portable return values) ----------


def beta_point(beta: float) -> Tuple[float, float]:
    """One beta setting -> (peak queue KB, mean utilization) on last-hop
    congestion."""
    r = run_location("fncc", "last", duration_us=DURATION_US, beta=beta)
    return (
        r.peak_queue_bytes / KB,
        r.utilization.mean_after(us(100)),
    )


def alpha_point(alpha: float) -> float:
    """One alpha setting -> standing queue (KB) in the post-join transient
    window [305, 450] us (the raw peak includes the pre-notification
    burst)."""
    r = run_location("fncc", "last", duration_us=DURATION_US, alpha=alpha)
    return r.queue.max_between(us(305), us(450)) / KB


def ack_point(m: int) -> float:
    """One ACK-per-m-packets setting -> peak queue KB (dumbbell, FNCC)."""
    r = run_microbench(
        "fncc", duration_us=DURATION_US, transport_config=TransportConfig(ack_every=m)
    )
    return r.peak_queue_bytes / KB


def lhcs_point(variant: str) -> float:
    """One LHCS-contribution variant -> peak queue KB on last-hop
    congestion."""
    if variant == "hpcc":
        r = run_location("hpcc", "last")
    elif variant == "fncc_nolhcs":
        r = run_location("fncc", "last", lhcs_enabled=False)
    elif variant == "fncc_lhcs":
        r = run_location("fncc", "last")
    else:
        raise ValueError(f"unknown lhcs_contribution variant {variant!r}")
    return r.peak_queue_bytes / KB


def staleness_point(period_us: float) -> float:
    """One All_INT_Table refresh period -> peak queue KB.  0 = live
    readout."""
    cfg = SwitchConfig(
        int_mode=IntMode.FNCC,
        int_table_refresh_ps=us(period_us) if period_us > 0 else 0,
    )
    r = run_microbench("fncc", duration_us=DURATION_US, switch_config=cfg)
    return r.peak_queue_bytes / KB


# -- the sweeps (one spec per point, reduced in point order) ----------------

_ABLATIONS = "repro.experiments.ablations"


def beta_sweep(jobs: int = 1) -> Dict[float, Tuple[float, float]]:
    """beta -> (peak queue KB, mean utilization) on last-hop congestion."""
    return sweep(f"{_ABLATIONS}:beta_point", dict(beta=BETAS), jobs=jobs)


def alpha_sweep(jobs: int = 1) -> Dict[float, float]:
    """alpha -> standing queue (KB) on last-hop congestion.

    A threshold too high to ever fire (u tops out near 1 + q_peak/BDP
    ~ 1.5 here) degenerates to FNCC-without-LHCS.
    """
    return sweep(f"{_ABLATIONS}:alpha_point", dict(alpha=ALPHAS), jobs=jobs)


def ack_coalescing_sweep(jobs: int = 1) -> Dict[int, float]:
    """ACK-per-m-packets -> peak queue KB (dumbbell, FNCC)."""
    return sweep(f"{_ABLATIONS}:ack_point", dict(m=ACK_EVERY), jobs=jobs)


def lhcs_contribution(jobs: int = 1) -> Dict[str, float]:
    """Peak queue (KB) on last-hop congestion: HPCC vs FNCC +- LHCS."""
    return sweep(
        f"{_ABLATIONS}:lhcs_point",
        dict(variant=("hpcc", "fncc_nolhcs", "fncc_lhcs")),
        jobs=jobs,
    )


def int_staleness_sweep(jobs: int = 1) -> Dict[float, float]:
    """All_INT_Table refresh period -> peak queue KB.  0 = live readout."""
    return sweep(
        f"{_ABLATIONS}:staleness_point", dict(period_us=REFRESH_PERIODS_US), jobs=jobs
    )


def main(jobs: int = 1) -> None:
    print("LHCS contribution (last-hop peak queue, KB):")
    for k, v in lhcs_contribution(jobs=jobs).items():
        print(f"  {k:>12}: {v:8.1f}")
    print("beta sweep (peakQ KB, util):")
    for b, (q, u) in beta_sweep(jobs=jobs).items():
        print(f"  beta={b:4.2f}: {q:8.1f} KB  util={u:.3f}")
    print("alpha sweep (peakQ KB):")
    for a, q in alpha_sweep(jobs=jobs).items():
        print(f"  alpha={a:4.2f}: {q:8.1f} KB")
    print("ACK coalescing sweep (peakQ KB):")
    for m, q in ack_coalescing_sweep(jobs=jobs).items():
        print(f"  m={m}: {q:8.1f} KB")
    print("INT staleness sweep (peakQ KB):")
    for p, q in int_staleness_sweep(jobs=jobs).items():
        print(f"  refresh={p:4.1f}us: {q:8.1f} KB")


if __name__ == "__main__":  # pragma: no cover
    main()
