"""§5.4.1 theory vs. simulation: notification latency per congestion hop.

The closed-form model (:mod:`repro.analysis.notification`) predicts how
much earlier FNCC's sender hears about congestion than HPCC's, per hop:
largest for first-hop congestion, smallest for last-hop.  This experiment
measures the same quantity in the packet simulator — the gap between the
two schemes' response times in the Fig. 11 scenarios — and prints both.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.notification import NotificationModel
from repro.experiments.fig13_congestion_location import run_location
from repro.topo.parkinglot import LOCATIONS
from repro.units import to_us, us

HOP_OF_LOCATION = {"first": 1, "middle": 2, "last": 3}
#: "Responded": flow0 below this fraction of line rate.
RESPONSE_FRAC = 0.8


def measured_response_gap_us(
    location: str,
    duration_us: float = 500.0,
    lhcs: bool = True,
) -> float:
    """HPCC response time minus FNCC response time for flow0 after the join
    (positive = FNCC heard about it earlier).  ``lhcs=False`` isolates the
    pure notification-latency effect on the last hop (LHCS otherwise adds
    its own acceleration on top of the model's prediction)."""
    fncc = run_location("fncc", location, duration_us=duration_us, lhcs_enabled=lhcs)
    hpcc = run_location("hpcc", location, duration_us=duration_us)
    threshold = RESPONSE_FRAC * fncc.link_rate_gbps
    t_f = fncc.rates[0].first_time_below(threshold, after_ps=us(301))
    t_h = hpcc.rates[0].first_time_below(threshold, after_ps=us(301))
    if t_f < 0 or t_h < 0:
        raise RuntimeError(f"{location}: a rate never fell below the response threshold")
    return to_us(t_h - t_f)


def run_theory(duration_us: float = 500.0) -> Dict[str, Dict[str, float]]:
    model = NotificationModel(n_switches=3)
    out: Dict[str, Dict[str, float]] = {}
    for loc in LOCATIONS:
        hop = HOP_OF_LOCATION[loc]
        # LHCS off: isolate the pure notification-latency effect the model
        # describes (LHCS adds its own last-hop acceleration on top).
        gap = measured_response_gap_us(loc, duration_us=duration_us, lhcs=False)
        out[loc] = {
            "hop": hop,
            "theory_gain_us": model.gain_ps(hop) / 1e6,
            "theory_hpcc_us": model.hpcc_delay_ps(hop) / 1e6,
            "theory_fncc_us": model.fncc_delay_ps(hop) / 1e6,
            "measured_gap_us": gap,
        }
        if loc == "last":
            out[loc]["measured_gap_with_lhcs_us"] = measured_response_gap_us(
                loc, duration_us=duration_us, lhcs=True
            )
    return out


def main() -> None:
    rows = run_theory()
    print("§5.4.1 — notification-latency theory vs measured response gap")
    print(f"{'location':>8} {'hop':>4} {'HPCC(us)':>9} {'FNCC(us)':>9} {'gain(us)':>9} {'measured(us)':>13}")
    for loc, r in rows.items():
        print(
            f"{loc:>8} {r['hop']:>4} {r['theory_hpcc_us']:9.2f} "
            f"{r['theory_fncc_us']:9.2f} {r['theory_gain_us']:9.2f} "
            f"{r['measured_gap_us']:13.2f}"
        )
    print(
        f"last hop with LHCS enabled: measured gap "
        f"{rows['last']['measured_gap_with_lhcs_us']:.2f} us — "
        "larger than the pure-notification prediction, which is LHCS "
        "doing exactly its job (Alg. 2 compensates the smallest gain)"
    )
    print("theory: gain shrinks toward the last hop — hence LHCS (Alg. 2)")


if __name__ == "__main__":  # pragma: no cover
    main()
