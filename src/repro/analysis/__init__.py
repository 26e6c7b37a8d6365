"""Analytical companions to the packet simulator.

* :mod:`repro.analysis.notification` — the §5.4.1 theoretical model
  (Fig. 12): closed-form notification latency of HPCC vs FNCC per
  congestion hop, and the predicted gain ordering
  first > middle > last.
* :mod:`repro.analysis.fluid` — the Eq. 1-3 fluid model: dq/dt =
  sum(W_i)/RTT - B integrated with scipy, predicting queue trajectories
  and the fair-share fixed point W_i = B*RTT/N that motivates LHCS.
* :mod:`repro.analysis.flowsim` — a flow-level max-min simulator (no
  packets): orders-of-magnitude faster, used to cross-validate FCT trends
  at paper scale (k=8, 128 hosts) where packet simulation is impractical
  in Python.
"""

from repro.analysis.notification import NotificationModel
from repro.analysis.fluid import FluidLink, fair_window, simulate_queue
from repro.analysis.flowsim import FlowLevelSimulator, FlowSimResult

__all__ = [
    "NotificationModel",
    "FluidLink",
    "fair_window",
    "simulate_queue",
    "FlowLevelSimulator",
    "FlowSimResult",
]
