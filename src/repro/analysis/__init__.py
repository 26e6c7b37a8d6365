"""Analytical companions to the packet simulator.

* :mod:`repro.analysis.notification` — the §5.4.1 theoretical model
  (Fig. 12): closed-form notification latency of HPCC vs FNCC per
  congestion hop, and the predicted gain ordering
  first > middle > last.
* :mod:`repro.analysis.flowsim` — a flow-level max-min simulator (no
  packets): orders-of-magnitude faster, used to cross-validate FCT trends
  at paper scale (k=8, 128 hosts) where packet simulation is impractical
  in Python, and the fluid tier of the hybrid backend.

Neither needs numpy or scipy: every module here is plain python.
"""

from repro.analysis.notification import NotificationModel
from repro.analysis.flowsim import FlowLevelSimulator, FlowSimResult

__all__ = [
    "NotificationModel",
    "FlowLevelSimulator",
    "FlowSimResult",
]
