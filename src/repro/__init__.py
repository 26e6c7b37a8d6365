"""repro — a full packet-level reproduction of *FNCC: Fast Notification
Congestion Control in Data Center Networks* (Xu et al., 2024).

Quickstart::

    from repro import quick_dumbbell
    result = quick_dumbbell(cc="fncc")
    print(result.peak_queue_bytes, "bytes peak queue")

Public surface:

* ``repro.sim`` — discrete-event engine (integer-picosecond clock).
* ``repro.net`` — lossless Ethernet: ports, PFC, ECN, switches with
  HPCC/FNCC INT insertion, hosts.
* ``repro.transport`` — RDMA-style QPs (sender RP / receiver ACK point).
* ``repro.cc`` — FNCC and the baselines (HPCC, DCQCN, RoCC, Timely, Swift).
* ``repro.topo`` / ``repro.routing`` — fabrics and symmetric routing.
* ``repro.lb`` — pluggable load balancing (ECMP, spray, flowlet,
  ConWeave-lite) with reorder-tolerant receivers.
* ``repro.traffic`` / ``repro.metrics`` — workloads and measurements.
* ``repro.experiments`` — one module per paper figure.
"""

from repro.units import KB, MB, GB, US, MS, SEC, us, ms
from repro.sim import Simulator, SeedSequenceFactory
from repro.net import Switch, SwitchConfig, IntMode, Host, EcnConfig
from repro.transport import Flow, TransportConfig
from repro.cc import make_cc_factory, ALGORITHMS
from repro.topo import Topology, dumbbell, fattree, star, congestion_at, jellyfish
from repro.lb import LbConfig, install_lb
from repro.metrics import FctCollector, QueueSampler, RateSampler, UtilizationSampler
from repro.traffic import websearch_cdf, fb_hadoop_cdf, PoissonWorkload
from repro.experiments.common import quick_dumbbell
from repro.analysis import (
    NotificationModel,
    FluidLink,
    fair_window,
    FlowLevelSimulator,
)
from repro.metrics.tap import PacketTap
from repro.net.pfc_analysis import routing_is_deadlock_free
from repro.viz import ascii_plot, compare_series, sparkline

__version__ = "0.2.0"

__all__ = [
    "KB", "MB", "GB", "US", "MS", "SEC", "us", "ms",
    "Simulator", "SeedSequenceFactory",
    "Switch", "SwitchConfig", "IntMode", "Host", "EcnConfig",
    "Flow", "TransportConfig",
    "make_cc_factory", "ALGORITHMS",
    "Topology", "dumbbell", "fattree", "star", "congestion_at", "jellyfish",
    "FctCollector", "QueueSampler", "RateSampler", "UtilizationSampler",
    "websearch_cdf", "fb_hadoop_cdf", "PoissonWorkload",
    "quick_dumbbell",
    "NotificationModel", "FluidLink", "fair_window", "FlowLevelSimulator",
    "PacketTap", "routing_is_deadlock_free",
    "ascii_plot", "compare_series", "sparkline",
    "__version__",
]
