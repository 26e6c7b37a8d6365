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
* ``repro.cc`` — FNCC and the baselines (HPCC, DCQCN, RoCC).
* ``repro.topo`` / ``repro.routing`` — fabrics and symmetric routing.
* ``repro.lb`` — pluggable load balancing (ECMP, spray, flowlet,
  ConWeave-lite) with reorder-tolerant receivers.
* ``repro.traffic`` / ``repro.metrics`` — workloads and measurements.
* ``repro.experiments`` — one module per paper figure.
"""

import sys

__version__ = "0.2.0"

#: Public name -> the module that defines it.  Nothing is imported here:
#: each name is resolved on first access (PEP 562), so ``import
#: repro.<x>`` loads ``<x>``'s own graph and nothing else (DESIGN.md §5.4).
_EXPORTS = {
    "repro.units": ("KB", "MB", "GB", "US", "MS", "SEC", "us", "ms"),
    "repro.sim": ("Simulator", "SeedSequenceFactory"),
    "repro.net": ("Switch", "SwitchConfig", "IntMode", "Host", "EcnConfig"),
    "repro.transport": ("Flow", "TransportConfig"),
    "repro.cc": ("make_cc_factory", "ALGORITHMS"),
    "repro.topo": ("Topology", "dumbbell", "fattree", "star", "congestion_at", "jellyfish"),
    "repro.lb": ("LbConfig", "install_lb"),
    "repro.metrics": ("FctCollector", "QueueSampler", "RateSampler", "UtilizationSampler"),
    "repro.traffic": ("websearch_cdf", "fb_hadoop_cdf", "PoissonWorkload"),
    "repro.experiments.common": ("quick_dumbbell",),
    "repro.analysis": ("NotificationModel", "FlowLevelSimulator"),
    "repro.net.pfc_analysis": ("routing_is_deadlock_free",),
    "repro.viz": ("compare_series",),
}


def _lazy_exports(package: str, exports: dict):
    """The module ``__getattr__`` and ``__dir__`` of a package whose public
    names are ``exports`` (module -> names), each imported from its module
    on first access and then cached in the package's namespace."""
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        from importlib import import_module

        value = getattr(import_module(where[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, [*where]


__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
