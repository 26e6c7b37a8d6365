"""Congestion-control algorithms.

The paper's contribution (:class:`~repro.cc.fncc.Fncc`) and every baseline
it compares against:

* :mod:`repro.cc.hpcc` — HPCC (Li et al., SIGCOMM'19), Alg. 3 of the paper.
* :mod:`repro.cc.fncc` — FNCC = HPCC + ACK-path INT + last-hop congestion
  speedup (LHCS, Alg. 2).
* :mod:`repro.cc.dcqcn` — DCQCN (Zhu et al., SIGCOMM'15), ECN/CNP based.
* :mod:`repro.cc.rocc` — RoCC (Taheri et al., CoNEXT'20), switch-resident
  PI fair-rate controller.

Use :func:`repro.cc.registry.make_cc_factory` to construct a per-flow
factory from an algorithm name and parameter overrides.
"""

from repro.cc.base import CongestionControl
from repro.cc.hpcc import Hpcc, HpccConfig
from repro.cc.fncc import Fncc, FnccConfig
from repro.cc.dcqcn import Dcqcn, DcqcnConfig
from repro.cc.rocc import Rocc, RoccConfig, RoccPortController, install_rocc
from repro.cc.registry import make_cc_factory, ALGORITHMS

__all__ = [
    "CongestionControl",
    "Hpcc",
    "HpccConfig",
    "Fncc",
    "FnccConfig",
    "Dcqcn",
    "DcqcnConfig",
    "Rocc",
    "RoccConfig",
    "RoccPortController",
    "install_rocc",
    "make_cc_factory",
    "ALGORITHMS",
]
