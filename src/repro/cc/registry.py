"""Name-based construction of CC factories.

Experiments select algorithms by name ("fncc", "hpcc", ...).  A factory is a
callable ``(flow, host) -> CongestionControl`` creating one fresh instance
per flow.  Parameter overrides are keyword arguments forwarded to the
algorithm's config class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.cc.dcqcn import Dcqcn, DcqcnConfig
from repro.cc.fncc import Fncc, FnccConfig
from repro.cc.hpcc import Hpcc, HpccConfig
from repro.cc.rocc import Rocc

if TYPE_CHECKING:  # pragma: no cover
    from repro.cc.base import CongestionControl
    from repro.net.host import Host
    from repro.transport.flow import Flow

CcFactory = Callable[["Flow", "Host"], "CongestionControl"]

#: algorithm name -> (cc class, config class or None)
ALGORITHMS: Dict[str, Tuple[type, type]] = {
    "hpcc": (Hpcc, HpccConfig),
    "fncc": (Fncc, FnccConfig),
    "dcqcn": (Dcqcn, DcqcnConfig),
    "rocc": (Rocc, None),
}


def make_cc_factory(name: str, **params) -> CcFactory:
    """Build a per-flow CC factory for the named algorithm.

    >>> factory = make_cc_factory("fncc", beta=0.85)
    >>> cc = factory(flow, host)   # one instance per flow
    """
    key = name.lower()
    if key not in ALGORITHMS:
        raise ValueError(
            f"unknown CC algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        )
    cls, cfg_cls = ALGORITHMS[key]
    if cfg_cls is None:
        if params:
            raise ValueError(f"{name} takes no parameters, got {sorted(params)}")

        def factory(flow, host):
            return cls()

    else:
        config = cfg_cls(**params)

        def factory(flow, host):
            return cls(config)

    return factory
