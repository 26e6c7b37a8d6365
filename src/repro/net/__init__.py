"""Packet-level lossless-Ethernet substrate (the INET substitute).

Layers:

* :mod:`repro.net.packet` — wire formats (data, ACK, CNP, PFC frames) and
  the INT record of Fig. 7.
* :mod:`repro.net.port` — full-duplex port: egress queue engine for the
  one lossless class, ECN/RED marking, PFC pause state and byte counters.
* :mod:`repro.net.switch` — shared-buffer switch with PFC accounting,
  All_INT_Table (FNCC CP, Alg. 1) and HPCC data-path INT insertion.
* :mod:`repro.net.host` — host with a NIC port and RDMA transport endpoints.
"""

from repro import _lazy_exports

# Resolved on first access, so importing one submodule (say
# ``repro.net.packet``, which the transport layer does) does not import
# ``host`` and, through it, ``repro.transport`` half-way through its own
# initialisation.
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.net.packet": (
            "Packet", "INTRecord", "DATA", "ACK", "CNP", "PAUSE", "RESUME", "KIND_NAMES",
        ),
        "repro.net.port": ("Port", "EcnConfig"),
        "repro.net.node": ("Node",),
        "repro.net.switch": ("Switch", "SwitchConfig", "IntMode"),
        "repro.net.host": ("Host",),
    },
)
