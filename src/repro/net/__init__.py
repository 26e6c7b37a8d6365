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

from repro.net.packet import (
    Packet,
    INTRecord,
    DATA,
    ACK,
    CNP,
    PAUSE,
    RESUME,
    KIND_NAMES,
)
from repro.net.port import Port, EcnConfig, PortStats
from repro.net.node import Node
from repro.net.switch import Switch, SwitchConfig, IntMode
from repro.net.host import Host

__all__ = [
    "Packet",
    "INTRecord",
    "DATA",
    "ACK",
    "CNP",
    "PAUSE",
    "RESUME",
    "KIND_NAMES",
    "Port",
    "EcnConfig",
    "PortStats",
    "Node",
    "Switch",
    "SwitchConfig",
    "IntMode",
    "Host",
]
