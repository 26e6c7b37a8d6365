"""Time, rate and size units used throughout the simulator.

The simulator clock is an integer number of **picoseconds**.  Integer time
makes event ordering exact and reproducible: a 1538-byte frame at 100 Gb/s
serializes in exactly 123_040 ps, with no floating-point drift across
millions of packets.  All public helpers below convert human units into the
integer picosecond domain (time) or the ``bytes``/``bits`` domain (size).

Rates are carried around as plain Gb/s floats in configuration objects and
converted to exact serialization times with :func:`serialization_ps`.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time constants (picoseconds)
# ---------------------------------------------------------------------------
PS: int = 1
NS: int = 1_000
US: int = 1_000_000
MS: int = 1_000_000_000
SEC: int = 1_000_000_000_000

# ---------------------------------------------------------------------------
# Size constants (bytes)
# ---------------------------------------------------------------------------
KB: int = 1_000
MB: int = 1_000_000
GB: int = 1_000_000_000

#: Default Ethernet MTU used by the paper (Section 5: "MTU is set to 1518").
DEFAULT_MTU: int = 1518
#: Minimal ACK frame size — RoCE ACKs are "a few dozen bytes" (Observation 3).
ACK_SIZE: int = 64
#: PFC PAUSE/RESUME MAC control frame size (IEEE 802.1Qbb).
PAUSE_FRAME_SIZE: int = 64
#: DCQCN Congestion Notification Packet size.
CNP_SIZE: int = 64


def us(x: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return round(x * US)


def ms(x: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return round(x * MS)


def to_us(t_ps: int) -> float:
    """Convert integer picoseconds back to (float) microseconds."""
    return t_ps / US


def serialization_ps(nbytes: int, rate_gbps: float) -> int:
    """Exact wire time of ``nbytes`` at ``rate_gbps``.

    ``bits / (rate_gbps * 1e9) seconds == bits * 1000 / rate_gbps ps``.
    For the rates used in the paper (100/200/400 Gb/s) this is an exact
    integer for any byte count.
    """
    if rate_gbps <= 0:
        raise ValueError(f"rate must be positive, got {rate_gbps}")
    return round(nbytes * 8 * 1000 / rate_gbps)
