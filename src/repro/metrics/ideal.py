"""Exact ideal (single-flow) FCT for slowdown normalization (§5.5).

"FCT slowdown means a flow's actual FCT normalized by its ideal FCT when
the network only has this flow."  We compute the ideal exactly for a
store-and-forward pipeline: frame ``i`` finishes crossing hop ``j`` at

    A(i, j) = max(A(i-1, j), A(i, j-1)) + ser_j(i)   [+ prop_j on arrival]

Only the last frame may be short, so the recurrence has a closed form and
the evaluation is integer arithmetic in O(hops), whatever the flow size.
With ``s_l`` / ``t_l`` the full / last frame's serialization on hop ``l``,
the last *full* frame (index ``n-2``) leaves hop ``j`` at

    sum_{l<=j} s_l + (n-2) * max_{l<=j} s_l

(the classic pipeline: fill once, then drain at the slowest hop so far) and
the last frame at ``max(that, its own finish on hop j-1) + t_j``.  Results
are memoized per (size, path) — fat-tree workloads reuse few distinct path
shapes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

from repro.units import DEFAULT_MTU, serialization_ps
from repro.transport.sender import HEADER_BYTES


def _frame_sizes(size_bytes: int, mtu: int, header: int) -> Tuple[int, int, int]:
    """(number of frames, full frame wire size, last frame wire size)."""
    payload = mtu - header
    n_frames = (size_bytes + payload - 1) // payload
    last_payload = size_bytes - (n_frames - 1) * payload
    return n_frames, mtu, last_payload + header


@lru_cache(maxsize=65536)
def _ideal_cached(
    size_bytes: int,
    links: Tuple[Tuple[float, int], ...],
    mtu: int,
    header: int,
) -> int:
    n_frames, full_size, last_size = _frame_sizes(size_bytes, mtu, header)
    total_prop = sum(d for _, d in links)
    if n_frames == 1:
        return sum(serialization_ps(last_size, r) for r, _ in links) + total_prop

    full_sum = full_max = 0  # sum / max of s_l over the hops so far
    finish = 0  # the last frame's finish on the previous hop
    for rate, _ in links:
        s = serialization_ps(full_size, rate)
        full_sum += s
        full_max = max(full_max, s)
        last_full = full_sum + (n_frames - 2) * full_max
        finish = max(finish, last_full) + serialization_ps(last_size, rate)
    return finish + total_prop


def ideal_fct_ps(
    size_bytes: int,
    links: Sequence[Tuple[float, int]],
    mtu: int = DEFAULT_MTU,
    header: int = HEADER_BYTES,
) -> int:
    """Ideal last-byte-delivery time of ``size_bytes`` over ``links``
    (each ``(rate_gbps, prop_delay_ps)``), measured from the moment the
    sender begins serializing the first frame.
    """
    if size_bytes <= 0:
        raise ValueError("flow size must be positive")
    if not links:
        raise ValueError("need at least one link")
    return _ideal_cached(size_bytes, tuple(links), mtu, header)
