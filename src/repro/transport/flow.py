"""Flow descriptors and completion records."""

from __future__ import annotations

from typing import Optional


class Flow:
    """An application message: ``size_bytes`` of payload from ``src`` to
    ``dst`` host, starting at ``start_ps``.

    Matches the paper's workload model (RC RDMA Write messages, §3.1
    Observation 3).
    """

    __slots__ = ("flow_id", "src", "dst", "size_bytes", "start_ps")

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size_bytes: int,
        start_ps: int = 0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive, got {size_bytes}")
        if src == dst:
            raise ValueError("flow endpoints must differ")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.start_ps = start_ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow({self.flow_id}, {self.src}->{self.dst}, "
            f"{self.size_bytes}B @ {self.start_ps}ps)"
        )


class FlowRecord:
    """Completion record produced when the receiver sees the last in-order
    byte.  ``fct_ps`` is last-byte-delivered minus flow start."""

    __slots__ = ("flow", "fct_ps", "finish_ps", "ideal_fct_ps")

    def __init__(self, flow: Flow, finish_ps: int) -> None:
        self.flow = flow
        self.finish_ps = finish_ps
        self.fct_ps = finish_ps - flow.start_ps
        self.ideal_fct_ps: Optional[int] = None

    @property
    def slowdown(self) -> float:
        """FCT normalized by the ideal single-flow FCT (§5.5)."""
        if not self.ideal_fct_ps:
            raise ValueError("ideal FCT not attached yet")
        return self.fct_ps / self.ideal_fct_ps
