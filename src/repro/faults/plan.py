"""Deterministic fault schedules (DESIGN.md §10).

A :class:`FaultPlan` is a plain-data, picklable description of *what goes
wrong and when*: link down events, down/up flap trains, switch
fail-stop, and unidirectional (gray) loss windows.  It holds no
simulator references, so it can be built once in a parent process and
shipped to ``--jobs`` workers unchanged.

Nothing in a plan draws randomness at build time.  Every stochastic
element (flap jitter, loss sampling) names only *parameters*; the draws
happen at arm time inside :class:`~repro.faults.inject.FaultInjector`,
always from the topology seed factory's ``faults.<plan.name>`` stream, so
an identical plan + identical root seed reproduces an identical event
sequence across runs and across workers (ISSUE 9 acceptance criteria).

The empty plan (:meth:`FaultPlan.noop`) is the zero-perturbation anchor:
arming it schedules no events, installs no wrappers, and draws nothing, so
a run with ``faults=FaultPlan.noop()`` is byte-identical to ``faults=None``
— the same proof discipline ``tests/obs/test_zero_perturbation.py`` applies
to telemetry.
"""

from __future__ import annotations

from typing import List

__all__ = ["FaultPlan"]


def _check_time(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative int (picoseconds), got {value!r}")
    return value


def _check_name(name: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty node name, got {value!r}")
    return value


class FaultPlan:
    """An ordered, validated, picklable fault schedule.

    All builder methods return ``self`` so schedules chain::

        plan = (FaultPlan("flaky-agg")
                .link_flap("agg_0_0", "core_0_0", start_ps=50_000_000,
                           flaps=1, down_ps=200_000_000, up_ps=0))

    ``specs`` is a list of plain dicts — stable, comparable, picklable.
    """

    __slots__ = ("name", "specs")

    def __init__(self, name: str = "faults") -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("plan name must be a non-empty string")
        self.name = name
        self.specs: List[dict] = []

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def noop(cls) -> "FaultPlan":
        """The empty plan: arming it must perturb nothing (§10 proof
        obligation, gated by ``bench --ab-faults``)."""
        return cls("noop")

    def _add(self, kind: str, **fields) -> "FaultPlan":
        spec = {"kind": kind}
        spec.update(fields)
        self.specs.append(spec)
        return self

    def link_down(self, a: str, b: str, at_ps: int) -> "FaultPlan":
        """Both directions of the ``a``–``b`` link stop delivering at
        ``at_ps``; in-flight frames that arrive after the cut are dropped
        at the receiving port (counted in ``Port.drops``)."""
        return self._add(
            "link_down",
            a=_check_name("a", a),
            b=_check_name("b", b),
            at_ps=_check_time("at_ps", at_ps),
        )

    def link_flap(
        self,
        a: str,
        b: str,
        start_ps: int,
        flaps: int,
        down_ps: int,
        up_ps: int,
        jitter_ps: int = 0,
    ) -> "FaultPlan":
        """A train of ``flaps`` down/up cycles starting at ``start_ps``:
        each cycle holds the link down for ``down_ps`` then up for
        ``up_ps``, with each transition shifted by a seed-derived jitter
        in ``[0, jitter_ps]``.  The train is expanded into concrete
        down/up events at arm time, so the expansion is reproducible."""
        if not isinstance(flaps, int) or flaps < 1:
            raise ValueError(f"flaps must be a positive int, got {flaps!r}")
        return self._add(
            "link_flap",
            a=_check_name("a", a),
            b=_check_name("b", b),
            start_ps=_check_time("start_ps", start_ps),
            flaps=flaps,
            down_ps=_check_time("down_ps", down_ps),
            up_ps=_check_time("up_ps", up_ps),
            jitter_ps=_check_time("jitter_ps", jitter_ps),
        )

    def switch_fail(self, switch: str, at_ps: int) -> "FaultPlan":
        """Fail-stop: the switch silently drops everything it receives
        from ``at_ps`` on (no recovery event — fail-stop is terminal)."""
        return self._add(
            "switch_fail",
            switch=_check_name("switch", switch),
            at_ps=_check_time("at_ps", at_ps),
        )

    def gray_loss(
        self, a: str, b: str, start_ps: int, end_ps: int, prob: float
    ) -> "FaultPlan":
        """Unidirectional silent loss: each data frame travelling
        ``a -> b`` during ``[start_ps, end_ps)`` is dropped with
        probability ``prob``.  Control frames (PAUSE/RESUME) are exempt so
        the pause/resume ledger stays balanced; loss of PFC frames is a
        different pathology than gray loss models."""
        return self._add(
            "gray_loss",
            a=_check_name("a", a),
            b=_check_name("b", b),
            start_ps=_check_time("start_ps", start_ps),
            end_ps=_check_time("end_ps", end_ps),
            prob=_check_prob(prob),
        )


def _check_prob(value) -> float:
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"prob must be a float in [0, 1], got {value!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"prob must be in [0, 1], got {value!r}")
    return p
