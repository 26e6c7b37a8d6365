"""Buffer-checker-style invariant auditor (DESIGN.md §10).

Modelled on SONiC's ``buffer-checker`` (see
``/root/related/stephenxs__SONiC/doc/``): a read-only pass over live
switch/port state that reports accounting violations instead of letting
them silently skew a run.  Two tiers:

* **always-true** invariants — shared-buffer and PFC byte accounting can
  never go negative, and on a PFC-enabled switch the per-ingress-port
  PFC bytes can never exceed the shared-buffer occupancy they are a
  breakdown of;
* **quiescence** invariants (``quiescent=True``, meaningful once the
  event heap has drained) — no buffered bytes left anywhere, no stranded
  frame-train commit windows (``Port._uncommitted``), no port still
  paused, and every PAUSE a port emitted matched by a RESUME (the
  pause/resume ledger balances).

Nodes the active fault plan has fail-stopped are exempt from the
quiescence tier: a dead switch legitimately strands whatever it held.
The auditor is pure observation — it never mutates simulator state — so
running it from the flight recorder cannot perturb a run.
"""

from __future__ import annotations

from typing import List

__all__ = ["FaultAuditor"]


class FaultAuditor:
    """Read-only invariant checks over one topology.

    ``audit()`` returns a list of human-readable violation strings (empty
    when healthy); it is cheap enough to run from a metrics snapshot.
    """

    def __init__(self, topo, faults=None) -> None:
        self.topo = topo
        self.faults = faults

    # ------------------------------------------------------------------

    def _exempt(self, node_name: str) -> bool:
        f = self.faults
        return f is not None and node_name in getattr(f, "_failed_switches", ())

    def audit(self, quiescent: bool = False) -> List[str]:
        v: List[str] = []
        for sw in getattr(self.topo, "switches", ()):
            self._audit_switch(sw, quiescent, v)
        for host in getattr(self.topo, "hosts", ()):
            self._audit_ports(host, quiescent, v)
        return v

    def _audit_switch(self, sw, quiescent: bool, v: List[str]) -> None:
        used = sw.buffer_used
        if used < 0:
            v.append(f"{sw.name}: negative shared-buffer occupancy ({used})")
        pfc_total = 0
        for in_p, n in enumerate(sw._pfc_bytes):
            if n < 0:
                v.append(f"{sw.name}: negative PFC bytes in_port={in_p} ({n})")
            else:
                pfc_total += n
        if sw._pfc_on and pfc_total > used >= 0:
            v.append(
                f"{sw.name}: PFC accounting ({pfc_total}B) exceeds shared "
                f"buffer occupancy ({used}B)"
            )
        self._audit_ports(sw, quiescent, v)
        if quiescent and not self._exempt(sw.name) and used != 0:
            v.append(f"{sw.name}: {used}B stranded in shared buffer at quiescence")

    def _audit_ports(self, node, quiescent: bool, v: List[str]) -> None:
        exempt = self._exempt(node.name)
        for port in node.ports:
            q = port.qbytes_total
            if q < 0:
                v.append(f"{node.name}[{port.index}]: negative queue bytes ({q})")
            if port.pause_sent < port.resume_sent:
                v.append(
                    f"{node.name}[{port.index}]: resume_sent ({port.resume_sent}) "
                    f"exceeds pause_sent ({port.pause_sent})"
                )
            if not quiescent or exempt:
                continue
            if q != 0:
                v.append(
                    f"{node.name}[{port.index}]: {q}B queued at quiescence"
                )
            if port._uncommitted != 0:
                v.append(
                    f"{node.name}[{port.index}]: {port._uncommitted} frames in "
                    "a stranded commit window at quiescence"
                )
            if port.paused:
                v.append(f"{node.name}[{port.index}]: still paused at quiescence")
            if port.pause_sent != port.resume_sent:
                v.append(
                    f"{node.name}[{port.index}]: pause/resume ledger imbalance "
                    f"at quiescence ({port.pause_sent} pauses, {port.resume_sent} resumes)"
                )

    # -- merged multi-shard snapshots ------------------------------------

    @staticmethod
    def audit_merged(payloads, quiescent: bool = True) -> List[str]:
        """Quiescence audit over the merged plain-data payloads of a
        sharded run (the values of ``collect_all()``).

        Each shard reports only the ports it owns, so the PFC ledger
        balances *only in the union*: a PAUSE sent across a cut counts
        ``pause_sent`` on one shard and ``pause_received`` on another.
        At a drained stop the merged ledger must balance exactly and the
        boundaries must be empty (the coordinator only declares idle
        when the last window exported nothing).  At a horizon stop the
        tx-vs-rx gaps must be covered by the boundary residue: frames
        exported but not yet injected plus frames still on a cut wire
        past the final barrier.
        """
        totals = {
            "pause_sent": 0,
            "pause_received": 0,
            "resume_sent": 0,
            "resume_received": 0,
        }
        exported = injected = in_flight = 0
        for payload in payloads.values() if isinstance(payloads, dict) else payloads:
            pfc = payload["pfc"]
            for key in totals:
                totals[key] += pfc[key]
            b = payload.get("boundary", {})
            exported += b.get("exported", 0)
            injected += b.get("injected", 0)
            in_flight += b.get("in_flight", 0)

        v: List[str] = []
        pause_gap = totals["pause_sent"] - totals["pause_received"]
        resume_gap = totals["resume_sent"] - totals["resume_received"]
        if pause_gap < 0:
            v.append(
                f"merged ledger: {-pause_gap} more PAUSE received than sent"
            )
        if resume_gap < 0:
            v.append(
                f"merged ledger: {-resume_gap} more RESUME received than sent"
            )
        residue = (exported - injected) + in_flight
        if residue < 0:
            v.append(
                f"boundary ledger: {injected - exported} more frames injected "
                f"than exported"
            )
        if quiescent:
            if exported != injected:
                v.append(
                    f"boundary residue at quiescence: {exported} exported vs "
                    f"{injected} injected"
                )
            if in_flight:
                v.append(
                    f"{in_flight} frames still on cut wires at quiescence"
                )
            if pause_gap or resume_gap:
                v.append(
                    f"merged pause/resume ledger imbalance at quiescence "
                    f"({pause_gap} pauses, {resume_gap} resumes unmatched)"
                )
        elif max(pause_gap, 0) + max(resume_gap, 0) > max(residue, 0):
            v.append(
                f"merged ledger gaps ({pause_gap} pauses, {resume_gap} resumes) "
                f"exceed the boundary residue ({residue} frames)"
            )
        return v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultAuditor over {getattr(self.topo, 'name', self.topo)!r}>"
