"""The hybrid packet/flow co-simulation driver (DESIGN.md §6).

One :func:`run_fct_hybrid` call simulates a (CC, workload) cell in two
coupled tiers:

1. **Classify** — the whole flow set runs under the incremental max-min
   fluid model, recording per-link intervals during which utilization sits
   at/above ``threshold`` with at least ``min_link_flows`` concurrent
   flows, and keeping the run's rate history.  Flows whose fluid lifetime
   overlaps a congested interval on any path link are *demoted* to the
   packet tier; everything else stays fluid.
2. **Background replay** — the classification pass's rate history is
   replayed into, per (link, epoch), the bytes the *fluid* flows offer on
   links the demoted flows cross (the tier boundary's forward direction).
   No second simulation: a background pass would run the same flows on
   the same capacities with the same damping (:data:`RIPPLE_ROUNDS`), the
   congestion and history recorders only observe, and replay performs the
   accumulator's float operations in the same order — so the bytes are
   bit-identical to re-simulating, for round 0 and for every refine
   round's new (shared links, fluid flows) selection alike.
3. **Packet phase** — only the demoted flows are launched on the real
   discrete-event fabric.  Fluid background load is presented to the
   shared ports as serializer drains (:meth:`repro.net.port.Port.bg_drain`)
   so packet-tier frames queue behind fluid bytes without any frame being
   created; a per-epoch sampler reads real ``tx_bytes`` deltas off those
   ports.
4. **Refine** — if the packet phase saw effects the fluid model cannot
   represent (PFC pauses, ECN marks, drops), the fluid flows crossing the
   affected links are demoted too and the packet phase re-runs, at most
   ``refine_rounds`` times.
5. **Final fluid pass** — the fluid flows re-run with per-epoch *residual*
   capacities (link capacity minus measured packet bytes, floored at
   :data:`RESIDUAL_FLOOR`) on the shared links: the tier boundary's reverse
   direction.  Packet records and fluid records merge into one result:
   the fluid ones join the packet tier's on its collector.

So a cell costs two fluid passes however often it refines, and one when
nothing is demoted (the classification pass's records are then the answer).
``stats["fluid_passes"]`` / ``stats["bg_replay_entries"]`` report both.

The two degenerate thresholds short-circuit: ``threshold=0`` demotes
everything (byte-identical to :func:`run_fct_experiment` by construction);
``threshold=None`` / ``inf`` demotes nothing (identical to the pure
flow-level simulator).  :class:`HybridConfig` refuses a negative one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flowsim import from_topology
from repro.experiments.common import Fabric, launch_flows
from repro.experiments.fct_experiment import (
    FctResult,
    build_fct_fabric,
    drive_fct,
    run_fct_experiment,
)
from repro.transport.flow import Flow
from repro.units import DEFAULT_MTU, us

#: The final fluid pass's capacity floor, as a fraction of the link rate:
#: keeps fed-back residual capacities positive.
RESIDUAL_FLOOR = 0.05
#: Ripple rounds of every hybrid fluid pass; its rate damping is
#: :data:`repro.analysis.flowsim.RATE_EPS`.
RIPPLE_ROUNDS = 2


class HybridConfig:
    """Knobs of the tier boundary.

    ``threshold`` / ``min_link_flows`` form the demotion predicate: a link
    is congested while its fluid utilization is at/above ``threshold``
    *and* it carries at least ``min_link_flows`` flows.  The flow floor
    is 3, not 2, deliberately: under max-min *any* two flows sharing a
    common bottleneck drive it to utilization 1.0, and plain two-way fair
    sharing of long flows is exactly what the fluid tier models well —
    packet effects need deeper multiplexing.  ``mouse_bytes`` covers the
    fluid model's second blind spot: a sub-BDP flow is a *transient* — a
    window-based CC delivers it in a couple of RTTs, slipping between an
    elephant's frames at near-ideal FCT, while max-min models it as
    time-sharing the link for its whole (tiny) lifetime.  Any flow at or
    under this size that saw contention in the classification pass (or
    crosses a demoted flow's path) is demoted too; sub-BDP flows carry
    few bytes, so this buys fidelity without giving up the closed-form
    advance of the elephants, where the wall-clock actually lives.
    ``None`` sizes it automatically to the fabric's bandwidth-delay
    product; 0 disables the rule.  ``congested_frac`` keeps long flows
    fluid through *brief* hot moments: a flow demotes only when at least
    this fraction of its fluid lifetime overlaps congested intervals on
    some path link (an elephant living 500 µs is not re-simulated
    packet-by-packet because one core link spent 10 µs at three-way
    sharing; a transient, by contrast, overlaps wholly or not at all).
    ``epoch_us`` is the tier-exchange granularity, ``refine_rounds``
    bounds the PFC/ECN-triggered re-runs.  The fluid engine's own damping
    and the residual floor are the constants :data:`RIPPLE_ROUNDS`,
    :data:`RESIDUAL_FLOOR` and :data:`repro.analysis.flowsim.RATE_EPS`.
    """

    __slots__ = (
        "threshold",
        "min_link_flows",
        "epoch_us",
        "refine_rounds",
        "bg_quantum_bytes",
        "mouse_bytes",
        "congested_frac",
    )

    def __init__(
        self,
        threshold: float = 0.85,
        min_link_flows: int = 3,
        epoch_us: float = 50.0,
        refine_rounds: int = 1,
        bg_quantum_bytes: int = 4 * DEFAULT_MTU,
        mouse_bytes: Optional[int] = None,
        congested_frac: float = 0.15,
    ) -> None:
        if threshold is not None and math.isnan(threshold):
            raise ValueError("threshold must not be NaN (None or inf keeps everything fluid)")
        if threshold is not None and threshold < 0:
            raise ValueError(f"threshold must be >= 0 (0 demotes every flow), got {threshold}")
        if refine_rounds < 0:
            raise ValueError("refine_rounds must be non-negative")
        if min_link_flows < 1:
            raise ValueError("min_link_flows must be positive")
        if epoch_us <= 0:
            raise ValueError("epoch_us must be positive")
        if bg_quantum_bytes < 1:
            raise ValueError("bg_quantum_bytes must be positive")
        if mouse_bytes is not None and mouse_bytes < 0:
            raise ValueError("mouse_bytes must be non-negative")
        if not (0.0 <= congested_frac <= 1.0):
            raise ValueError("congested_frac must be in [0, 1]")
        self.threshold = threshold
        self.min_link_flows = min_link_flows
        self.epoch_us = epoch_us
        self.refine_rounds = refine_rounds
        self.bg_quantum_bytes = bg_quantum_bytes
        self.mouse_bytes = mouse_bytes
        self.congested_frac = congested_frac


def _overlap_time(
    intervals: List[Tuple[float, float]], t0: float, t1: float
) -> float:
    """Total time [t0, t1] spends inside the sorted, disjoint intervals."""
    i = bisect_right(intervals, (t0, float("inf")))
    if i and intervals[i - 1][1] > t0:
        i -= 1
    total = 0.0
    while i < len(intervals):
        a, b = intervals[i]
        if a > t1:
            break
        lo = a if a > t0 else t0
        hi = b if b < t1 else t1
        if hi > lo:
            total += hi - lo
        i += 1
    return total


def _directed_port(topo, u: str, v: str):
    """The egress Port of node ``u`` on the (u, v) wire, plus its rate."""
    e = topo.adj[u][v]
    return topo.node(u).ports[e["ports"][u]], e["rate_gbps"]


def _port_link_index(topo) -> Dict[int, Tuple[str, str]]:
    """id(Port) -> directed LinkKey, for mapping PFC/ECN stats back."""
    idx: Dict[int, Tuple[str, str]] = {}
    for node in topo.nodes():
        for p in node.ports:
            if p.peer is not None:
                idx[id(p)] = (node.name, p.peer.node.name)
    return idx


def _schedule_bg_drains(
    fab: Fabric, bg_bytes, epoch_ps: int, quantum: int
) -> int:
    """Present fluid background load to the packet fabric: per (link,
    epoch), spread the accumulated bytes across the epoch as serializer
    drains of at most ``quantum`` bytes.  Returns the drain-event count."""
    sim = fab.sim
    n = 0
    for (u, v), per_epoch in bg_bytes.items():
        port, _rate = _directed_port(fab.topo, u, v)
        for e, nbytes in sorted(per_epoch.items()):
            if nbytes < 1.0:
                # census: an epoch with under one background byte — tests/hybrid/test_backend.py::TestPassCount::test_classify_fn_cell_runs_two_passes
                continue
            pieces = max(1, math.ceil(nbytes / quantum))
            piece = nbytes / pieces
            gap = epoch_ps / pieces
            t0 = e * epoch_ps
            for j in range(pieces):
                sim.schedule_at(round(t0 + j * gap), port.bg_drain, round(piece))
                n += 1
    return n


class _ResidualSampler:
    """Per-epoch ``tx_bytes`` deltas on the shared links: what the packet
    tier actually used, fed back to the fluid tier as reduced capacity."""

    def __init__(self, fab: Fabric, links: Sequence[Tuple[str, str]], epoch_ps: int) -> None:
        self.sim = fab.sim
        self.epoch_ps = epoch_ps
        self.ports = {lk: _directed_port(fab.topo, *lk)[0] for lk in links}
        self.prev = {lk: 0 for lk in self.ports}
        #: LinkKey -> {epoch index: packet-tier bytes}
        self.used: Dict[Tuple[str, str], Dict[int, int]] = {lk: {} for lk in self.ports}
        self._epoch = 0
        self._stopped = False
        if self.ports:
            self.sim.schedule_at(epoch_ps, self._tick, None)

    def _tick(self, _arg) -> None:
        e = self._epoch
        for lk, port in self.ports.items():
            tx = port.tx_bytes
            d = tx - self.prev[lk]
            if d:
                self.used[lk][e] = d
                self.prev[lk] = tx
        self._epoch = e + 1
        if not self._stopped:
            self.sim.schedule_at((self._epoch + 1) * self.epoch_ps, self._tick, None)

    def stop(self) -> None:
        """Flush the tail epoch and stop rescheduling."""
        self._stopped = True
        self._tick(None)


def run_fct_hybrid(
    cc: str,
    workload: str = "websearch",
    max_horizon_ms: float = 50.0,
    config: Optional[HybridConfig] = None,
    classify_fn: Optional[Callable[[Flow], bool]] = None,
    **fabric_kwargs,
) -> FctResult:
    """One (CC, workload) cell under the hybrid backend; mirrors
    :func:`run_fct_experiment`'s signature and adds the tier knobs.  The
    result's ``stats`` are the phase diagnostics (demoted/fluid counts,
    refine rounds used, ...), and its ``sim`` is None when nothing ran as
    packets.

    ``classify_fn(flow) -> bool`` (True = demote to packet) replaces the
    congestion-overlap predicate entirely — the partition-invariance test
    hook.
    """
    cfg = config or HybridConfig()
    thr = cfg.threshold

    # Where the fluid time went: FlowLevelSimulator.run calls made, and
    # rate-history entries walked by background replays.
    stats: Dict[str, int] = {"fluid_passes": 0, "bg_replay_entries": 0}

    def _all_packet(rounds_used: int) -> FctResult:
        # Everything demoted: the packet experiment verbatim, so the FCT
        # fingerprint is byte-identical by construction.
        res = run_fct_experiment(
            cc, workload=workload, max_horizon_ms=max_horizon_ms, **fabric_kwargs
        )
        stats.update(demoted=res.n_flows, fluid=0, refine_rounds=rounds_used)
        res.stats = stats
        return res

    # -- degenerate tiers ---------------------------------------------------
    if classify_fn is None and thr is not None and thr <= 0:
        # census: threshold <= 0: every flow runs as packets — tests/hybrid/test_backend.py::TestDegenerateTiers::test_threshold_zero_is_byte_identical_to_packet
        return _all_packet(0)

    fab = build_fct_fabric(cc, workload=workload, **fabric_kwargs)
    fls, path_fn = from_topology(fab.topo)
    flows = fab.flows
    n_flows = len(flows)
    epoch_ps = us(cfg.epoch_us)

    def _fluid_pass(pass_flows, **hooks):
        stats["fluid_passes"] += 1
        return fls.run(pass_flows, path_fn, ripple_rounds=RIPPLE_ROUNDS, **hooks)

    def _merged(fres, sim, **final: int) -> FctResult:
        # The fluid records join the packet tier's on the one collector,
        # after them; ``sim`` is None when nothing ran as packets.
        fab.collector.records.extend(fres.records)
        res = FctResult(cc, workload, fab.collector, fab.bins, n_flows, sim, topo=fab.topo)
        stats.update(final)
        res.stats = stats
        return res

    def _all_fluid(fres) -> FctResult:
        # Nothing demoted: a pass over the whole flow set is the answer.
        return _merged(fres, None, demoted=0, fluid=n_flows, refine_rounds=0,
                       fluid_events=fres.n_events)

    # census: threshold = inf: every flow stays fluid — tests/hybrid/test_backend.py::TestDegenerateTiers::test_threshold_inf_reproduces_flowsim
    if classify_fn is None and (
        thr is None or (isinstance(thr, float) and math.isinf(thr))
    ):
        return _all_fluid(_fluid_pass(flows))

    # -- 1. classification pass --------------------------------------------
    # Either way ``cres`` is the one simulation of the whole flow set, and
    # its rate history is what every background replay below integrates.
    # census: a caller's partition — tests/hybrid/test_backend.py::TestPassCount::test_degenerate_partitions_skip_what_they_do_not_need
    if classify_fn is not None:
        demoted: Set[int] = {f.flow_id for f in flows if classify_fn(f)}
        if len(demoted) == n_flows:
            # census: a partition that demotes every flow — tests/hybrid/test_backend.py::TestPartitionInvariance::test_all_true_partition_matches_packet
            return _all_packet(0)
        # No classification pass to reuse: a plain pass supplies the
        # history (and the paths for the shared-link overlap).
        cres = _fluid_pass(flows, keep_history=True)
        paths = cres.paths
    else:
        cres = _fluid_pass(
            flows, congestion=(thr, cfg.min_link_flows), keep_history=True
        )
        paths = cres.paths
        demoted = set()
        frac = cfg.congested_frac
        for f in flows:
            t0, t1 = cres.windows[f.flow_id]
            life = t1 - t0
            need = frac * life if life > 0 else 0.0
            for lk in paths[f.flow_id]:
                ivs = cres.congestion_intervals.get(lk)
                if not ivs:
                    continue
                ot = _overlap_time(ivs, t0, t1)
                if ot > 0.0 and ot >= need:
                    demoted.add(f.flow_id)
                    break
        mouse_bytes = cfg.mouse_bytes
        if mouse_bytes is None:
            # Auto: the fabric's worst-path BDP — the size below which a
            # window-based CC delivers a flow in a couple of RTTs no
            # matter what it shares with.
            topo = fab.topo
            nic = topo.hosts[0].nic
            rtt = topo.base_rtt_ps(0, len(topo.hosts) - 1)
            mouse_bytes = round(rtt * nic.rate_gbps / 8000.0)
        if mouse_bytes:
            # Impulse flows the fluid model can't represent: a few-frame
            # flow that saw contention in the classification pass (fct !=
            # ideal, i.e. its rate ever deviated from the solo bottleneck
            # rate), or that crosses a demoted flow's path — there the
            # final pass would throttle it with epoch-averaged residual
            # capacities, when in the packet world it slips between the
            # demoted flow's frames at near-ideal FCT.
            contended = {
                rec.flow.flow_id
                for rec in cres.records
                if rec.fct_ps != rec.ideal_fct_ps
            }
            demoted_links: Set[Tuple[str, str]] = set()
            for fid in demoted:
                demoted_links.update(paths[fid])
            for f in flows:
                fid = f.flow_id
                if fid in demoted or f.size_bytes > mouse_bytes:
                    continue
                if fid in contended or any(
                    lk in demoted_links for lk in paths[fid]
                ):
                    demoted.add(fid)
        stats["congested_links"] = len(cres.congestion_intervals)
        stats["classify_events"] = cres.n_events

    if not demoted:
        # Without demoted flows there is no tier boundary, and the final
        # pass would repeat the pass above capacity for capacity.
        return _all_fluid(cres)

    by_id = {f.flow_id: f for f in flows}
    rounds_used = 0
    while True:
        fluid_ids = [f.flow_id for f in flows if f.flow_id not in demoted]
        if not fluid_ids:
            # Refinement demoted everything.
            # census: a refine round that demotes the rest — tests/hybrid/test_backend.py::TestPartitionInvariance::test_a_refine_that_demotes_the_rest_matches_packet
            return _all_packet(rounds_used)
        demoted_flows = [f for f in flows if f.flow_id in demoted]

        # Links where the tiers meet: on a demoted path AND a fluid path.
        fluid_links: Set[Tuple[str, str]] = set()
        for fid in fluid_ids:
            fluid_links.update(paths[fid])
        shared_links: Set[Tuple[str, str]] = set()
        for fid in demoted:
            for lk in paths[fid]:
                if lk in fluid_links:
                    shared_links.add(lk)
        shared = sorted(shared_links)

        # -- 2. background replay ----------------------------------------
        bg_bytes = fls.replay_bg(cres, epoch_ps, shared, fluid_ids)
        stats["bg_replay_entries"] += len(cres.history)

        # -- 3. packet phase ---------------------------------------------
        # census: a refine round's rebuilt fabric — tests/hybrid/test_backend.py::TestPassCount::test_refining_cell_still_runs_two_passes
        if rounds_used > 0:
            # The previous fabric has been driven; rebuild an identical one
            # (all RNG streams are name-derived, so same seed -> same
            # fabric, flows and routing).
            fab = build_fct_fabric(cc, workload=workload, **fabric_kwargs)
            demoted_flows = [f for f in fab.flows if f.flow_id in demoted]
        stats["bg_drain_events"] = _schedule_bg_drains(
            fab, bg_bytes, epoch_ps, cfg.bg_quantum_bytes
        )
        sampler = _ResidualSampler(fab, shared, epoch_ps)
        launch_flows(fab.topo, demoted_flows, fab.env)
        drive_fct(fab.sim, fab.collector, len(demoted_flows), max_horizon_ms)
        sampler.stop()

        # -- 4. refine: packet-only effects the fluid tier can't see ------
        if rounds_used >= cfg.refine_rounds:
            break  # census: the refine rounds are spent — tests/hybrid/test_backend.py::TestPassCount::test_refining_cell_still_runs_two_passes
        port_links = _port_link_index(fab.topo)
        hot_links: Set[Tuple[str, str]] = set()
        for node in fab.topo.nodes():
            for p in node.ports:
                # census: a port with PFC, ECN or drops — tests/hybrid/test_backend.py::TestPassCount::test_refining_cell_still_runs_two_passes
                if p.pause_sent or p.ecn_marked or p.drops:
                    lk = port_links.get(id(p))
                    if lk is not None:
                        hot_links.add(lk)
                        # A pause throttles the *upstream* sender too.
                        hot_links.add((lk[1], lk[0]))
        grew = False
        for fid in fluid_ids:
            # census: a fluid flow on a hot link — tests/hybrid/test_backend.py::TestPassCount::test_refining_cell_still_runs_two_passes
            if any(lk in hot_links for lk in paths[fid]):
                demoted.add(fid)
                grew = True
        if not grew:
            break
        rounds_used += 1  # census: a refine round — tests/hybrid/test_backend.py::TestPassCount::test_refining_cell_still_runs_two_passes

    # -- 5. final fluid pass with residual capacities ----------------------
    sched: List[Tuple[int, Tuple[str, str], float]] = []
    for lk, per_epoch in sampler.used.items():
        if not per_epoch:
            # census: a link no demoted flow used — tests/hybrid/test_backend.py::TestBackendSelection::test_validate_fails_a_run_that_completes_no_flow
            continue
        _port, rate_gbps = _directed_port(fab.topo, *lk)
        floor = RESIDUAL_FLOOR * rate_gbps
        last = max(per_epoch)
        for e in range(0, last + 1):
            used_bytes = per_epoch.get(e, 0)
            residual = rate_gbps - used_bytes * 8000.0 / epoch_ps
            if residual < floor:
                # census: a link the packet tier filled past the floor — tests/test_golden_store.py::test_row_matches_the_store[golden_hybrid/default_refining]
                residual = floor
            sched.append((e * epoch_ps, lk, residual))
        sched.append(((last + 1) * epoch_ps, lk, rate_gbps))

    fres = _fluid_pass([by_id[fid] for fid in fluid_ids], cap_schedule=sched)

    return _merged(
        fres,
        fab.sim,
        demoted=len(demoted),
        fluid=len(fluid_ids),
        refine_rounds=rounds_used,
        shared_links=len(shared),
        packet_events=fab.sim.events_dispatched,
        fluid_events=fres.n_events,
        cap_schedule_entries=len(sched),
    )
