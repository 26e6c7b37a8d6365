"""Incremental max-min fluid engine: the hybrid backend's flow tier.

The classic fluid loop (the seed ``flowsim``) recomputed every flow's fair
rate with an O(L²) min-scan on every arrival/completion.  This engine
keeps the waterfilling *incremental*: an event re-solves only the flows
that share a link with the arrival/completion (expanding outward while
rates keep changing — the "ripple"), with the per-set solve done by a
heap-based progressive filling instead of repeated full scans.  The sets
are small (a mean of 11 flows over 44 links in the repo benchmark's
cell), so what a solve costs is heap traffic, and the heap holds only
entries that can bind: one per link that two or more of the set's flows
cross, one per flow for the links it crosses alone (DESIGN.md §6,
"Waterfill heap"; :attr:`FluidEngine.n_heap_pops` counts the pops).  Flow
completions are kept lazily (a versioned heap of predicted finish
times), so an event costs O(affected · log n), not O(active).

Beyond plain max-min service the engine carries the three hooks the
hybrid tier boundary needs (DESIGN.md §6):

* **congestion recording** — per-link intervals during which utilization
  is at/above a threshold with at least ``min_flows`` concurrent flows
  (the demotion predicate);
* **rate history** — one ``(t, flow, delta)`` entry per committed rate
  change, in commit order (:class:`RateHistory`).  The background load
  the fluid tier presents to packet ports — per-(link, epoch) byte
  integrals of a flow subset's offered load — is *replayed* from it
  (:meth:`RateHistory.replay_bg`) for any (epoch, links, flows)
  selection, any number of times, without simulating again;
* **capacity schedules** — piecewise-constant per-link capacity changes
  (how measured packet-tier throughput is fed back as residual capacity).

Both recorders only observe: neither feeds anything back into the rates,
so a run produces the same trajectory with them on or off.  Replay walks
the history in commit order and, link by link, performs the flush-then-add
sequence an accumulator inside :meth:`FluidEngine.run` would perform at
each rate change, on the same floats in the same order — so the replayed
integrals are bit-identical to in-loop accumulation (per-link state is
independent, which is what lets one history serve every selection).

Time is float picoseconds internally; capacities are bytes/ps.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FluidEngine", "FluidFlowResult", "FluidStallError", "RateHistory"]

#: Relative slack when comparing a link's load against ``cap * threshold``:
#: a saturated link's load is a sum of waterfill shares and may sit a few
#: ulps under the capacity it was filled to.
_UTIL_SLACK = 1e-9

_PENDING, _ACTIVE, _DONE = 0, 1, 2


class FluidStallError(RuntimeError):
    """Every active flow has zero rate and no future event can change that.

    The seed fluid loop died here with a bare ``ValueError: min() arg is an
    empty sequence``; this names the actual failure (all residual
    capacities on the active flows' paths are zero — typically a capacity
    schedule that drove a link to zero with flows still on it).
    """


class FluidFlowResult:
    """Per-flow outcome: ``finish`` is float picoseconds; ``clean`` means
    the flow ran at its solo bottleneck rate for its whole lifetime (its
    service time is *exactly* the solo service time, no float residue)."""

    __slots__ = ("index", "start", "finish", "clean", "solo_rate")

    def __init__(self, index: int, start: float, finish: float, clean: bool, solo_rate: float) -> None:
        self.index = index
        self.start = start
        self.finish = finish
        self.clean = clean
        self.solo_rate = solo_rate


def _integrate(acc: Dict[int, float], ep: int, t0: float, t: float, rho: float) -> None:
    """Add ``rho`` bytes/ps held over [t0, t] to the per-epoch totals."""
    e0 = int(t0 // ep)
    e1 = int(t // ep)
    if e0 == e1:
        acc[e0] = acc.get(e0, 0.0) + rho * (t - t0)
        return
    acc[e0] = acc.get(e0, 0.0) + rho * ((e0 + 1) * ep - t0)
    full = rho * ep
    for e in range(e0 + 1, e1):
        acc[e] = acc.get(e, 0.0) + full
    tail = t - e1 * ep
    if tail > 0.0:
        acc[e1] = acc.get(e1, 0.0) + rho * tail


class RateHistory:
    """Every committed rate change of one :meth:`FluidEngine.run`, in commit
    order, as three packed columns (20 bytes an entry): ``t[j]`` float ps,
    ``flow[j]`` dense flow index, ``delta[j]`` rate change in bytes/ps."""

    __slots__ = ("t", "flow", "delta", "end_time", "_flow_links")

    def __init__(self, flow_links: List[Tuple[int, ...]]) -> None:
        self.t = array("d")
        self.flow = array("i")
        self.delta = array("d")
        #: When the recorded run ended (the last integration boundary).
        self.end_time = 0.0
        self._flow_links = flow_links

    def __len__(self) -> int:
        return len(self.t)

    @property
    def nbytes(self) -> int:
        return sum(c.itemsize * len(c) for c in (self.t, self.flow, self.delta))

    def replay_bg(
        self, epoch_ps: int, links: Iterable[int], flows: Iterable[int]
    ) -> Dict[int, Dict[int, float]]:
        """Bytes offered per epoch on each of ``links`` by the flows whose
        dense indices are in ``flows``: ``{link: {epoch_index: bytes}}``.

        Each call starts from zero load at t = 0 and keeps nothing, so
        different selections replayed off one history cannot affect each
        other.
        """
        if epoch_ps <= 0:
            raise ValueError("bg epoch must be positive")
        ep = int(epoch_ps)
        chosen = frozenset(links)
        acc: Dict[int, Dict[int, float]] = {l: {} for l in chosen}
        load = {l: 0.0 for l in chosen}
        last = {l: 0.0 for l in chosen}

        def flush(l: int, t: float) -> None:
            t0 = last[l]
            if t > t0:
                last[l] = t
                if load[l] > 0.0:
                    _integrate(acc[l], ep, t0, t, load[l])

        # Per flow, the chosen links it crosses (empty for the rest).
        picked = frozenset(flows)
        crossed = [
            tuple(l for l in ls if l in chosen) if i in picked else ()
            for i, ls in enumerate(self._flow_links)
        ]
        for t, i, delta in zip(self.t, self.flow, self.delta):
            for l in crossed[i]:
                flush(l, t)
                load[l] += delta
        for l in chosen:
            flush(l, self.end_time)
        return acc


class FluidEngine:
    """One fluid run over integer-id links.

    Parameters
    ----------
    capacities:
        ``capacities[l]`` is link ``l``'s capacity in bytes/ps (> 0).
    congestion:
        Optional ``(threshold, min_flows)``: record, per link, the merged
        time intervals during which ``load >= cap * threshold`` while at
        least ``min_flows`` flows are on the link.  Available as
        :attr:`congestion_intervals` after :meth:`run`.
    keep_history:
        Record every committed rate change; available as :attr:`history`
        (a :class:`RateHistory`) after :meth:`run`, ``None`` otherwise.
    cap_schedule:
        Optional sequence of ``(t_ps, link, cap_bytes_per_ps)`` capacity
        changes (> 0), applied in time order.
    rate_eps:
        Ripple damping: a re-solved rate within ``rate_eps`` (relative) of
        a flow's committed rate is left uncommitted, which stops the
        ripple from propagating ulp-scale adjustments across the whole
        fabric.  The committed allocation then deviates from exact max-min
        by at most ~``rate_eps`` at any instant — far below the fluid
        model's own error — while the per-event affected set stays local.
        0 disables damping (exact progressive filling).
    ripple_rounds:
        Optional cap on waterfill rounds per event.  Each round re-solves
        the affected set, then expands it by the neighbours of flows whose
        rate actually changed; at high load the expansion can reach most
        of the active set, making events O(active).  With a cap, flows
        beyond the horizon keep their last-committed rates until a later
        event re-solves them — rates stay feasible (the waterfill never
        allocates past a link's residual capacity) but may lag exact
        max-min between events.  ``None`` (default) iterates to
        convergence.
    """

    def __init__(
        self,
        capacities: Sequence[float],
        congestion: Optional[Tuple[float, int]] = None,
        keep_history: bool = False,
        cap_schedule: Optional[Sequence[Tuple[int, int, float]]] = None,
        rate_eps: float = 0.0,
        ripple_rounds: Optional[int] = None,
    ) -> None:
        if rate_eps < 0:
            raise ValueError("rate_eps must be non-negative")
        if ripple_rounds is not None and ripple_rounds < 1:
            raise ValueError("ripple_rounds must be positive (or None)")
        self._rate_eps = float(rate_eps)
        self._ripple_rounds = ripple_rounds
        self._base_cap = [float(c) for c in capacities]
        for c in self._base_cap:
            if c <= 0:
                raise ValueError("link capacities must be positive")
        self._cap = list(self._base_cap)
        n_links = len(self._cap)
        self._on_link: List[Dict[int, None]] = [{} for _ in range(n_links)]
        self._load = [0.0] * n_links
        self._cap_schedule = sorted(cap_schedule or [], key=lambda e: (e[0], e[1]))
        for _t, l, c in self._cap_schedule:
            if not 0 <= l < n_links:
                raise KeyError(f"capacity schedule: unknown link id {l}")
            if c <= 0:
                raise ValueError("capacity schedule values must be positive")

        # Congestion recording.
        self._cong = congestion
        self.congestion_intervals: Dict[int, List[Tuple[float, float]]] = {}
        self._cong_open: Dict[int, float] = {}

        # Flow table (filled by add_flow).
        self._links: List[Tuple[int, ...]] = []
        self._wire: List[float] = []
        self._start: List[int] = []

        self.history: Optional[RateHistory] = (
            RateHistory(self._links) if keep_history else None
        )

        self.end_time = 0.0
        self.n_events = 0
        self.n_rate_changes = 0
        self.n_waterfills = 0
        #: Entries popped off waterfill heaps; per waterfill, the cost the
        #: heap discipline of :meth:`run` keeps down (budgeted in tier-1).
        self.n_heap_pops = 0
        self.max_active = 0
        self._ran = False

    # -- construction ----------------------------------------------------------
    def add_flow(self, links: Sequence[int], wire_bytes: float, start_ps: int) -> int:
        """Register one flow; returns its dense index."""
        if not links:
            raise ValueError("flow path must contain at least one link")
        if wire_bytes <= 0:
            raise ValueError("flow wire size must be positive")
        seen = set()
        for l in links:
            if not 0 <= l < len(self._cap):
                raise KeyError(f"unknown link id {l}")
            if l in seen:
                raise ValueError(f"flow path crosses link id {l} more than once")
            seen.add(l)
        self._links.append(tuple(links))
        self._wire.append(float(wire_bytes))
        self._start.append(int(start_ps))
        return len(self._links) - 1

    # -- core ------------------------------------------------------------------
    def run(self) -> List[FluidFlowResult]:
        """Drive all registered flows to completion; returns per-flow
        results in completion order.  An engine runs once: loads,
        capacities, history and counters are left as the run ended."""
        if self._ran:
            raise RuntimeError("FluidEngine.run() called twice; build a new engine")
        self._ran = True
        n = len(self._links)
        order = sorted(range(n), key=lambda i: self._start[i])
        state = [_PENDING] * n
        rate = [0.0] * n
        rem = list(self._wire)
        upd = [0.0] * n
        ver = [0] * n
        clean = [True] * n
        solo = [min(self._base_cap[l] for l in links) for links in self._links]
        results: List[FluidFlowResult] = []

        comp: List[Tuple[float, int, int]] = []  # (finish, version, flow)
        on_link = self._on_link
        load = self._load
        cap = self._cap
        flinks = self._links
        touched: set = set()
        hist = self.history
        if hist is not None:
            log_t, log_flow, log_delta = hist.t.append, hist.flow.append, hist.delta.append

        n_rate_changes = n_waterfills = n_heap_pops = 0

        def set_rate(i: int, new: float, t: float) -> None:
            nonlocal n_rate_changes
            old = rate[i]
            if new == old:
                return
            r = rem[i] - old * (t - upd[i])
            rem[i] = r if r > 0.0 else 0.0
            upd[i] = t
            rate[i] = new
            if clean[i] and new != solo[i]:
                clean[i] = False
            delta = new - old
            if hist is not None:
                log_t(t)
                log_flow(i)
                log_delta(delta)
            for l in flinks[i]:
                load[l] += delta
                touched.add(l)
            ver[i] += 1
            n_rate_changes += 1
            if new > 0.0:
                heapq.heappush(comp, (t + rem[i] / new, ver[i], i))

        # Waterfill scratch, allocated once per run and reset lazily via
        # the ``links_used`` list (flat arrays indexed by link id beat
        # per-call dicts by a wide margin at fat-tree scale).
        n_links = len(cap)
        w_avail = [0.0] * n_links  # capacity left for the unfixed members
        w_nuf = [0] * n_links  # unfixed members on a contended link (solo: 0)
        w_owner = [0] * n_links  # first member seen: the only one on a solo link
        w_users: List[Optional[List[int]]] = [None] * n_links  # contended links only
        w_key = [0.0] * n_links  # key of a contended link's live heap entry
        eps = self._rate_eps
        heappush, heappop = heapq.heappush, heapq.heappop

        def waterfill(S: set, t: float) -> set:
            """Re-solve max-min for the flows in ``S`` with every other
            flow's rate held fixed; commits the new rates (damped by
            ``rate_eps``) and returns the subset whose rate changed.

            Progressive filling pops the lexicographic minimum of ``(share,
            link)`` over the links that still have an unfixed member, where
            ``share = w_avail / w_nuf``.  The heap holds only entries that
            can be that minimum (DESIGN.md §6, "Waterfill heap"): one per
            *contended* link (two or more members cross it) and one per
            flow for its *solo* links (only it crosses them), whose shares
            never move.
            """
            nonlocal n_waterfills, n_heap_pops
            n_waterfills += 1
            members = sorted(S)
            # Count members per link (in ``w_nuf``) and, in ``w_avail``
            # for now, take their rates off the link's load in member order
            # — the order, hence the floats, of a per-link scan of users.
            links_used: List[int] = []
            for f in members:
                r = rate[f]
                for l in flinks[f]:
                    k = w_nuf[l]
                    if k == 0:
                        w_nuf[l] = 1
                        w_owner[l] = f
                        w_avail[l] = load[l] - r
                        links_used.append(l)
                    else:
                        w_nuf[l] = k + 1
                        w_avail[l] -= r
                        if k == 1:
                            w_users[l] = [w_owner[l], f]
                        else:
                            w_users[l].append(f)
            heap: List[Tuple[float, int]] = []
            # A solo link's share is its ``a`` until its flow is fixed, so
            # of one flow's solo links only the smallest ``(a, link)`` can
            # ever be the minimum.  ``links_used`` lists them flow by flow
            # (a link enters it under the first member that crosses it).
            owner = -1
            best_a = 0.0
            best_l = 0
            for l in links_used:
                a = cap[l] - w_avail[l]
                if a < 0.0:
                    a = 0.0
                if w_users[l] is None:
                    w_nuf[l] = 0
                    f = w_owner[l]
                    if f != owner:
                        if owner >= 0:
                            heap.append((best_a, best_l))
                        owner = f
                        best_a = a
                        best_l = l
                    elif a < best_a or (a == best_a and l < best_l):
                        best_a = a
                        best_l = l
                else:
                    w_avail[l] = a
                    w_key[l] = key = a / w_nuf[l]
                    heap.append((key, l))
            if owner >= 0:
                heap.append((best_a, best_l))
            heapq.heapify(heap)
            entries = len(heap)
            newrate: Dict[int, float] = {}
            unfixed = len(members)
            while unfixed:
                share, l = heappop(heap)
                users = w_users[l]
                if users is None:
                    f = w_owner[l]
                    if f in newrate:
                        continue
                    users = (f,)
                else:
                    k = w_nuf[l]
                    if k == 0:
                        continue
                    now_share = w_avail[l] / k
                    if share != now_share:
                        # Below the link's share: the live entry went
                        # stale, re-key it.  Otherwise a superseded one.
                        if share == w_key[l]:
                            w_key[l] = now_share
                            heappush(heap, (now_share, l))
                            entries += 1
                        continue
                    w_nuf[l] = 0
                for f in users:
                    if f in newrate:
                        continue
                    newrate[f] = share
                    unfixed -= 1
                    for lk in flinks[f]:
                        kk = w_nuf[lk]
                        if kk == 0:
                            continue
                        a = w_avail[lk] - share
                        w_avail[lk] = a = a if a > 0.0 else 0.0
                        w_nuf[lk] = kk = kk - 1
                        # Removing a flow at the minimum share cannot lower
                        # a link's share — except by an ulp in floating
                        # point; only then does the link need a new entry.
                        if kk and a / kk < w_key[lk]:
                            w_key[lk] = key = a / kk
                            heappush(heap, (key, lk))
                            entries += 1
            n_heap_pops += entries - len(heap)
            changed = set()
            for f in members:
                nr = newrate[f]
                cur = rate[f]
                if nr != cur and (
                    cur == 0.0 or nr == 0.0 or abs(nr - cur) > eps * cur
                ):
                    set_rate(f, nr, t)
                    changed.add(f)
            for l in links_used:
                w_users[l] = None
                w_nuf[l] = 0
            return changed

        max_rounds = self._ripple_rounds

        def ripple(S: set, t: float) -> None:
            if not S:
                return
            rounds = 0
            while True:
                changed = waterfill(S, t)
                rounds += 1
                if max_rounds is not None and rounds >= max_rounds:
                    break
                expand = set()
                for f in changed:
                    for l in flinks[f]:
                        expand.update(on_link[l])
                expand -= S
                if not expand:
                    break
                S |= expand

        caps = self._cap_schedule
        ai = 0
        ci = 0
        active = 0
        now = 0.0
        INF = float("inf")

        while True:
            # Earliest valid completion (drop stale versioned entries).
            while comp and (state[comp[0][2]] != _ACTIVE or comp[0][1] != ver[comp[0][2]]):
                heapq.heappop(comp)
            tc = comp[0][0] if comp else INF
            ta = float(self._start[order[ai]]) if ai < len(order) else INF
            tcap = float(caps[ci][0]) if ci < len(caps) else INF
            if tc == INF and ta == INF and tcap == INF:
                if active:
                    stuck = [i for i in range(n) if state[i] == _ACTIVE]
                    raise FluidStallError(
                        f"{len(stuck)} active flow(s) have zero max-min rate at "
                        f"t={now:.0f}ps and no future arrival or capacity change "
                        "can unblock them (zero residual capacity on every path "
                        "link — check the capacity schedule)"
                    )
                break
            self.n_events += 1
            # Tie order: completions free capacity before arrivals claim it;
            # capacity changes apply before arrivals see the link.
            if tc <= ta and tc <= tcap:
                now = tc
                _, _, i = heapq.heappop(comp)
                state[i] = _DONE
                active -= 1
                was_clean = clean[i]
                set_rate(i, 0.0, now)
                seed = set()
                for l in flinks[i]:
                    del on_link[l][i]
                    touched.add(l)
                    seed.update(on_link[l])
                results.append(FluidFlowResult(i, float(self._start[i]), now, was_clean, solo[i]))
                ripple(seed, now)
            elif tcap <= ta:
                now = tcap
                _, l, newcap = caps[ci]
                ci += 1
                cap[l] = float(newcap)
                touched.add(l)
                ripple(set(on_link[l]), now)
            else:
                now = ta
                i = order[ai]
                ai += 1
                state[i] = _ACTIVE
                active += 1
                if active > self.max_active:
                    self.max_active = active
                upd[i] = now
                seed = {i}
                for l in flinks[i]:
                    seed.update(on_link[l])
                    on_link[l][i] = None
                    touched.add(l)
                ripple(seed, now)
            if self._cong is not None and touched:
                self._record_congestion(touched, now)
            touched.clear()

        self.end_time = now
        self.n_rate_changes = n_rate_changes
        self.n_waterfills = n_waterfills
        self.n_heap_pops = n_heap_pops
        self._finalize(now)
        return results

    # -- congestion bookkeeping -----------------------------------------------
    def _record_congestion(self, links, t: float) -> None:
        threshold, min_flows = self._cong
        for l in links:
            gate = self._cap[l] * threshold
            hot = len(self._on_link[l]) >= min_flows and self._load[l] >= gate - gate * _UTIL_SLACK
            t0 = self._cong_open.get(l)
            if hot and t0 is None:
                self._cong_open[l] = t
            elif not hot and t0 is not None:
                del self._cong_open[l]
                if t > t0:
                    self.congestion_intervals.setdefault(l, []).append((t0, t))

    def _finalize(self, t: float) -> None:
        if self.history is not None:
            self.history.end_time = t
        for l, t0 in list(self._cong_open.items()):
            if t > t0:
                self.congestion_intervals.setdefault(l, []).append((t0, t))
        self._cong_open.clear()
