"""Topology partitioner: cut a fabric into shards at switch boundaries.

A partition is an ownership map ``node name -> shard id``.  The cut set
falls out of it: every link whose endpoints land on different shards is
a *boundary link*.  Two rules make the §4.1 tie discipline survive the
cut (DESIGN.md §11):

* **Only switch–switch links may be cut.**  The ordering-sensitive tie
  classes — same-egress-queue enqueue order and the same-tick host-NIC
  barrier — involve a host endpoint or frames meeting *inside* one
  switch; keeping every host on the same shard as its edge switch keeps
  both classes intra-shard, where the serial heap order rules.
* **The lookahead window is the minimum propagation delay over the cut
  set.**  A frame finishing serialization in window ``k`` cannot arrive
  at the remote side before ``H_k + min_prop``, i.e. strictly inside
  window ``k+1`` — so exchanging frames at barriers is conservative
  (never delivers late) and complete (never misses one).

Plans are plain data (``to_dict``/``from_dict``) so the process-backed
runtime can ship them to spawn workers and re-derive the cut set against
the worker's own independently-built copy of the topology.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.topo.base import Topology


class PartitionError(ValueError):
    """The ownership map violates a partition rule."""


class Cut:
    """One boundary link: the edge ``(a, b)`` with its propagation delay.

    ``index`` is the cut's stable id across shards and processes: cuts
    are enumerated in :meth:`Topology.edges` order, which is identical on
    every shard because every shard builds the same topology from the
    same seed.
    """

    __slots__ = ("index", "a", "b", "owner_a", "owner_b", "prop_delay_ps")

    def __init__(
        self,
        index: int,
        a: str,
        b: str,
        owner_a: int,
        owner_b: int,
        prop_delay_ps: int,
    ) -> None:
        self.index = index
        self.a = a
        self.b = b
        self.owner_a = owner_a
        self.owner_b = owner_b
        self.prop_delay_ps = prop_delay_ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cut {self.index}: {self.a}(s{self.owner_a}) -- "
            f"{self.b}(s{self.owner_b}) prop={self.prop_delay_ps}ps>"
        )


class PartitionPlan:
    """An ownership map plus the derived cut set and lookahead."""

    __slots__ = ("n_shards", "owner", "cuts", "lookahead_ps")

    def __init__(
        self, n_shards: int, owner: Dict[str, int], cuts: List[Cut], lookahead_ps: int
    ) -> None:
        self.n_shards = n_shards
        self.owner = owner
        self.cuts = cuts
        self.lookahead_ps = lookahead_ps

    def to_dict(self) -> dict:
        """Plain-data form: ownership only — workers re-derive the cut
        set from their own topology copy via :func:`plan_partition`."""
        return {"n_shards": self.n_shards, "owner": dict(self.owner)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionPlan shards={self.n_shards} cuts={len(self.cuts)} "
            f"lookahead={self.lookahead_ps}ps>"
        )


def plan_partition(
    topo: Topology, owner: Mapping[str, int], n_shards: Optional[int] = None
) -> PartitionPlan:
    """Validate an ownership map against a fabric's wiring (nodes and
    links; routing need not be installed) and derive the cut set +
    lookahead window.

    Raises :class:`PartitionError` when a node is unassigned, a shard is
    empty, a host–switch link is cut, or the cut set is empty (a serial
    run in disguise — use the serial engine).
    """
    owner = dict(owner)
    switch_names = {sw.name for sw in topo.switches}
    names = [h.name for h in topo.hosts] + [sw.name for sw in topo.switches]
    missing = [n for n in names if n not in owner]
    if missing:
        raise PartitionError(f"nodes without a shard: {missing[:5]}")
    if n_shards is None:
        n_shards = max(owner.values()) + 1
    used = {owner[n] for n in names}
    if used != set(range(n_shards)):
        raise PartitionError(
            f"shard ids must cover 0..{n_shards - 1}, got {sorted(used)}"
        )
    cuts: List[Cut] = []
    lookahead: Optional[int] = None
    # The edge order depends on construction alone (the same on every
    # shard), so cut indices agree everywhere without coordination.
    for a, b, attrs in topo.edges():
        sa, sb = owner[a], owner[b]
        if sa == sb:
            continue
        if a not in switch_names or b not in switch_names:
            raise PartitionError(
                f"cut link {a!r}--{b!r} is not switch--switch: hosts must "
                f"stay on their edge switch's shard (DESIGN.md §11)"
            )
        prop = attrs["prop_delay_ps"]
        if prop <= 0:
            raise PartitionError(
                f"cut link {a!r}--{b!r} has zero propagation delay: "
                f"no conservative lookahead exists across it"
            )
        cuts.append(Cut(len(cuts), a, b, sa, sb, prop))
        lookahead = prop if lookahead is None else min(lookahead, prop)
    if not cuts:
        raise PartitionError("ownership map cuts no links")
    return PartitionPlan(n_shards, owner, cuts, lookahead)


def dumbbell_plan(topo: Topology, n_shards: int = 2) -> PartitionPlan:
    """Cut the dumbbell/parking-lot switch chain into contiguous runs.

    Switches split into ``n_shards`` balanced contiguous groups; every
    host follows its attachment switch, so the only cut links are the
    chain's switch–switch hops.
    """
    switches = topo.switches
    if n_shards < 2 or n_shards > len(switches):
        raise PartitionError(
            f"need 2 <= n_shards <= {len(switches)} switches, got {n_shards}"
        )
    owner: Dict[str, int] = {}
    per = len(switches) / n_shards
    for i, sw in enumerate(switches):
        owner[sw.name] = min(int(i / per), n_shards - 1)
    for host in topo.hosts:
        owner[host.name] = owner[next(iter(topo.adj[host.name]))]
    return plan_partition(topo, owner, n_shards)


def fattree_plan(topo: Topology, n_shards: int) -> PartitionPlan:
    """Cut a k-ary fat-tree at the agg↔core boundary: pods are dealt to
    shards in contiguous runs, core switches ride with shard 0.

    Every cut link is agg–core (switch–switch); ToRs, aggs and hosts of
    one pod always stay together, so the intra-pod tie classes never
    cross a boundary.
    """
    owner: Dict[str, int] = {}
    pods = set()
    for sw in topo.switches:
        if sw.name.startswith("core_"):
            continue
        pods.add(int(sw.name.split("_")[1]))
    n_pods = len(pods)
    if n_shards < 2 or n_pods % n_shards != 0:
        raise PartitionError(
            f"n_shards must be >= 2 and divide the pod count {n_pods}, "
            f"got {n_shards}"
        )
    per = n_pods // n_shards
    for sw in topo.switches:
        if sw.name.startswith("core_"):
            owner[sw.name] = 0
        else:
            owner[sw.name] = int(sw.name.split("_")[1]) // per
    for host in topo.hosts:
        owner[host.name] = int(host.name.split("_")[1]) // per
    return plan_partition(topo, owner, n_shards)
