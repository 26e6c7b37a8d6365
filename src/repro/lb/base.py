"""The load-balancing strategy layer.

Routing in this simulator has two halves: *where the paths are* (the
equal-cost next-hop tables of :mod:`repro.routing.tables`) and *which path a
packet takes* (the per-switch ``router`` callable).  A
:class:`LoadBalancer` owns the second half.  One instance is installed per
switch by :func:`install_lb`; the instance binds its per-switch state
(hash caches, flowlet tables, ConWeave epochs) at install time and hands
the switch a closure with the same ``router(sw, pkt) -> out_port`` contract
the hot path has always used, so the per-packet cost of the abstraction is
zero — strategy dispatch happens once at install, not per packet.

Ownership rules:

* All mutable strategy state is owned by the per-switch instance, created
  inside :func:`install_lb`.  A fresh topology therefore never inherits
  cached hashes or flowlet history from a previous run.
* Every cache is bounded (``max_cache_entries``).  On overflow the cache is
  swept/cleared — safe because every cached value is recomputable from the
  packet alone (ECMP hashes) or is advisory (flowlet/epoch state, where a
  reset just starts a new flowlet/epoch).

Strategies that can reorder packets (spray, flowlet, conweave-lite) declare
``reorders = True``; :func:`install_lb` then makes the topology's receivers
reorder-tolerant: when ``TransportConfig.reorder_window_bytes`` is still
zero it is turned on at :data:`DEFAULT_REORDER_WINDOW` (an explicit caller
value is respected), and duplicate-ACK fast rewind is armed on senders
(``dupack_rewind``) so the receiver's loss signals actually trigger
go-back-N without waiting for a timeout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Type

from repro.routing.tables import Tables, build_graph_tables

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.switch import Switch
    from repro.topo.base import Topology

Router = Callable[["Switch", "Packet"], int]

#: Reorder window handed to receivers when a reordering strategy is
#: installed and the transport config still has the window disabled.
#: Sized to cover several BDPs of the paper's 100 Gb/s fabric so a
#: lossless run can never wedge on an un-fillable hole.
DEFAULT_REORDER_WINDOW = 512 * 1024


class LbConfig:
    """One strategy choice plus its knobs, threadable through topology
    builders and experiment configs.  ``params`` are forwarded to the
    strategy constructor."""

    __slots__ = ("strategy", "params")

    def __init__(self, strategy: str = "ecmp", **params) -> None:
        if strategy not in REGISTRY:
            raise ValueError(
                f"unknown LB strategy {strategy!r}; have {sorted(REGISTRY)}"
            )
        self.strategy = strategy
        self.params = params

    def build(self) -> "LoadBalancer":
        return REGISTRY[self.strategy](**self.params)


class LoadBalancer:
    """Per-switch path-selection strategy.

    Subclasses override :meth:`make_router` to return the hot-path closure
    for one switch; the table slice handed in maps ``dst host id ->
    (port,)``-style entries pre-split by :func:`split_tables`.
    """

    #: registry key; subclasses set this.
    name: str = "base"
    #: True when the strategy can deliver a flow's packets out of order.
    reorders: bool = False
    #: True when the router is a *pure static per-flow function* — the out
    #: port for a given (src, dst, flow_id) never depends on arrival time,
    #: queue state, or per-packet draws.  Only such strategies let the
    #: frame-train fast path (DESIGN.md §2.2) cache one routing decision
    #: for a whole back-to-back burst; per-packet strategies (spray,
    #: flowlet, conweave) keep this False, which makes every switch they
    #: are installed on refuse train fusion and stay per-frame.
    train_transparent: bool = False

    def __init__(self, max_cache_entries: int = 1 << 16) -> None:
        if max_cache_entries < 1:
            raise ValueError("max_cache_entries must be positive")
        self.max_cache_entries = max_cache_entries
        # Failover state (DESIGN.md §10): the live split dict the router
        # closure captured (entries are rewritten in place on failover),
        # the pristine all-links-up copy it is recomputed from, and the
        # switch ports currently known dead.
        self._split: Optional[Dict[int, object]] = None
        self._pristine: Optional[Dict[int, object]] = None
        self._dead_ports: set = set()

    def bind(self, sw: "Switch", tables: Dict[int, List[int]]) -> Router:
        """Attach to one switch: reset the failover state, build the closure."""
        split = split_tables(tables)
        self._split = split
        self._pristine = dict(split)
        self._dead_ports = set()
        return self.make_router(sw, split)

    # -- failover (repro.faults link transitions) ------------------------
    def on_link_down(self, port_idx: int) -> None:
        """A link on ``port_idx`` died: reroute every destination around
        it.  Destinations whose *only* path used the dead port keep their
        pristine entry (a deliberate blackhole — transport-level recovery,
        not routing, resolves a partition)."""
        self._dead_ports.add(port_idx)
        self._remask()
        self.invalidate()

    def on_link_up(self, port_idx: int) -> None:
        """The link came back: fold the port into every ECMP group again."""
        self._dead_ports.discard(port_idx)
        self._remask()
        self.invalidate()

    def _remask(self) -> None:
        """Rewrite the live split dict in place from the pristine tables
        minus the dead ports.  In-place mutation is the point: every
        router closure captured ``self._split`` by reference, so the next
        packet routes around the failure with no re-install."""
        split, pristine, dead = self._split, self._pristine, self._dead_ports
        for dst, entry in pristine.items():
            if type(entry) is int:
                split[dst] = entry  # single path: dead or not, it is all we have
                continue
            ports, _n = entry
            live = [p for p in ports if p not in dead]
            if not live:
                # census: every uplink toward a destination dead — tests/lb/test_strategies.py::TestEcmpBounded::test_a_destination_with_every_uplink_dead_keeps_its_pristine_entry
                split[dst] = entry  # all paths dead: keep pristine (blackhole)
            elif len(live) == 1:
                split[dst] = live[0]
            else:
                split[dst] = (tuple(live), len(live))

    def invalidate(self) -> None:
        """Drop advisory per-flow memos after a failover so stale path
        choices cannot outlive the topology change.  The base clears the
        shared flow-hash memo; strategies with their own tables extend
        this.  (Frame-train route memos on ports are cleared by the
        injector, mirroring install_lb.)"""
        cache = getattr(self, "hash_cache", None)
        if cache is not None:
            cache.clear()


def split_tables(tables: Dict[int, List[int]]) -> Dict[int, object]:
    """Pre-split each destination entry into single-port ``int`` or
    ``(ports_tuple, n)`` so the per-packet path does no ``len()`` call
    (the hot-path idiom the old closure router used)."""
    return {
        dst: (ports[0] if len(ports) == 1 else (tuple(ports), len(ports)))
        for dst, ports in tables.items()
    }


def sweep_bounded_table(table: Dict, cap: int, is_expired) -> None:
    """Shared eviction for per-flow strategy tables (flowlet, conweave).

    Deletes entries for which ``is_expired(value)`` holds; if everything is
    expired — or the table still sits at ``cap`` after the sweep — it is
    cleared outright.  Called only when an insertion finds the table at
    ``cap``, so the O(table) scan amortizes to O(1) per insertion (a clear
    buys ``cap`` insertions before the next sweep).  Always safe: evicted
    state is advisory (an expired flowlet re-hashes on its next packet; an
    evicted conweave flow restarts at epoch 0, which receivers treat as
    ordinary reordering)."""
    expired = [k for k, v in table.items() if is_expired(v)]
    if len(expired) < len(table):
        for k in expired:
            del table[k]
    else:
        table.clear()
    if len(table) >= cap:
        table.clear()


def make_flow_hash_port(hash_cache: Dict[tuple, int], cap: int):
    """The canonical symmetric flow hash with a bounded memo, shared by the
    reordering strategies' non-DATA (ACK/CNP) path so the reverse path
    stays stable.  One definition; :class:`~repro.lb.ecmp.EcmpLB` keeps an
    *inlined* copy of the same logic because there it is the per-DATA-packet
    hot path — keep the two in sync."""
    from repro.sim.rng import stable_hash64

    def flow_hash_port(src: int, dst: int, fid: int, ports, n: int) -> int:
        a, b = (src, dst) if src <= dst else (dst, src)
        key = (a, b, fid)
        h = hash_cache.get(key)
        if h is None:
            if len(hash_cache) >= cap:
                # census: a full ACK-path hash memo — tests/lb/test_strategies.py::TestEcmpBounded::test_the_ack_path_hash_memo_is_bounded
                hash_cache.clear()
            h = hash_cache[key] = stable_hash64(a, b, fid, 0)  # 0: as EcmpLB hashes
        return ports[h % n]

    return flow_hash_port


#: strategy name -> class; populated by :func:`register` at import time.
REGISTRY: Dict[str, Type[LoadBalancer]] = {}


def register(cls: Type[LoadBalancer]) -> Type[LoadBalancer]:
    REGISTRY[cls.name] = cls
    return cls


def install_lb(
    topo: "Topology", config: Optional[LbConfig] = None, **params
) -> Tables:
    """Compute next-hop tables and install one strategy instance per switch.

    ``config`` may be an :class:`LbConfig`, a strategy name string, or None
    (plain symmetric ECMP).  Returns the computed tables, ``switch name ->
    destination host id -> egress port indices``.
    Reordering strategies require reorder-tolerant receivers; when the
    topology's transport config has the window disabled this enables it at
    :data:`DEFAULT_REORDER_WINDOW` (receivers read the config at flow
    registration, which happens after topology construction).
    """
    if config is None:
        # census: no strategy given — tests/lb/test_strategies.py::TestInstall::test_no_config_is_plain_ecmp
        config = LbConfig("ecmp", **params)
    elif isinstance(config, str):
        config = LbConfig(config, **params)
    elif params:
        raise ValueError("pass knobs via LbConfig or kwargs, not both")
    tables = build_graph_tables(topo)
    lbs: List[LoadBalancer] = []
    for sw in topo.switches:
        lb = config.build()
        sw.router = lb.bind(sw, tables[sw.name])
        sw.lb = lb
        # Train pass-through predicate inputs (net/port.py fused path):
        # the exact closure this install produced, and the live gate — a
        # static per-flow strategy on a zero-latency switch.  A ``receive``
        # wrapper additionally clears/restores ``_train_ok`` while
        # installed.  A router swapped in by hand after install no longer
        # matches ``_lb_router`` and the switch silently refuses fusion.  Any
        # previously memoized routing decisions on adjacent ports belong
        # to the old router: drop them.
        sw._lb_router = sw.router
        # Single-definition gate recompute (Switch._recompute_train_ok):
        # in particular a wrapped ``receive`` (fault filter, test spy —
        # always an instance-dict assignment) keeps the gate closed even
        # across a mid-run strategy reinstall, else the fused path would
        # bypass the wrapper.
        sw._recompute_train_ok()
        for port in sw.ports:
            port._rt_cache.clear()
            peer = port.peer
            if peer is not None:
                peer._rt_cache.clear()
        lbs.append(lb)
    if any(lb.reorders for lb in lbs):
        tc = topo.transport_config
        if tc.reorder_window_bytes == 0:
            tc.reorder_window_bytes = DEFAULT_REORDER_WINDOW
        if tc.dupack_rewind == 0:
            # Dup ACKs are rare and meaningful under a reorder-tolerant
            # receiver: one is enough to trigger fast go-back-N.
            tc.dupack_rewind = 1
    topo.lb_config = config
    # Invalidate any path caches held outside the switches (e.g. the
    # flow-level simulator's (src, dst, flow_id) path memo).
    topo.routing_epoch = getattr(topo, "routing_epoch", 0) + 1
    return tables
