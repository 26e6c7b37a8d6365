"""Jellyfish (Singla et al., NSDI'12): random regular switch graph.

Used here to exercise Observation 2's spanning-tree routing: on Jellyfish,
shortest-path ECMP is generally *asymmetric*, so FNCC's requirement that
data and ACK share a path needs the multiple-spanning-tree scheme of
Fig. 6 (:func:`repro.routing.install_spanning_trees`).
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional, Set, Tuple

from repro.lb import install_lb
from repro.net.switch import SwitchConfig
from repro.routing import install_spanning_trees
from repro.routing.tables import bfs_distances
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec, Topology


def jellyfish(
    sim: Simulator,
    n_switches: int = 8,
    switch_degree: int = 4,
    hosts_per_switch: int = 1,
    link: Optional[LinkSpec] = None,
    switch_config: Optional[SwitchConfig] = None,
    seeds: Optional[SeedSequenceFactory] = None,
    cnp_enabled: bool = False,
    lb=None,
) -> Topology:
    """Random ``switch_degree``-regular switch fabric with
    ``hosts_per_switch`` hosts hanging off each switch.  ``lb=None`` keeps
    the paper's spanning-tree routing (symmetric by construction); passing
    an :class:`repro.lb.LbConfig`/strategy name installs shortest-path
    multi-path routing under that strategy instead (generally *asymmetric*
    on Jellyfish — the Observation 2 regime the lbmatrix experiment
    probes)."""
    if not 0 < switch_degree < n_switches:
        raise ValueError("degree must be positive and below the switch count")
    if (n_switches * switch_degree) % 2:
        raise ValueError("n_switches * switch_degree must be even")
    topo = Topology(sim, seeds=seeds, default_link=link, switch_config=switch_config)
    seed = topo.seeds.child_seed("jellyfish") % (2**31)
    for attempt in (seed, seed + 1):  # disconnected is rare for the sizes used
        edges = sorted(random_regular_edges(switch_degree, n_switches, random.Random(attempt)))
        nbrs = {i: [v if u == i else u for u, v in edges if i in (u, v)]
                for i in range(n_switches)}
        if len(bfs_distances(nbrs, 0)) == n_switches:
            break
    else:
        raise RuntimeError("could not build a connected Jellyfish graph")
    switches = [topo.add_switch(f"sw{i}") for i in range(n_switches)]
    for u, v in edges:
        topo.link(switches[u], switches[v])
    for i, sw in enumerate(switches):
        for h in range(hosts_per_switch):
            host = topo.add_host(f"h{i}_{h}", cnp_enabled=cnp_enabled)
            topo.link(host, sw)
    if lb is None:
        install_spanning_trees(topo, seed=topo.seeds.root_seed)
    else:
        install_lb(topo, lb)
    topo.start()
    return topo


def random_regular_edges(d: int, n: int, rng: random.Random) -> Set[Tuple[int, int]]:
    """The edges ``(u, v)``, ``u < v``, of a random ``d``-regular graph on
    nodes ``0..n-1``, draw for draw ``networkx.random_regular_graph(d, n,
    seed)`` on ``rng = random.Random(seed)``: pair off shuffled stubs, re-pair
    those of rejected pairs, start over when no new pair is left among them."""
    while True:
        edges: Set[Tuple[int, int]] = set()
        stubs = list(range(n)) * d
        while stubs:
            rejected: Counter = Counter()  # node -> its stubs in rejected pairs
            rng.shuffle(stubs)
            it = iter(stubs)
            for a, b in zip(it, it):
                a, b = min(a, b), max(a, b)
                if a != b and (a, b) not in edges:
                    edges.add((a, b))
                else:
                    rejected.update((a, b))
            if rejected and not _new_pair_left(rejected, edges):
                # census: stubs no new pair can use — tests/topo/test_topologies.py::TestJellyfish::test_generator_draws_what_networkx_draws
                break
            stubs = list(rejected.elements())
        else:
            return edges


def _new_pair_left(rejected: Counter, edges: Set[Tuple[int, int]]) -> bool:
    """networkx's ``_suitable`` as written: its inner loop swaps into the
    outer loop's variable, so which pairs it tries depends on their order."""
    for a in rejected:
        for b in rejected:
            if a == b:
                break
            a, b = min(a, b), max(a, b)
            if (a, b) not in edges:
                return True
    # census: stubs no new pair can use — tests/topo/test_topologies.py::TestJellyfish::test_generator_draws_what_networkx_draws
    return False
