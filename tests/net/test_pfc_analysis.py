"""PFC deadlock (cyclic buffer dependency) analysis."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net.pfc_analysis import (
    all_pairs_paths,
    buffer_dependency_graph,
    find_deadlock_cycles,
    routing_is_deadlock_free,
)
from repro.sim.engine import Simulator
from repro.topo.dumbbell import dumbbell
from repro.topo.fattree import fattree
from repro.topo.jellyfish import jellyfish


class TestCbdGraph:
    def test_linear_path_is_acyclic(self):
        paths = [["h0", "s0", "s1", "h1"]]
        assert routing_is_deadlock_free(paths)

    def test_classic_ring_deadlocks(self):
        """The textbook CBD: three flows chasing each other around a ring."""
        paths = [
            ["a", "s0", "s1", "s2", "b"],
            ["c", "s1", "s2", "s0", "d"],
            ["e", "s2", "s0", "s1", "f"],
        ]
        assert not routing_is_deadlock_free(paths)
        cycles = find_deadlock_cycles(paths)
        assert len(cycles) >= 1
        # The cycle is among the inter-switch buffers.
        nodes = {n for cyc in cycles for n in cyc}
        assert ("s0", "s1", 0) in nodes

    def test_two_flows_on_ring_no_cycle(self):
        paths = [
            ["a", "s0", "s1", "s2", "b"],
            ["c", "s1", "s2", "s0", "d"],
        ]
        assert routing_is_deadlock_free(paths)

    def test_graph_edges_follow_consecutive_hops(self):
        g = buffer_dependency_graph([["h", "x", "y", "z", "r"]])
        assert ("x", "y", 0) in g[("h", "x", 0)]
        assert ("y", "z", 0) in g[("x", "y", 0)]
        assert ("z", "r", 0) not in g[("x", "y", 0)]

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            buffer_dependency_graph([["a"]])

    def test_single_hop_path_adds_node_only(self):
        g = buffer_dependency_graph([["a", "b"]])
        assert g == {("a", "b", 0): {}}


class TestRealTopologies:
    def test_dumbbell_routing_deadlock_free(self):
        topo = dumbbell(Simulator(), n_senders=3)
        assert routing_is_deadlock_free(all_pairs_paths(topo))

    def test_fattree_updown_ecmp_deadlock_free(self):
        """Up-down routing never turns down-then-up, so no CBD — the reason
        fat-trees tolerate PFC."""
        topo = fattree(Simulator(), k=4)
        assert routing_is_deadlock_free(all_pairs_paths(topo))

    def test_jellyfish_per_tree_classes_deadlock_free(self):
        """Observation 2 / TCP-Bolt: with one PFC priority class per
        spanning tree, a random graph is deadlock-free — and the same
        paths CAN deadlock if all trees share one class (which is exactly
        why TCP-Bolt separates them)."""
        from repro.net.pfc_analysis import all_pairs_paths_with_tree_classes

        topo = jellyfish(
            Simulator(), n_switches=10, switch_degree=4, hosts_per_switch=1
        )
        paths, classes = all_pairs_paths_with_tree_classes(topo)
        assert routing_is_deadlock_free(paths, classes)

    def test_shared_class_across_trees_can_deadlock(self):
        from repro.net.pfc_analysis import all_pairs_paths_with_tree_classes

        topo = jellyfish(
            Simulator(), n_switches=10, switch_degree=4, hosts_per_switch=1
        )
        paths, _ = all_pairs_paths_with_tree_classes(topo)
        # All trees squeezed into one lossless class: cycles appear.
        assert not routing_is_deadlock_free(paths)

    def test_classes_must_align(self):
        with pytest.raises(ValueError):
            buffer_dependency_graph([["a", "b", "c"]], classes=[0, 1])

    def test_class_isolation_breaks_textbook_ring(self):
        ring = [
            ["a", "s0", "s1", "s2", "b"],
            ["c", "s1", "s2", "s0", "d"],
            ["e", "s2", "s0", "s1", "f"],
        ]
        assert not routing_is_deadlock_free(ring)
        assert routing_is_deadlock_free(ring, classes=[0, 1, 2])

    def test_non_tree_routed_topo_rejected(self):
        from repro.net.pfc_analysis import all_pairs_paths_with_tree_classes

        topo = dumbbell(Simulator(), n_senders=2)
        with pytest.raises(ValueError):
            all_pairs_paths_with_tree_classes(topo)


RING = [
    ["hostA", "sw0", "sw1", "sw2", "hostB"],
    ["hostC", "sw1", "sw2", "sw0", "hostD"],
    ["hostE", "sw2", "sw0", "sw1", "hostF"],
]


def test_ring_cycle_is_the_same_under_every_hash_seed():
    """The cycle starts at its first-seen buffer, whatever the process's
    string-hash salt (examples/deadlock_analysis.py prints it)."""
    code = (
        "import json\n"
        "from repro.net.pfc_analysis import find_deadlock_cycles\n"
        f"print(json.dumps(find_deadlock_cycles({RING!r})))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    answers = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        answers.add(out)
    assert len(answers) == 1
    assert json.loads(answers.pop()) == [
        [["sw0", "sw1", 0], ["sw1", "sw2", 0], ["sw2", "sw0", 0]]
    ]


def _rotated_to_min(cycle):
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def test_cycles_and_acyclicity_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for _ in range(300):
        names = [f"s{i}" for i in range(rng.randrange(3, 7))]
        paths = []
        for _ in range(rng.randrange(1, 7)):
            path, length = [rng.choice(names)], rng.randrange(2, 7)
            while len(path) < length:
                path.append(rng.choice([n for n in names if n != path[-1]]))
            paths.append(path)
        g = buffer_dependency_graph(paths)
        oracle = nx.DiGraph()
        oracle.add_nodes_from(g)
        oracle.add_edges_from((u, v) for u in g for v in g[u])
        got = find_deadlock_cycles(paths)
        want = list(nx.simple_cycles(oracle))
        assert sorted(map(_rotated_to_min, got)) == sorted(map(_rotated_to_min, want))
        assert routing_is_deadlock_free(paths) == nx.is_directed_acyclic_graph(oracle)
