#!/usr/bin/env python
"""PFC deadlock analysis — why Observation 2 chooses spanning trees.

The paper's motivation (§2.3) warns that PFC pauses can cascade into
deadlocks.  A deadlock needs a *cyclic buffer dependency* (CBD): flows
whose paused buffers wait on each other in a ring.  This example:

1. shows the textbook 3-flow ring deadlock,
2. verifies the repository's fat-tree ECMP routing is CBD-free
   (up-down routing never turns downward-then-up), and
3. verifies spanning-tree routing keeps a random Jellyfish fabric CBD-free
   — the TCP-Bolt property the paper leans on.

Run:  python examples/deadlock_analysis.py
"""

from repro.net.pfc_analysis import (
    all_pairs_paths,
    find_deadlock_cycles,
    routing_is_deadlock_free,
)
from repro.sim.engine import Simulator
from repro.topo.fattree import fattree
from repro.topo.jellyfish import jellyfish


def main() -> None:
    print("1) textbook ring: three flows chasing each other")
    ring_paths = [
        ["hostA", "sw0", "sw1", "sw2", "hostB"],
        ["hostC", "sw1", "sw2", "sw0", "hostD"],
        ["hostE", "sw2", "sw0", "sw1", "hostF"],
    ]
    cycles = find_deadlock_cycles(ring_paths)
    print(f"   deadlock-free: {routing_is_deadlock_free(ring_paths)}")
    print(f"   cyclic buffer dependencies found: {len(cycles)}")
    print(f"   example cycle: {' -> '.join(str(b) for b in cycles[0])}")

    print("\n2) k=4 fat-tree with symmetric ECMP (all 240 host pairs)")
    ft = fattree(Simulator(), k=4)
    ft_paths = all_pairs_paths(ft)
    print(f"   paths traced: {len(ft_paths)}")
    print(f"   deadlock-free: {routing_is_deadlock_free(ft_paths)}")

    print("\n3) random Jellyfish with multiple-spanning-tree routing")
    from repro.net.pfc_analysis import all_pairs_paths_with_tree_classes

    jf = jellyfish(Simulator(), n_switches=10, switch_degree=4, hosts_per_switch=1)
    jf_paths, jf_classes = all_pairs_paths_with_tree_classes(jf)
    shared = routing_is_deadlock_free(jf_paths)
    per_tree = routing_is_deadlock_free(jf_paths, jf_classes)
    print(f"   paths traced: {len(jf_paths)} over {jf.n_spanning_trees} trees")
    print(f"   all trees in ONE lossless class: deadlock-free = {shared}")
    print(f"   one PFC class PER tree (TCP-Bolt): deadlock-free = {per_tree}")

    print(
        "\nA single tree cannot close a buffer cycle, but several trees"
        "\nsharing one lossless class can — which is why TCP-Bolt (and"
        "\nFNCC's Observation 2 by citation) gives each tree its own"
        "\npriority class."
    )


if __name__ == "__main__":
    main()
