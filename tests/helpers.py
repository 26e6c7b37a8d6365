"""Cross-directory test helpers (importable because conftest.py puts the
tests/ directory on sys.path)."""

from unittest import mock

from repro.experiments.common import build_cc_env, launch_flows
from repro.net.port import Port
from repro.sim.rng import SeedSequenceFactory
from repro.topo.base import LinkSpec
from repro.topo.dumbbell import dumbbell
from repro.transport.flow import Flow
from repro.units import MB, us


def make_dumbbell(sim, cc="fncc", n_senders=2, rate=100.0, **env_kw):
    """A wired dumbbell with the CC's switch config applied."""
    env = build_cc_env(cc, link_rate_gbps=rate, **env_kw)
    topo = dumbbell(
        sim,
        n_senders=n_senders,
        n_switches=3,
        link=LinkSpec(rate_gbps=rate, prop_delay_ps=us(1.5)),
        switch_config=env.switch_config,
        seeds=SeedSequenceFactory(7),
        cnp_enabled=env.cnp_enabled,
    )
    env.post_install(topo)
    return topo, env


def run_one_flow(sim, topo, env, size_bytes=2 * MB, src=0, horizon_us=5000):
    """Start a single flow and run to completion; returns the receiver QP."""
    dst = topo.hosts[-1].host_id
    flow = Flow(0, src, dst, size_bytes)
    launch_flows(topo, [flow], env)
    sim.run(until=us(horizon_us))
    return topo.hosts[dst].receivers[0]


def classic_hops_only():
    """Reference mode for the fused-vs-classic equivalence suites: a context
    manager under which every port built and run takes the classic
    ``on_departure -> receive -> enqueue`` chain on every hop.

    The product has no such switch — the port picks the path itself — so
    this patches the port's one-time classification to find no fusable
    peer, which also keeps the commit window at its un-widened
    ``commit_lookahead``, and no stock switch of its own, so departure
    bookkeeping goes through ``_departure_hook`` — a *call* to
    ``Switch.on_departure`` — and the reference side cannot share a bug
    with the copy ``Port._tx_deliver`` inlines.  Callers keep the
    engagement guards honest: ``train_frames == 0`` inside the block,
    ``> 0`` outside it."""
    stock = Port._classify_train_path

    def classify(port):
        stock(port)
        port._peer_sw = port._own_sw = None

    return mock.patch.object(Port, "_classify_train_path", classify)
