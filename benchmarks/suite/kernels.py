"""Layer kernels: synthetic input pushed through one layer's public API.

Each kernel is ``make(shape) -> op`` where ``op(n)`` performs ``n``
operations and returns the seconds its timed region took (set-up inside
``op`` is not timed).  :func:`run_all` grows ``n`` until a batch is long
enough to time, then reports the minimum over a few batches, per
operation.  Kernels guard contracts (README "Layer kernels"); they gate
nothing and their budget is small, so read them as orders of magnitude and
A/B them with longer ``--seconds`` before acting on one.
"""

from __future__ import annotations

import pickle
import random
from time import perf_counter as pc

NS, US, MS = 1e9, 1e6, 1e3


class Kernel:
    def __init__(self, name, unit, scale, make, start_n=256):
        self.name, self.unit, self.scale = name, unit, scale
        self.make, self.start_n = make, start_n


def _noop(_arg) -> None:
    pass


# -- sim -----------------------------------------------------------------------


def _sim_schedule(shape):
    from repro.sim.engine import Simulator

    def op(n):
        sim = Simulator()
        schedule = sim.schedule
        t0 = pc()
        for i in range(n):
            schedule((i * 7919) % 10007, _noop)
        return pc() - t0

    return op


def _sim_dispatch(shape):
    from repro.sim.engine import Simulator

    def op(n):
        sim = Simulator()
        for i in range(n):
            sim.schedule((i * 7919) % 10007, _noop)
        t0 = pc()
        sim.run()
        return pc() - t0

    return op


def _sim_timer_rearm(shape):
    from repro.sim.engine import Simulator

    def op(n):
        sim = Simulator()
        left = [n]
        box = []

        def fire(_arg):
            left[0] -= 1
            if left[0] > 0:
                sim.schedule_reuse(box[0], 1000)

        box.append(sim.schedule(0, fire))
        t0 = pc()
        sim.run()
        return pc() - t0

    return op


# -- net -----------------------------------------------------------------------


def _sink_class():
    from repro.net.node import Node

    class Sink(Node):
        def receive(self, pkt, in_port):
            pass

    return Sink


def _data(size, dst=1, seq=0):
    from repro.net.packet import DATA, Packet

    return Packet(DATA, flow_id=0, src=0, dst=dst, seq=seq, size=size, payload=size - 48)


def _port_hop(size):
    def make(shape):
        from repro.net.port import connect
        from repro.sim.engine import Simulator

        Sink = _sink_class()

        def op(n):
            sim = Simulator()
            pa, _pb = connect(sim, Sink(sim, "a"), Sink(sim, "b"), 100.0, 1000)
            pkts = [_data(size, seq=i) for i in range(n)]
            t0 = pc()
            for p in pkts:
                pa.enqueue(p)
            sim.run()
            return pc() - t0

        return op

    return make


def _pause_cycle(shape):
    from repro.net.port import connect
    from repro.sim.engine import Simulator

    Sink = _sink_class()

    def op(n):
        sim = Simulator()
        pa, _pb = connect(sim, Sink(sim, "a"), Sink(sim, "b"), 100.0, 1000)
        for i in range(3000):
            pa.enqueue(_data(1518, seq=i))
        t0 = pc()
        for _ in range(n):
            pa.pause(0)
            pa.resume(0)
        return pc() - t0

    return op


def _switch_hop(int_on):
    def make(shape):
        from repro.net.port import connect
        from repro.net.switch import IntMode, Switch, SwitchConfig
        from repro.sim.engine import Simulator

        Sink = _sink_class()
        mode = IntMode.FNCC if int_on else IntMode.NONE

        def op(n):
            sim = Simulator()
            sw = Switch(sim, "sw", SwitchConfig(int_mode=mode))
            a, b = Sink(sim, "a"), Sink(sim, "b")
            pa, _ = connect(sim, a, sw, 100.0, 1000)
            connect(sim, sw, b, 100.0, 1000)
            sw.router = lambda s, pkt: 1 if pkt.dst == 1 else 0
            sw.start()
            pkts = [_data(1518, seq=i) for i in range(n)]
            t0 = pc()
            for p in pkts:
                pa.enqueue(p)
            sim.run(until=sim.now + n * 200_000 + 10_000_000)
            return pc() - t0

        return op

    return make


def _packet_alloc(shape):
    from repro.net.packet import DATA, Packet

    def op(n):
        t0 = pc()
        for i in range(n):
            Packet(DATA, flow_id=0, src=0, dst=1, seq=i, size=1518, payload=1470)
        return pc() - t0

    return op


# -- transport, cc ---------------------------------------------------------------


def _data_ack_pair(shape):
    from repro.cc.base import CongestionControl
    from repro.net.host import Host
    from repro.net.port import connect
    from repro.sim.engine import Simulator
    from repro.transport.flow import Flow

    def op(n):
        sim = Simulator()
        h0, h1 = Host(sim, "h0", 0), Host(sim, "h1", 1)
        connect(sim, h0, h1, 100.0, 1000)
        mtu_payload = h0.transport_config.mtu - h0.transport_config.header_bytes
        flow = Flow(0, 0, 1, n * mtu_payload)
        h1.register_receiver(flow)
        h0.start_flow(flow, CongestionControl(), 2_000_000)
        t0 = pc()
        sim.run()
        return pc() - t0

    return op


def _live_qp(cc_name):
    """A started sender QP under ``cc_name`` on a two-host star."""
    from repro.experiments.common import build_cc_env, launch_flows
    from repro.sim.engine import Simulator
    from repro.sim.rng import SeedSequenceFactory
    from repro.topo.star import star
    from repro.transport.flow import Flow

    sim = Simulator()
    env = build_cc_env(cc_name)
    topo = star(sim, 2, switch_config=env.switch_config,
                seeds=SeedSequenceFactory(1), cnp_enabled=env.cnp_enabled)
    qps = launch_flows(topo, [Flow(0, 0, 1, 1 << 30)], env)
    sim.run(until=1000)  # the flow has started; nothing is acknowledged yet
    return qps[0]


def _cc_on_ack(cc_name):
    def make(shape):
        from repro.net.packet import ACK, INTRecord, Packet

        def op(n):
            qp = _live_qp(cc_name)
            cc = qp.cc
            # Two ACKs with their own two-hop INT records, fed alternately,
            # so each on_ack sees telemetry that advanced since the last.
            acks = []
            for _ in range(2):
                ack = Packet(ACK, flow_id=0, src=1, dst=0, seq=0, size=64)
                ack.n_flows = 1
                ack.int_records = [INTRecord(100.0, 0, 0, 0), INTRecord(100.0, 0, 0, 30_000)]
                acks.append(ack)
            t0 = pc()
            for i in range(n):
                ack = acks[i & 1]
                ack.seq = i * 1000
                for rec in ack.int_records:
                    rec.ts = (i + 1) * 120_000
                    rec.tx_bytes = (i + 1) * 1400
                cc.on_ack(qp, ack)
            return pc() - t0

        return op

    return make


def _dcqcn_on_cnp(shape):
    def op(n):
        qp = _live_qp("dcqcn")
        cc = qp.cc
        t0 = pc()
        for _ in range(n):
            cc.on_cnp(qp)
        return pc() - t0

    return op


# -- lb, routing, topo, traffic ------------------------------------------------------


def _fabric(k, lb=None, cc="fncc"):
    from repro.experiments.common import build_cc_env
    from repro.sim.engine import Simulator
    from repro.sim.rng import SeedSequenceFactory
    from repro.topo.fattree import fattree

    sim = Simulator()
    env = build_cc_env(cc)
    return fattree(sim, k=k, switch_config=env.switch_config,
                   seeds=SeedSequenceFactory(1), lb=lb)


def _lb_pick(strategy):
    def make(shape):
        topo = _fabric(4, lb=strategy)
        tor = next(sw for sw in topo.switches if sw.name.startswith("tor_0_0"))
        far = len(topo.hosts) - 1  # another pod: the up-link choice is real
        pkts = []
        for i in range(512):
            p = _data(1518, dst=far, seq=i * 1470)
            p.flow_id = i % 64
            p.in_port = len(tor.ports) - 1
            pkts.append(p)

        def op(n):
            router = tor.router
            t0 = pc()
            for i in range(n):
                router(tor, pkts[i & 511])
            return pc() - t0

        return op

    return make


def _topo_build(k_of):
    def make(shape):
        k = k_of(shape)

        def op(n):
            t0 = pc()
            for _ in range(n):
                _fabric(k)
            return pc() - t0

        return op

    return make


def _routing_tables(shape):
    from repro.routing.tables import build_graph_tables

    topo = _fabric(shape.kernel_k)

    def op(n):
        t0 = pc()
        for _ in range(n):
            build_graph_tables(topo)
        return pc() - t0

    return op


def _traffic_gen(shape):
    from repro.sim.rng import SeedSequenceFactory
    from repro.traffic.distributions import websearch_cdf
    from repro.traffic.generator import PoissonWorkload

    cdf = websearch_cdf(scale=0.1)

    def op(n):
        gen = PoissonWorkload(n_hosts=128, host_rate_gbps=100.0, cdf=cdf,
                              load=0.5, seeds=SeedSequenceFactory(1))
        t0 = pc()
        gen.generate(n)
        return pc() - t0

    return op


# -- metrics, hybrid ---------------------------------------------------------------


def _metrics_table(shape):
    from repro.metrics.fct import SIZE_BINS_WEBSEARCH, SlowdownTable
    from repro.transport.flow import Flow, FlowRecord

    def op(n):
        rng = random.Random(1)
        records = []
        for i in range(n):
            rec = FlowRecord(Flow(i, 0, 1, rng.randrange(1000, 30_000_000)),
                             rng.randrange(10_000, 10_000_000))
            rec.ideal_fct_ps = 5_000
            records.append(rec)
        t0 = pc()
        table = SlowdownTable.from_records(records, SIZE_BINS_WEBSEARCH)
        for b in table.bins:
            table.stat(b, "p95")
        tuple(sorted((r.flow.flow_id, r.fct_ps) for r in records))
        return pc() - t0

    return op


def _fluid(shape):
    from repro.hybrid.fluid import FluidEngine

    k = shape.kernel_k
    n_hosts = k ** 3 // 4
    n_links = 2 * 3 * n_hosts  # a k-ary fat-tree has 3*k^3/4 duplex links

    def op(n):
        rng = random.Random(1)
        eng = FluidEngine([0.0125] * n_links, rate_eps=0.02, ripple_rounds=2)
        t = 0
        for _ in range(n):
            t += rng.randrange(1, 400_000)
            up, down = rng.randrange(n_hosts), n_hosts + rng.randrange(n_hosts)
            core = [2 * n_hosts + rng.randrange(n_links - 2 * n_hosts) for _ in range(4)]
            eng.add_flow([up, *dict.fromkeys(core), down],
                         rng.randrange(1_000, 300_000), t)
        t0 = pc()
        eng.run()
        return pc() - t0

    return op


# -- shard, exec -------------------------------------------------------------------


def _shard_codec(shape):
    from repro.net.packet import INTRecord
    from repro.shard.messages import decode_frame, encode_frame

    pkt = _data(1518)
    pkt.int_records = [INTRecord(100.0, i, i * 1500, 0) for i in range(3)]

    def op(n):
        t0 = pc()
        for _ in range(n):
            decode_frame(encode_frame(pkt))
        return pc() - t0

    return op


def _shard_build_spec():
    from repro.experiments.fct_experiment import build_fct_fabric
    from repro.shard.partition import fattree_plan

    kwargs = dict(workload="websearch", k=4, load=0.3, n_flows=4, scale=0.02, seed=1)
    plan = fattree_plan(build_fct_fabric("fncc", **kwargs).topo, 2)
    build = {"fn": "repro.shard.builders:build_fct_shard",
             "kwargs": dict(kwargs, cc="fncc", trace=False)}
    return build, plan


def _barriers(group):
    """Empty barrier round trips: the horizon advances 1 ps at a time, far
    short of the first flow's start, so no shard has anything to do."""
    horizon = [0]

    def op(n):
        t0 = pc()
        for _ in range(n):
            horizon[0] += 1
            group.advance_all(horizon[0], {})
        return pc() - t0

    return op


def _barrier_inproc(shape):
    from repro.shard.runtime import InProcessShards, build_engine

    build, plan = _shard_build_spec()
    return _barriers(InProcessShards(
        [build_engine(build, plan.to_dict(), sid) for sid in range(plan.n_shards)]
    ))


def _barrier_proc(shape):
    from repro.shard.runtime import ProcessShards

    build, plan = _shard_build_spec()
    group = ProcessShards(build, plan)
    op = _barriers(group)
    op.close = group.stop
    return op


def _pickle_result(shape):
    from repro.experiments.fct_experiment import run_fct_summary

    summary = run_fct_summary("fncc", seed=1, workload="hadoop", k=4, load=0.5,
                              n_flows=300, scale=1.0)

    def op(n):
        t0 = pc()
        for _ in range(n):
            pickle.loads(pickle.dumps(summary))
        return pc() - t0

    return op


# -- obs -----------------------------------------------------------------------


def _obs_counter(shape):
    from repro.obs import MetricsRegistry

    counter = MetricsRegistry().counter("suite.kernel")

    def op(n):
        inc = counter.inc
        t0 = pc()
        for _ in range(n):
            inc()
        return pc() - t0

    return op


def _obs_emit(shape):
    from repro.obs import EventTracer

    tracer = EventTracer()

    def op(n):
        emit = tracer.emit
        t0 = pc()
        for i in range(n):
            emit("flow", "kernel", i)
        return pc() - t0

    return op


def _obs_attach(shape):
    """Wall time of one small FNCC fat-tree cell with registry + tracer
    attached, over the same cell detached: the "free when off, cheap when
    on" contract, end to end.  One op is one attached/detached pair."""
    from repro.experiments.fct_experiment import run_fct_experiment
    from repro.obs import EventTracer, MetricsRegistry, RunObservability

    kwargs = dict(workload="websearch", k=4, load=0.5, n_flows=20, scale=0.1, seed=1)

    def once(obs):
        t0 = pc()
        run_fct_experiment("fncc", obs=obs, **kwargs)
        return pc() - t0

    def op(n):
        on = off = 0.0
        for _ in range(n):
            off += once(None)
            on += once(RunObservability(registry=MetricsRegistry(), tracer=EventTracer()))
        return n * on / off  # run_all divides by n again

    return op


KERNELS = (
    Kernel("sim.schedule_ns", "ns", NS, _sim_schedule),
    Kernel("sim.dispatch_ns", "ns", NS, _sim_dispatch),
    Kernel("sim.timer_rearm_ns", "ns", NS, _sim_timer_rearm),
    Kernel("net.port_hop_ns", "ns", NS, _port_hop(1518)),
    Kernel("net.port_hop_small_ns", "ns", NS, _port_hop(64)),
    Kernel("net.pause_cycle_ns", "ns", NS, _pause_cycle, start_n=64),
    Kernel("net.switch_hop_ns", "ns", NS, _switch_hop(True)),
    Kernel("net.switch_hop_noint_ns", "ns", NS, _switch_hop(False)),
    Kernel("net.packet_alloc_ns", "ns", NS, _packet_alloc),
    Kernel("transport.data_ack_pair_ns", "ns", NS, _data_ack_pair),
    Kernel("cc.fncc.on_ack_ns", "ns", NS, _cc_on_ack("fncc")),
    Kernel("cc.hpcc.on_ack_ns", "ns", NS, _cc_on_ack("hpcc")),
    Kernel("cc.dcqcn.on_cnp_ns", "ns", NS, _dcqcn_on_cnp),
    Kernel("lb.ecmp.pick_ns", "ns", NS, _lb_pick("ecmp")),
    Kernel("lb.spray.pick_ns", "ns", NS, _lb_pick("spray")),
    Kernel("lb.flowlet.pick_ns", "ns", NS, _lb_pick("flowlet")),
    Kernel("lb.conweave.pick_ns", "ns", NS, _lb_pick("conweave")),
    Kernel("traffic.gen_us_per_flow", "us", US, _traffic_gen, start_n=2000),
    Kernel("topo.fattree_k4_ms", "ms", MS, _topo_build(lambda s: 4), start_n=1),
    Kernel("topo.fattree_k8_ms", "ms", MS, _topo_build(lambda s: s.kernel_k), start_n=1),
    Kernel("routing.tables_k8_ms", "ms", MS, _routing_tables, start_n=1),
    Kernel("metrics.table_us_per_flow", "us", US, _metrics_table, start_n=2000),
    Kernel("hybrid.fluid_us_per_flow", "us", US, _fluid, start_n=500),
    Kernel("shard.codec_ns_per_frame", "ns", NS, _shard_codec),
    Kernel("shard.barrier_inproc_us", "us", US, _barrier_inproc, start_n=64),
    Kernel("shard.barrier_proc_us", "us", US, _barrier_proc, start_n=64),
    Kernel("exec.pickle_us_per_result", "us", US, _pickle_result, start_n=16),
    Kernel("obs.counter_inc_ns", "ns", NS, _obs_counter),
    Kernel("obs.trace_emit_ns", "ns", NS, _obs_emit),
    Kernel("obs.attach_overhead_x", "x", 1.0, _obs_attach, start_n=1),
)


def run_all(shape, budget_s: float) -> dict:
    """Every kernel, each within an equal share of ``budget_s`` (a zero
    budget still runs each once at its starting size)."""
    out = {}
    batch_s = budget_s / len(KERNELS) / (shape.kernel_batches + 1)
    for kernel in KERNELS:
        op = kernel.make(shape)
        try:
            n = kernel.start_n
            t = op(n)
            while t < batch_s / 2 and n < 1 << 20:
                n *= 4
                t = op(n)
            best = t / n
            for _ in range(shape.kernel_batches - 1):
                best = min(best, op(n) / n)
        finally:
            close = getattr(op, "close", None)
            if close is not None:
                close()
        out[kernel.name] = best * kernel.scale
    return out
