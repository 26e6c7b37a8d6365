"""Pause-storm invariants for the bounded-lookahead port.

A brute-force reference transmitter (the classic eager
``kick → tx-done → deliver`` engine, one event per stage, zero laziness)
is driven through the same random pause/resume/enqueue scripts as the real
:class:`repro.net.port.Port`.  Deliveries (times and order),
``qbytes_total`` probes, and the ``max_qlen`` watermark must never diverge
— for any commit lookahead K.

Tie-breaking note: the real port is arithmetic, so a frame whose start
equals ``now`` counts as in service no matter when within the timestamp an
operation runs.  The reference engine processes frame boundaries in
events, so script operations are re-scheduled once (same timestamp, later
sequence number) to run *after* any boundary at the same instant — the
same phase the arithmetic port implements implicitly.
"""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.node import Node
from repro.net.packet import DATA, PAUSE, Packet
from repro.net.port import connect
from repro.sim.engine import Simulator


class Sink(Node):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.arrivals = []

    def receive(self, pkt, in_port):
        self.arrivals.append((self.sim.now, pkt.kind, pkt.flow_id))


class RefPort:
    """Brute-force reference transmitter.

    Mirrors the Port contract: control frames first, then the one data
    class in FIFO order, PFC at frame boundaries (the in-service frame
    always completes), backlog accounting that counts waiting frames only,
    and a watermark that sees every frame that parked even for an instant
    but not one that went straight into service on an idle wire.
    """

    def __init__(self, sim, rate_gbps, prop_delay_ps):
        self.sim = sim
        self.rate = rate_gbps
        self.prop = prop_delay_ps
        self.queue = deque()
        self.ctrl = deque()
        self.paused = False
        self.queued = 0
        self.max_qlen = 0
        self.busy = False
        self.waiting = 0
        self.deliveries = []

    def enqueue(self, pkt):
        if pkt.kind >= PAUSE:
            self.ctrl.append(pkt)
            self.waiting += 1
            self._kick()
            return
        if not self.busy and self.waiting == 0 and not self.paused:
            # Straight into service on an idle wire: never backlog (the
            # watermark deviation documented in DESIGN.md §2.1).
            self._start(pkt)
            return
        self.queue.append(pkt)
        self.waiting += 1
        self.queued += pkt.size
        if self.queued > self.max_qlen:
            self.max_qlen = self.queued
        self._kick()

    def pause(self):
        self.paused = True

    def resume(self):
        self.paused = False
        self._kick()

    def _kick(self):
        if self.busy:
            return
        if self.ctrl:
            self.waiting -= 1
            self._start(self.ctrl.popleft())
            return
        if self.queue and not self.paused:
            pkt = self.queue.popleft()
            self.waiting -= 1
            self.queued -= pkt.size
            self._start(pkt)

    def _start(self, pkt):
        self.busy = True
        self.sim.schedule(round(pkt.size * 8000 / self.rate), self._tx_done, pkt)

    def _tx_done(self, pkt):
        self.busy = False
        self.sim.schedule(self.prop, self._deliver, pkt)
        self._kick()

    def _deliver(self, pkt):
        self.deliveries.append((self.sim.now, pkt.kind, pkt.flow_id))


# -- script machinery ---------------------------------------------------------

def make_script(rng):
    """A random (time, op) script plus the link/port parameters to run it
    under.  Ends with a resume so both engines drain completely."""
    rate = rng.choice([25.0, 100.0, 400.0])
    prop = rng.choice([0, 1000, 1_500_000])
    ops = []
    flow = 0
    for _ in range(rng.randint(30, 90)):
        t = rng.randrange(0, 3_000_000)
        r = rng.random()
        if r < 0.55:
            ops.append((t, ("enq", rng.randrange(64, 1519), flow)))
            flow += 1
        elif r < 0.70:
            ops.append((t, ("pause",)))
        elif r < 0.85:
            ops.append((t, ("resume",)))
        elif r < 0.90:
            ops.append((t, ("ctrl", flow)))
            flow += 1
        else:
            ops.append((t, ("probe",)))
    ops.sort(key=lambda e: e[0])
    drain_t = 4_000_000
    ops.append((drain_t, ("resume",)))
    ops.append((drain_t, ("probe",)))
    return rate, prop, ops


def _packet(op):
    if op[0] == "enq":
        _, size, flow = op
        return Packet(DATA, flow_id=flow, src=0, dst=1, size=size,
                      payload=max(0, size - 48))
    return Packet(PAUSE, flow_id=op[1], size=64)


def run_real(rate, prop, ops, lookahead):
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    pa, _pb = connect(sim, a, b, rate, prop)
    pa.commit_lookahead = lookahead
    probes = []

    def apply(op):
        kind = op[0]
        if kind == "enq" or kind == "ctrl":
            pa.enqueue(_packet(op))
        elif kind == "pause":
            pa.pause()
        elif kind == "resume":
            pa.resume()
        else:
            probes.append((sim.now, pa.qbytes_total, pa.max_qlen))
            # Window invariant: the committed-pending set is the K-frame
            # lookahead plus at most one propagation delay of cover frames.
            min_ser = round(64 * 8000 / rate)
            assert len(pa._acct) <= lookahead + prop // max(1, min_ser) + 2

    for t, op in ops:
        sim.schedule(t, apply, op)
    sim.run()
    return b.arrivals, probes, pa


def run_ref(rate, prop, ops):
    sim = Simulator()
    ref = RefPort(sim, rate, prop)
    probes = []

    def apply(op):
        kind = op[0]
        if kind == "enq" or kind == "ctrl":
            ref.enqueue(_packet(op))
        elif kind == "pause":
            ref.pause()
        elif kind == "resume":
            ref.resume()
        else:
            probes.append((sim.now, ref.queued, ref.max_qlen))

    def refire(op):
        # Same timestamp, later seq: runs after any frame boundary at now.
        sim.schedule(0, apply, op)

    for t, op in ops:
        sim.schedule(t, refire, op)
    sim.run()
    return ref.deliveries, probes


class TestAgainstBruteForceReference:
    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_deliveries_and_accounting_never_diverge(self, seed):
        rng = random.Random(seed)
        rate, prop, ops = make_script(rng)
        lookahead = rng.choice([1, 2, 3, 7])
        real_deliv, real_probes, pa = run_real(rate, prop, ops, lookahead)
        ref_deliv, ref_probes = run_ref(rate, prop, ops)
        assert real_deliv == ref_deliv
        assert real_probes == ref_probes
        # Drained: nothing stranded anywhere, accounting returns to zero.
        n_frames = sum(1 for _, op in ops if op[0] in ("enq", "ctrl"))
        assert len(real_deliv) == n_frames
        assert pa.qbytes_total == 0
        assert pa._uncommitted == 0

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=15, deadline=None)
    def test_schedule_identical_for_every_lookahead(self, seed):
        """K is a pure performance knob: K=1, the default, and an
        effectively-eager window must each produce the reference's
        schedule and accounting, bit for bit."""
        rng = random.Random(seed)
        rate, prop, ops = make_script(rng)
        ref = run_ref(rate, prop, ops)
        for k in (1, 3, 1 << 30):
            assert run_real(rate, prop, ops, k)[:2] == ref, k
