"""Property-based tests (hypothesis) on the core data structures and
invariants: event ordering, exact serialization arithmetic, CDF sampling,
ideal-FCT monotonicity, hash quality, HPCC window bounds, and PFC
losslessness under random traffic."""

import random
from bisect import insort
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.ideal import ideal_fct_ps
from repro.sim.engine import Simulator
from repro.sim.rng import stable_hash64
from repro.traffic.cdf import PiecewiseCdf
from repro.units import serialization_ps, us


class _RefScheduler:
    """Sorted-list reference for the engine's contract: ``(time, lane,
    seq)`` dispatch order, lazy cancellation, the ``run(until=)`` clock."""

    def __init__(self):
        self.now = self.seq = self.dispatched = 0
        self.queue, self.alive = [], {}

    def schedule_at(self, time, ident, lane):
        self.seq += 1
        insort(self.queue, (time, lane, self.seq, ident))
        self.alive[ident] = True

    def schedule(self, delay, ident, lane):
        self.schedule_at(self.now + delay, ident, lane)

    def rearm(self, ident, lane, delay):
        self.schedule(delay, ident, lane)

    def cancel(self, ident):
        self.alive[ident] = False

    def run(self, until=None):
        while self.queue and (until is None or self.queue[0][0] <= until):
            time, lane, _, ident = self.queue.pop(0)
            if self.alive[ident]:
                self.now, self.alive[ident] = time, False
                self.dispatched += 1
                self.fire(ident, lane)
        if until is not None and self.now < until:
            self.now = until


class _EngineUnderTest:
    """The same five verbs on the real engine; ``ident`` -> Event handle."""

    def __init__(self):
        self.sim = Simulator()
        self.handles = {}

    now = property(lambda self: self.sim.now)
    dispatched = property(lambda self: self.sim.events_dispatched)

    def _arm(self, verb, when, ident, lane):
        self.handles[ident] = verb(when, lambda lane: self.fire(ident, lane), lane, lane)

    def schedule_at(self, time, ident, lane):
        self._arm(self.sim.schedule_at, time, ident, lane)

    def schedule(self, delay, ident, lane):
        self._arm(self.sim.schedule, delay, ident, lane)

    def rearm(self, ident, lane, delay):
        self.sim.schedule_reuse(self.handles[ident], delay)

    def cancel(self, ident):
        self.handles[ident].cancel()

    def run(self, until=None):
        self.sim.run(until)


def _play(script, sched):
    """Interpret ``script`` on ``sched``; return the dispatched (id, now)
    sequence.  Each scheduled event carries its own callback behaviour:
    on its first fire it may cancel another handle (live or long gone),
    and on fire k it may re-arm itself — and then cancel that re-arm."""
    log, plans, fires = [], [], []

    def fire(ident, lane):
        log.append((ident, sched.now))
        plan, victim = plans[ident]
        k = fires[ident]
        fires[ident] = k + 1
        if k == 0 and victim is not None:
            sched.cancel(victim % len(plans))
        if k < len(plan):
            delay, cancel_after = plan[k]
            sched.rearm(ident, lane, delay)
            if cancel_after:
                sched.cancel(ident)

    sched.fire = fire
    for op, arg in script:
        if op == "run":
            sched.run(sched.now + arg)
        elif op == "cancel":
            if plans:
                sched.cancel(arg % len(plans))
        else:
            when, lane, plan, victim = arg
            plans.append((plan, victim))
            fires.append(0)
            if op == "schedule":
                sched.schedule(when, len(plans) - 1, lane)
            else:
                sched.schedule_at(sched.now + when, len(plans) - 1, lane)
    sched.run()
    return log


_EVENT = st.tuples(
    st.integers(0, 6),  # delay / offset: small, so ties are common
    st.integers(0, 3),  # lane
    st.lists(st.tuples(st.integers(0, 6), st.booleans()), max_size=3),  # re-arms
    st.none() | st.integers(0, 50),  # handle to cancel on first fire
)
_SCRIPT = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["schedule", "schedule_at"]), _EVENT),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("run"), st.integers(0, 8)),
    ),
    max_size=40,
)


class TestEngineProperties:
    @given(_SCRIPT)
    @settings(max_examples=300, deadline=None)
    def test_scripts_match_reference_scheduler(self, script):
        """``run`` dispatches a random script of schedule / schedule_at /
        cancel (of live and already-dispatched handles) / schedule_reuse /
        split run(until=) calls exactly as a sorted-list scheduler does."""
        ref, eng = _RefScheduler(), _EngineUnderTest()
        assert _play(script, eng) == _play(script, ref)
        assert eng.dispatched == ref.dispatched
        assert eng.now == ref.now
        assert eng.sim.queue_len() == 0

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_dispatch_order_is_sorted(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, seen.append, d)
        sim.run()
        assert seen == sorted(delays)

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=100),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_run_until_never_overshoots(self, delays, horizon):
        sim = Simulator()
        for d in delays:
            sim.schedule(d, lambda _: None)
        sim.run(until=horizon)
        assert sim.now <= max(horizon, 0) or not delays

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_cancellation_removes_exactly_the_cancelled(self, delays):
        sim = Simulator()
        events = [sim.schedule(d, lambda _: None) for d in delays]
        for ev in events[::2]:
            ev.cancel()
        assert sim.run() == len(delays) - len(events[::2])


class TestSerializationProperties:
    RATES = st.sampled_from([10.0, 25.0, 40.0, 50.0, 100.0, 200.0, 400.0])

    @given(st.integers(min_value=0, max_value=10**9), RATES)
    def test_nonnegative_and_monotone(self, nbytes, rate):
        t = serialization_ps(nbytes, rate)
        assert t >= 0
        assert serialization_ps(nbytes + 1, rate) >= t

    @given(st.integers(min_value=1, max_value=10**6), RATES)
    def test_additive(self, nbytes, rate):
        a = serialization_ps(nbytes, rate)
        # Paper rates divide 8000 evenly, so serialization is exactly linear.
        assert serialization_ps(2 * nbytes, rate) == 2 * a


class TestCdfProperties:
    @st.composite
    def cdfs(draw):
        n = draw(st.integers(min_value=2, max_value=8))
        sizes = sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=10**8),
                    min_size=n,
                    max_size=n,
                    unique=True,
                )
            )
        )
        probs = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=0.99),
                    min_size=n - 1,
                    max_size=n - 1,
                )
            )
        )
        return PiecewiseCdf(list(zip(sizes, probs + [1.0])))

    @given(cdfs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_samples_in_support(self, cdf, seed):
        rng = random.Random(seed)
        x = cdf.sample(rng)
        assert 1 <= x <= cdf.sizes[-1] + 1

    @given(cdfs())
    @settings(max_examples=50, deadline=None)
    def test_quantiles_monotone(self, cdf):
        qs = [cdf.sample(SimpleNamespace(random=lambda q=q: q / 10)) for q in range(11)]
        assert qs == sorted(qs)

    @given(cdfs())
    @settings(max_examples=50, deadline=None)
    def test_mean_within_support(self, cdf):
        m = cdf.mean()
        assert 0 <= m <= cdf.sizes[-1]


class TestIdealFctProperties:
    LINKS = st.lists(
        st.tuples(
            st.sampled_from([25.0, 100.0, 400.0]),
            st.integers(min_value=0, max_value=10**7),
        ),
        min_size=1,
        max_size=6,
    )

    @given(st.integers(min_value=1, max_value=10**7), LINKS)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_size(self, size, links):
        assert ideal_fct_ps(size + 1000, links) >= ideal_fct_ps(size, links)

    @given(st.integers(min_value=1, max_value=10**6), LINKS)
    @settings(max_examples=60, deadline=None)
    def test_extra_hop_never_faster(self, size, links):
        longer = links + [(100.0, us(1))]
        assert ideal_fct_ps(size, longer) >= ideal_fct_ps(size, links)

    @given(st.integers(min_value=1, max_value=10**6), LINKS)
    @settings(max_examples=60, deadline=None)
    def test_at_least_bottleneck_time(self, size, links):
        bottleneck = min(r for r, _ in links)
        assert ideal_fct_ps(size, links) >= serialization_ps(size, bottleneck)


class TestHashProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_stable(self, parts):
        assert stable_hash64(*parts) == stable_hash64(*parts)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=100)
    def test_canonical_symmetry_for_ecmp(self, a, b, n):
        """The symmetric-ECMP construction: canonicalized inputs give the
        same bucket in both directions."""
        lo, hi = min(a, b), max(a, b)
        assert stable_hash64(lo, hi, 7) % n == stable_hash64(lo, hi, 7) % n

    def test_bucket_balance(self):
        counts = [0, 0, 0, 0]
        for f in range(4000):
            counts[stable_hash64(3, 99, f) % 4] += 1
        assert min(counts) > 800  # roughly uniform


class TestHpccWindowProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2_000_000),  # qlen
                st.integers(min_value=0, max_value=200_000),  # tx delta
            ),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_window_always_within_bounds(self, samples):
        """Whatever INT sequence arrives, W stays in [min_window, W_init]."""
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).parent.parent / "cc"))
        from cc_helpers import FakeQP, make_ack

        from repro.cc.hpcc import Hpcc

        cc = Hpcc()
        qp = FakeQP()
        cc.on_flow_start(qp)
        tx = 0
        for i, (qlen, dtx) in enumerate(samples):
            tx += dtx
            qp.snd_nxt += 5000
            recs = [{"B": 100.0, "ts": us(1 + i), "tx": tx, "q": qlen}]
            cc.on_ack(qp, make_ack(seq=1 + i * 5000, records=recs))
            assert cc.config.min_window_bytes <= qp.window <= cc.w_init
            assert qp.rate_gbps >= 0


class TestPfcLosslessnessProperty:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_random_incast_is_lossless(self, seed, n_senders):
        """PFC with sane thresholds never drops, whatever the arrival jitter."""
        from repro.experiments.common import build_cc_env, launch_flows
        from repro.sim.rng import SeedSequenceFactory
        from repro.topo.star import star
        from repro.transport.flow import Flow

        rng = random.Random(seed)
        sim = Simulator()
        env = build_cc_env("dcqcn")  # most aggressive queue builder
        topo = star(
            sim,
            n_senders + 1,
            switch_config=env.switch_config,
            seeds=SeedSequenceFactory(1),
            cnp_enabled=True,
        )
        flows = [
            Flow(i, i, n_senders, rng.randrange(10_000, 400_000), start_ps=us(rng.uniform(0, 50)))
            for i in range(n_senders)
        ]
        launch_flows(topo, flows, env)
        sim.run(until=us(3000))
        assert sum(sw.drops for sw in topo.switches) == 0
