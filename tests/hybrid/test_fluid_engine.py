"""Incremental max-min fluid engine: exactness, stalls, capacity
schedules, and the tier-exchange instrumentation the hybrid backend
reads (congestion intervals, background byte integrals)."""

import pytest

from repro.analysis.flowsim import FlowLevelSimulator
from repro.hybrid.fluid import FluidEngine, FluidStallError
from repro.transport.flow import Flow
from repro.units import MB, us


def simple_sim():
    fls = FlowLevelSimulator()
    fls.add_link("a", "s", 100.0, us(1))
    fls.add_link("b", "s", 100.0, us(1))
    fls.add_link("s", "r", 100.0, us(1))
    return fls


def path_via_s(flow):
    src = "a" if flow.src == 0 else "b"
    return [(src, "s"), ("s", "r")]


class TestExactness:
    def test_matches_brute_force_global_waterfill(self):
        """The incremental ripple must land on the same max-min allocation
        as recomputing the exact global waterfill at every event."""
        # Capacities in bytes/ps (10/25/40 Gb/s).
        caps = [10.0 / 8000, 25.0 / 8000, 40.0 / 8000]
        paths = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
        sizes = [3 * MB, 1 * MB, 5 * MB, 2 * MB, 4 * MB, 1 * MB]
        starts = [0, us(10), us(25), us(40), us(55), us(70)]

        def brute_force():
            # Event-driven exact max-min: recompute the full waterfill on
            # every arrival/completion, advance to the next event.
            rem = {i: float(s) for i, s in enumerate(sizes)}
            done, finish, t = set(), {}, 0.0
            while len(done) < len(sizes):
                active = [i for i in rem if i not in done and starts[i] <= t + 1e-6]
                rates = {i: 0.0 for i in active}
                avail = dict(enumerate(caps))
                frozen = set()
                while len(frozen) < len(active):
                    load = {l: 0 for l in avail}
                    for i in active:
                        if i in frozen:
                            continue
                        for l in paths[i]:
                            load[l] += 1
                    share, bl = min(
                        (avail[l] / load[l], l) for l in load if load[l]
                    )
                    for i in active:
                        if i in frozen or bl not in paths[i]:
                            continue
                        rates[i] = share
                        frozen.add(i)
                        for l in paths[i]:
                            avail[l] -= share
                next_arrival = min(
                    (starts[i] for i in rem if i not in done and starts[i] > t),
                    default=float("inf"),
                )
                next_completion, who = float("inf"), None
                for i in active:
                    if rates[i] > 0 and rem[i] / rates[i] + t < next_completion:
                        next_completion, who = rem[i] / rates[i] + t, i
                nxt = min(next_arrival, next_completion)
                assert nxt != float("inf")
                for i in active:
                    rem[i] -= rates[i] * (nxt - t)
                t = nxt
                if next_completion <= next_arrival and who is not None:
                    done.add(who)
                    finish[who] = t
            return finish

        eng = FluidEngine(caps, rate_eps=0.0)
        for i in range(len(sizes)):
            eng.add_flow(list(paths[i]), sizes[i], starts[i])
        got = {r.index: r.finish for r in eng.run()}
        want = brute_force()
        for i in want:
            assert got[i] == pytest.approx(want[i], rel=1e-6)

    def test_rate_eps_zero_single_flow_is_clean(self):
        eng = FluidEngine([100.0 / 8000], rate_eps=0.0)
        eng.add_flow([0], 10 * MB, 0)
        (res,) = eng.run()
        assert res.clean
        # 10 MB at 100 Gb/s: size / (bytes/ps).
        assert res.finish == pytest.approx(10 * MB * 8000.0 / 100.0)

    def test_sharing_marks_flows_dirty(self):
        eng = FluidEngine([100.0 / 8000], rate_eps=0.0)
        eng.add_flow([0], 10 * MB, 0)
        eng.add_flow([0], 10 * MB, 0)
        for res in eng.run():
            assert not res.clean


class TestRippleRounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            FluidEngine([100.0], ripple_rounds=0)

    def test_capped_ripple_still_conserves_flows(self):
        fls = simple_sim()
        flows = [Flow(i, i % 2, 9, (i + 1) * MB, start_ps=us(40 * i)) for i in range(8)]
        res = fls.run(flows, path_via_s, ripple_rounds=1)
        assert len(res.records) == 8
        # Capacity is never overcommitted, so no slowdown dips below 1.
        assert min(r.slowdown for r in res.records) >= 0.99


class TestInputs:
    def test_path_crossing_a_link_twice_is_rejected_at_add_flow(self):
        # Used to be accepted and die at the flow's completion, on the
        # second ``del on_link[0][i]``, with a bare ``KeyError: 0``.
        eng = FluidEngine([1.0, 1.0])
        with pytest.raises(ValueError, match="link id 0 more than once"):
            eng.add_flow([0, 1, 0], 1000.0, 0)
        eng.add_flow([0, 1], 1000.0, 0)
        assert len(eng.run()) == 1

    def test_an_engine_runs_once(self):
        # A second run used to re-simulate on the first one's leftover
        # loads, capacities and history, and doubled every counter.
        eng = FluidEngine([1.0], keep_history=True)
        eng.add_flow([0], 1000.0, 0)
        eng.run()
        counters = (eng.n_events, eng.n_rate_changes, eng.n_waterfills, len(eng.history))
        with pytest.raises(RuntimeError, match="called twice"):
            eng.run()
        assert counters == (eng.n_events, eng.n_rate_changes, eng.n_waterfills, len(eng.history))


class TestStall:
    def test_stall_error_is_a_clean_runtime_error(self):
        # The guard for "every active flow has zero max-min rate" (the old
        # bare `min() arg is an empty sequence` crash) is a typed error.
        assert issubclass(FluidStallError, RuntimeError)

    def test_zero_capacity_schedule_rejected_up_front(self):
        # Zero capacity is not representable (it could strand flows with
        # no future event to wake them); the schedule validates instead of
        # stalling mid-run.
        fls = simple_sim()
        sched = [(0, ("s", "r"), 0.0)]
        with pytest.raises(ValueError, match="capacity schedule"):
            fls.run([Flow(0, 0, 9, MB)], path_via_s, cap_schedule=sched)

    def test_late_zero_capacity_entry_costs_no_simulation(self, monkeypatch):
        # The bad entry sits 10 ms in: validating it when the loop reaches
        # it would simulate 10 ms first.  It must fail before any event.
        runs = []
        monkeypatch.setattr(FluidEngine, "run", lambda self: runs.append(self))
        sched = [(0, ("s", "r"), 50.0), (us(10_000), ("s", "r"), 0.0)]
        with pytest.raises(ValueError, match="capacity schedule"):
            simple_sim().run([Flow(0, 0, 9, 100 * MB)], path_via_s, cap_schedule=sched)
        assert runs == []  # n_events == 0: the loop was never entered

    def test_engine_validates_schedule_at_construction(self):
        with pytest.raises(ValueError, match="capacity schedule"):
            FluidEngine([1.0, 1.0], cap_schedule=[(us(10_000), 1, -0.5)])
        with pytest.raises(KeyError, match="unknown link id 2"):
            FluidEngine([1.0, 1.0], cap_schedule=[(us(10_000), 2, 0.5)])

    def test_schedule_rejects_unknown_link_by_name(self):
        # Like replay_bg and flow paths: name the link, not a bare KeyError.
        with pytest.raises(KeyError, match=r"capacity schedule: unknown link \('a', 'zz'\)"):
            simple_sim().run(
                [Flow(0, 0, 9, MB)], path_via_s, cap_schedule=[(0, ("a", "zz"), 50.0)]
            )

    def test_deep_capacity_dip_recovers(self):
        fls = simple_sim()
        sched = [(0, ("s", "r"), 0.1), (us(100), ("s", "r"), 100.0)]
        res = fls.run([Flow(0, 0, 9, MB)], path_via_s, cap_schedule=sched)
        assert len(res.records) == 1
        # The flow crawled at 0.1 Gb/s for 100 us, then ran at line rate.
        assert res.records[0].fct_ps > us(100)


class TestCapSchedule:
    def test_halved_capacity_doubles_fct(self):
        fls = simple_sim()
        base = fls.run([Flow(0, 0, 9, 10 * MB)], path_via_s)
        halved = simple_sim().run(
            [Flow(0, 0, 9, 10 * MB)],
            path_via_s,
            cap_schedule=[(0, ("s", "r"), 50.0)],
        )
        assert halved.records[0].fct_ps == pytest.approx(
            2 * base.records[0].fct_ps, rel=0.01
        )


class TestTierExchange:
    def test_congestion_intervals_recorded_above_threshold(self):
        fls = simple_sim()
        flows = [Flow(0, 0, 9, 10 * MB), Flow(1, 1, 9, 10 * MB)]
        res = fls.run(flows, path_via_s, congestion=(0.9, 2))
        ivs = res.congestion_intervals.get(("s", "r"))
        assert ivs, "two full-rate flows sharing s->r must flag it congested"
        # The overlap period (both flows active, 100% utilization).
        assert ivs[0][1] > ivs[0][0]
        # Single-flow links never have >= 2 flows: not congested.
        assert ("a", "s") not in res.congestion_intervals

    def test_min_link_flows_gates_congestion(self):
        fls = simple_sim()
        flows = [Flow(0, 0, 9, 10 * MB), Flow(1, 1, 9, 10 * MB)]
        res = fls.run(flows, path_via_s, congestion=(0.9, 3))
        assert ("s", "r") not in res.congestion_intervals

    def test_bg_bytes_integrates_flow_volume(self):
        fls = simple_sim()
        flows = [Flow(0, 0, 9, 10 * MB), Flow(1, 1, 9, 4 * MB)]
        res = fls.run(flows, path_via_s, keep_history=True)
        bg = fls.replay_bg(res, us(50), [("s", "r")], [0, 1])
        total = sum(bg[("s", "r")].values())
        # Wire bytes exceed payload (header overhead), within a few %.
        assert total >= 14 * MB
        assert total <= 14.8 * MB

    def test_bg_subset_only_counts_listed_flows(self):
        fls = simple_sim()
        flows = [Flow(0, 0, 9, 10 * MB), Flow(1, 1, 9, 4 * MB)]
        res = fls.run(flows, path_via_s, keep_history=True)
        bg = fls.replay_bg(res, us(50), [("s", "r")], [1])
        total = sum(bg[("s", "r")].values())
        assert 4 * MB <= total <= 4.3 * MB
        # Links the listed flows never cross are left out, not zero-filled.
        assert fls.replay_bg(res, us(50), [("a", "s")], [1]) == {}

    def test_replay_rejects_unknown_link_by_name(self):
        fls = simple_sim()
        res = fls.run([Flow(0, 0, 9, MB)], path_via_s, keep_history=True)
        with pytest.raises(KeyError, match=r"\('s', 'nowhere'\)"):
            fls.replay_bg(res, us(50), [("s", "r"), ("s", "nowhere")], [0])

    def test_history_is_kept_only_on_request(self):
        fls = simple_sim()
        res = fls.run([Flow(0, 0, 9, MB)], path_via_s)
        assert res.history is None
        with pytest.raises(RuntimeError, match="keep_history"):
            fls.replay_bg(res, us(50), [("s", "r")], [0])
        kept = fls.run([Flow(0, 0, 9, MB)], path_via_s, keep_history=True)
        # One flow alone: rate up at start, down at finish.
        assert len(kept.history) == 2 == kept.n_rate_changes


class TestOverCommit:
    def test_a_share_below_zero_is_clamped(self):
        # With rate_eps and one ripple round, a capacity cut leaves link 2
        # over-committed by flows the round did not move: the flows the
        # next waterfill solves find less than nothing left, and get zero.
        eng = FluidEngine([1.0, 0.7, 3.3], cap_schedule=[(5, 2, 0.01)],
                          ripple_rounds=1, rate_eps=0.1)
        flows = [([2], 64.0, 2), ([1], 117.0, 4), ([0], 151.0, 27), ([2], 41.0, 14),
                 ([2, 0, 1], 22.0, 14), ([2], 44.0, 18), ([0, 2], 156.0, 19)]
        for links, size, start in flows:
            eng.add_flow(links, size, start)
        assert len(eng.run()) == len(flows)
