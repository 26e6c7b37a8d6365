"""Runtime-sanitizer suite (DESIGN.md §9): the event-tie detector.

The two load-bearing claims, pinned here:

* the tie detector *sees* a seeded ordering hazard — two callbacks
  scheduled at the same timestamp from unrelated call sites — and
  attributes both sides to ``module:qualname``;
* turning the sanitizer on perturbs nothing: experiment fingerprints are
  byte-identical with ``REPRO_SANITIZE`` unset or ``tie`` (the
  zero-perturbation harness the trains/obs features already answer to).
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.sanitize import (
    TIE_REPORT_SCHEMA,
    callback_site,
    merge_tie_reports,
    parse_sanitize,
)

# -- module-level callbacks: the attribution targets -------------------------


def cb_alpha(_):
    pass


def cb_beta(_):
    pass


HERE = __name__  # the module half of this file's module:qualname sites


# -- sanitize spec parsing ---------------------------------------------------


def test_parse_sanitize_forms():
    assert parse_sanitize(None) == frozenset()
    assert parse_sanitize("") == frozenset()
    assert parse_sanitize("off") == frozenset()
    assert parse_sanitize("tie") == {"tie"}
    assert parse_sanitize(" off ; tie ") == {"tie"}
    assert parse_sanitize(["tie"]) == {"tie"}


def test_parse_sanitize_rejects_unknown():
    with pytest.raises(ValueError, match="unknown sanitize mode"):
        parse_sanitize("tie,typo")
    # "pool" is rejected like any unknown name, not accepted and ignored.
    for spec in ("pool", "tie,pool"):
        with pytest.raises(ValueError, match=r"\['pool'\]; valid: \['tie'\]"):
            parse_sanitize(spec)
    with pytest.raises(ValueError, match="unknown sanitize mode"):
        Simulator(sanitize="pool")


def test_env_default_read_at_construction(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "tie")
    sim = Simulator()
    assert sim.sanitize == {"tie"} and sim.tie_recorder is not None
    monkeypatch.delenv("REPRO_SANITIZE")
    off = Simulator()
    assert off.sanitize == frozenset() and off.tie_recorder is None
    assert off.tie_report() is None


def test_explicit_arg_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "tie")
    sim = Simulator(sanitize="")
    assert sim.sanitize == frozenset()


# -- event-tie detector ------------------------------------------------------


def test_injected_tie_detected_and_attributed():
    """The seeded ordering hazard: two callbacks, same timestamp, dispatch
    order decided only by insertion sequence.  The detector must record the
    pair and name both sites."""
    sim = Simulator(sanitize="tie")
    sim.schedule(100, cb_alpha)
    sim.schedule(100, cb_beta)
    sim.schedule(250, cb_alpha)  # un-tied: must not be recorded
    sim.run()
    rep = sim.tie_report()
    assert rep["schema"] == TIE_REPORT_SCHEMA
    assert rep["tied_pops"] == 1
    assert rep["total_pops"] == 3
    [site] = rep["sites"]
    assert site["popped"] == f"{HERE}:cb_alpha"
    assert site["pending"] == f"{HERE}:cb_beta"
    assert site["count"] == 1
    assert site["first_time_ps"] == 100


def test_tie_group_of_n_records_n_minus_1_pops():
    sim = Simulator(sanitize="tie")
    for _ in range(4):
        sim.schedule(77, cb_alpha)
    sim.run()
    rep = sim.tie_report()
    assert rep["tied_pops"] == 3
    [site] = rep["sites"]
    assert site["count"] == 3
    assert site["popped"] == site["pending"] == f"{HERE}:cb_alpha"


def test_bound_method_attribution_aggregates_by_class():
    class Ticker:
        __slots__ = ("fired",)

        def __init__(self):
            self.fired = 0

        def tick(self, _):
            self.fired += 1

    a, b = Ticker(), Ticker()
    sim = Simulator(sanitize="tie")
    sim.schedule(5, a.tick)
    sim.schedule(5, b.tick)
    sim.run()
    [site] = sim.tie_report()["sites"]
    # both instances collapse onto the one qualified function
    assert site["popped"].endswith("Ticker.tick") and site["popped"] == site["pending"]
    assert callback_site(a.tick) == site["popped"]


def test_cancelled_event_does_not_tie():
    sim = Simulator(sanitize="tie")
    sim.schedule(100, cb_alpha)
    ev = sim.schedule(100, cb_beta)
    ev.cancel()
    sim.run()
    rep = sim.tie_report()
    assert rep["tied_pops"] == 0 and rep["sites"] == []


def test_tie_detection_respects_run_horizon():
    sim = Simulator(sanitize="tie")
    sim.schedule(100, cb_alpha)
    sim.schedule(100, cb_beta)
    sim.schedule(900, cb_alpha)
    assert sim.run(until=500) == 2
    assert sim.tie_report()["tied_pops"] == 1
    assert sim.now == 500
    sim.run(until=1000)
    assert sim.tie_report()["total_pops"] == 3


def test_tie_report_merge():
    reps = []
    for seed_sites in (("a", "b"), ("a", "b"), ("c", "c")):
        reps.append(
            {
                "schema": TIE_REPORT_SCHEMA,
                "total_pops": 10,
                "tied_pops": 1,
                "site_pairs": 1,
                "sites": [
                    {
                        "popped": seed_sites[0],
                        "pending": seed_sites[1],
                        "count": 1,
                        "first_time_ps": 50,
                    }
                ],
            }
        )
    merged = merge_tie_reports(reps + [None])
    assert merged["total_pops"] == 30 and merged["tied_pops"] == 3
    assert [(s["popped"], s["count"]) for s in merged["sites"]] == [("a", 2), ("c", 1)]


# -- zero-perturbation: the sanitizer must not change results ----------------


@pytest.mark.parametrize("modes", ["tie"])
def test_fingerprints_byte_identical_with_sanitizers(modes, monkeypatch):
    from repro.experiments.fct_experiment import run_fct_experiment

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    base = run_fct_experiment(cc="fncc", n_flows=12, seed=11).fct_fingerprint()
    monkeypatch.setenv("REPRO_SANITIZE", modes)
    sanitized = run_fct_experiment(cc="fncc", n_flows=12, seed=11).fct_fingerprint()
    assert sanitized == base
