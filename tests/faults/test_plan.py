"""FaultPlan: plain-data schedules — validation, fingerprints, pickling."""

import pickle

import pytest

from repro.faults import FaultPlan
from repro.units import us


def build_reference_plan():
    return (
        FaultPlan("ref")
        .link_down("a", "b", at_ps=us(10))
        .link_flap("a", "c", start_ps=us(5), flaps=3, down_ps=us(2), up_ps=us(2))
        .switch_fail("s1", at_ps=us(30))
        .gray_loss("a", "b", start_ps=us(1), end_ps=us(9), prob=0.05)
        .pfc_storm(
            "s1", toward="h0", start_ps=us(2), duration_ps=us(8),
            interval_ps=us(1),
        )
    )


def test_builders_chain_and_record_specs():
    plan = build_reference_plan()
    assert len(plan) == 5
    assert bool(plan)
    kinds = [s["kind"] for s in plan.specs]
    assert kinds == ["link_down", "link_flap", "switch_fail", "gray_loss", "pfc_storm"]


def test_noop_is_falsy_and_empty():
    plan = FaultPlan.noop()
    assert len(plan) == 0
    assert not plan


def test_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        FaultPlan("p").link_down("a", "b", at_ps=-1)
    with pytest.raises(ValueError):
        FaultPlan("p").gray_loss("a", "b", start_ps=0, end_ps=us(1), prob=1.5)
    with pytest.raises(ValueError):
        FaultPlan("p").link_down("", "b", at_ps=0)


def test_fingerprint_is_deterministic_and_content_addressed():
    a = build_reference_plan()
    b = build_reference_plan()
    assert a.fingerprint() == b.fingerprint()
    assert a == b
    c = build_reference_plan().link_down("x", "y", at_ps=us(99))
    assert a.fingerprint() != c.fingerprint()
    assert a != c


def test_pickle_round_trip_preserves_identity():
    # RunSpec workers receive plans by pickle; the round trip must be exact
    # or pooled cells would diverge from serial ones.
    plan = build_reference_plan()
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.fingerprint() == plan.fingerprint()
    assert clone.name == plan.name
