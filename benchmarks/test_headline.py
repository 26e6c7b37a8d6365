"""Claim check: the abstract's headline claims, end to end."""

from repro.experiments.headline import run_headline


def test_headline_claims():
    res = run_headline(seed=3)

    hp = res["hadoop_p95_reduction"]
    ws = res["websearch_median_reduction"]
    print("\nHeadline (paper -> measured):")
    print(
        f"  Hadoop <100KB p95 reduction: 27.4%/88.9% -> "
        f"hpcc={hp.get('hpcc', float('nan')):.1f}% dcqcn={hp.get('dcqcn', float('nan')):.1f}%"
    )
    print(
        f"  WebSearch >1MB median reduction: 12.4%/42.8% -> "
        f"hpcc={ws.get('hpcc', float('nan')):.1f}% dcqcn={ws.get('dcqcn', float('nan')):.1f}%"
    )
    print(f"  pause frames @400G: {res['pause_frames_400g']}")
    print(f"  utilization @400G: {res['utilization_400g']}")

    # Direction of every headline claim.
    assert hp["dcqcn"] > 0, "FNCC must beat DCQCN on short-flow tails"
    pf = res["pause_frames_400g"]
    assert pf["fncc"] <= pf["hpcc"] and pf["fncc"] <= pf["dcqcn"]
    assert res["utilization_400g"]["fncc"] > 0.85
