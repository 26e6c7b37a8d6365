"""Claim check: paper-scale (k=8, 128 hosts) cross-validation via the
flow-level model, justifying DESIGN.md's scaling substitution."""

from repro.experiments.paper_scale import run_flow_level, shape_correlation


def test_paper_scale_cross_validation(paper_scale):
    n_flows = 2000 if paper_scale else 800
    full = run_flow_level(k=8, n_flows=n_flows, scale=1.0, seed=1)
    scaled = run_flow_level(k=4, n_flows=n_flows, scale=0.1, seed=1)
    rho = shape_correlation(full, scaled)
    print(
        f"\nk=8 full-size vs k=4 x0.1 (flow-level, {n_flows} WebSearch flows @50%):"
        f"\n  overall avg slowdown: {full.aggregate('average'):.2f} vs {scaled.aggregate('average'):.2f}"
        f"\n  overall p95 slowdown: {full.aggregate('p95'):.2f} vs {scaled.aggregate('p95'):.2f}"
        f"\n  per-bin p95 rank correlation: {rho:.2f}"
    )
    assert rho > 0.4, "scaling must preserve the per-bin shape"
    assert full.aggregate("average") >= 1.0
