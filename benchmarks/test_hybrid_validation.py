"""Claim check: the hybrid backend's fidelity gate vs packet ground truth.

Runs :func:`repro.hybrid.validate.validate` on the fig14/fig15 scenarios:
per-size-bin mean slowdown within 10% and p99 within 20% of the packet
simulator, whole-distribution KS distance bounded, every flow completed.

Default runs gate the ``--quick`` slice (200 flows: means + KS — small
bins make a p99 the sample max, so the p99 check needs the full run);
``--paper-scale`` runs the full 400-flow gate, p99 checks included.
"""

import pytest

from repro.hybrid.validate import validate


@pytest.mark.parametrize("scenario", ["fig14", "fig15"])
def test_hybrid_validation_gate(scenario, paper_scale):
    report = validate(scenario, quick=not paper_scale)
    print("\n" + report.format())
    assert report.passed, "\n" + report.format()
    # The gate is only meaningful if the hybrid actually split the tiers:
    # a degenerate all-packet run would pass trivially.
    assert 0 < report.demoted <= report.n_flows
    assert report.completed_hybrid == report.n_flows
