"""Hybrid packet/flow co-simulation backend.

Two coupled tiers (DESIGN.md §6): flows whose paths never cross a
congested link advance in closed form under the incremental max-min fluid
model (:mod:`repro.hybrid.fluid`); flows crossing a congested link are
demoted to the full packet engine with live congestion control
(:mod:`repro.hybrid.backend`).  The tiers exchange state at congestion-
epoch boundaries: fluid background load is presented to packet-tier ports
as serializer-time drains, and measured packet throughput is fed back to
the fluid tier as residual link capacities.

Entry points:

* :func:`repro.hybrid.backend.run_fct_hybrid` — one (CC, workload) cell
  under the hybrid backend, mirroring ``run_fct_experiment``.
* :func:`repro.experiments.fct_experiment.run_fct_summary` — its
  ``backend="packet"|"hybrid"`` argument (the runner's ``--backend``) is
  the backend selection.  An all-fluid run (no CC dynamics, so every CC
  gives the same FCTs) is ``HybridConfig(threshold=None)``, which the
  fidelity gate reaches as ``--threshold inf``; ``fncc-exp`` offers none.
* ``python -m repro.hybrid.validate`` — the fidelity gate against
  packet-level ground truth.
"""

from repro.hybrid.fluid import FluidEngine, FluidStallError

__all__ = ["FluidEngine", "FluidStallError"]
