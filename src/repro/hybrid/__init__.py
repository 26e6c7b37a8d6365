"""Hybrid packet/flow co-simulation backend.

Two coupled tiers (DESIGN.md §6): flows whose paths never cross a
congested link advance in closed form under the incremental max-min fluid
model (:mod:`repro.hybrid.fluid`); flows crossing a congested link are
demoted to the full packet engine with live congestion control
(:mod:`repro.hybrid.backend`).  The tiers exchange state at congestion-
epoch boundaries: fluid background load is presented to packet-tier ports
as serializer-time drains, and measured packet throughput is fed back to
the fluid tier as residual link capacities.

A library and scale tool: ``fncc-exp`` runs the packet engine alone,
since at the figures' sizes the default :class:`~repro.hybrid.backend.HybridConfig`
demotes 92–99.6 % of the flows and the cell is no faster (DESIGN.md §6).

Entry points:

* :func:`repro.hybrid.backend.run_fct_hybrid` — one (CC, workload) cell
  under the hybrid backend, mirroring ``run_fct_experiment``.  An
  all-fluid run (no CC dynamics, so every CC gives the same FCTs) is
  ``HybridConfig(threshold=None)``, which the fidelity gate reaches as
  ``--threshold inf``.
* ``python -m repro.hybrid.validate`` — the fidelity gate against
  packet-level ground truth.
* The 10 k / 100 k-flow strict recipe of DESIGN.md §6.
"""

from repro.hybrid.fluid import FluidEngine, FluidStallError

__all__ = ["FluidEngine", "FluidStallError"]
