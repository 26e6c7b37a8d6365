"""Zero-perturbation property suite (DESIGN.md §8).

Registry/counter-level observability is pull-based: enabling a full
:class:`repro.obs.RunObservability` bundle (registry + tracer + flight
recorder) must leave every simulation observable byte-identical — FCT
fingerprints, every per-port counter, the PFC frame
ledger — on the fused hop path and on the classic-only reference
(:func:`helpers.classic_hops_only`), and must NOT close the frame-train
gate (unlike :class:`helpers.PacketTap`, which wraps ``receive`` and
therefore demotes trains).

Extends the A/B pattern of ``tests/property/test_trains.py`` with a third
axis: obs on vs off.
"""

from contextlib import nullcontext

import pytest

from helpers import classic_hops_only
from repro.experiments.common import portstats_fingerprint
from repro.experiments.fct_experiment import run_fct_experiment
from repro.experiments.lbmatrix import run_lb_cell
from repro.metrics import pfc_frame_totals, port_totals
from repro.obs import EventTracer, FlightRecorder, MetricsRegistry, RunObservability


def port_stats_fingerprint(topo):
    """:func:`portstats_fingerprint` without its ``train_frames`` column,
    which the classic-only reference leaves at zero."""
    return tuple(row[:-1] for row in portstats_fingerprint(topo))


def train_frames_total(topo):
    return port_totals(topo.nodes())["train_frames"]


def _full_bundle(tmp_path=None):
    return RunObservability(
        registry=MetricsRegistry(),
        tracer=EventTracer(),
        flight=FlightRecorder(path=str(tmp_path / "fr.json") if tmp_path else None),
    )


def _fig14_obs(obs):
    r = run_fct_experiment(
        "fncc", workload="websearch", n_flows=60, seed=5, max_horizon_ms=30.0,
        obs=obs,
    )
    if obs is not None:
        obs.detach()
    return (
        r.fct_fingerprint(),
        port_stats_fingerprint(r.topo),
        pfc_frame_totals(r.topo.nodes()),
        train_frames_total(r.topo),
    )


def _pause_storm_obs(obs):
    # Tight XOFF threshold: real PAUSE/RESUME traffic, the regime where a
    # careless _send_pfc wrapper would shift wire timestamps.
    r = run_fct_experiment(
        "fncc", workload="websearch", n_flows=40, seed=3, max_horizon_ms=30.0,
        pfc_xoff=40_000, obs=obs,
    )
    if obs is not None:
        obs.detach()
    return (
        r.fct_fingerprint(),
        port_stats_fingerprint(r.topo),
        pfc_frame_totals(r.topo.nodes()),
        train_frames_total(r.topo),
    )


def _lb_cell_obs(obs):
    cell = run_lb_cell(
        "conweave", "fncc", workload="websearch", n_flows=50, seed=4, obs=obs
    )
    if obs is not None:
        obs.detach()
    return (
        cell.fct_fingerprint(),
        port_stats_fingerprint(cell.topo),
        pfc_frame_totals(cell.topo.nodes()),
        train_frames_total(cell.topo),
    )


def _ab_obs(run, trains: bool):
    """The same scenario with obs off and with a full bundle attached;
    ``trains=False`` runs both on the classic-only reference path."""
    with nullcontext() if trains else classic_hops_only():
        plain = run(None)
        observed = run(_full_bundle())
    return plain, observed


class TestObsIsByteIdentical:
    @pytest.mark.parametrize("trains", [True, False], ids=["trains-on", "trains-off"])
    def test_fig14_slice(self, trains):
        plain, observed = _ab_obs(_fig14_obs, trains)
        assert plain[:3] == observed[:3]
        # Gate guard: registry/tracer hooks must not close the train gate —
        # the fused path fires equally with and without the bundle.
        assert plain[3] == observed[3]
        if trains:
            assert observed[3] > 0, "trains must engage with obs attached"
        else:
            assert observed[3] == 0

    @pytest.mark.parametrize("trains", [True, False], ids=["trains-on", "trains-off"])
    def test_pause_storm(self, trains):
        plain, observed = _ab_obs(_pause_storm_obs, trains)
        assert plain[:3] == observed[:3]
        assert plain[3] == observed[3]
        assert plain[2]["pause_sent"] > 0, "scenario must exercise PFC"

    @pytest.mark.parametrize("trains", [True, False], ids=["trains-on", "trains-off"])
    def test_lbmatrix_conweave_slice(self, trains):
        plain, observed = _ab_obs(_lb_cell_obs, trains)
        assert plain[:3] == observed[:3]
        assert plain[3] == observed[3]


    def test_fig14_quick_traced_cells_are_the_plain_cells(self, tmp_path):
        """``fncc-exp fig14 --quick --trace`` must run the cells the plain
        row runs: the observed path reads k / load / scale off
        ``run_fig14``'s defaults instead of re-typing them."""
        from repro.experiments import fig14_websearch as fig14

        plain = fig14.run_fig14(n_flows=60)
        traced = fig14._run_fig14_observed(
            fig14.CCS, seed=1, n_flows=60,
            trace=str(tmp_path / "fig14.json"), progress=False,
        )
        for cc in fig14.CCS:
            assert plain[cc].fct_fingerprint() == traced[cc].fct_fingerprint(), cc
            assert plain[cc].bins == traced[cc].bins


class TestTraceHooksObserve:
    def test_pfc_and_flow_events_captured_without_perturbation(self):
        obs = _full_bundle()
        _pause_storm_obs(obs)
        assert obs.tracer.counts["flow"] > 0
        assert obs.tracer.counts["pfc"] > 0
        snap = obs.snapshot()
        assert snap["counters"]["pfc.pause_sent"] > 0
        assert snap["counters"]["flows.completed"] > 0

    def test_lb_reroute_callback_fires(self):
        obs = _full_bundle()
        cell_obs = _lb_cell_obs(obs)
        snap = obs.snapshot()
        # The cell must exercise rerouting for the lb category to matter.
        if snap["counters"].get("lb.reroutes", 0) > 0:
            assert obs.tracer.counts["lb"] > 0
        assert snap["counters"]["lb.probes"] > 0
        assert cell_obs[0]  # flows completed


class TestObservabilityBundle:
    def test_a_nested_tracer_restores_the_outer_one_s_hooks(self, sim):
        from helpers import make_dumbbell

        topo, _env = make_dumbbell(sim, cc="fncc")
        sw, host = topo.switches[0], topo.hosts[0]
        outer, inner = EventTracer(), EventTracer()
        outer.attach(topo)
        hooked = (sw._send_pfc, host.start_flow, host.on_flow_received)
        inner.attach(topo)
        inner.detach()
        assert (sw._send_pfc, host.start_flow, host.on_flow_received) == hooked
        outer.detach()
        assert not {"_send_pfc", "start_flow", "on_flow_received"} & (
            set(vars(sw)) | set(vars(host)))
