"""The CC × LB matrix experiment: determinism, the expected ordering on
the fat-tree permutation scenario, and full-sweep plumbing."""

import pytest

from repro.experiments.lbmatrix import (
    CCS,
    LBS,
    TOPOS,
    WORKLOADS,
    format_matrix,
    run_lb_cell,
    run_lbmatrix,
)


class TestDeterminism:
    @pytest.mark.parametrize("lb", LBS)
    def test_same_seed_identical_fcts(self, lb):
        a = run_lb_cell(lb, "fncc", seed=5)
        b = run_lb_cell(lb, "fncc", seed=5)
        fp = a.fct_fingerprint()
        assert fp == b.fct_fingerprint()
        assert len(fp) == a.n_flows  # every permutation flow completed

    def test_different_seeds_differ(self):
        a = run_lb_cell("spray", "fncc", seed=1)
        b = run_lb_cell("spray", "fncc", seed=2)
        assert a.fct_fingerprint() != b.fct_fingerprint()


class TestPermutationOrdering:
    """The acceptance property: spreading beats per-flow hashing when ECMP
    collisions stack elephants onto shared uplinks."""

    @pytest.fixture(scope="class")
    def cells(self):
        return {
            lb: run_lb_cell(lb, "fncc", topo_name="fattree", workload="permutation", seed=1)
            for lb in LBS
        }

    def test_all_complete(self, cells):
        for lb, cell in cells.items():
            assert cell.completed() == cell.n_flows, lb

    def test_spray_beats_ecmp_mean_fct(self, cells):
        assert cells["spray"].mean_fct_us < cells["ecmp"].mean_fct_us

    def test_flowlet_beats_ecmp_mean_fct(self, cells):
        assert cells["flowlet"].mean_fct_us < cells["ecmp"].mean_fct_us

    def test_spray_near_ideal(self, cells):
        # Per-packet spraying over a 1:1 fat-tree should cut mean slowdown
        # far below collision-prone per-flow ECMP.
        # An unbinned cell's table holds every flow: its average is the
        # mean slowdown.
        spray, ecmp = (cells[lb].table.aggregate("average") for lb in ("spray", "ecmp"))
        assert spray < 0.75 * ecmp

    def test_conweave_completes_with_reroutes_possible(self, cells):
        cell = cells["conweave"]
        assert cell.completed() == cell.n_flows
        # Epoch machinery must not corrupt FCTs: no flow slower than a
        # generous multiple of the ECMP mean.
        assert cell.mean_fct_us < 3 * cells["ecmp"].mean_fct_us


class TestSweepPlumbing:
    def test_small_sweep_covers_keys(self):
        cells = run_lbmatrix(
            lbs=("ecmp", "spray"),
            ccs=("fncc",),
            topos=("fattree",),
            workloads=("permutation",),
            seed=1,
        )
        assert set(cells) == {
            ("fattree", "permutation", "ecmp", "fncc"),
            ("fattree", "permutation", "spray", "fncc"),
        }
        out = format_matrix(cells, "mean_fct_us")
        assert "fattree / permutation" in out
        assert "spray" in out

    def test_jellyfish_websearch_cell(self):
        cell = run_lb_cell(
            "flowlet",
            "dcqcn",
            topo_name="jellyfish",
            workload="websearch",
            n_flows=30,
            seed=1,
        )
        assert cell.completed() == 30

    def test_matrix_constants(self):
        assert set(LBS) == {"ecmp", "spray", "flowlet", "conweave"}
        assert set(CCS) == {"dcqcn", "hpcc", "fncc"}
        assert set(TOPOS) == {"fattree", "jellyfish"}
        assert set(WORKLOADS) == {"permutation", "websearch"}

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            run_lb_cell("ecmp", "fncc", topo_name="torus")
        with pytest.raises(ValueError):
            run_lb_cell("ecmp", "fncc", workload="uniform")
