"""Claim check: §5.4.1 theoretical model vs simulation (the Fig. 12 analysis)."""

from repro.experiments.theory import run_theory


def test_theory_vs_simulation():
    rows = run_theory(duration_us=500.0)

    print("\n§5.4.1 theory vs measured response gap (us)")
    print(f"{'loc':>7} {'theory gain':>12} {'measured':>9}")
    for loc, r in rows.items():
        print(f"{loc:>7} {r['theory_gain_us']:12.2f} {r['measured_gap_us']:9.2f}")
    print(f"last hop + LHCS: {rows['last']['measured_gap_with_lhcs_us']:.2f}")

    # The model's ordering must show up in simulation.
    assert rows["first"]["measured_gap_us"] > rows["last"]["measured_gap_us"]
    # And LHCS must recover the last hop's small gain (Alg. 2's purpose).
    assert (
        rows["last"]["measured_gap_with_lhcs_us"]
        > rows["last"]["measured_gap_us"]
    )
