"""Golden hybrid cells: what ``golden_hybrid.json`` records and how.

The table pins the hybrid backend's simulated output *across commits*
(ROADMAP item 4, hybrid slice): per cell, the FCT fingerprint, a digest of
every port counter, and the phase-stats dict.  ``test_golden.py`` recomputes
each cell and demands equality; re-bless only when a change is *meant* to
move simulated numbers, and justify it in CHANGES.md::

    PYTHONPATH=src python tests/hybrid/golden.py --rebless
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.experiments.common import portstats_fingerprint
from repro.hybrid.backend import HybridConfig, run_fct_hybrid

GOLDEN_PATH = Path(__file__).with_name("golden_hybrid.json")

#: Diagnostics added after the table was first recorded; they describe how
#: the answer was computed, not the answer, so they sit outside the pin.
UNPINNED_STATS = ("fluid_passes", "bg_replay_entries")


def _strict_config() -> HybridConfig:
    # benchmarks/suite/specs.py's hybrid_fluid_5k config, restated so the
    # table does not move when the benchmark is retuned.
    return HybridConfig(
        threshold=0.99, min_link_flows=10, congested_frac=0.9, refine_rounds=0,
        mouse_bytes=0, epoch_us=200.0, bg_quantum_bytes=64 * 1518,
    )


def _coin_flip(seed: int):
    # Keyed by flow id, not drawn from one stream: the partition must not
    # depend on how often or in what order the backend asks.
    return lambda flow: random.Random(f"{seed}:{flow.flow_id}").random() < 0.5


def _strict(seed: int):
    return lambda: run_fct_hybrid(
        "fncc", workload="websearch", k=8, load=0.4, n_flows=800, scale=0.01,
        seed=seed, config=_strict_config(),
    )


#: name -> zero-argument runner.  ``default_refining`` is DCQCN because only
#: ECN marks / PFC pauses / drops trigger refinement and FNCC cells of this
#: size produce none.
CELLS = {
    "strict_1001": _strict(1001),
    "strict_1002": _strict(1002),
    "strict_1003": _strict(1003),
    "default_refining": lambda: run_fct_hybrid(
        "dcqcn", workload="websearch", k=4, load=0.3, n_flows=60, scale=0.3,
        seed=2, config=HybridConfig(),
    ),
    "classify_fn_coin_flip": lambda: run_fct_hybrid(
        "fncc", workload="websearch", k=4, load=0.5, n_flows=30, scale=0.1,
        seed=2, classify_fn=_coin_flip(0),
    ),
}


def observe(result) -> dict:
    """The pinned view of one :class:`HybridFctResult`, JSON-shaped."""
    rows = portstats_fingerprint(result.topo) if result.sim is not None else ()
    return {
        "fct_fingerprint": [list(p) for p in result.fct_fingerprint()],
        "portstats_sha1": hashlib.sha1(repr(rows).encode()).hexdigest(),
        "stats": {
            k: v for k, v in sorted(result.stats.items()) if k not in UNPINNED_STATS
        },
    }


def record() -> dict:
    table = {name: observe(run()) for name, run in CELLS.items()}
    # A refining cell that stops refining pins nothing about refine rounds.
    assert table["default_refining"]["stats"]["refine_rounds"] >= 1
    return table


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebless"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN_PATH}")
