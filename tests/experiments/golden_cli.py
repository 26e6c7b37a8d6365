"""Golden figures: what ``golden_cli.json`` records and how.

The table pins what a user reads *across commits* (ROADMAP "Pin the packet
engine", part (a), stdout half): the sha1 of everything ``fncc-exp <row>``
prints, per experiment.  It was recorded from the commit before numpy left
the figure path, which is that change's proof that no printed digit moved.
``test_golden_cli.py`` reruns the rows in-process and demands equality.  A
red row means a figure's text changed; drop the edit unless the change was
*meant* to move it, and then say why in CHANGES.md first — the recorder
refuses to write until the newest CHANGES.md entry names the table::

    PYTHONPATH=src python tests/experiments/golden_cli.py --rebless
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from repro.experiments.runner import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
CHANGES_PATH = Path(__file__).resolve().parents[2] / "CHANGES.md"

#: Rows cheap enough for tier-1 (≈ 9 s together), as ``fncc-exp`` arguments.
TIER1_ROWS = (
    "fig1a",
    "fig13",
    "fig14 --quick",
    "fig15 --seed 1",
    "lbmatrix --quick",
    "faultmatrix --quick",
)

#: The rest of the catalogue (``pytest -m slow``; fig9 alone is a minute).
#: ``paper-scale`` is absent: its last line needs scipy, an optional extra.
SLOW_ROWS = (
    "fig1",
    "fig3",
    "fig9",
    "fig13e",
    "fig14",
    "fig15 --seed 7",
    "headline",
    "theory",
    "related-work",
    "ablations",
)


def stdout_sha1(row: str) -> str:
    """sha1 of what ``fncc-exp <row>`` prints, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(row.split()) == 0
    return hashlib.sha1(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebless"]:
        sys.exit(__doc__)
    if GOLDEN_PATH.name not in CHANGES_PATH.read_text().rstrip().splitlines()[-1]:
        sys.exit(
            f"refusing: the newest CHANGES.md entry does not name {GOLDEN_PATH.name}; "
            "write down why the figures moved, then re-bless"
        )
    table = {}
    for row in TIER1_ROWS + SLOW_ROWS:
        table[row] = stdout_sha1(row)
        print(f"{table[row][:10]}  {row}")
    GOLDEN_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
