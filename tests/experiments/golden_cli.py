"""Golden figures: the ``golden_cli`` table of the identity store
(``tools/golden.py``).

Each row is the sha1 of everything ``fncc-exp <row>`` prints, run in
process, so the table pins what a user reads across commits.  It was
recorded from the commit before numpy left the figure path, which is that
change's proof that no printed digit moved.
"""

import contextlib
import functools
import hashlib
import io
from pathlib import Path

from repro.experiments.runner import main
from tools.golden import Table

#: Rows cheap enough for tier-1 (≈ 9 s together), as ``fncc-exp`` arguments.
TIER1_ROWS = (
    "fig1a",
    "fig13",
    "fig14 --quick",
    "fig15 --seed 1",
    "lbmatrix --quick",
    "faultmatrix --quick",
)

#: The rest of the catalogue (``slow``; fig9 alone is a minute).
#: The two full matrices are here because the ``--quick`` slices leave the
#: jellyfish, WebSearch and fault-profile cells unpinned; they were recorded
#: from the commit before those cells shared one fabric builder.
#: ``paper-scale`` was recorded from the commit before its rank correlation
#: left scipy for ``repro.metrics.stats.rank_correlation``.
SLOW_ROWS = (
    "fig1",
    "fig3",
    "fig9",
    "fig13e",
    "fig14",
    "fig15 --seed 7",
    "headline",
    "theory",
    "ablations",
    "lbmatrix",
    "faultmatrix",
    "paper-scale",
)


def stdout_sha1(row: str) -> str:
    """sha1 of what ``fncc-exp <row>`` prints, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(row.split()) == 0
    return hashlib.sha1(out.getvalue().encode()).hexdigest()


TABLES = (
    Table(
        Path(__file__).with_name("golden_cli.json"),
        rows={row: functools.partial(stdout_sha1, row) for row in TIER1_ROWS + SLOW_ROWS},
        slow=frozenset(SLOW_ROWS),
    ),
)
