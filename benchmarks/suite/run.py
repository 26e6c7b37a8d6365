"""``python3 benchmarks/suite/run.py ...``: the command ``BENCHMARK.json``
names.  Same as ``PYTHONPATH=src python -m benchmarks.suite ...`` from the
repo root, without needing the environment set."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.suite.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
