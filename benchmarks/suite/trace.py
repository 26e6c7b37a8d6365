"""In-memory phase spans, recorded from the suite's own files.

A span row is one (cell, parent, name): calls that share all three are
folded into the same row (``n`` calls, ``dur`` seconds in total, first
``start`` and last ``end``), so a per-horizon call made thousands of times
costs one row.  A row's *self time* is ``dur`` minus its children's
``dur``.  Rows stay in memory and are written as one JSON at exit.

With tracing off, :meth:`Spans.span` hands back one shared no-op context
manager and :meth:`Spans.wrap` does nothing, so untraced cells run the
program's own code unpatched.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Callable, Dict, List, Optional

_OFF = nullcontext()


class Spans:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: List[dict] = []
        self.cell = -1
        self._open: Optional[int] = None
        self._index: Dict[tuple, int] = {}
        self._patched: List[tuple] = []
        self.missing: List[str] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _OFF

    @contextmanager
    def _span(self, name: str):
        parent = self._open
        key = (self.cell, parent, name)
        i = self._index.get(key)
        t0 = perf_counter()
        if i is None:
            i = self._index[key] = len(self.rows)
            self.rows.append(
                {"id": i, "cell": self.cell, "name": name, "parent": parent,
                 "start": t0, "end": t0, "dur": 0.0, "n": 0}
            )
        row = self.rows[i]
        self._open = i
        try:
            yield row
        finally:
            t1 = perf_counter()
            row["dur"] += t1 - t0
            row["n"] += 1
            row["end"] = t1
            self._open = parent

    def wrap(self, owner, attr: str, name, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module-level name or a method on a
        class) by a version that runs inside a span; only for steps buried
        inside a public entry point.  ``name`` is the span name, or a
        callable ``(args, kwargs) -> name``; ``after(row, args, result)``
        may record counts on the row.  A name the program no longer has is
        listed in :attr:`missing` and reported, not silently dropped."""
        if not self.enabled:
            return
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name if isinstance(name, str) else name(args, kwargs)) as row:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(row, args, result)
                return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def self_times(self, cell: int) -> Dict[str, float]:
        """Self seconds per span name in ``cell``."""
        child_dur: Dict[int, float] = {}
        for row in self.rows:
            if row["cell"] == cell and row["parent"] is not None:
                child_dur[row["parent"]] = child_dur.get(row["parent"], 0.0) + row["dur"]
        out: Dict[str, float] = {}
        for row in self.rows:
            if row["cell"] == cell:
                own = row["dur"] - child_dur.get(row["id"], 0.0)
                out[row["name"]] = out.get(row["name"], 0.0) + own
        return out

    def rows_named(self, cell: int, name: str) -> List[dict]:
        return [r for r in self.rows if r["cell"] == cell and r["name"] == name]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"schema": "suite-spans/v1", "spans": self.rows}, fh)
