"""fncc-lint: invariant-enforcing static analysis for this repo.

DESIGN.md documents load-bearing invariants that plain Python cannot
express — determinism (§4), hot-path state ownership (§2), spec
picklability (§5), observability discipline (§8).  This package turns them
into machine-checked AST rules (DESIGN.md §9 is the catalog).  Run as
``fncc-lint`` (a ``[project.scripts]`` entry) or ``python -m tools.lint``.

Layout:

* :mod:`tools.lint.core` — finding/rule registry, suppression comments,
  per-file analysis context.
* :mod:`tools.lint.config` — ``DEFAULTS``, the repo policy (allow-lists,
  owner maps, hot-module lists), in one place.
* :mod:`tools.lint.baseline` — the checked-in findings baseline: existing
  debt fails CI only when it grows.
* ``rules_*`` modules — the D/P/H/O rule families.  Importing this package
  registers them all.
"""

from tools.lint import (  # noqa: F401  (import-for-registration)
    rules_determinism,
    rules_hotpath,
    rules_obs,
    rules_pickle,
    rules_shard,
)
from tools.lint.core import RULES, Finding, lint_paths, lint_source  # noqa: F401
