"""Fixture-snippet suite for every fncc-lint rule (DESIGN.md §9).

One violating, one clean, and one suppressed case per rule, driven through
:func:`tools.lint.lint_source` with the compiled-in policy config and
synthetic repo paths — the same entry point the CLI uses, minus the
filesystem walk.
"""

import os
import sys
import textwrap

import pytest

# ``tools.lint`` is a top-level package (packaged for the ``fncc-lint``
# entry point); import it from the repo root rather than an installed
# script.  Done here, not in a conftest: a tests/lint/conftest.py would
# collide with benchmarks/conftest.py under pytest's prepend import mode
# (both would claim the bare module name ``conftest``).
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from tools.lint import RULES, lint_source, rules_necessity
from tools.lint.config import DEFAULTS

#: A path inside the lint scope that is on no allow/owner/hot list.
NEUTRAL = "src/repro/experiments/fixture_mod.py"


def run(snippet, relpath=NEUTRAL, rules=None):
    return lint_source(textwrap.dedent(snippet), relpath, DEFAULTS, rules)


def rules_hit(snippet, relpath=NEUTRAL, rules=None):
    return sorted({f.rule for f in run(snippet, relpath, rules)})


# -- D101: ambient entropy ---------------------------------------------------

D101_BAD = """
    import random
    def jitter():
        return random.random()
"""


def test_d101_violation():
    findings = run(D101_BAD, rules=["D101"])
    assert [f.rule for f in findings] == ["D101"]
    assert "random.random" in findings[0].message


def test_d101_from_import_alias():
    assert rules_hit(
        """
        from random import shuffle
        def scramble(items):
            shuffle(items)
        """,
        rules=["D101"],
    ) == ["D101"]


def test_d101_unseeded_random_instance():
    assert rules_hit(
        """
        import random
        RNG = random.Random()
        """,
        rules=["D101"],
    ) == ["D101"]


def test_d101_id_ordering():
    assert rules_hit(
        """
        def order(flows):
            return sorted(flows, key=id)
        """,
        rules=["D101"],
    ) == ["D101"]


def test_d101_clean_seeded_stream():
    assert rules_hit(
        """
        import random
        def make_stream(seed):
            return random.Random(seed)
        """,
        rules=["D101"],
    ) == []


def test_d101_sanctioned_module_exempt():
    assert rules_hit(D101_BAD, relpath="src/repro/sim/rng.py", rules=["D101"]) == []


def test_d101_suppressed():
    assert rules_hit(
        """
        import random
        def jitter():
            # fncc-lint: allow[D101] wall-clock jitter for a non-sim demo script
            return random.random()
        """,
        rules=["D101"],
    ) == []


# -- D102: hash-ordered scheduling -------------------------------------------

D102_BAD = """
    def arm(sim, ports):
        for p in set(ports):
            sim.schedule(10, p.fire)
"""


def test_d102_violation():
    assert rules_hit(D102_BAD, rules=["D102"]) == ["D102"]


def test_d102_keys_view():
    assert rules_hit(
        """
        def arm(sim, by_name):
            for name in by_name.keys():
                sim.schedule(10, by_name[name].fire)
        """,
        rules=["D102"],
    ) == ["D102"]


def test_d102_clean_sorted():
    assert rules_hit(
        """
        def arm(sim, ports):
            for p in sorted(set(ports)):
                sim.schedule(10, p.fire)
        """,
        rules=["D102"],
    ) == []


def test_d102_clean_no_schedule_in_body():
    assert rules_hit(
        """
        def total(sizes):
            acc = 0
            for s in set(sizes):
                acc += s
            return acc
        """,
        rules=["D102"],
    ) == []


def test_d102_suppressed():
    assert rules_hit(
        """
        def arm(sim, ports):
            # fncc-lint: allow[D102] single-element set by construction; order is vacuous
            for p in set(ports):
                sim.schedule(10, p.fire)
        """,
        rules=["D102"],
    ) == []


# -- D103: float event keys --------------------------------------------------

D103_BAD = """
    def arm(sim, gap_ps, fn):
        sim.schedule(gap_ps / 2, fn)
"""


def test_d103_violation():
    assert rules_hit(D103_BAD, rules=["D103"]) == ["D103"]


def test_d103_float_literal():
    assert rules_hit(
        """
        def arm(sim, gap_ps, fn):
            sim.schedule_at(gap_ps * 1.5, fn)
        """,
        rules=["D103"],
    ) == ["D103"]


def test_d103_schedule_reuse_delay_arg():
    assert rules_hit(
        """
        def rearm(sim, ev, gap_ps):
            sim.schedule_reuse(ev, gap_ps / 4)
        """,
        rules=["D103"],
    ) == ["D103"]


def test_d103_clean_floor_div_and_round():
    assert rules_hit(
        """
        def arm(sim, gap_ps, fn):
            sim.schedule(gap_ps // 2, fn)
            sim.schedule(round(gap_ps / 2), fn)
        """,
        rules=["D103"],
    ) == []


def test_d103_clean_units_helper_call():
    # us(1.5) returns an int; the rule must not descend into nested calls.
    assert rules_hit(
        """
        from repro.units import us
        def arm(sim, fn):
            sim.schedule(us(1.5), fn)
        """,
        rules=["D103"],
    ) == []


def test_d103_suppressed():
    assert rules_hit(
        """
        def arm(sim, gap_ps, fn):
            # fncc-lint: allow[D103] gap_ps is a power-of-two int; / is exact here
            sim.schedule(gap_ps / 2, fn)
        """,
        rules=["D103"],
    ) == []


# -- D104: fault-module seed discipline ---------------------------------------

FAULTS_MOD = "src/repro/faults/fixture_mod.py"

D104_AMBIENT = """
    import random
    def flap_jitter():
        return random.randrange(100)
"""

D104_ADHOC = """
    import random
    def make_schedule(seed):
        rng = random.Random(seed)
        return [rng.random() for _ in range(4)]
"""


def test_d104_ambient_entropy_in_fault_module():
    findings = run(D104_AMBIENT, relpath=FAULTS_MOD, rules=["D104"])
    assert [f.rule for f in findings] == ["D104"]
    assert "seeds.stream" in findings[0].message


def test_d104_adhoc_seeded_rng_in_fault_module():
    # The D101 gap D104 closes: random.Random(seed) is *seeded* (D101-clean)
    # but still a private entropy root invisible to the run seed.
    findings = run(D104_ADHOC, relpath=FAULTS_MOD, rules=["D104"])
    assert [f.rule for f in findings] == ["D104"]
    assert "private RNG" in findings[0].message
    assert rules_hit(D104_ADHOC, relpath=FAULTS_MOD, rules=["D101"]) == []


def test_d104_numpy_rng_in_fault_module():
    assert rules_hit(
        """
        import numpy as np
        def draw():
            return np.random.default_rng(7)
        """,
        relpath=FAULTS_MOD,
        rules=["D104"],
    ) == ["D104"]


def test_d104_scoped_to_fault_modules():
    # The same snippets outside faults/ are D104-clean (D101 still owns the
    # ambient-entropy half there).
    assert rules_hit(D104_AMBIENT, rules=["D104"]) == []
    assert rules_hit(D104_ADHOC, rules=["D104"]) == []


def test_d104_clean_seed_factory_stream():
    assert rules_hit(
        """
        def expand(plan, seeds):
            rng = seeds.stream(f"faults.{plan.name}")
            return rng.randrange(10)
        """,
        relpath=FAULTS_MOD,
        rules=["D104"],
    ) == []


def test_d104_suppressed():
    assert rules_hit(
        """
        import random
        def demo():
            # fncc-lint: allow[D104] doc example, never armed against a sim
            return random.random()
        """,
        relpath=FAULTS_MOD,
        rules=["D104"],
    ) == []


def test_d104_shipping_fault_modules_clean():
    # The real faults/ package must satisfy its own rule.
    import glob

    for path in sorted(glob.glob(os.path.join(_REPO_ROOT, "src/repro/faults/*.py"))):
        rel = os.path.relpath(path, _REPO_ROOT).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as fh:
            findings = lint_source(fh.read(), rel, DEFAULTS, ["D104"])
        assert findings == [], f"{rel}: {[str(f) for f in findings]}"


# -- P201/P202: spec picklability --------------------------------------------


def test_p201_lambda_fn():
    assert rules_hit(
        """
        from repro.exec.spec import RunSpec
        def sweep():
            return [RunSpec(lambda seed: seed, dict(x=1))]
        """,
        rules=["P201"],
    ) == ["P201"]


def test_p201_partial_fn():
    assert rules_hit(
        """
        import functools
        from repro.exec.spec import RunSpec
        def sweep(base):
            return [RunSpec(functools.partial(base, x=1))]
        """,
        rules=["P201"],
    ) == ["P201"]


def test_p201_clean_string_ref():
    assert rules_hit(
        """
        from repro.exec.spec import RunSpec
        def sweep():
            return [RunSpec("repro.experiments.fct_experiment:run_fct_summary")]
        """,
        rules=["P201"],
    ) == []


def test_p201_suppressed():
    assert rules_hit(
        """
        from repro.exec.spec import RunSpec
        def sweep():
            # fncc-lint: allow[P201] serial-only in-process sweep; spec never crosses a process boundary
            return [RunSpec(lambda seed: seed)]
        """,
        rules=["P201"],
    ) == []


def test_p202_lambda_in_kwargs():
    assert rules_hit(
        """
        from repro.exec.spec import RunSpec
        def sweep(fn):
            return [RunSpec(fn, dict(make=lambda: 3))]
        """,
        rules=["P202"],
    ) == ["P202"]


def test_p202_clean_plain_data():
    assert rules_hit(
        """
        from repro.exec.spec import RunSpec
        def sweep(fn):
            return [RunSpec(fn, dict(n_flows=64, cc="fncc"), seed=7)]
        """,
        rules=["P202"],
    ) == []


def test_p202_suppressed():
    assert rules_hit(
        """
        from repro.exec.spec import RunSpec
        def sweep(fn):
            # fncc-lint: allow[P202] serial-only in-process sweep; spec never crosses a process boundary
            return [RunSpec(fn, dict(make=lambda: 3))]
        """,
        rules=["P202"],
    ) == []


# -- H301: hot-path state ownership ------------------------------------------

H301_BAD = """
    def hack(sim):
        sim._heap = []
"""


def test_h301_violation():
    findings = run(H301_BAD, rules=["H301"])
    assert [f.rule for f in findings] == ["H301"]
    assert "_heap" in findings[0].message


def test_h301_event_alive_write():
    assert rules_hit(
        """
        def kill(ev):
            ev.alive = False
        """,
        rules=["H301"],
    ) == ["H301"]


def test_h301_owner_module_exempt():
    assert rules_hit(H301_BAD, relpath="src/repro/sim/engine.py", rules=["H301"]) == []


def test_h301_friend_module_exempt():
    # port.py inlines schedule_reuse (documented friend of the engine).
    assert rules_hit(
        """
        def deliver(sim, ev):
            sim._seq = seq = sim._seq + 1
            ev.alive = True
        """,
        relpath="src/repro/net/port.py",
        rules=["H301"],
    ) == []


def test_h301_self_write_is_own_state():
    assert rules_hit(
        """
        class Sweeper:
            def __init__(self):
                self._heap = []
                self.alive = None
        """,
        rules=["H301"],
    ) == []


def test_h301_suppressed():
    assert rules_hit(
        """
        def kill(ev):
            # fncc-lint: allow[H301] inlined Event.cancel() on a handle this module owns
            ev.alive = False
        """,
        rules=["H301"],
    ) == []


# -- H302: __slots__ in hot modules ------------------------------------------

H302_BAD = """
    class Shim:
        def __init__(self):
            self.x = 1
"""


def test_h302_violation_in_hot_module():
    assert rules_hit(H302_BAD, relpath="src/repro/net/packet.py", rules=["H302"]) == [
        "H302"
    ]


def test_h302_clean_with_slots():
    assert rules_hit(
        """
        class Shim:
            __slots__ = ("x",)
            def __init__(self):
                self.x = 1
        """,
        relpath="src/repro/net/packet.py",
        rules=["H302"],
    ) == []


def test_h302_exception_exempt():
    assert rules_hit(
        """
        class PoolError(RuntimeError):
            pass
        """,
        relpath="src/repro/net/packet.py",
        rules=["H302"],
    ) == []


def test_h302_cold_module_exempt():
    assert rules_hit(H302_BAD, relpath=NEUTRAL, rules=["H302"]) == []


def test_h302_suppressed():
    assert rules_hit(
        """
        # fncc-lint: allow[H302] debug-only shim, never instantiated per frame
        class Shim:
            def __init__(self):
                self.x = 1
        """,
        relpath="src/repro/net/packet.py",
        rules=["H302"],
    ) == []


# -- H303: heavy libraries are imported where they are used -------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import networkx as nx",
        "import scipy.stats",
        "from scipy.integrate import solve_ivp",
        "import numpy as np",
        "from numpy.random import default_rng",
        # Still import time: a guarded module-level import loads it whenever
        # it is installed.
        """
        try:
            import networkx
        except ImportError:
            networkx = None
        """,
        """
        class Tables:
            import networkx as nx
        """,
    ],
)
def test_h303_import_time_import(snippet):
    assert rules_hit(snippet, rules=["H303"]) == ["H303"]


def test_h303_names_the_module():
    (finding,) = run("from scipy.stats import spearmanr", rules=["H303"])
    assert "'scipy.stats'" in finding.message


def test_h303_clean_function_local_and_type_checking():
    assert rules_hit(
        """
        from typing import TYPE_CHECKING
        import typing

        import numpy_lookalike
        import networkx_lookalike

        if TYPE_CHECKING:
            import networkx as nx
            import numpy as np
        if typing.TYPE_CHECKING:
            from scipy.sparse import csr_matrix

        def as_arrays(values) -> "np.ndarray":
            import numpy as np
            return np.asarray(values)

        def trees(g) -> "nx.Graph":
            import networkx as nx
            return nx.minimum_spanning_tree(g)

        class Model:
            def solve(self):
                from scipy.integrate import solve_ivp
                return solve_ivp
        """,
        rules=["H303"],
    ) == []


def test_h303_else_of_type_checking_runs_at_import():
    assert rules_hit(
        """
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            import networkx as nx
        else:
            import networkx as nx
        """,
        rules=["H303"],
    ) == ["H303"]


def test_h303_suppressed():
    assert rules_hit(
        """
        # fncc-lint: allow[H303] analysis-only module, imported by no experiment
        import scipy
        """,
        rules=["H303"],
    ) == []


# -- O401: pull-only collectors ----------------------------------------------

O401_BAD = """
    def export(registry):
        registry.counter("exports").inc()
        return registry.snapshot()
"""


def test_o401_violation():
    assert rules_hit(
        O401_BAD, relpath="src/repro/obs/export.py", rules=["O401"]
    ) == ["O401"]


def test_o401_clean_pull_only():
    assert rules_hit(
        """
        def export(registry):
            return registry.snapshot()
        """,
        relpath="src/repro/obs/export.py",
        rules=["O401"],
    ) == []


def test_o401_instrumented_code_exempt():
    # pushes from non-collector modules are the normal pattern
    assert rules_hit(O401_BAD, relpath=NEUTRAL, rules=["O401"]) == []


def test_o401_suppressed():
    assert rules_hit(
        """
        def export(registry):
            # fncc-lint: allow[O401] meta-metric about the exporter itself, read by no collector
            registry.counter("exports").inc()
            return registry.snapshot()
        """,
        relpath="src/repro/obs/export.py",
        rules=["O401"],
    ) == []


# -- O402: _train_ok protocol ------------------------------------------------

O402_BAD = """
    def hook(sw):
        sw._train_ok = False
"""


def test_o402_violation():
    assert rules_hit(O402_BAD, rules=["O402"]) == ["O402"]


def test_o402_protocol_module_exempt():
    assert rules_hit(O402_BAD, relpath="src/repro/net/switch.py", rules=["O402"]) == []


def test_o402_suppressed():
    assert rules_hit(
        """
        def hook(sw):
            # fncc-lint: allow[O402] follows the PacketTap protocol: recompute on detach
            sw._train_ok = False
        """,
        rules=["O402"],
    ) == []


# -- suppression machinery (LINT000) -----------------------------------------


def test_unjustified_suppression_is_a_finding_and_does_not_suppress():
    findings = run(
        """
        import random
        def jitter():
            # fncc-lint: allow[D101]
            return random.random()
        """,
        rules=["D101"],
    )
    assert sorted(f.rule for f in findings) == ["D101", "LINT000"]


def test_suppression_wrong_rule_does_not_suppress():
    assert rules_hit(
        """
        import random
        def jitter():
            # fncc-lint: allow[H301] not the rule that fires here
            return random.random()
        """,
        rules=["D101"],
    ) == ["D101"]


def test_multi_rule_suppression():
    assert rules_hit(
        """
        import random
        def jitter():
            # fncc-lint: allow[D101,H301] demo helper outside any sim run
            return random.random()
        """,
        rules=["D101"],
    ) == []


# -- S501: shard isolation ---------------------------------------------------

SHARD_PATH = "src/repro/shard/coordinator_fixture.py"


def test_s501_private_reach_through_flagged():
    assert rules_hit(
        """
        def steal(engine):
            return engine.sim._heap[0]
        """,
        relpath=SHARD_PATH,
        rules=["S501"],
    ) == ["S501"]


def test_s501_own_private_state_clean():
    assert rules_hit(
        """
        class Coordinator:
            def __init__(self):
                self._pending = []
            def push(self, msg):
                self._pending.append(msg)
        """,
        relpath=SHARD_PATH,
        rules=["S501"],
    ) == []


def test_s501_public_surface_clean():
    assert rules_hit(
        """
        def drive(engine, horizon):
            return engine.advance(horizon, [])
        """,
        relpath=SHARD_PATH,
        rules=["S501"],
    ) == []


def test_s501_boundary_adapter_exempt():
    assert rules_hit(
        """
        def export(port):
            return list(port._inflight)
        """,
        relpath="src/repro/shard/boundary.py",
        rules=["S501"],
    ) == []


def test_s501_outside_shard_package_not_in_scope():
    assert rules_hit(
        """
        def peek(port):
            return port._inflight
        """,
        relpath=NEUTRAL,
        rules=["S501"],
    ) == []


def test_s501_suppressible_with_justification():
    assert rules_hit(
        """
        def peek(engine):
            # fncc-lint: allow[S501] read-only debug dump, never in the run loop
            return engine.sim._heap
        """,
        relpath=SHARD_PATH,
        rules=["S501"],
    ) == []


# -- N601: an import nothing reads -------------------------------------------


def test_n601_violation():
    findings = run(
        """
        from typing import TYPE_CHECKING, List, Optional
        from repro.net.packet import ACK, CNP
        if TYPE_CHECKING:
            from repro.sim.engine import Simulator
        def first(pkts: List[int]) -> Optional[int]:
            return ACK
        """,
        rules=["N601"],
    )
    assert [(f.line, f.message.split()[0]) for f in findings] == [
        (3, "'CNP'"), (5, "'Simulator'"),
    ]


def test_n601_quoted_annotations_and_aliases_count_as_use():
    assert rules_hit(
        """
        from typing import TYPE_CHECKING, Callable
        if TYPE_CHECKING:
            from repro.net.host import Host
            from repro.sim.engine import Simulator
        Factory = Callable[["Host"], None]
        def run(sim: "Simulator") -> None:
            pass
        """,
        rules=["N601"],
    ) == []


def test_n601_a_plain_string_naming_the_import_is_no_use():
    findings = run(
        """
        from repro.net.packet import CNP
        LOG = "sent a CNP"
        def count(stats):
            return stats["CNP"]
        """,
        rules=["N601"],
    )
    assert [(f.line, f.message.split()[0]) for f in findings] == [(2, "'CNP'")]


def test_n601_reexports_are_exempt():
    assert rules_hit("from repro.units import us\n__all__ = ['us']\n", rules=["N601"]) == []
    assert rules_hit(
        "from repro.units import us\n", relpath="src/repro/net/__init__.py", rules=["N601"]
    ) == []


def test_n601_suppressed():
    assert rules_hit(
        """
        # fncc-lint: allow[N601] imported for its registration side effect
        import repro.cc.fncc
        """,
        rules=["N601"],
    ) == []


# -- N602: an attribute stored and never read ---------------------------------

@pytest.fixture
def alone(monkeypatch):
    """Only the linted snippet's own reads count: no checkout to read."""
    monkeypatch.setattr(rules_necessity, "_checkout_reads", frozenset)


def n602(snippet):
    return [(f.line, f.message.split()[0])
            for f in lint_source(textwrap.dedent(snippet), NEUTRAL, DEFAULTS, ["N602"])]


def test_n602_violation(alone):
    assert n602(
        """
        class Qp:
            def __init__(self):
                self.acks = 0
                self.rate = 1
            def on_ack(self):
                self.acks += 1
                return self.rate
        """
    ) == [(4, "self.acks")]


def test_n602_a_getattr_or_hasattr_string_is_a_read(alone):
    assert n602(
        """
        class Lb:
            def __init__(self):
                self.probes = 0
                self.reroutes = 0
        def read(lb):
            return getattr(lb, "probes", 0), hasattr(lb, "reroutes")
        """
    ) == []


def test_n602_a_read_anywhere_in_the_checkout_counts():
    findings = lint_source(
        "class Qp:\n    def __init__(self):\n        self.srtt_ps = 0\n",
        NEUTRAL, DEFAULTS, ["N602"])
    assert findings == []  # src/repro/transport/sender.py reads .srtt_ps


def test_n602_suppressed(alone):
    assert n602(
        """
        class Qp:
            def __init__(self):
                # fncc-lint: allow[N602] read through vars() by the exporter
                self.acks = 0
        """
    ) == []


def test_every_registered_rule_has_a_design_ref():
    assert set(RULES) >= {
        "D101", "D102", "D103", "P201", "P202", "H301", "H302", "H303", "O401", "O402",
        "S501", "N601", "N602",
    }
    for name, (_, summary, ref) in RULES.items():
        assert summary and ref.startswith("DESIGN.md"), name


# -- repo gate: the tree itself lints clean ----------------------------------


def test_repo_lints_clean():
    """The acceptance bar: zero findings."""
    import os

    from tools.lint.core import lint_paths

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    findings = lint_paths(root, DEFAULTS["paths"], DEFAULTS)
    assert findings == [], [f.format() for f in findings]


# -- CLI: a run that lints nothing is an error, not a pass ----------------------


def test_cli_missing_path_is_one_line_error_not_ok(capsys):
    """``fncc-lint some/typo`` used to print "OK — 0 unbaselined finding(s)
    across 0 file(s)" and exit 0: a renamed package turned the gate green."""
    from tools.lint.cli import main

    assert main(["--root", _REPO_ROOT, "src/repro", "no/such/path"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fncc-lint: no such path under {_REPO_ROOT}: no/such/path\n"


def test_cli_zero_files_linted_is_one_line_error(tmp_path, capsys):
    from tools.lint.cli import main

    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "notes.txt").write_text("no python here\n")
    assert main(["--root", str(tmp_path), "pkg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fncc-lint: no Python files under pkg; nothing linted\n"


def test_cli_configured_paths_gate_the_real_tree(capsys):
    """The same entry point with no arguments: the configured paths exist,
    files are linted, nothing is found."""
    from tools.lint.cli import main

    assert main(["--root", _REPO_ROOT]) == 0
    out = capsys.readouterr().out
    assert "OK — 0 finding(s) across" in out
    assert " across 0 file(s)" not in out


def test_cli_reports_a_finding_and_honours_its_suppression(tmp_path, capsys):
    """A run to a finding: an unsuppressed ``random.random()`` under
    ``src/repro`` exits 1 and prints its ``path:line:col: D101`` line; the
    same call with a justified allow comment exits 0."""
    from tools.lint.cli import main

    (tmp_path / "pyproject.toml").write_text("")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    mod = pkg / "jitter.py"
    mod.write_text("import random\n\nx = random.random()\n")
    assert main(["--root", str(tmp_path), "src/repro"]) == 1
    out = capsys.readouterr().out
    assert "src/repro/jitter.py:3:5: D101 call to random.random()" in out

    mod.write_text(
        "import random\n\n"
        "x = random.random()  # fncc-lint: allow[D101] demo value, never in a run\n"
    )
    assert main(["--root", str(tmp_path), "src/repro"]) == 0
    assert "OK — 0 finding(s)" in capsys.readouterr().out
