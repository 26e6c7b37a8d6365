"""The checkout's one ``sys.settrace``.  :func:`child_env` and :func:`boot`
install a trace function in every process a traced run starts (the census's
:func:`tools.census.trace_this_process` and
:func:`tools.census.trace_reason_lines`); :func:`count_phases` is the opcode
counter (``tests/opcode_pin.py``, ``tools/profile.py --opcodes``).  Each
consumer keeps its own global and local trace functions: a Python dispatch
per line or opcode event would slow every run it traces.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: What every process of a traced run calls at start-up for its global
#: trace function: ``module:function``.
TRACE_ENV = "REPRO_TRACE"

SITECUSTOMIZE = f"""\
import os
if os.environ.get({TRACE_ENV!r}):
    from tools.trace import boot
    boot()
"""


def child_env(tmp: Path, target: str, **env: str) -> dict:
    """The environment of a child interpreter every process of which
    installs the trace function ``target`` (``module:function``) returns:
    this one's, with ``env``, and a ``sitecustomize`` boot (written under
    ``tmp`` once), ``src`` and the repository root on ``PYTHONPATH``.  A
    forked child inherits its parent thread's trace function instead."""
    boot_dir = tmp / "boot"
    if not boot_dir.is_dir():
        boot_dir.mkdir()
        (boot_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (boot_dir, ROOT / "src", ROOT))),
                **{TRACE_ENV: target}, **env)


def boot() -> None:
    """Install what ``$REPRO_TRACE`` returns as the trace function of this
    thread and of later ones (the ``sitecustomize`` calls this at start-up),
    and keep in the run a child handed a ``PYTHONPATH`` of its own (the
    suite runs its children on ``src`` alone): put the boot and the root back."""
    module, _, name = os.environ[TRACE_ENV].partition(":")
    trace = getattr(importlib.import_module(module), name)()
    threading.settrace(trace)
    sys.settrace(trace)
    boot_dir = os.path.dirname(sys.modules["sitecustomize"].__file__)
    init = subprocess.Popen.__init__

    def __init__(self, args, *a, **kw):
        env = kw.get("env")
        if env is not None and TRACE_ENV in env:
            path = env.get("PYTHONPATH", "")
            if boot_dir not in path.split(os.pathsep):
                kw["env"] = dict(env, PYTHONPATH=os.pathsep.join(
                    [boot_dir, str(ROOT)] + ([path] if path else [])))
        init(self, args, *a, **kw)

    subprocess.Popen.__init__ = __init__


def count_phases(fn):
    """Run ``fn()`` with per-opcode tracing on; returns its result, the
    fabrics it built, and ``{(phase, code object): executed opcodes}`` over
    every frame it entered: ``build`` inside a call of a code object
    :func:`tools.profile.builders` lists, ``run`` elsewhere."""
    from tools.profile import builders

    build = builders()
    counts: dict = {}
    fabrics = 0
    building = None  # the builder frame the build phase is in, or None

    def local(frame, event, _arg):
        nonlocal building
        if event == "opcode":
            key = ("run" if building is None else "build", frame.f_code)
            counts[key] = counts.get(key, 0) + 1
        elif event == "return" and frame is building:
            building = None
        return local

    def on_call(frame, _event, _arg):
        nonlocal building, fabrics
        if building is None and frame.f_code in build:
            building = frame
            fabrics += build[frame.f_code]
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    # This thread's alone: a Python call to stop it would be counted.
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return result, fabrics, counts
