"""Conservative-synchronization shard runtime (DESIGN.md §11).

Every shard advances its own event heap to a shared barrier horizon,
exports the boundary frames whose serialization finished inside the
closing window, and blocks until the coordinator has forwarded them to
the owning shards for injection in the next window.  A window is never
wider than the cut set's minimum propagation delay (the lookahead)
unless nothing at all can happen sooner (:func:`run_sharded`'s horizon
rule), so an exported frame's arrival always lands strictly beyond its
barrier — no shard ever needs an event it has not been handed yet.

Two interchangeable backends drive the same coordinator loop:

* :class:`InProcessShards` — every shard engine lives in this process,
  advanced round-robin.  Zero parallelism, full debuggability: this is
  the determinism reference the process mode must match byte-for-byte.
* :class:`ProcessShards` — one worker process per shard over the
  ``repro.exec`` discipline (one start-method rule, picklable build
  specs, crash surfacing), messages over pipes.  A shard that dies
  mid-run triggers flight dumps from every surviving shard before
  :class:`ShardCrash` is raised.

Control and data are separate planes.  The coordinator sees a horizon
go out and, per shard, a completion count and the time of the next live
event come back; the frames travel beside them as one opaque byte batch
per (sender, destination) pair (:func:`~repro.shard.messages.encode_batch`)
that the coordinator forwards by destination without opening.

Injection ordering (the §4.1 tie discipline across a cut) is applied by
the receiving shard: inbound frames are ordered by ``(arrival, sender
shard, export position)`` before scheduling, so same-arrival frames from
one sender shard keep their serial wire order, and the residual
cross-sender coincidence at one picosecond is broken canonically by
shard id.  Per-link arrivals are strictly monotonic, so the dominant
ordering-sensitive pair (same-queue ``_tx_deliver`` ties) cannot
straddle one cut link at all.
"""

from __future__ import annotations

import importlib
import os
import sys
import traceback
from operator import itemgetter
from os import _exit as _exit_without_teardown
from typing import Callable, Dict, List, Optional

from repro.shard.boundary import Boundary, rewire_boundaries
from repro.shard.messages import decode_batch, encode_batch
from repro.shard.partition import PartitionPlan, plan_partition

_ARRIVAL = itemgetter(0)


class ShardCrash(RuntimeError):
    """A shard died mid-run.  Carries the flight-dump paths collected
    from every shard that could still produce one."""

    def __init__(self, shard_id: int, reason: str, dumps: Dict[int, str]) -> None:
        self.shard_id = shard_id
        self.reason = reason
        self.dumps = dumps
        last = reason.strip().splitlines()[-1] if reason.strip() else "no reason given"
        lines = [f"shard {shard_id} crashed: {last}"]
        for sid in sorted(dumps):
            lines.append(f"  flight dump [shard {sid}]: {dumps[sid]}")
        super().__init__("\n".join(lines))


class ShardFabric:
    """What a shard builder returns: one complete fabric plus the
    callables the runtime drives it through.

    ``collect()`` returns the shard's plain-data result payload (owned
    counters only); ``completed()`` returns the shard's completion count
    for chunk-aligned stop checks and ``target`` is the count, summed
    over all shards, that ends the run.
    """

    __slots__ = ("sim", "topo", "collect", "completed", "target", "tracer")

    def __init__(
        self,
        sim,
        topo,
        collect: Callable[[], dict],
        completed: Callable[[], int],
        target: int,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.collect = collect
        self.completed = completed
        self.target = target
        self.tracer = tracer


class ShardEngine:
    """One shard: fabric + boundary machinery, driven window by window."""

    def __init__(self, fabric: ShardFabric, plan: PartitionPlan, shard_id: int) -> None:
        self.fabric = fabric
        self.plan = plan
        self.shard_id = shard_id
        self.sim = fabric.sim
        self.boundaries: Dict[int, Boundary] = rewire_boundaries(
            fabric.topo, plan, shard_id
        )

    def advance(self, horizon: int, inbound: Optional[Dict[int, bytes]]) -> tuple:
        """Inject ``inbound`` (sender shard -> batch), run to ``horizon``,
        export the closing window.

        Returns ``(outbound, completed, next_ps)``: destination shard ->
        batch (only destinations that got frames), the shard's completion
        count and the time of its next live event (None when the heap
        went empty)."""
        sim = self.sim
        if inbound:
            boundaries = self.boundaries
            messages: List[tuple] = []
            for sender in sorted(inbound):
                messages.extend(decode_batch(inbound[sender]))
            # Stable, over batches in sender order: equal arrivals stay in
            # (sender shard, export position) order.
            messages.sort(key=_ARRIVAL)
            for arrival, cut_index, frame in messages:
                b = boundaries[cut_index]
                # The remote port's lane puts the injection at the exact heap
                # rank the serial delivery event holds at this instant.
                sim.schedule_at(arrival, b.inject, frame, b.inject_lane)
        sim.run(until=horizon)
        exported: Dict[int, List[tuple]] = {}
        for b in self.boundaries.values():  # in cut-index order
            frames = b.export(horizon)
            if frames:
                exported.setdefault(b.remote, []).extend(frames)
        out = {dest: encode_batch(frames) for dest, frames in exported.items()}
        return (out, self.fabric.completed(), sim.peek())

    def boundary_in_flight(self, horizon: int) -> int:
        return sum(b.in_flight(horizon) for b in self.boundaries.values())

    def collect(self) -> dict:
        payload = self.fabric.collect()
        payload["shard_id"] = self.shard_id
        payload["boundary"] = {
            "exported": sum(b.exported for b in self.boundaries.values()),
            "injected": sum(b.injected for b in self.boundaries.values()),
            "in_flight": self.boundary_in_flight(self.sim.now),
        }
        return payload

    def flight_dump(self, path: Optional[str] = None) -> str:
        import tempfile

        from repro.obs.flight import FlightRecorder

        if path is None:
            # The in-process backend dumps every shard from one pid; the
            # recorder's pid-based default would make them overwrite
            # each other.
            path = os.path.join(
                tempfile.gettempdir(),
                f"flightrec-{os.getpid()}-shard{self.shard_id}.json",
            )
        rec = FlightRecorder(path=path, tracer=self.fabric.tracer)
        rec.bind(sim=self.sim, topo=self.fabric.topo)
        return rec.dump()


def aligned_window(lookahead_ps: int, chunk_ps: int) -> int:
    """The widest window <= the lookahead that divides ``chunk_ps``, so
    completion checks land exactly on the serial driver's chunk
    boundaries (byte-identical stop time)."""
    if lookahead_ps <= 0:
        raise ValueError(f"lookahead must be positive, got {lookahead_ps}")
    if lookahead_ps >= chunk_ps:
        return chunk_ps
    d = -(-chunk_ps // lookahead_ps)  # smallest divisor count >= chunk/L
    while chunk_ps % d:
        d += 1
    return chunk_ps // d


def _dump_path(dump_dir: Optional[str], shard_id: int) -> Optional[str]:
    return os.path.join(dump_dir, f"shard{shard_id}-flight.json") if dump_dir else None


class InProcessShards:
    """All shard engines in this process, advanced round-robin — the
    determinism-debugging backend (ships first; the processes follow).
    A crash dumps every shard to ``dump_dir`` as :class:`ProcessShards`
    does (the system temp directory when None)."""

    def __init__(self, engines: List[ShardEngine], dump_dir: Optional[str] = None) -> None:
        self.engines = {eng.shard_id: eng for eng in engines}
        self.plan = engines[0].plan
        self.target = engines[0].fabric.target
        self.dump_dir = dump_dir

    def advance_all(
        self, horizon: int, inbound: Dict[int, Dict[int, bytes]]
    ) -> Dict[int, tuple]:
        """One barrier: ``inbound`` maps destination shard -> sender shard
        -> batch; returns shard -> :meth:`ShardEngine.advance` result."""
        results: Dict[int, tuple] = {}
        for sid in sorted(self.engines):
            eng = self.engines[sid]
            try:
                results[sid] = eng.advance(horizon, inbound.get(sid))
            except Exception:
                reason = traceback.format_exc()
                dumps = {
                    s: e.flight_dump(_dump_path(self.dump_dir, s))
                    for s, e in sorted(self.engines.items())
                }
                raise ShardCrash(sid, reason, dumps) from None
        return results

    def collect_all(self) -> Dict[int, dict]:
        return {sid: eng.collect() for sid, eng in sorted(self.engines.items())}

    def stop(self) -> None:
        return


def _resolve(fn_path: str):
    mod, _, qual = fn_path.partition(":")
    obj = importlib.import_module(mod)
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


def build_engine(build: dict, plan_dict: dict, shard_id: int) -> ShardEngine:
    """Build one shard from a plain-data spec: ``build`` is
    ``{"fn": "module:qualname", "kwargs": {...}}`` where ``fn`` returns a
    :class:`ShardFabric` given ``(shard_id, owner, n_shards, **kwargs)``.
    The worker re-derives the full plan (cuts, lookahead) from its own
    deterministic topology copy."""
    fabric = _resolve(build["fn"])(
        shard_id, plan_dict["owner"], plan_dict["n_shards"], **build["kwargs"]
    )
    plan = plan_partition(fabric.topo, plan_dict["owner"], plan_dict["n_shards"])
    return ShardEngine(fabric, plan, shard_id)


def _shard_worker(conn, build: dict, shard_id: int, dump_path) -> None:
    """Worker main loop: build when the plan arrives, then serve
    advance/collect/dump requests until told to stop.  Any exception
    writes this shard's own flight dump before the crash report goes up
    the pipe — the dump must survive the process.  The coordinator's
    death reads as end of file on the pipe: the worker holds no
    coordinator-side end, its own or another shard's
    (:class:`ProcessShards` closes them after a fork)."""
    eng = None
    try:
        # A spawned worker imports the builder while the coordinator plans.
        _resolve(build["fn"])
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "advance":
                conn.send(("ok",) + eng.advance(msg[1], msg[2]))
            elif op == "plan":
                eng = build_engine(build, msg[1], shard_id)
                conn.send(("ready", eng.fabric.target))
            elif op == "collect":
                conn.send(("ok", eng.collect()))
            elif op == "dump":
                conn.send(("dump", eng.flight_dump(dump_path) if eng else ""))
            elif op == "stop":
                break
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown shard op {op!r}")
    except EOFError:  # pragma: no cover - coordinator died
        return
    except BaseException:
        reason = traceback.format_exc()
        dumped = eng.flight_dump(dump_path) if eng is not None else ""
        try:
            conn.send(("crashed", reason, dumped))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        return
    # Told to stop: everything the coordinator asked for has been sent, so
    # skip interpreter finalization rather than free the fabric object by
    # object.
    conn.close()
    sys.stdout.flush()
    sys.stderr.flush()
    _exit_without_teardown(0)


class ProcessShards:
    """One worker process per shard, driven over pipes.

    Workers start on :func:`~repro.exec.executor.worker_context`'s
    method, the sweep pool's: forked from this process on Linux, spawned
    elsewhere.  Either way build specs and messages are plain picklable
    data — which the S501 boundary rule keeps true by construction and
    the constructor checks with a pickle of ``build``, so a spec that
    would fail under spawn fails under fork too.  A forked worker would
    inherit this process's end of every pipe opened so far, its own
    included, and then never see end of file when the coordinator dies;
    each end is registered to close in any child forked after it.

    ``plan`` is a :class:`PartitionPlan`, or ``(n_shards, planner)`` with
    ``planner()`` returning one: the workers are started first, so the
    planning runs while they start (and, when spawned, import).  The
    constructor does not wait for the workers' builds; the first barrier
    does.
    """

    def __init__(self, build: dict, plan, dump_dir: Optional[str] = None) -> None:
        import pickle
        from multiprocessing.util import register_after_fork

        from repro.exec.executor import worker_context

        pickle.dumps(build)  # fail as spawn would, before any worker starts
        # Import the builder here, so that a forked worker inherits it
        # rather than importing it after the fork, once per shard.
        _resolve(build["fn"])
        ctx = worker_context()
        n_shards, planner = plan if isinstance(plan, tuple) else (plan.n_shards, None)
        self.target: Optional[int] = None
        self._conns = {}
        self._procs = {}
        try:
            for sid in range(n_shards):
                conn, child = ctx.Pipe()
                register_after_fork(conn, type(conn).close)
                self._conns[sid] = conn
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child, build, sid, _dump_path(dump_dir, sid)),
                    daemon=True,
                )
                try:
                    proc.start()
                finally:
                    child.close()
                self._procs[sid] = proc
            self.plan: PartitionPlan = plan if planner is None else planner()
            plan_dict = self.plan.to_dict()
            for sid in self._conns:
                self._send(sid, ("plan", plan_dict))
        except BaseException:
            # The caller never gets a group to stop: leave no worker
            # blocked on its pipe.
            self.stop()
            raise

    def _send(self, sid: int, msg: tuple) -> None:
        try:
            self._conns[sid].send(msg)
        except (BrokenPipeError, OSError):
            # Dead already; its crash report may still be in the pipe.
            self._recv(sid)
            self._crash(sid, "worker process died (pipe closed)")

    def _recv(self, sid: int):
        try:
            reply = self._conns[sid].recv()
        except (EOFError, OSError):
            self._crash(sid, "worker process died (pipe closed)")
        if reply[0] == "crashed":
            self._crash(sid, reply[1], own_dump=reply[2])
        if reply[0] == "ready":
            # Once per worker, ahead of its first reply: the build is done.
            self.target = reply[1]
            return self._recv(sid)
        return reply

    def _crash(self, dead: int, reason: str, own_dump: str = ""):
        """Collect flight dumps from every surviving shard, tear the
        fleet down, raise.  The dead shard's dump (written by the worker
        before it reported, when it could) rides along."""
        dumps: Dict[int, str] = {}
        if own_dump:
            dumps[dead] = own_dump
        for sid, conn in self._conns.items():
            if sid == dead:
                continue
            try:
                conn.send(("dump",))
                # A survivor may still owe the reply to the request the
                # dead shard failed on; its dump comes after that.
                reply = conn.recv()
                while reply[0] not in ("dump", "crashed"):
                    reply = conn.recv()
                if reply[0] == "dump" and reply[1]:
                    dumps[sid] = reply[1]
            except (EOFError, BrokenPipeError, OSError):  # pragma: no cover
                continue
        self.stop()
        raise ShardCrash(dead, reason, dumps)

    def advance_all(
        self, horizon: int, inbound: Dict[int, Dict[int, bytes]]
    ) -> Dict[int, tuple]:
        """One barrier: ``inbound`` maps destination shard -> sender shard
        -> batch; returns shard -> :meth:`ShardEngine.advance` result."""
        for sid in self._conns:
            self._send(sid, ("advance", horizon, inbound.get(sid)))
        results: Dict[int, tuple] = {}
        for sid in sorted(self._conns):
            results[sid] = self._recv(sid)[1:]
        return results

    def collect_all(self) -> Dict[int, dict]:
        for sid in self._conns:
            self._send(sid, ("collect",))
        out: Dict[int, dict] = {}
        for sid in sorted(self._conns):
            out[sid] = self._recv(sid)[1]
        return out

    def stop(self) -> None:
        """Tell every worker to exit and reap it.  Idempotent."""
        for conn in self._conns.values():
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs.values():
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join()
        for conn in self._conns.values():
            conn.close()
        self._conns = {}
        self._procs = {}


def run_sharded(group, plan: PartitionPlan, *, chunk_ps: int, max_horizon_ps: int) -> int:
    """The coordinator loop: barrier horizons + batch forwarding.

    The loop stops at the first ``chunk_ps`` boundary where the shards'
    completions reach the target their builders report (known once they
    have built — the first barrier), or where nothing is left to run, and
    at ``max_horizon_ps`` at the latest — the same stop rule, at the same
    timestamps, as the serial
    :func:`~repro.experiments.fct_experiment.drive_fct`.  Returns the
    final barrier time.

    Horizons lie on the window grid (multiples of the window, plus the
    stop checks).  The next one is a single window ahead, or — when no
    batch is in flight — the last grid point before the earliest live
    event on any shard, if that is further: nothing runs anywhere before
    that event, and a frame already committed to a cut port cannot
    arrive before its own shard's next event (the port's delivery event
    for the head of its in-flight FIFO), so whatever such a barrier
    exports still arrives strictly after it.
    """
    window = aligned_window(plan.lookahead_ps, chunk_ps)
    pending: Dict[int, Dict[int, bytes]] = {}
    t = 0
    wake: Optional[int] = 0  # earliest live event on any shard; None: all idle
    while t < max_horizon_ps:
        stop = min(max_horizon_ps, (t // chunk_ps + 1) * chunk_ps)
        step = t + window
        if not pending:
            # Nothing in flight: skip to the last grid point before the
            # earliest live event (the stop check when every heap is empty).
            quiet = stop if wake is None else (wake - 1) // window * window
            step = max(step, quiet)
        t_next = min(step, stop)
        results = group.advance_all(t_next, pending)
        pending = {}
        completed = 0
        wake = None
        for sid in sorted(results):
            out, done, next_ps = results[sid]
            completed += done
            if next_ps is not None and (wake is None or next_ps < wake):
                wake = next_ps
            for dest, batch in out.items():
                pending.setdefault(dest, {})[sid] = batch
        t = t_next
        if t % chunk_ps == 0:
            if completed >= group.target or (wake is None and not pending):
                break
    return t
