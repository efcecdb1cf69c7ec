"""Sharded fault-parallel simulation over a persistent worker pool.

The bit-parallel fault simulator (:mod:`repro.fault.fsim`) is
embarrassingly parallel over *faults*: each fault's detection mask is
a function of the good machine and its own fanout cone only.  This
module partitions a fault list into shards and runs drop-mode fault
simulation across a pool of **persistent** worker processes:

* workers are forked once per :class:`ShardedFaultSimulator` lifetime,
  not once per request;
* each worker receives the netlist **once** at startup (its serialized
  dict form, so the pool also works under spawn), compiles it locally
  -- or loads the lowering straight from the persistent disk cache
  (:mod:`repro.cache`) -- and then streams shard requests over its
  pipe;
* results merge **deterministically**: per-fault masks do not depend
  on which shard computed them, and the merged
  :class:`~repro.fault.fsim.FaultSimResult` lists faults in the exact
  order of the submitted fault list, so serial and sharded runs are
  interchangeable bit for bit (``tests/fault/test_sharded.py`` pins
  this on every catalog circuit, drop mode included);
* for multi-round callers (the two-phase ATPG pipeline), dropped-fault
  sets are exchanged between rounds: each worker drops its own
  detections locally, and :meth:`ShardedFaultSimulator.drop_faults`
  broadcasts externally retired faults (PODEM-detected targets,
  untestable proofs) so cross-shard dropping converges on exactly the
  serial active set;
* workers double as **test-generation sessions**: a ``podem`` request
  runs a resumable :class:`~repro.fault.podem.PodemSearch` in bounded
  slices, polling the pipe between slices so cancellation and
  interleaved fault-simulation rounds stay responsive, and SCOAP
  guidance ships at most once per content hash
  (:meth:`ShardedFaultSimulator.ensure_guidance`).  The parallel-ATPG
  coordinator in :mod:`repro.fault.atpg_flow` builds on
  :meth:`~ShardedFaultSimulator.podem_submit` /
  :meth:`~ShardedFaultSimulator.podem_poll` /
  :meth:`~ShardedFaultSimulator.podem_cancel`, with
  :meth:`~ShardedFaultSimulator.recover_workers` respawning any worker
  that dies mid-search.

Worker errors are **structured**: a shard that raises (e.g. strict
packing rejecting a pattern that misses a net) replies with a typed
error record and the facade raises
:class:`~repro.errors.SimulationError` naming the shard -- the pool
survives and stays usable; nothing hangs on a dead queue.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from multiprocessing.connection import wait as _wait_connections
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..netlist import Netlist, from_dict, to_dict
from ..obs import get_recorder
from .backends import (
    BACKEND_AUTO,
    BACKEND_INT,
    resolve_backend,
    select_batch_faults,
)
from .fsim import FaultSimResult, FaultSimulator
from .models import StuckFault
from .podem import DEFAULT_SEARCH_SLICE, Podem

#: Seconds the parent waits for a worker's post-compile readiness.
READY_TIMEOUT = 300.0
#: Join grace before escalating to terminate/kill at close time.
_JOIN_GRACE = 5.0

#: Exit code of the ``("die",)`` test hook, distinctive enough that a
#: worker killed on purpose is never mistaken for an OOM or a signal.
_DIE_EXIT_CODE = 17


def _cpu_quota_cores(cgroup_root: str = "/sys/fs/cgroup") -> Optional[float]:
    """Cores allowed by the container's cgroup CPU quota, or ``None``.

    Reads cgroup v2 ``cpu.max`` (``"<quota|max> <period>"``) first,
    then the cgroup v1 pair ``cpu/cpu.cfs_quota_us`` /
    ``cpu/cpu.cfs_period_us``.  Unreadable or malformed files and the
    unlimited sentinels (``max``, quota ``-1``) all mean "no quota" --
    the probe must never raise on an exotic host.
    """
    try:
        with open(os.path.join(cgroup_root, "cpu.max")) as fh:
            fields = fh.read().split()
        if fields and fields[0] != "max":
            quota = int(fields[0])
            period = int(fields[1]) if len(fields) > 1 else 100_000
            if quota > 0 and period > 0:
                return quota / period
    except (OSError, ValueError):
        pass
    try:
        v1 = os.path.join(cgroup_root, "cpu")
        with open(os.path.join(v1, "cpu.cfs_quota_us")) as fh:
            quota = int(fh.read().strip())
        with open(os.path.join(v1, "cpu.cfs_period_us")) as fh:
            period = int(fh.read().strip())
        if quota > 0 and period > 0:
            return quota / period
    except (OSError, ValueError):
        pass
    return None


def usable_cores(cgroup_root: str = "/sys/fs/cgroup") -> int:
    """CPU cores this process can actually use, never less than 1.

    The CPU-affinity mask (cpusets, taskset) intersected with the
    container's cgroup CPU *quota* -- a pod limited to ``200m`` CPU
    reports 1 usable core even when the node exposes 64, so sizing a
    worker pool from this number no longer over-provisions throttled
    containers.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        affinity = os.cpu_count() or 1
    quota = _cpu_quota_cores(cgroup_root)
    if quota is not None:
        affinity = min(affinity, max(1, int(quota)))
    return max(1, affinity)


def _record_swallowed(where: str, exc: BaseException) -> None:
    """Make a deliberately-swallowed exception visible.

    Shutdown/backstop paths keep their original control flow (the
    swallow is correct -- nothing useful can be done with a broken
    pipe at close time), but each one now emits a warning event and
    bumps ``pool.swallowed_errors`` so tests and the CI trace check
    can assert the count is zero on a healthy run.
    """
    get_recorder().warning(
        "pool.swallowed_error", counter="pool.swallowed_errors",
        where=where, exc_type=type(exc).__name__, detail=str(exc),
    )


def shard_faults(faults: Sequence[StuckFault], n_shards: int,
                 block: int = 1) -> List[List[StuckFault]]:
    """Deterministic round-robin partition of a fault list.

    With the default ``block=1``, shard ``i`` gets ``faults[i::n_shards]``;
    relative order inside a shard follows the input list.  Round-robin
    statistically balances expensive (large-cone) and cheap faults
    across shards, and the assignment depends only on ``(faults,
    n_shards, block)`` -- never on timing -- so repeated runs shard
    identically.

    ``block > 1`` deals contiguous runs of ``block`` faults round-robin
    instead of single faults, so a worker whose simulator batches B
    faults per wide-engine plan walk receives whole batches (blocks
    aligned to its batch size) rather than an interleaved sample.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    faults = list(faults)
    if block == 1:
        return [faults[i::n_shards] for i in range(n_shards)]
    shards: List[List[StuckFault]] = [[] for _ in range(n_shards)]
    for j in range(0, len(faults), block):
        shards[(j // block) % n_shards].extend(faults[j:j + block])
    return shards


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _shard_detect(sim: FaultSimulator, faults: Sequence[StuckFault],
                  payload: Tuple, drop: bool) -> Dict[StuckFault, int]:
    """Run one request's fault simulation on the worker's simulator."""
    kind = payload[0]
    if kind == "words":
        result = sim.simulate_stuck_packed(
            faults, payload[1], payload[2], drop_detected=drop
        )
    elif kind == "patterns":
        result = sim.simulate_stuck(faults, payload[1], drop_detected=drop)
    else:
        raise SimulationError(f"unknown payload kind {kind!r}")
    return result.detected


class _WorkerSession:
    """One worker's state machine (runs inside the worker process).

    Protocol (parent -> worker):
      ``("sim", req_id, faults, payload, drop)``   one-shot shard
      ``("load", faults)``                         set the session shard
      ``("drop", faults)``                         retire faults dropped
                                                   elsewhere (cross-shard
                                                   exchange)
      ``("round", req_id, payload, drop)``         simulate the session
                                                   shard's active faults
      ``("guide", ghash, scores)``                 install SCOAP guidance
                                                   (no reply; idempotent
                                                   per content hash)
      ``("podem", req_id, fault, policy)``         run one PODEM search
      ``("cancel", req_id)``                       abandon that search
      ``("die",)``                                 crash on purpose (test
                                                   hook for the respawn
                                                   path)
      ``("stop",)``                                shut down

    Replies (worker -> parent): ``("ready", worker_id)`` once after
    compile, then ``("ok", req_id, result, n_active)`` or
    ``("err", req_id, exc_type, message)`` per request that carries a
    ``req_id``.  Request handling errors are *caught and shipped*,
    never allowed to kill the worker: the parent always gets a reply
    per request.

    A PODEM search runs in bounded slices
    (:class:`~repro.fault.podem.PodemSearch`); between slices the
    worker drains its pipe, so a ``cancel`` lands promptly (the search
    replies ``{"status": "cancelled"}``) and interleaved
    ``sim``/``round``/``drop``/``load``/``guide`` requests are served
    mid-search.  A nested ``podem`` while one is active is a protocol
    error (the parent keeps at most one search in flight per worker).
    """

    def __init__(self, conn, worker_id: int, netlist: Netlist,
                 sim: FaultSimulator):
        self.conn = conn
        self.worker_id = worker_id
        self.netlist = netlist
        self.sim = sim
        self.active: List[StuckFault] = []
        self.guidance = None
        self.guidance_hash: Optional[str] = None
        self.stopping = False
        self._engines: Dict[bool, Podem] = {}
        self._searching = False

    def engine(self, guided: bool) -> Podem:
        """The worker's PODEM engine (guided engines rebuild whenever
        new guidance arrives; the unguided engine lives forever)."""
        eng = self._engines.get(guided)
        if eng is None:
            eng = Podem(self.netlist,
                        guidance=self.guidance if guided else None)
            self._engines[guided] = eng
        return eng

    def handle(self, msg: Tuple) -> None:
        """Dispatch one parent request (including mid-search nesting)."""
        kind = msg[0]
        if kind == "stop":
            self.stopping = True
            return
        if kind == "die":
            # Test hook: vanish without replying or cleaning up, the
            # way an OOM kill would.
            os._exit(_DIE_EXIT_CODE)
        req_id = -1
        try:
            if kind == "load":
                self.active = list(msg[1])
            elif kind == "drop":
                retired = set(msg[1])
                self.active = [f for f in self.active if f not in retired]
            elif kind == "guide":
                _, ghash, scores = msg
                if ghash != self.guidance_hash:
                    self.guidance = scores
                    self.guidance_hash = ghash
                    self._engines.pop(True, None)
            elif kind == "cancel":
                # A cancel for a search that already replied: stale,
                # nothing to revoke.
                pass
            elif kind == "sim":
                _, req_id, faults, payload, drop = msg
                detected = _shard_detect(self.sim, faults, payload, drop)
                self.conn.send(("ok", req_id, detected, len(self.active)))
            elif kind == "round":
                _, req_id, payload, drop = msg
                detected = _shard_detect(self.sim, self.active, payload,
                                         drop)
                hits = {f: m for f, m in detected.items() if m}
                if drop:
                    self.active = [f for f in self.active if f not in hits]
                self.conn.send(("ok", req_id, hits, len(self.active)))
            elif kind == "podem":
                req_id = msg[1]
                self._podem(msg)
            else:
                self.conn.send(("err", -1, "SimulationError",
                                f"unknown request {kind!r}"))
        except Exception as exc:  # structured per-request error
            self.conn.send(("err", req_id, type(exc).__name__, str(exc)))

    def _podem(self, msg: Tuple) -> None:
        _, req_id, fault, policy = msg
        if self._searching:
            raise SimulationError(
                "podem request while a search is active"
            )
        engine = self.engine(bool(policy["guided"]))
        search = engine.search(
            fault, backtrack_limit=policy["backtrack_limit"]
        )
        slice_iters = int(policy.get("slice") or DEFAULT_SEARCH_SLICE)
        self._searching = True
        try:
            while True:
                result = search.step(slice_iters)
                if result is not None:
                    self.conn.send(("ok", req_id, {
                        "status": result.status,
                        "test": result.test,
                        "backtracks": result.backtracks,
                        "policy": policy["name"],
                    }, len(self.active)))
                    return
                # Slice exhausted: stay responsive between slices.
                while self.conn.poll(0):
                    nested = self.conn.recv()
                    if nested[0] == "cancel":
                        if nested[1] == req_id:
                            self.conn.send(("ok", req_id, {
                                "status": "cancelled",
                                "test": None,
                                "backtracks": search.backtracks,
                                "policy": policy["name"],
                            }, len(self.active)))
                            return
                        continue  # stale cancel for an earlier search
                    self.handle(nested)
                    if self.stopping:
                        return
        finally:
            self._searching = False


def _worker_main(conn, worker_id: int, netlist_data: Dict,
                 backend: str = BACKEND_INT) -> None:
    """Worker entry: compile once, then stream requests forever.

    See :class:`_WorkerSession` for the message protocol.
    """
    try:
        netlist = from_dict(netlist_data)
        # compile_netlist inside: memory tier (inherited on fork),
        # then the shared disk tier, then a local compile.
        sim = FaultSimulator(netlist, backend=backend)
        conn.send(("ready", worker_id))
    except BaseException as exc:  # noqa: BLE001 -- must report, not die silently
        try:
            conn.send(("err", -1, type(exc).__name__, str(exc)))
        except Exception as send_exc:
            # The parent's pipe end is gone too: the startup error
            # cannot be reported, only recorded (worker-process-local).
            _record_swallowed("worker.err_report", send_exc)
        conn.close()
        return
    session = _WorkerSession(conn, worker_id, netlist, sim)
    try:
        while not session.stopping:
            session.handle(conn.recv())
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ShardedFaultSimulator:
    """Fault-parallel stuck-at simulation facade over a worker pool.

    ``processes=1`` runs everything inline on a private
    :class:`~repro.fault.fsim.FaultSimulator` -- no fork, identical
    semantics -- so callers can thread a single code path through both
    configurations.  With ``processes=N`` the pool must be started
    (:meth:`start`, or use the instance as a context manager) before
    simulating, and closed when done.

    One-shot API: :meth:`simulate_stuck` / :meth:`simulate_stuck_packed`
    mirror the serial :class:`~repro.fault.fsim.FaultSimulator` exactly
    (same ``FaultSimResult``, same per-fault masks, same fault order).

    Session API (multi-round fault dropping): :meth:`load_faults` once,
    then :meth:`round_packed` / :meth:`round_patterns` per pattern
    batch -- each returns the newly detected ``{fault: mask}`` and, in
    drop mode, retires them everywhere -- plus :meth:`drop_faults` to
    retire faults resolved outside the simulator (a PODEM-detected
    target, an untestability proof).

    ``backend`` selects each worker's evaluation engine (see
    :mod:`repro.fault.backends`): wide pattern words *within* a worker
    compose with fault shards *across* workers.  Both backends merge
    bit-identically, so the choice never changes results.

    The fan-out deals faults to workers in whole blocks of the
    worker-side wide-engine batch size (``shard_faults(..., block=...)``)
    so every such batch is a contiguous run of the submitted fault list
    instead of a round-robin sample.  Like the backend, the blocking
    never changes results.
    """

    def __init__(self, netlist: Netlist, processes: int = 1,
                 backend: str = BACKEND_AUTO):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.netlist = netlist
        self.processes = processes
        self.backend = backend
        self._workers: List[Tuple] = []       # (proc, conn) per shard
        self._serial: Optional[FaultSimulator] = None
        self._req_ids = itertools.count()
        self._active: List[StuckFault] = []   # session faults, in order
        self._started = False
        # Per-worker mailbox of out-of-order replies (req_id -> msg):
        # a speculative PODEM completion can arrive while the parent is
        # collecting a fault-sim round, and vice versa.
        self._stash: List[Dict[int, Tuple]] = []
        # Workers observed dead by a recv EOF/reset: ``proc.is_alive``
        # can lag a worker's ``os._exit`` by a beat, so the EOF
        # sighting itself is recorded as proof of death.
        self._confirmed_dead: set = set()
        # Per-worker content hash of the installed SCOAP guidance.
        self._guidance_hash: List[Optional[str]] = []
        # Kept for worker respawn (recover_workers).
        self._ctx = None
        self._netlist_data: Optional[Dict] = None

    def _shard_block(self) -> int:
        """Block size for dealing faults to workers: the worker-side
        wide-engine batch size at nominal (one-word) pattern width,
        estimated from cheap netlist stats -- the parent never compiles
        just to shard."""
        return select_batch_faults(64, len(self.netlist))

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ShardedFaultSimulator":
        """Fork the pool (idempotent); workers compile before returning."""
        if self._started:
            return self
        # Fail fast in the parent on an unsatisfiable backend request
        # (e.g. explicit "numpy" without numpy) instead of shipping the
        # failure to every worker.
        resolve_backend(self.backend)
        if self.processes == 1:
            self._serial = FaultSimulator(self.netlist,
                                          backend=self.backend)
            self._started = True
            return self
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork: netlist dict pickles
            ctx = multiprocessing.get_context()
        rec = get_recorder()
        data = to_dict(self.netlist)
        self._ctx = ctx
        self._netlist_data = data
        self._stash = [dict() for _ in range(self.processes)]
        self._confirmed_dead = set()
        self._guidance_hash = [None] * self.processes
        try:
            with rec.span("pool.start", cat="pool",
                          circuit=self.netlist.name,
                          processes=self.processes):
                for worker_id in range(self.processes):
                    parent_conn, child_conn = ctx.Pipe(duplex=True)
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(child_conn, worker_id, data, self.backend),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    self._workers.append((proc, parent_conn))
                    rec.event("pool.worker_forked", cat="pool",
                              worker=worker_id, worker_pid=proc.pid)
                for worker_id in range(self.processes):
                    msg = self._recv(worker_id, timeout=READY_TIMEOUT)
                    if msg[0] != "ready":
                        raise SimulationError(
                            f"shard worker {worker_id} failed to start: "
                            f"{msg[2]}: {msg[3]}" if msg[0] == "err"
                            else f"shard worker {worker_id}: bad handshake "
                                 f"{msg[0]!r}"
                        )
                    rec.event("pool.worker_ready", cat="pool",
                              worker=worker_id)
        except BaseException:
            self.close()
            raise
        self._started = True
        return self

    def close(self) -> None:
        """Stop every worker: polite message, then bounded escalation.

        Pipe failures on the way down are expected (a worker may have
        died first) and deliberately swallowed -- but each one is
        recorded as a ``pool.swallowed_error`` warning, so shutdown
        stays quiet without being invisible.
        """
        workers, self._workers = self._workers, []
        self._serial = None
        self._started = False
        self._stash = []
        self._confirmed_dead = set()
        self._guidance_hash = []
        rec = get_recorder()
        for worker_id, (proc, conn) in enumerate(workers):
            try:
                conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError) as exc:
                _record_swallowed(f"close.stop_send[{worker_id}]", exc)
        for worker_id, (proc, conn) in enumerate(workers):
            proc.join(timeout=_JOIN_GRACE)
            if proc.is_alive():
                rec.warning("pool.worker_terminated",
                            counter="pool.workers_terminated",
                            worker=worker_id)
                proc.terminate()
                proc.join(timeout=_JOIN_GRACE)
            if proc.is_alive():
                rec.warning("pool.worker_killed",
                            counter="pool.workers_killed",
                            worker=worker_id)
                proc.kill()
                proc.join()
            try:
                conn.close()
            except OSError as exc:
                _record_swallowed(f"close.conn_close[{worker_id}]", exc)
            rec.event("pool.worker_stopped", cat="pool",
                      worker=worker_id, exit_code=proc.exitcode)

    def __enter__(self) -> "ShardedFaultSimulator":
        return self.start()

    def __del__(self) -> None:  # best-effort backstop; daemon=True anyway
        try:
            if self._workers:
                self.close()
        except Exception as exc:
            try:
                _record_swallowed("del.close", exc)
            except Exception:
                # Interpreter teardown can have dismantled the
                # recorder module itself; at that point there is
                # nowhere left to record to.
                pass

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------
    def _ensure_started(self) -> None:
        if not self._started:
            raise SimulationError(
                "ShardedFaultSimulator not started (call start() or use "
                "it as a context manager)"
            )

    def _send(self, worker_id: int, msg: Tuple) -> None:
        proc, conn = self._workers[worker_id]
        if not proc.is_alive():
            raise SimulationError(
                f"shard worker {worker_id} died "
                f"(exit code {proc.exitcode})"
            )
        try:
            conn.send(msg)
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise SimulationError(
                f"shard worker {worker_id}: send failed ({exc})"
            ) from exc

    def _recv(self, worker_id: int,
              timeout: Optional[float] = None) -> Tuple:
        proc, conn = self._workers[worker_id]
        deadline = (time.perf_counter() + timeout
                    if timeout is not None else None)
        while True:
            if conn.poll(0.05):
                try:
                    return conn.recv()
                except (EOFError, OSError) as exc:
                    # EOF or ECONNRESET: the worker vanished (a killed
                    # process resets the socketpair).
                    self._confirmed_dead.add(worker_id)
                    raise SimulationError(
                        f"shard worker {worker_id} closed its pipe "
                        f"(exit code {proc.exitcode})"
                    ) from exc
            if not proc.is_alive() and not conn.poll(0.0):
                self._confirmed_dead.add(worker_id)
                raise SimulationError(
                    f"shard worker {worker_id} died "
                    f"(exit code {proc.exitcode})"
                )
            if deadline is not None and time.perf_counter() > deadline:
                raise SimulationError(
                    f"shard worker {worker_id}: no reply within "
                    f"{timeout:.1f}s"
                )

    def _recv_reply(self, worker_id: int, req_id: int) -> Tuple:
        """Receive the reply to ``req_id``, stashing out-of-order ones.

        With speculative PODEM searches in flight, a worker's pipe can
        interleave completions for different requests; replies that
        answer a *different* request are parked in the per-worker
        mailbox and re-delivered when that request is awaited, so the
        fault-sim collect path and the PODEM poll path never
        desynchronize each other.
        """
        stash = self._stash[worker_id]
        if req_id in stash:
            return stash.pop(req_id)
        while True:
            msg = self._recv(worker_id)
            if (msg[0] in ("ok", "err") and msg[1] != req_id
                    and msg[1] != -1):
                stash[msg[1]] = msg
                continue
            return msg

    def _collect(self, requests: List[Tuple[int, int]],
                 ) -> List[Dict[StuckFault, int]]:
        """Gather one reply per outstanding request, in worker order.

        Every reply is drained before any error is raised, so a failed
        shard (a structured ``err`` record) never leaves stragglers in
        a pipe to desynchronize the next request -- the pool stays
        usable after the raise.
        """
        rec = get_recorder()
        replies: List[Optional[Dict[StuckFault, int]]] = []
        errors: List[str] = []
        for worker_id, req_id in requests:
            wait_start = rec.now_us() if rec.enabled else 0.0
            try:
                msg = self._recv_reply(worker_id, req_id)
            except SimulationError as exc:
                rec.warning("pool.shard_error",
                            counter="pool.shard_errors",
                            worker=worker_id, detail=str(exc))
                errors.append(str(exc))
                replies.append(None)
                continue
            if rec.enabled:
                rec.complete_event(
                    "pool.shard_reply", wait_start,
                    rec.now_us() - wait_start, cat="pool",
                    worker=worker_id, req_id=req_id, kind=msg[0],
                )
            if msg[0] == "ok" and msg[1] == req_id:
                replies.append(msg[2])
            elif msg[0] == "err":
                rec.warning("pool.shard_error",
                            counter="pool.shard_errors",
                            worker=worker_id, exc_type=msg[2],
                            detail=msg[3])
                errors.append(
                    f"shard {worker_id} [{msg[2]}]: {msg[3]}"
                )
                replies.append(None)
            else:
                errors.append(
                    f"shard {worker_id}: protocol desync "
                    f"(got {msg[0]!r}, req {msg[1]!r} != {req_id})"
                )
                replies.append(None)
        if errors:
            raise SimulationError("; ".join(errors))
        return replies  # type: ignore[return-value]

    def _fanout(self, shards: List[List[StuckFault]], payload: Tuple,
                drop: bool) -> Dict[StuckFault, int]:
        """One-shot fan-out: per-shard ``sim`` requests, merged masks."""
        with get_recorder().span("pool.fanout", cat="pool",
                                 kind=payload[0], drop=drop,
                                 n_shards=len(shards)):
            requests: List[Tuple[int, int]] = []
            for worker_id, shard in enumerate(shards):
                req_id = next(self._req_ids)
                self._send(worker_id,
                           ("sim", req_id, shard, payload, drop))
                requests.append((worker_id, req_id))
            merged: Dict[StuckFault, int] = {}
            for detected in self._collect(requests):
                merged.update(detected)
            return merged

    # -- one-shot API --------------------------------------------------
    def simulate_stuck(self, faults: Sequence[StuckFault],
                       patterns: Sequence[Mapping[str, int]],
                       drop_detected: bool = False) -> FaultSimResult:
        """Sharded :meth:`~repro.fault.fsim.FaultSimulator.simulate_stuck`.

        The result is identical to the serial call -- same masks, with
        faults listed in submission order (fault-order-stable merge).
        """
        self._ensure_started()
        faults = list(faults)
        patterns = list(patterns)
        if self._serial is not None:
            return self._serial.simulate_stuck(faults, patterns,
                                               drop_detected)
        merged = self._fanout(shard_faults(faults, len(self._workers),
                                           self._shard_block()),
                              ("patterns", patterns), drop_detected)
        return FaultSimResult(
            detected={f: merged[f] for f in faults},
            n_patterns=len(patterns),
        )

    def simulate_stuck_packed(self, faults: Sequence[StuckFault],
                              words: Mapping[str, int], n_patterns: int,
                              drop_detected: bool = False,
                              ) -> FaultSimResult:
        """Sharded simulate from pre-packed per-net input words."""
        self._ensure_started()
        faults = list(faults)
        if self._serial is not None:
            return self._serial.simulate_stuck_packed(
                faults, words, n_patterns, drop_detected
            )
        merged = self._fanout(shard_faults(faults, len(self._workers),
                                           self._shard_block()),
                              ("words", dict(words), n_patterns),
                              drop_detected)
        return FaultSimResult(
            detected={f: merged[f] for f in faults},
            n_patterns=n_patterns,
        )

    # -- session API (multi-round fault dropping) ----------------------
    @property
    def n_active(self) -> int:
        """Faults still active in the loaded session."""
        return len(self._active)

    @property
    def active_faults(self) -> List[StuckFault]:
        """The session's active faults, in load order (a copy)."""
        return list(self._active)

    def load_faults(self, faults: Sequence[StuckFault]) -> None:
        """Load (or replace) the session fault list, sharded across
        workers; subsequent rounds simulate only the active remainder."""
        self._ensure_started()
        self._active = list(faults)
        if self._serial is not None:
            return
        self._reload_shards()

    def _reload_shards(self) -> None:
        """(Re-)deal the parent's active list to every worker.

        Safe at any time -- per-fault masks are shard-independent, so
        re-sharding the same active set merely rebalances work.  The
        respawn path relies on this: after a worker restart, one
        re-deal restores exactly the state a fresh pool would have.
        """
        for worker_id, shard in enumerate(
                shard_faults(self._active, len(self._workers),
                             self._shard_block())):
            self._send(worker_id, ("load", shard))

    def drop_faults(self, faults: Sequence[StuckFault]) -> None:
        """Retire faults resolved outside the simulator (cross-shard
        dropped-fault exchange): removed from the parent's active list
        and broadcast so every shard converges on the same remainder."""
        self._ensure_started()
        retired = set(faults)
        if not retired:
            return
        self._active = [f for f in self._active if f not in retired]
        if self._serial is not None:
            return
        for worker_id in range(len(self._workers)):
            self._send(worker_id, ("drop", sorted(retired)))

    # -- PODEM generation sessions (parallel-ATPG coordinator API) -----
    def ensure_guidance(self, guidance, ghash: str) -> None:
        """Ship SCOAP guidance to every worker at most once per hash.

        The content-hash handshake makes guidance delivery idempotent:
        a worker already holding ``ghash`` is skipped (bumping
        ``pool.guidance_skips``), so in steady state the re-send count
        is zero -- ``pool.guidance_sends`` grows only at session start
        and after a worker respawn.  Serial mode is a no-op (the flow's
        own engines already hold the guidance).
        """
        self._ensure_started()
        if self._serial is not None:
            return
        rec = get_recorder()
        for worker_id in range(len(self._workers)):
            if self._guidance_hash[worker_id] == ghash:
                rec.incr("pool.guidance_skips")
                continue
            self._send(worker_id, ("guide", ghash, guidance))
            self._guidance_hash[worker_id] = ghash
            rec.incr("pool.guidance_sends")

    def podem_submit(self, worker_id: int, fault: StuckFault,
                     policy: Mapping[str, object]) -> int:
        """Start one speculative PODEM search on a worker.

        ``policy`` is the wire form of a
        :class:`~repro.fault.podem.PodemPolicy`
        (:meth:`~repro.fault.podem.PodemPolicy.to_wire`).  Returns the
        request id to pass to :meth:`podem_poll` /
        :meth:`podem_cancel`.  At most one search may be in flight per
        worker -- the worker rejects nested submissions.
        """
        self._ensure_started()
        req_id = next(self._req_ids)
        self._send(worker_id, ("podem", req_id, fault, dict(policy)))
        return req_id

    def podem_cancel(self, worker_id: int, req_id: int) -> None:
        """Ask a worker to abandon a search (it replies "cancelled").

        Send failures are swallowed-but-recorded: a dead worker cannot
        be cancelled, and the respawn path owns that case.
        """
        self._ensure_started()
        try:
            self._send(worker_id, ("cancel", req_id))
        except SimulationError as exc:
            _record_swallowed(f"podem_cancel[{worker_id}]", exc)

    def podem_poll(self, pending: Mapping[int, int],
                   timeout: Optional[float] = 0.05,
                   ) -> Tuple[List[Tuple[int, int, Tuple]], List[int]]:
        """Poll outstanding PODEM requests (``req_id -> worker_id``).

        Returns ``(done, dead)``: ``done`` lists ``(worker_id, req_id,
        reply)`` completions -- stashed replies first, then whatever
        arrived within ``timeout`` -- and ``dead`` lists workers found
        dead without having replied (their requests are lost; the
        caller re-queues the faults and calls :meth:`recover_workers`).
        Both may be empty when nothing happened within the timeout.
        """
        self._ensure_started()
        done: List[Tuple[int, int, Tuple]] = []
        dead: List[int] = []
        for req_id, worker_id in pending.items():
            msg = self._stash[worker_id].pop(req_id, None)
            if msg is not None:
                done.append((worker_id, req_id, msg))
        if done or not pending:
            return done, dead
        worker_ids = sorted(set(pending.values()))
        conns = {self._workers[w][1]: w for w in worker_ids}
        for conn in _wait_connections(list(conns), timeout):
            worker_id = conns[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                self._confirmed_dead.add(worker_id)
                dead.append(worker_id)
                continue
            if msg[0] in ("ok", "err") and msg[1] != -1:
                req_id = msg[1]
                if pending.get(req_id) == worker_id:
                    done.append((worker_id, req_id, msg))
                else:
                    self._stash[worker_id][req_id] = msg
        for worker_id in worker_ids:
            proc, conn = self._workers[worker_id]
            if (worker_id not in dead and not proc.is_alive()
                    and not conn.poll(0)):
                self._confirmed_dead.add(worker_id)
                dead.append(worker_id)
        return done, sorted(set(dead))

    def dead_workers(self) -> List[int]:
        """Ids of workers whose process has exited (serial mode: none)."""
        if self._serial is not None or not self._started:
            return []
        # Include workers whose death was witnessed as a recv EOF:
        # ``is_alive`` can briefly stay True after the child's
        # ``os._exit`` closed its end of the pipe.
        dead = set(self._confirmed_dead)
        dead.update(worker_id
                    for worker_id, (proc, _conn) in enumerate(self._workers)
                    if not proc.is_alive())
        return sorted(dead)

    def restart_worker(self, worker_id: int) -> None:
        """Respawn one worker in place and re-deal the session shards.

        The replacement compiles from the same netlist payload and
        handshakes exactly like a fresh start; its mailbox and
        guidance hash reset (in-flight requests on the dead worker are
        lost -- the coordinator re-queues them).  Because per-fault
        masks are shard-independent, re-dealing the parent's current
        active list to *all* workers afterwards restores exactly the
        state a fresh pool would hold, so determinism is unaffected.
        """
        self._ensure_started()
        if self._serial is not None:
            return
        rec = get_recorder()
        proc, conn = self._workers[worker_id]
        try:
            conn.close()
        except OSError as exc:
            _record_swallowed(f"restart.conn_close[{worker_id}]", exc)
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=_JOIN_GRACE)
        if proc.is_alive():
            proc.kill()
            proc.join()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        new_proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id, self._netlist_data, self.backend),
            daemon=True,
        )
        new_proc.start()
        child_conn.close()
        self._workers[worker_id] = (new_proc, parent_conn)
        self._stash[worker_id] = {}
        self._confirmed_dead.discard(worker_id)
        self._guidance_hash[worker_id] = None
        msg = self._recv(worker_id, timeout=READY_TIMEOUT)
        if msg[0] != "ready":
            raise SimulationError(
                f"shard worker {worker_id} failed to restart: "
                f"{msg[2]}: {msg[3]}" if msg[0] == "err"
                else f"shard worker {worker_id}: bad restart handshake "
                     f"{msg[0]!r}"
            )
        rec.warning("pool.worker_restarted",
                    counter="pool.worker_restarts", worker=worker_id)
        self._reload_shards()

    def recover_workers(self) -> List[int]:
        """Restart every dead worker; returns the restarted ids."""
        restarted = []
        for worker_id in self.dead_workers():
            self.restart_worker(worker_id)
            restarted.append(worker_id)
        return restarted

    def _round(self, payload: Tuple, drop: bool) -> Dict[StuckFault, int]:
        rec = get_recorder()
        with rec.span("pool.round", cat="pool", kind=payload[0],
                      n_active=len(self._active), drop=drop,
                      processes=self.processes):
            if self._serial is not None:
                detected = _shard_detect(self._serial, self._active,
                                         payload, drop)
                hits = {f: m for f, m in detected.items() if m}
            else:
                requests: List[Tuple[int, int]] = []
                for worker_id in range(len(self._workers)):
                    req_id = next(self._req_ids)
                    self._send(worker_id,
                               ("round", req_id, payload, drop))
                    requests.append((worker_id, req_id))
                merged: Dict[StuckFault, int] = {}
                for reply in self._collect(requests):
                    merged.update(reply)
                # Fault-order-stable view of this round's detections.
                hits = {f: merged[f] for f in self._active if f in merged}
            if drop:
                self._active = [f for f in self._active if f not in hits]
        return hits

    def round_packed(self, words: Mapping[str, int], n_patterns: int,
                     drop: bool = True) -> Dict[StuckFault, int]:
        """Simulate one packed-word batch against the active session
        faults; returns the newly detected ``{fault: mask}`` (active
        order) and, in drop mode, retires them from every shard."""
        self._ensure_started()
        return self._round(("words", dict(words), n_patterns), drop)

    def round_patterns(self, patterns: Sequence[Mapping[str, int]],
                       drop: bool = True) -> Dict[StuckFault, int]:
        """Like :meth:`round_packed`, from per-pattern dict vectors."""
        self._ensure_started()
        return self._round(("patterns", list(patterns)), drop)


# ----------------------------------------------------------------------
# CLI: python -m repro fsim
# ----------------------------------------------------------------------
def fsim_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro fsim`` -- (sharded) stuck-at fault simulation.

    The CI smoke surface: ``--check-serial`` asserts the sharded run's
    detection masks are bit-identical to a serial run, and ``--json``
    emits per-circuit records including compile-cache statistics so a
    cold-vs-warm pair of runs can assert the disk tier was hit.
    """
    import argparse
    import json as _json

    from ..bench import load_circuit
    from ..netlist import compile_cache_info
    from ..obs import add_trace_argument, trace_session
    from .collapse import collapse_stuck
    from .fsim import random_pattern_words
    from .models import all_stuck_faults

    parser = argparse.ArgumentParser(
        prog="repro fsim",
        description="Bit-parallel stuck-at fault simulation, optionally "
                    "sharded fault-parallel across a worker pool.",
    )
    parser.add_argument("circuits", nargs="*", default=["s5378"],
                        help="catalog circuit names (default: s5378)")
    parser.add_argument("--processes", type=int, default=1,
                        help="worker processes (1 = serial in-process)")
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "int", "numpy"],
                        help="simulation backend: packed-int kernels, "
                             "numpy wide-batch engine, or auto "
                             "(numpy for multi-word batches when "
                             "importable; default)")
    parser.add_argument("--patterns", type=int, default=64,
                        help="random patterns to simulate (default 64)")
    parser.add_argument("--max-faults", type=int, default=None,
                        help="cap the collapsed fault list at the first "
                             "N faults (smoke runs on stress circuits)")
    parser.add_argument("--seed", type=int, default=7,
                        help="pattern RNG seed (default 7)")
    parser.add_argument("--drop", action="store_true",
                        help="drop-mode (early-exit) masks")
    parser.add_argument("--check-serial", action="store_true",
                        help="also run serially and fail unless the "
                             "masks are bit-identical")
    parser.add_argument("--json", action="store_true",
                        help="one JSON record per circuit (includes "
                             "compile-cache statistics)")
    add_trace_argument(parser)
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error(f"--processes must be >= 1, got {args.processes}")
    if args.patterns < 0:
        parser.error(f"--patterns must be >= 0, got {args.patterns}")
    if args.max_faults is not None and args.max_faults < 0:
        parser.error(f"--max-faults must be >= 0, got {args.max_faults}")

    status = 0
    manifest_extra: Dict[str, object] = {"seed": args.seed,
                                         "circuits": {}}
    with trace_session(args.trace, "fsim", argv=list(argv or []),
                       extra=manifest_extra):
        for name in args.circuits:
            netlist = load_circuit(name)
            faults = collapse_stuck(netlist, all_stuck_faults(netlist))
            if args.max_faults is not None:
                faults = faults[:args.max_faults]
            words = random_pattern_words(netlist, args.patterns,
                                         args.seed)
            start = time.perf_counter()
            with ShardedFaultSimulator(netlist, args.processes,
                                       backend=args.backend) as pool:
                result = pool.simulate_stuck_packed(
                    faults, words, args.patterns, drop_detected=args.drop
                )
            seconds = time.perf_counter() - start
            record = {
                "circuit": name,
                "processes": args.processes,
                "backend": args.backend,
                "n_faults": len(faults),
                "n_patterns": args.patterns,
                "drop": args.drop,
                "coverage": result.coverage,
                "seconds": seconds,
            }
            if args.check_serial:
                # Pinned to the integer kernel so the check stays a
                # genuine cross-backend comparison whatever the pool ran.
                serial = FaultSimulator(
                    netlist, backend=BACKEND_INT,
                ).simulate_stuck_packed(
                    faults, words, args.patterns, drop_detected=args.drop
                )
                identical = serial.detected == result.detected
                record["identical_masks"] = identical
                if not identical:
                    status = 1
            record["compile_cache"] = compile_cache_info()
            manifest_extra["circuits"][name] = {
                k: v for k, v in record.items() if k != "compile_cache"
            }
            if args.json:
                print(_json.dumps(record, sort_keys=True))
            else:
                extra = ""
                if "identical_masks" in record:
                    extra = (" | masks identical to serial"
                             if record["identical_masks"]
                             else " | MASK MISMATCH vs serial")
                print(f"{name}: coverage {result.coverage:.4f} over "
                      f"{len(faults)} faults / {args.patterns} patterns, "
                      f"{args.processes} process(es), "
                      f"{seconds:.3f}s{extra}")
    return status
