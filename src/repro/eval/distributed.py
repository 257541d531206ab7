"""Distributed elastic sweeps over a shared store directory.

The PR 3 sweep engine is process-pool-on-one-host; this module scales it
out.  The append-only :class:`~repro.eval.store.ResultStore` keyed by
config hashes is already a work ledger -- any worker can look at it and
know exactly which cells remain -- so all the distributed layer adds is
*mutual exclusion with crash recovery*: *who* is currently computing a
missing cell.  That is done with lease files on the shared directory (a
POSIX filesystem both workers can see: one machine's tmpdir for tests
and CI, NFS or similar for real multi-host pools):

* **claim** -- hard-link a fully written staging file to ``<key>.lease``:
  the kernel lets exactly one ``link`` win, no server or database needed,
  and no reader sees a half-written claim.  The lease body records
  worker id, hostname, pid and claim time; liveness is its **mtime**.
* **renew** -- a heartbeat thread touches every held lease (``os.utime``)
  every ``ttl/4`` seconds.  Renewal never rewrites the body, so a
  reader can never observe a torn lease from a *live* owner.
* **expire** -- a lease whose mtime is older than the TTL belongs to a
  crashed (or partitioned) worker.  Unparsable/empty lease bodies --
  a damaged claim record -- are treated as expired immediately.
* **reclaim** -- takeover is ``os.rename`` of the stale lease to a
  unique tombstone: rename is atomic, so of N racing reclaimers exactly
  one wins (the rest get ``FileNotFoundError``), and the winner then
  re-runs the ordinary claim and removes the tombstone.  If another
  worker's ordinary claim lands between the rename and that claim, the
  tombstone stays for it: finding one tells it that it took over a dead
  worker's cell, and it logs the claim as a reclaim.
* **release** -- the result is appended to the shared store *first*,
  then the lease is unlinked.  A crash between the two is safe: the next
  claimant re-checks the store after claiming and releases immediately.

Exactly-once per cell follows for live workers: a cell's result can only
be computed under a held lease, leases have a single owner between claim
and expiry, and a completed cell is never claimed again (claimants check
``completed_keys()`` before and after claiming).  A worker that stalls
past its TTL without renewing can be raced by a reclaimer -- the
classic lease caveat -- but config-hash dedup in the store makes a
double-completion harmless (last write wins with identical deterministic
metrics) and *observable* in the events log.

Every claim/completion/reclaim is appended to ``events.jsonl`` next to
the store, which is how ``repro sweep status`` attributes work per
worker.  The wall clock is injectable (``clock=``) so the Hypothesis
property tests drive the whole protocol over a simulated clock.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import multiprocessing
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.eval.store import ResultRecord, ResultStore
from repro.eval.sweep import (
    SweepError,
    SweepSpec,
    _cell_label,
    execute_job,
    expand_jobs,
    store_cell,
)

#: Default lease time-to-live.  A worker that misses every heartbeat for
#: this long is presumed dead and its cell is reclaimed.  Heartbeats fire
#: every ``ttl/4``, so transient scheduling hiccups do not forfeit cells.
DEFAULT_TTL_S = 30.0

#: File name of the shared result store inside a ``--store-dir``.
RESULTS_NAME = "results.jsonl"

#: Subdirectory of the store dir holding one ``<key>.lease`` per claim.
LEASES_NAME = "leases"

#: Append-only per-worker attribution log next to the results file.
EVENTS_NAME = "events.jsonl"


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique per live worker, readable in status."""
    return f"{socket.gethostname()}-{os.getpid()}"


# --------------------------------------------------------------------------
# Events log (per-worker attribution)
# --------------------------------------------------------------------------
def append_event(path: Union[str, os.PathLike], payload: Dict[str, Any]) -> None:
    """Append one JSON event line with a single ``O_APPEND`` write.

    The log is advisory (attribution and chaos-test observability, never
    correctness), so there is no fsync; the single ``os.write`` of one
    short line keeps concurrent workers' lines from interleaving.
    """
    line = json.dumps(payload, sort_keys=True) + "\n"
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def read_events(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Every parseable event line, in append order (torn tails skipped)."""
    path = Path(path)
    if not path.is_file():
        return []
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail from a killed writer
    return events


# --------------------------------------------------------------------------
# Leases
# --------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LeaseState:
    """One lease file as observed on disk."""

    key: str
    renewed_unix: float  #: mtime -- the heartbeat timestamp
    worker: Optional[str]  #: ``None`` when the body is torn/unparsable
    hostname: Optional[str] = None
    pid: Optional[int] = None
    claimed_unix: Optional[float] = None
    token: Optional[str] = None  #: unique per claim -- ownership witness

    @property
    def torn(self) -> bool:
        return self.worker is None


class LeaseDir:
    """Lease-file protocol over one shared directory.

    Parameters
    ----------
    root:
        Directory holding the ``<key>.lease`` files (created on demand).
    worker_id:
        Identity written into every claim this instance makes.
    ttl_s:
        Seconds after the last heartbeat at which a lease expires.
    clock:
        Wall-clock source.  Injectable so property tests can replay
        claim/renew/expire interleavings over a simulated clock; lease
        mtimes are always written from this clock (``os.utime`` with
        explicit times), never from the filesystem's idea of "now".
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        worker_id: str,
        ttl_s: float = DEFAULT_TTL_S,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl_s <= 0:
            raise SweepError(f"lease ttl must be positive, got {ttl_s}")
        self.root = Path(root)
        self.worker_id = str(worker_id)
        self.ttl_s = float(ttl_s)
        self.clock = clock
        self._lock = threading.Lock()
        #: ``key -> (path, token)``.  The token (unique per claim, written
        #: into the lease body) pins *our* lease file: after a reclaim the
        #: path holds the thief's file with a different token, which is
        #: how renew/release notice the loss instead of touching it.
        #: (Inode comparison is not enough -- common filesystems reuse
        #: inode numbers immediately after an unlink.)
        self._held: Dict[str, tuple] = {}
        self._tombstones = 0

    # ------------------------------------------------------------------ paths
    def lease_path(self, key: str) -> Path:
        return self.root / f"{key}.lease"

    @property
    def held_keys(self) -> List[str]:
        with self._lock:
            return sorted(self._held)

    # ------------------------------------------------------------------ claim
    def try_claim(self, key: str) -> Optional[str]:
        """Attempt to become ``key``'s owner.

        Returns ``"claimed"`` (fresh cell), ``"reclaimed"`` (took over an
        expired/torn lease) or ``None`` (someone else owns it, or we lost
        a race).  Never blocks.

        A reclaim renames the expired lease aside (a tombstone) and then
        creates its own.  A plain create that lands in that gap is also a
        takeover of the dead worker's cell; it finds the tombstone, which
        the renamer leaves when its create fails, and reports
        ``"reclaimed"``, so the dead worker's lease is counted as expired.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if self._create(key):
            return "reclaimed" if self._clear_tombstones(key) else "claimed"
        state = self.read(key)
        if state is None:
            # Owner released between our failed create and the read; the
            # cell is most likely completed -- the caller re-checks the
            # store and retries next pass otherwise.
            return None
        if not self.is_expired(state):
            return None
        # Takeover: atomically move the stale lease aside.  Exactly one of
        # N racing reclaimers wins the rename; the losers see ENOENT.
        path = self.lease_path(key)
        with self._lock:
            self._tombstones += 1
            count = self._tombstones
        tombstone = path.with_name(
            f"{path.name}.stale.{self.worker_id}.{os.getpid()}.{count}"
        )
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return None  # lost the reclaim race (or the owner released)
        if self._create(key):
            self._clear_tombstones(key)
            return "reclaimed"
        # A third worker claimed between our rename and create; the
        # tombstone stays for it to find.
        return None

    def _clear_tombstones(self, key: str) -> bool:
        """Remove ``key``'s renamed-aside leases; True if there were any."""
        pattern = glob.escape(self.lease_path(key).name) + ".stale.*"
        found = False
        for tombstone in self.root.glob(pattern):
            tombstone.unlink(missing_ok=True)
            found = True
        return found

    def _create(self, key: str) -> bool:
        path = self.lease_path(key)
        now = float(self.clock())
        token = os.urandom(8).hex()
        body = json.dumps(
            {
                "worker": self.worker_id,
                "hostname": socket.gethostname(),
                "pid": os.getpid(),
                "claimed_unix": now,
                "token": token,
            },
            sort_keys=True,
        )
        # An O_EXCL create would show racers an empty (torn) body to reclaim.
        staging = path.with_name(f"{path.name}.new.{token}")
        try:
            staging.write_bytes(body.encode("utf-8"))
            os.utime(staging, (now, now))
            os.link(staging, path)
        except FileExistsError:
            return False
        finally:
            staging.unlink(missing_ok=True)
        with self._lock:
            self._held[key] = (path, token)
        return True

    # ------------------------------------------------------------------- read
    def read(self, key: str) -> Optional[LeaseState]:
        """The on-disk state of ``key``'s lease (``None`` when absent)."""
        path = self.lease_path(key)
        try:
            raw = path.read_bytes()
            mtime = path.stat().st_mtime
        except (FileNotFoundError, NotADirectoryError):
            return None
        try:
            body = json.loads(raw.decode("utf-8"))
            worker = str(body["worker"])
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError):
            # Torn/empty claim record: the creator died mid-write.  Treated
            # as expired regardless of mtime (pinned by the property tests).
            return LeaseState(key=key, renewed_unix=float(mtime), worker=None)
        return LeaseState(
            key=key,
            renewed_unix=float(mtime),
            worker=worker,
            hostname=body.get("hostname"),
            pid=body.get("pid"),
            claimed_unix=body.get("claimed_unix"),
            token=body.get("token"),
        )

    def is_expired(self, state: LeaseState) -> bool:
        """Torn leases are expired immediately; live ones after the TTL."""
        if state.torn:
            return True
        return (float(self.clock()) - state.renewed_unix) > self.ttl_s

    def scan(self) -> List[LeaseState]:
        """Every lease currently on disk (races tolerated, best-effort)."""
        if not self.root.is_dir():
            return []
        states = []
        for path in sorted(self.root.glob("*.lease")):
            state = self.read(path.name[: -len(".lease")])
            if state is not None:
                states.append(state)
        return states

    # ---------------------------------------------------------------- renew
    def renew(self) -> List[str]:
        """Heartbeat every held lease; returns keys lost to reclaimers.

        Renewal is ``os.utime`` only -- the body is never rewritten, so a
        concurrent reader can never see a torn lease from a live owner.
        A missing file, or a file carrying a different claim token (a
        reclaimer raced us after a stall and re-created the lease as its
        own), means the key is lost: dropped from the held set and
        reported, and the usurper's file is left untouched.
        """
        now = float(self.clock())
        lost: List[str] = []
        with self._lock:
            held = dict(self._held)
        for key, (path, token) in held.items():
            state = self.read(key)
            if state is None or state.token != token:
                lost.append(key)
                with self._lock:
                    self._held.pop(key, None)
                continue
            try:
                os.utime(path, (now, now))
            except FileNotFoundError:
                lost.append(key)
                with self._lock:
                    self._held.pop(key, None)
        return lost

    # --------------------------------------------------------------- release
    def release(self, key: str) -> None:
        """Drop ownership of ``key`` (missing file already means released).

        Only *our* lease file (matched by claim token) is unlinked: if a
        reclaimer took over after we stalled past the TTL, the path now
        holds their live lease and must survive our belated release.
        """
        with self._lock:
            held = self._held.pop(key, None)
        if held is None:
            return
        path, token = held
        state = self.read(key)
        if state is None or state.token != token:
            return
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def release_all(self) -> None:
        for key in self.held_keys:
            self.release(key)


# --------------------------------------------------------------------------
# The elastic worker loop
# --------------------------------------------------------------------------
@dataclasses.dataclass
class DistributedRunResult:
    """Accounting of one worker's participation in an elastic sweep."""

    worker_id: str
    total: int
    completed: int
    skipped: int
    reclaimed: int
    failed: List[Dict[str, str]]
    records: List[ResultRecord]
    grid_complete: bool

    @property
    def ok(self) -> bool:
        return not self.failed and self.grid_complete

    def summary(self) -> str:
        state = "complete" if self.grid_complete else "INCOMPLETE"
        return (
            f"worker {self.worker_id}: grid {state}, {self.total} cell(s), "
            f"{self.completed} executed here ({self.reclaimed} reclaimed), "
            f"{self.skipped} already in store, {len(self.failed)} failed"
        )


def store_paths(store_dir: Union[str, os.PathLike]) -> Dict[str, Path]:
    """Canonical layout of a shared sweep store directory."""
    root = Path(store_dir)
    return {
        "root": root,
        "results": root / RESULTS_NAME,
        "leases": root / LEASES_NAME,
        "events": root / EVENTS_NAME,
    }


def run_distributed(
    spec: SweepSpec,
    store_dir: Union[str, os.PathLike],
    worker_id: Optional[str] = None,
    ttl_s: float = DEFAULT_TTL_S,
    poll_s: Optional[float] = None,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    clock: Callable[[], float] = time.time,
) -> DistributedRunResult:
    """Join (or start) the elastic pool computing ``spec`` over ``store_dir``.

    The worker repeatedly scans the grid for cells missing from the
    shared store, claims one via the lease protocol, executes it inline,
    appends the result, and releases the lease.  It returns when every
    cell of the grid is in the store (whoever computed it) or, when
    ``max_cells`` is set, after executing that many cells -- so workers
    can join late, die and rejoin at any time, and the union of survivors
    completes the grid.

    ``poll_s`` is the idle rescan interval while other workers hold the
    remaining cells (default ``min(1, ttl/4)``).
    """
    if max_cells is not None and max_cells < 0:
        raise SweepError(f"max_cells must be >= 0, got {max_cells}")
    paths = store_paths(store_dir)
    paths["root"].mkdir(parents=True, exist_ok=True)
    worker = worker_id or default_worker_id()
    store = ResultStore(paths["results"])
    leases = LeaseDir(paths["leases"], worker, ttl_s=ttl_s, clock=clock)
    poll = float(poll_s) if poll_s is not None else min(1.0, ttl_s / 4.0)
    jobs = expand_jobs(spec)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    def event(name: str, **extra: Any) -> None:
        payload = {"ts": float(clock()), "worker": worker, "event": name}
        payload.update(extra)
        append_event(paths["events"], payload)

    # Heartbeat: renew held leases at ttl/4 so a live worker never expires.
    stop_heartbeat = threading.Event()

    def heartbeat() -> None:
        interval = max(0.05, ttl_s / 4.0)
        while not stop_heartbeat.wait(interval):
            for lost in leases.renew():
                event("lease-lost", key=lost)

    heartbeat_thread = threading.Thread(
        target=heartbeat, name=f"lease-heartbeat-{worker}", daemon=True
    )

    records: List[ResultRecord] = []
    failed: List[Dict[str, str]] = []
    locally_failed: set = set()
    reclaimed = 0
    skipped_initially = len(store.completed_keys() & {job.key for job in jobs})
    event("join", cells=len(jobs))
    note(f"worker {worker}: joined pool over {paths['root']} ({len(jobs)} cell(s))")
    heartbeat_thread.start()
    try:
        while True:
            done = store.completed_keys()
            pending = [
                job
                for job in jobs
                if job.key not in done and job.key not in locally_failed
            ]
            if not pending:
                break
            if max_cells is not None and len(records) >= max_cells:
                break
            progressed = False
            for job in pending:
                if max_cells is not None and len(records) >= max_cells:
                    break
                claim = leases.try_claim(job.key)
                if claim is None:
                    continue
                if claim == "reclaimed":
                    reclaimed += 1
                # Re-check under the lease: the previous owner may have
                # appended the result and crashed before releasing.
                if job.key in store.completed_keys():
                    leases.release(job.key)
                    progressed = True
                    continue
                event(claim, key=job.key)
                note(f"  {claim} {_cell_label(job.config)} [{job.key}]")
                try:
                    record = store_cell(
                        store,
                        job,
                        lambda: execute_job(job.as_dict()),
                        records,
                        failed,
                        note,
                    )
                    if record is None:
                        locally_failed.add(job.key)
                        event("failed", key=job.key, error=failed[-1]["error"])
                    else:
                        event("completed", key=job.key)
                finally:
                    leases.release(job.key)
                progressed = True
            if not progressed:
                # Every remaining cell is leased by another live worker:
                # wait for their results to land, or their leases to expire.
                time.sleep(poll)
    finally:
        stop_heartbeat.set()
        heartbeat_thread.join(timeout=5.0)
        leases.release_all()
        remaining = {job.key for job in jobs} - store.completed_keys()
        event("leave", completed=len(records), remaining=len(remaining))
    return DistributedRunResult(
        worker_id=worker,
        total=len(jobs),
        completed=len(records),
        skipped=skipped_initially,
        reclaimed=reclaimed,
        failed=failed,
        records=records,
        grid_complete=not remaining,
    )


# --------------------------------------------------------------------------
# Same-host pools (orchestrate's `distributed:` config, benchmarks, tests)
# --------------------------------------------------------------------------
def _pool_worker_main(
    spec_payload: Dict[str, Any],
    store_dir: str,
    worker_id: str,
    ttl_s: float,
    poll_s: Optional[float],
) -> None:
    """Entry point of one pool subprocess (module-level: picklable)."""
    spec = SweepSpec.from_dict(spec_payload)
    result = run_distributed(
        spec, store_dir, worker_id=worker_id, ttl_s=ttl_s, poll_s=poll_s
    )
    raise SystemExit(0 if result.ok else 1)


def run_distributed_pool(
    spec: SweepSpec,
    store_dir: Union[str, os.PathLike],
    workers: int = 2,
    ttl_s: float = DEFAULT_TTL_S,
    poll_s: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run ``workers`` elastic subprocess workers over one shared store.

    The same-machine convenience wrapper used by the orchestrate runner's
    ``distributed:`` sweep config and the chaos benchmark: real multi-host
    pools just start ``repro sweep run --distributed`` everywhere instead.
    Success is judged by the *grid*, not the workers -- a worker may die
    (elastic pools tolerate that) as long as the union of survivors
    completed every cell.
    """
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    paths = store_paths(store_dir)
    context = multiprocessing.get_context()
    processes = [
        context.Process(
            target=_pool_worker_main,
            args=(spec.to_dict(), str(paths["root"]), f"pool-{index}", ttl_s, poll_s),
            daemon=False,
        )
        for index in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    if progress is not None:
        exits = [process.exitcode for process in processes]
        progress(f"pool: {workers} worker(s) exited with codes {exits}")
    store = ResultStore(paths["results"])
    done = store.completed_keys()
    missing = [job.key for job in spec.expand() if job.key not in done]
    if missing:
        raise SweepError(
            f"distributed pool finished with {len(missing)} incomplete "
            f"cell(s): {missing[:5]}{'...' if len(missing) > 5 else ''}"
        )
    return {
        "workers": workers,
        "cells": len(spec.expand()),
        "exit_codes": [process.exitcode for process in processes],
        "results": str(paths["results"]),
    }


# --------------------------------------------------------------------------
# Status / attribution
# --------------------------------------------------------------------------
def pool_status(
    store_dir: Union[str, os.PathLike],
    ttl_s: float = DEFAULT_TTL_S,
    clock: Callable[[], float] = time.time,
) -> Dict[str, Any]:
    """Per-worker attribution + live lease view of a shared store dir.

    Aggregated from the events log (claims, reclaims, completions,
    failures; ``expired`` counts a worker's leases that *other* workers
    reclaimed -- i.e. cells it lost by dying or stalling) and a scan of
    the lease directory (currently-held and currently-expired leases).
    """
    paths = store_paths(store_dir)
    events = read_events(paths["events"])
    workers: Dict[str, Dict[str, int]] = {}

    def row(worker: str) -> Dict[str, int]:
        return workers.setdefault(
            worker,
            {"claimed": 0, "reclaimed": 0, "completed": 0, "failed": 0, "expired": 0},
        )

    last_owner: Dict[str, str] = {}
    for entry in events:
        worker = str(entry.get("worker", "?"))
        name = entry.get("event")
        key = entry.get("key")
        if name == "claimed":
            row(worker)["claimed"] += 1
            last_owner[str(key)] = worker
        elif name == "reclaimed":
            row(worker)["reclaimed"] += 1
            previous = last_owner.get(str(key))
            if previous is not None and previous != worker:
                row(previous)["expired"] += 1
            last_owner[str(key)] = worker
        elif name == "completed":
            row(worker)["completed"] += 1
        elif name == "failed":
            row(worker)["failed"] += 1
    scanner = LeaseDir(paths["leases"], worker_id="status", ttl_s=ttl_s, clock=clock)
    active = []
    expired = []
    for state in scanner.scan():
        entry = {
            "key": state.key,
            "worker": state.worker or "<torn>",
            "age_s": max(0.0, float(clock()) - state.renewed_unix),
        }
        (expired if scanner.is_expired(state) else active).append(entry)
    store = ResultStore(paths["results"])
    return {
        "results": str(paths["results"]),
        "completed_cells": len(store.completed_keys()),
        "workers": {worker: workers[worker] for worker in sorted(workers)},
        "active_leases": active,
        "expired_leases": expired,
    }
