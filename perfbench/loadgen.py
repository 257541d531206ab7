"""The benchmark's own HTTP load generator: open-loop and closed-loop phases.

Open loop: request ``i`` is due at ``t0 + i / rate`` whatever happened to
earlier requests, and its latency runs from that due time to the end of
its response.  A request that waits for a free connection therefore
shows that wait (no coordinated omission).  The generator records how
late it put each request on the send queue, so a run whose generator
fell behind can be told apart from a slow server.

Closed loop: each connection sends its next request as soon as the
previous response is in; the phase reports rows answered per second.

Every response is checked: a 200 must carry exactly the expected labels.
Non-200 answers, transport failures (status 0) and label mismatches all
count as failed.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple
from urllib.parse import urlsplit

REQUEST_TIMEOUT_S = 60.0


@dataclass
class Request:
    body: bytes
    rows: int
    expected: List[int]


@dataclass
class PhaseCounts:
    """Request accounting of one phase."""

    name: str
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    transport_failures: int = 0
    label_mismatches: int = 0
    statuses: Dict[int, int] = field(default_factory=dict)
    rows_ok: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, status: int, ok: bool, rows: int) -> None:
        with self._lock:
            self.attempted += 1
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if ok:
                self.succeeded += 1
                self.rows_ok += rows
            else:
                self.failed += 1
                if status == 0:
                    self.transport_failures += 1
                elif status == 200:
                    self.label_mismatches += 1


class Connection:
    """One keep-alive HTTP/1.1 connection posting ``/predict`` bodies."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url)
        self._host = parts.hostname
        self._port = parts.port
        self._conn = None

    def post(self, body: bytes) -> Tuple[int, bytes]:
        """Send one body; ``(0, b"")`` on a transport failure."""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=REQUEST_TIMEOUT_S
                )
            self._conn.request(
                "POST",
                "/predict",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _check(status: int, data: bytes, request: Request) -> bool:
    if status != 200:
        return False
    try:
        labels = json.loads(data)["labels"]
    except (ValueError, KeyError, TypeError):
        return False
    return labels == request.expected


@dataclass
class OpenLoopResult:
    counts: PhaseCounts
    #: Latency of every request answered correctly.
    latencies_ms: List[float]
    #: How late the generator queued each request.
    late_ms: List[float]


def open_loop(
    url: str,
    requests: Sequence[Request],
    rate: float,
    seconds: float,
    connections: int,
    name: str = "open-loop",
) -> OpenLoopResult:
    """Send ``rate * seconds`` requests on a fixed schedule."""
    total = max(1, int(rate * seconds))
    counts = PhaseCounts(name)
    due_queue: "queue.Queue" = queue.Queue()
    latencies: List[float] = [0.0] * total
    ok_flags: List[bool] = [False] * total
    late: List[float] = []
    start = time.perf_counter() + 0.01

    def worker() -> None:
        connection = Connection(url)
        try:
            while True:
                item = due_queue.get()
                if item is None:
                    return
                index, due = item
                request = requests[index % len(requests)]
                status, data = connection.post(request.body)
                latencies[index] = 1000.0 * (time.perf_counter() - due)
                ok = _check(status, data, request)
                ok_flags[index] = ok
                counts.record(status, ok, request.rows)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    try:
        for index in range(total):
            due = start + index / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(1000.0 * max(0.0, time.perf_counter() - due))
            due_queue.put((index, due))
    finally:
        for _ in threads:
            due_queue.put(None)
        for thread in threads:
            thread.join()
    return OpenLoopResult(
        counts=counts,
        latencies_ms=[lat for lat, ok in zip(latencies, ok_flags) if ok],
        late_ms=late,
    )


@dataclass
class ClosedLoopResult:
    counts: PhaseCounts
    elapsed_s: float


def closed_loop(
    url: str,
    requests: Sequence[Request],
    seconds: float,
    connections: int,
    name: str = "closed-loop",
) -> ClosedLoopResult:
    """Each connection sends back to back until ``seconds`` have passed."""
    counts = PhaseCounts(name)
    next_index = iter(range(1 << 62))
    index_lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def worker() -> None:
        connection = Connection(url)
        try:
            while time.perf_counter() < stop_at:
                with index_lock:
                    index = next(next_index)
                request = requests[index % len(requests)]
                status, data = connection.post(request.body)
                counts.record(status, _check(status, data, request), request.rows)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ClosedLoopResult(counts, time.perf_counter() - start)
