"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions; nothing inside ``src/`` is instrumented.  A
span has a name, a start, an end, the id of the span that caused it and
the id of the request it belongs to.  Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    request: Optional[str]
    parent: Optional[int]
    start: float
    end: float

    @property
    def ms(self) -> float:
        return 1000.0 * (self.end - self.start)


class Tracer:
    """Records one span per call made through :meth:`call`.

    Calls may nest, and a nested call may run on another thread (the
    server's batch dispatcher runs ``InferencePipeline.run``), so the open
    spans form one stack shared by all threads.  That is exact only while
    one request is in flight at a time, which is how the replays run.

    With ``enabled=False`` every call runs unrecorded; timing the same
    replay both ways gives the tracing overhead.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self._open: List[int] = []
        self._lock = threading.Lock()

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._lock:
            span_id = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(span_id, name, self.request, parent, 0.0, 0.0)
            self.spans.append(span)
            self._open.append(span_id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            with self._lock:
                self._open.remove(span_id)

    def wrap(self, owner: Any, attribute: str, name: Callable[..., str]) -> Callable:
        """Record every call of ``owner.attribute`` (an instance method).

        ``name`` maps the call's arguments to the span name.  Returns a
        function that restores the original method.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name(*args, **kwargs), original, *args, **kwargs)

        setattr(owner, attribute, traced)
        return lambda: delattr(owner, attribute)

    # ------------------------------------------------------------ reading
    def durations(self, name: str) -> List[float]:
        return [span.ms for span in self.spans if span.name == name]

    def self_durations(self, name: str) -> List[float]:
        """Each ``name`` span's duration minus the time its children cover."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.ms
        return [
            span.ms - children.get(span.id, 0.0)
            for span in self.spans
            if span.name == name
        ]

    def median_ms(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def total_ms(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
