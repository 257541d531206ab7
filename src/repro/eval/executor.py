"""The one scheduling loop behind sweeps and workflows.

:func:`run_graph` walks a list of nodes in order, launches each once its
dependencies have settled, keeps at most ``workers`` calls in flight and
settles every finished future in the calling process -- so result
stores and the run database only ever see one writer.  Width 1 runs on
an inline executor whose futures complete inside ``submit``, which makes
the serial path the same loop as the process-pool path rather than a
fork beside it.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, Iterable, Optional, Sequence


class InlineExecutor(Executor):
    """Runs each call inside ``submit``: an ``Exception`` lands on the future,
    while ``KeyboardInterrupt`` and ``SystemExit`` propagate."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:  # noqa: BLE001 - delivered via the future
            future.set_exception(error)
        return future


def run_graph(
    nodes: Sequence[Any],
    fn: Callable[[Any], Any],
    launch: Callable[[Any], Optional[Any]],
    settle: Callable[[Any, Future], None],
    workers: int,
    needs: Callable[[Any], Iterable[Any]] = lambda node: (),
) -> None:
    """Run ``fn`` over ``nodes``, ``min(workers, len(nodes))`` at a time.

    ``launch(node)`` is called once every node in ``needs(node)`` has
    settled.  It returns the argument to submit ``fn`` with, or ``None``
    when it settled the node itself (skipped, blocked); the scan then
    restarts from the top of ``nodes``, so width 1 keeps their order
    exactly.  ``settle(node, future)`` receives each finished future --
    result or exception, including a dead pool worker's
    ``BrokenProcessPool`` -- in the calling process.
    """
    width = min(workers, len(nodes))
    if width < 1:
        return
    position = {id(node): index for index, node in enumerate(nodes)}
    deps = [[position[id(need)] for need in needs(node)] for node in nodes]
    waiting = list(range(len(nodes)))
    settled: set = set()
    running: Dict[Future, int] = {}
    pool = InlineExecutor() if width == 1 else ProcessPoolExecutor(max_workers=width)
    with pool:
        while waiting or running:
            ready = None
            if len(running) < width:
                ready = next((i for i in waiting if settled.issuperset(deps[i])), None)
            if ready is not None:
                waiting.remove(ready)
                argument = launch(nodes[ready])
                if argument is None:
                    settled.add(ready)
                    continue
                try:
                    future = pool.submit(fn, argument)
                except Exception as error:  # noqa: BLE001 - e.g. a broken pool
                    future = Future()
                    future.set_exception(error)
                running[future] = ready
                continue
            if not running:
                raise ValueError("dependency cycle among the remaining nodes")
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in sorted(finished, key=running.__getitem__):
                index = running.pop(future)
                settle(nodes[index], future)
                settled.add(index)
