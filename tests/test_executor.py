"""The shared scheduling loop (repro.eval.executor.run_graph).

Sweep and workflow tests drive it end to end; these cover what they
cannot reach: the in-flight cap, dependency order at width 1, and how
the inline executor delivers exceptions.
"""

import pytest

from repro.eval.executor import InlineExecutor, run_graph


def trace_graph(nodes, workers, needs=lambda node: (), skip=()):
    """Run ``abs`` over ``nodes``; return the launch/settle event log."""
    events = []

    def launch(node):
        events.append(("launch", node))
        return None if node in skip else -node

    def settle(node, future):
        events.append(("settle", node, future.result()))

    run_graph(nodes, abs, launch, settle, workers, needs=needs)
    return events


def test_width_caps_calls_in_flight():
    events = trace_graph([1, 2, 3, 4, 5, 6], workers=2)
    in_flight = peak = 0
    for event in events:
        in_flight += 1 if event[0] == "launch" else -1
        peak = max(peak, in_flight)
    assert peak == 2
    assert sorted(event[1:] for event in events if event[0] == "settle") == [
        (node, node) for node in range(1, 7)
    ]


def test_single_node_runs_inline_whatever_the_width():
    # An unpicklable callable only works if no process pool is involved.
    seen = []

    def settle(node, future):
        seen.append(future.result())

    run_graph([3], lambda node: node * 2, lambda node: node, settle, workers=8)
    assert seen == [6]


def test_width_one_follows_order_and_dependencies():
    needs = {1: (3,), 2: (), 3: (), 4: (1,)}
    events = trace_graph([1, 2, 3, 4], workers=1, needs=needs.__getitem__, skip={3})
    assert events == [
        ("launch", 2),
        ("settle", 2, 2),
        ("launch", 3),  # settled by launch itself: rescan from the top
        ("launch", 1),
        ("settle", 1, 1),
        ("launch", 4),
        ("settle", 4, 4),
    ]


def test_dependency_cycle_is_rejected():
    needs = {1: (2,), 2: (1,)}
    with pytest.raises(ValueError, match="cycle"):
        trace_graph([1, 2], workers=1, needs=needs.__getitem__)


def test_inline_future_carries_exceptions_but_not_interrupts():
    def boom(kind):
        raise kind("stop")

    future = InlineExecutor().submit(boom, RuntimeError)
    assert future.done()
    assert isinstance(future.exception(), RuntimeError)
    with pytest.raises(KeyboardInterrupt):
        InlineExecutor().submit(boom, KeyboardInterrupt)

    errors = []
    run_graph(
        [ValueError],
        boom,
        lambda kind: kind,
        lambda kind, future: errors.append(type(future.exception())),
        workers=1,
    )
    assert errors == [ValueError]
