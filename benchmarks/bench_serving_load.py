"""Micro-batched vs unbatched serving under concurrent load (runtime v2).

This benchmark backs the serving-v2 headline claim: coalescing concurrent
HTTP requests into pipeline micro-batches (``BatchScheduler``) multiplies
sustained QPS over the PR 2 one-predict-per-request server, because a
single-row predict pays the model's full fixed cost -- streaming the
encoder projection and packed AM through memory plus dozens of numpy
dispatches -- that a 32-row batch pays once.

Methodology: one warm MEMHD model at deployment dimension (D = 8192, the
same scale the packed-similarity bench gates on) is served twice by the
same :class:`ModelServer` -- once with ``batching=False`` (the PR 2
behaviour) and once with the micro-batch scheduler -- and hammered by the
``repro loadtest`` closed-loop generator at concurrency 32 with
single-query requests (the worst case for an unbatched server and the
realistic shape of interactive traffic).  Best-of-``TRIALS`` is reported
per mode, like every timing benchmark in this repo.

Gates (full runs on the native popcount backend):

* batched QPS >= 3x unbatched QPS at concurrency 32;
* zero transport/server errors in either mode;
* batched responses bit-identical to direct single-query
  ``model.predict`` answers.

Under ``--smoke`` the model and load shrink and the speedup gate is
skipped (timing ratios at micro sizes are noise), but the zero-error and
bit-exactness gates always hold.  A second test reports open-loop tail
latency at a fixed offered rate -- the number a capacity plan actually
quotes.

The prefork sweep (``test_prefork_worker_scaling``) extends the story one
layer up: the same packed checkpoint is served by ``WorkerSupervisor``
at increasing ``--workers`` counts over one shared listening socket and
a memory-mapped (zero-copy) AM, and aggregate QPS must scale -- >= 2.5x
a single worker at ``--workers 4`` on machines with >= 4 CPUs and the
native backend.  On smaller machines the sweep still gates zero errors,
bit-exact responses and complete per-worker ``/stats`` attribution.
"""

from __future__ import annotations

import json
import os
import urllib.request

import pytest
from conftest import print_section

from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.data.synthetic import SyntheticSpec, make_synthetic_dataset
from repro.eval.reporting import format_table
from repro.hdc.packed import kernel_backend
from repro.io.registry import ArtifactRegistry
from repro.runtime.config import ServeConfig
from repro.runtime.loadtest import fetch_server_stats, run_load
from repro.runtime.server import ModelServer
from repro.runtime.workers import WorkerConfig, WorkerSupervisor, fork_available

#: The acceptance gate: micro-batching speedup at concurrency 32.
MIN_SPEEDUP = 3.0

#: (dimension D, columns C, features f) of the served model.  At this
#: geometry a single-row predict is dominated by per-call fixed cost
#: (one GEMV streaming the encoder's cached 3.1 MB float64 projection,
#: the packed-AM scan, and the numpy dispatches of each stage), which is
#: exactly what micro-batching amortizes.
FULL_MODEL = (8192, 128, 48)
SMOKE_MODEL = (256, 32, 16)

#: Closed-loop load shape (workers, seconds per trial, trials).
FULL_LOAD = (32, 3.0, 3)
SMOKE_LOAD = (8, 0.8, 1)

#: Micro-batching knobs under test.
MAX_BATCH = 128
MAX_WAIT_MS = 3.0
QUEUE_DEPTH = 512

#: Prefork scale-out gate: aggregate QPS at ``--workers 4`` must beat a
#: single worker by this factor (full runs on machines with >= 4 CPUs).
MIN_PREFORK_SPEEDUP = 2.5

#: Worker counts swept by the prefork benchmark.
FULL_WORKER_SWEEP = (1, 2, 4)
SMOKE_WORKER_SWEEP = (1, 2)


def _trained_model(dimension: int, columns: int, features: int):
    spec = SyntheticSpec(
        num_classes=8,
        num_features=features,
        train_per_class=40,
        test_per_class=16,
        modes_per_class=2,
        latent_dim=min(8, features // 2),
        class_separation=3.0,
        noise_scale=0.3,
    )
    dataset = make_synthetic_dataset("serving-bench", spec, rng=0)
    model = MEMHDModel(
        dataset.num_features,
        dataset.num_classes,
        MEMHDConfig(dimension=dimension, columns=columns, epochs=1, seed=7),
        rng=7,
    )
    model.fit(dataset.train_features, dataset.train_labels)
    return model, dataset


def _server(model, batching: bool) -> ModelServer:
    return ModelServer(
        model,
        engine="packed",
        batching=batching,
        max_batch_size=MAX_BATCH,
        max_wait_ms=MAX_WAIT_MS,
        queue_depth=QUEUE_DEPTH,
        port=0,
    )


def _best_report(url, concurrency, duration, trials, **kwargs):
    best = None
    for _ in range(trials):
        report = run_load(
            url,
            concurrency=concurrency,
            duration_seconds=duration,
            batch_size=1,
            **kwargs,
        )
        if best is None or report.qps > best.qps:
            best = report
    return best


def _row(label: str, report) -> dict:
    summary = report.as_dict()
    summary.pop("errors_by_status")
    summary.pop("duration_s")
    return {"server": label, **summary}


def _assert_bit_exact(url: str, model, dataset) -> None:
    """Batched responses must equal direct single-query predictions."""
    for start in range(0, 32, 8):
        batch = dataset.test_features[start : start + 8]
        request = urllib.request.Request(
            url + "/predict",
            data=json.dumps({"features": batch.tolist()}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            payload = json.loads(response.read().decode("utf-8"))
        expected = [int(label) for label in model.predict(batch, engine="packed")]
        assert payload["labels"] == expected, "batched serving changed predictions"


def test_micro_batching_speedup(smoke):
    dimension, columns, features = SMOKE_MODEL if smoke else FULL_MODEL
    concurrency, duration, trials = SMOKE_LOAD if smoke else FULL_LOAD
    model, dataset = _trained_model(dimension, columns, features)

    reports = {}
    for batching in (False, True):
        with _server(model, batching) as server:
            reports[batching] = _best_report(server.url, concurrency, duration, trials)
            if batching:
                _assert_bit_exact(server.url, model, dataset)

    unbatched, batched = reports[False], reports[True]
    speedup = batched.qps / max(unbatched.qps, 1e-9)
    rows = [_row("unbatched (pr2)", unbatched), _row("micro-batched", batched)]
    print_section(
        f"Serving throughput, D={dimension} C={columns} f={features}, "
        f"concurrency {concurrency} (backend: {kernel_backend()})",
        format_table(rows, float_format="{:.2f}")
        + f"\nmicro-batching speedup: {speedup:.2f}x",
    )

    assert unbatched.errors == 0 and batched.errors == 0, (
        f"load errors: unbatched {unbatched.errors_by_status}, "
        f"batched {batched.errors_by_status}"
    )
    assert unbatched.requests > 0 and batched.requests > 0
    if not smoke and kernel_backend() == "native":
        assert speedup >= MIN_SPEEDUP, (
            f"micro-batching speedup {speedup:.2f}x at concurrency "
            f"{concurrency} is below the {MIN_SPEEDUP}x gate"
        )


def _prefork_speedup_gate_applies(smoke: bool) -> bool:
    """The 2.5x @ 4 workers gate needs real parallel hardware.

    Process scale-out multiplies QPS only when the workers actually run
    on distinct cores, so the gate is enforced exclusively on full runs
    with the native popcount backend and at least 4 CPUs.  Everywhere
    else (``--smoke``, CI's 1-2 vCPU runners, fallback backends) the
    sweep still runs and the zero-error / bit-exactness / aggregation
    assertions still hold -- only the speedup ratio becomes advisory.
    """
    return not smoke and kernel_backend() == "native" and (os.cpu_count() or 1) >= 4


def test_prefork_worker_scaling(smoke, tmp_path):
    """Sweep ``--workers`` over a shared-memory packed checkpoint.

    Serves one registry checkpoint (memory-mapped, so every worker shares
    one physical copy of the packed AM pages) under the closed-loop load
    generator at each worker count.  Always gated: zero errors, bit-exact
    responses at the top worker count, and an aggregated ``/stats`` view
    that attributes traffic to every worker.  Gated on capable machines
    only: >= 2.5x single-worker QPS at 4 workers.
    """
    if not fork_available():
        pytest.skip("prefork serving requires the fork start method")
    dimension, columns, features = SMOKE_MODEL if smoke else FULL_MODEL
    concurrency, duration, trials = SMOKE_LOAD if smoke else FULL_LOAD
    sweep = SMOKE_WORKER_SWEEP if smoke else FULL_WORKER_SWEEP
    model, dataset = _trained_model(dimension, columns, features)
    store = ArtifactRegistry(tmp_path / "store")
    store.save(model, "bench-serve", tag="v1")
    config = WorkerConfig(
        models=("bench-serve:v1",),
        store=str(store.root),
        serve=ServeConfig(
            engine="packed",
            batching=True,
            max_batch_size=MAX_BATCH,
            max_wait_ms=MAX_WAIT_MS,
            queue_depth=QUEUE_DEPTH,
        ),
    )

    reports = {}
    for workers in sweep:
        with WorkerSupervisor(config, workers=workers) as supervisor:
            reports[workers] = _best_report(
                supervisor.url, concurrency, duration, trials
            )
            stats = fetch_server_stats(supervisor.url)
            if workers == sweep[-1]:
                _assert_bit_exact(supervisor.url, model, dataset)
        assert stats["workers_total"] == workers
        assert len(stats["workers"]) == workers, (
            f"aggregated /stats is missing workers: {sorted(stats['workers'])}"
        )
        served = sum(snapshot["requests"] for snapshot in stats["workers"].values())
        assert served >= reports[workers].requests

    base = reports[sweep[0]]
    rows = [
        {
            **_row(f"{workers} worker(s)", report),
            "speedup": report.qps / max(base.qps, 1e-9),
        }
        for workers, report in reports.items()
    ]
    print_section(
        f"Prefork serving scale-out, D={dimension} C={columns} f={features}, "
        f"concurrency {concurrency} (backend: {kernel_backend()}, "
        f"cpus: {os.cpu_count()})",
        format_table(rows, float_format="{:.2f}"),
    )

    for workers, report in reports.items():
        assert report.errors == 0, (
            f"{workers}-worker load errors: {report.errors_by_status}"
        )
        assert report.requests > 0
    if _prefork_speedup_gate_applies(smoke) and 4 in reports:
        speedup = reports[4].qps / max(reports[1].qps, 1e-9)
        assert speedup >= MIN_PREFORK_SPEEDUP, (
            f"prefork speedup {speedup:.2f}x at 4 workers is below the "
            f"{MIN_PREFORK_SPEEDUP}x gate"
        )


def test_open_loop_tail_latency(smoke):
    """Offered-rate latency quantiles: the capacity-planning view.

    An open loop fires on a fixed schedule regardless of completions, so
    queueing delay shows up in p99 instead of silently throttling the
    client (coordinated omission).  Informational -- no latency gate --
    but the run must complete without a single failed request.
    """
    dimension, columns, features = SMOKE_MODEL if smoke else FULL_MODEL
    model, _ = _trained_model(dimension, columns, features)
    concurrency, duration, _ = SMOKE_LOAD if smoke else FULL_LOAD
    rate = 40.0 if smoke else 400.0

    with _server(model, batching=True) as server:
        report = run_load(
            server.url,
            mode="open",
            rate=rate,
            concurrency=concurrency,
            duration_seconds=duration,
            batch_size=1,
        )
        stats = server.pool.get().scheduler.stats.as_dict()

    print_section(
        f"Open-loop serving at {rate:.0f} requests/s",
        format_table([_row("micro-batched", report)], float_format="{:.2f}")
        + f"\nbatch-size histogram: {stats['batch_size_histogram']}",
    )
    assert report.errors == 0, f"open-loop errors: {report.errors_by_status}"
    assert report.requests > 0
