"""The three workloads: two served over HTTP, one in-process training run.

Every workload reports every end-to-end metric.  The serving workloads
measure latency and throughput over HTTP and take ``train_s``,
``eval_qps`` and ``test_accuracy`` from the model their set-up trains.
The training workload takes its latency and throughput from single-row
``predict(engine="packed")`` calls on the model it trained, in process.

The dataset surrogate and the model seed are fixed per workload; the run
seed picks the request rows, their grouping and their order.  A
seed-driven surrogate or model seed would make the seed-to-seed spread
measure the generator: across five seeds, test accuracy ranged from 0.64
to 0.89 and training updates by 3x.

Each piece of timed work is followed by a burst of the host-speed kernel
(``hostspeed.py``).  Timed metrics are reported at the sizing host's
speed, and their raw values are kept beside them.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

import layers
import loadgen
from daemon import ServerProcess, vm_hwm_mb
from hostspeed import HostSpeed
from repro import MEMHDConfig, MEMHDModel, load_dataset
from repro.io.registry import ArtifactRegistry
from spans import Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Seed of every workload's model (random projection, k-means, shuffles).
MODEL_SEED = 0
#: Rounds a serving run is split into (see ``run_serving``).
ROUNDS = 8
#: Share of ``--seconds`` spent in closed-loop phases; open-loop phases
#: get the rest.
CLOSED_LOOP_SHARE = 0.4
#: Requests replayed stage by stage in a traced serving run.
REPLAYED_REQUESTS = 100
#: Length of one in-process evaluation burst.
EVAL_BURST_S = 0.3
#: Length of one burst of the host-speed kernel.
HOST_BURST_S = 0.3
#: Fewest fits a training run makes, however short ``--seconds`` is.
MIN_FITS = 3
#: A serving run refits once per round while a fit takes less than this.
REFIT_BELOW_S = 1.0

#: A timed sample and the host's slowdown measured right after it.
Timed = Tuple[float, float]


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    dimension: int
    columns: int
    epochs: int
    #: Rows per request and open-loop rate (serving workloads only).
    rows_per_request: int = 0
    rate: float = 0.0

    @property
    def serving(self) -> bool:
        return self.rows_per_request > 0

    def config(self) -> MEMHDConfig:
        return MEMHDConfig(
            dimension=self.dimension, columns=self.columns,
            epochs=self.epochs, seed=MODEL_SEED,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The encoder dominates: one 784x8192 projection per row, and a
        # 16 KB body decodes in well under 1% of the request.  Requests
        # are due every 50 ms, over twice the ~20 ms one takes.  At
        # 40 req/s (every 25 ms) a host a fifth slower than the median
        # run queues them, and the p50 then measures the queue.
        Workload("serve-wide-single", "mnist", 0.05, 8192, 128, 1,
                 rows_per_request=1, rate=20.0),
        # The wire dominates: ~1 MB JSON bodies and a 128x128 model (the
        # paper's array geometry).  Closed loop on 2 connections
        # saturates near 48 req/s on 2 CPUs, and near 32 req/s while the
        # host is contended; 24 req/s is half of the first.
        Workload("serve-narrow-batch64", "mnist", 0.05, 128, 128, 1,
                 rows_per_request=64, rate=24.0),
        # Initialization and training dominate, and every epoch rewrites
        # the memory the serving workloads only read.
        Workload("train-128x128", "fmnist", 0.5, 128, 128, 30),
    )
}


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    phases: List[loadgen.PhaseCounts] = field(default_factory=list)
    checks_attempted: int = 0
    failed_checks: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Timed end-to-end metrics as measured, before scaling.
    raw: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks_attempted += 1
        if not ok:
            self.failed_checks.append(name)

    def timed(self, name: str, values: Tuple[float, float]) -> None:
        """Record a timed metric from its (raw, at reference speed) pair."""
        self.raw[name], self.metrics[name] = values

    @property
    def attempted(self) -> int:
        return self.checks_attempted + sum(p.attempted for p in self.phases)

    @property
    def failed(self) -> int:
        return len(self.failed_checks) + sum(p.failed for p in self.phases)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _median(samples: Sequence[Timed]) -> Tuple[float, float]:
    """Median of timed samples: raw, and at the reference host speed."""
    return (
        statistics.median(value for value, _ in samples),
        statistics.median(value / slowdown for value, slowdown in samples),
    )


def _rate(bursts: Sequence[Tuple[int, float, float]]) -> Tuple[float, float]:
    """Rows per second over ``(rows, seconds, slowdown)`` bursts: raw, and
    at the reference host speed."""
    seconds = sum(elapsed for _, elapsed, _ in bursts)
    return (
        sum(rows for rows, _, _ in bursts) / seconds,
        sum(rows * slowdown for rows, _, slowdown in bursts) / seconds,
    )


def _eval_burst(model, test: np.ndarray, seconds: float) -> Tuple[int, float]:
    """Back-to-back ``predict(engine="packed")`` over the split.

    Returns the rows predicted and the seconds that took.
    """
    rows = 0
    start = time.perf_counter()
    end = start + seconds
    while not rows or time.perf_counter() < end:
        model.predict(test, engine="packed")
        rows += len(test)
    return rows, time.perf_counter() - start


def _accuracy(out: Outcome, model, dataset) -> np.ndarray:
    """``test_accuracy``; checks float == packed labels on the test split."""
    test = dataset.test_features
    packed = model.predict(test, engine="packed")
    out.check("float == packed on the test split",
              np.array_equal(model.predict(test, engine="float"), packed))
    out.metrics["test_accuracy"] = float(np.mean(packed == dataset.test_labels))
    return packed


# ---------------------------------------------------------------- serving
def _requests(rows_per_request: int, count: int, model, dataset,
              seed: int) -> List[loadgen.Request]:
    """Request bodies from the test split, at full float precision.

    Single-row requests walk the whole split in a seeded order; larger
    ones are ``count`` seeded draws without replacement.
    """
    rng = np.random.default_rng(seed)
    test = dataset.test_features
    expected = model.predict(test, engine="float")
    if rows_per_request == 1:
        groups = [[index] for index in rng.permutation(len(test))]
    else:
        groups = [
            rng.choice(len(test), size=rows_per_request, replace=False)
            for _ in range(count)
        ]
    return [
        loadgen.Request(
            body=json.dumps({"features": test[group].tolist()}).encode("utf-8"),
            rows=len(group),
            expected=[int(label) for label in expected[group]],
        )
        for group in groups
    ]


def _fit(workload: Workload, dataset):
    """A freshly fitted model and the wall time of its ``fit``."""
    model = MEMHDModel(dataset.num_features, dataset.num_classes, workload.config())
    start = time.perf_counter()
    model.fit(dataset.train_features, dataset.train_labels)
    return model, time.perf_counter() - start


def _serve_setup(workload: Workload, root: str, workdir: str, index: int,
                 servers: List[ServerProcess]):
    """Dataset, fit, checkpoint, server boot, ``/healthz`` green."""
    start = time.perf_counter()
    dataset = load_dataset(workload.dataset, scale=workload.scale)
    model, fit_s = _fit(workload, dataset)
    store = os.path.join(workdir, f"registry-{index}")
    ArtifactRegistry(store).save(model, "memhd", tag="v1")
    server = ServerProcess(root, store, "memhd:v1",
                           os.path.join(workdir, f"server-{index}.log"))
    servers.append(server)
    server.wait_ready()
    return dataset, model, server, time.perf_counter() - start, fit_s


def run_serving(workload: Workload, seed: int, seconds: float, trace: bool,
                root: str, workdir: str, tracer: Tracer, host: HostSpeed) -> Outcome:
    out = Outcome()
    servers: List[ServerProcess] = []
    try:
        setup_s: List[Timed] = []
        fit_s: List[Timed] = []
        memories = []
        for index in range(SETUPS):
            dataset, model, server, setup, fit = _serve_setup(
                workload, root, workdir, index, servers
            )
            slowdown = host.slowdown(HOST_BURST_S)
            setup_s.append((setup, slowdown))
            fit_s.append((fit, slowdown))
            memories.append(model.associative_memory.binary_memory)
            if index < SETUPS - 1:
                server.stop()
        out.check("fit is deterministic",
                  all(np.array_equal(m, memories[0]) for m in memories))
        out.timed("setup_s", _median(setup_s))
        out.notes["server_backend"] = server.backend

        requests = _requests(workload.rows_per_request, 24, model, dataset, seed)
        _accuracy(out, model, dataset)
        test = dataset.test_features
        connections = min(2, len(os.sched_getaffinity(0)))
        warmup = loadgen.closed_loop(server.url, requests, 0.5, connections,
                                     name="warm-up")
        out.phases.append(warmup.counts)

        # ROUNDS rounds of open loop, closed loop, an in-process evaluation
        # burst, (when it is cheap) a fit and a host-speed burst, so every
        # figure samples the whole run.  The closed loop runs on one
        # connection: on two, over ten runs, its throughput spread twice
        # as wide as the open loop's latency.
        open_s = seconds * (1.0 - CLOSED_LOOP_SHARE) / ROUNDS
        closed_s = seconds * CLOSED_LOOP_SHARE / ROUNDS
        latencies: List[Timed] = []
        late_ms, closed_bursts, eval_bursts = [], [], []
        for round_index in range(ROUNDS):
            gc.collect()
            opened = loadgen.open_loop(server.url, requests, workload.rate, open_s,
                                       connections, name=f"open-{round_index}")
            closed = loadgen.closed_loop(server.url, requests, closed_s, 1,
                                         name=f"closed-{round_index}")
            refit = None
            if fit_s[-1][0] < REFIT_BELOW_S:
                refit = _fit(workload, dataset)[1]
            rows, elapsed = _eval_burst(model, test, EVAL_BURST_S)
            slowdown = host.slowdown(HOST_BURST_S)
            out.phases += [opened.counts, closed.counts]
            # Latency and throughput come from the server process, which
            # the kernel in this process does not track: over ten runs,
            # scaling them widened the latency spread from 0.06 to 0.21
            # of the median.  They stay raw (slowdown 1).
            latencies += [(ms, 1.0) for ms in opened.latencies_ms]
            late_ms += opened.late_ms
            closed_bursts.append((closed.counts.rows_ok, closed.elapsed_s, 1.0))
            eval_bursts.append((rows, elapsed, slowdown))
            if refit is not None:
                fit_s.append((refit, slowdown))
        out.timed("latency_p50_ms", _median(latencies))
        out.timed("throughput_qps", _rate(closed_bursts))
        out.timed("train_s", _median(fit_s))
        out.timed("eval_qps", _rate(eval_bursts))
        out.metrics["peak_rss_mb"] = server.peak_rss_mb()
        out.notes["open_loop_samples"] = len(latencies)

        if trace:
            out.layers["latency_p99_ms"] = _percentile([ms for ms, _ in latencies], 99)
            out.layers.update(layers.scheduler_metrics(server.get("/stats")["models"]))
            out.layers["loadgen.late_p99_ms"] = _percentile(late_ms, 99)
            out.layers["loadgen.sent"] = float(len(late_ms))
            server.stop()
            replayed = requests[:REPLAYED_REQUESTS]
            replay = layers.replay_requests(tracer, model, replayed, model_stages=True)
            out.check("replayed stages recompose the served labels",
                      replay.mismatches == 0)
            out.layers.update(layers.request_metrics(tracer, [r.body for r in replayed]))
            out.layers.update(layers.model_metrics(tracer))
            out.layers["trace.overhead_pct"] = _overhead_pct(
                statistics.median(replay.traced_ms),
                statistics.median(replay.untraced_ms),
            )
            _replay_fit(out, tracer, workload, dataset, model)
    finally:
        for server in servers:
            server.stop()
    return out


def _overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


def _replay_fit(out: Outcome, tracer: Tracer, workload: Workload, dataset, model):
    _, am, history = layers.replay_fit(
        tracer, workload.config(), dataset.num_classes,
        dataset.train_features, dataset.train_labels,
    )
    out.check("replayed fit rebuilds the fitted memory", np.array_equal(
        am.binary_memory, model.associative_memory.binary_memory))
    out.layers.update(layers.fit_metrics(tracer, history))


# --------------------------------------------------------------- training
def run_training(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: str, workdir: str, tracer: Tracer, host: HostSpeed) -> Outcome:
    out = Outcome()
    setup_s: List[Timed] = []
    for _ in range(SETUPS):
        dataset = None  # free the previous copy first: it would count in peak_rss_mb
        start = time.perf_counter()
        dataset = load_dataset(workload.dataset, scale=workload.scale)
        setup = time.perf_counter() - start
        setup_s.append((setup, host.slowdown(HOST_BURST_S)))
    out.timed("setup_s", _median(setup_s))
    test = dataset.test_features
    order = np.random.default_rng(seed).permutation(len(test))

    # Rounds of fit, evaluation burst, single-row requests and a
    # host-speed burst until the run's time is used, so each figure
    # samples the whole run.
    fit_s: List[Timed] = []
    latencies: List[Timed] = []
    eval_bursts = []
    single = loadgen.PhaseCounts("single-row")
    reference = None
    end = time.perf_counter() + seconds
    while len(fit_s) < MIN_FITS or time.perf_counter() < end:
        gc.collect()
        model, fitted = _fit(workload, dataset)
        if reference is None:
            reference = _accuracy(out, model, dataset)
            out.check("pruned == packed on the test split", np.array_equal(
                model.predict(test, engine="pruned"), reference))
        else:
            out.check("fit is deterministic", np.array_equal(
                model.predict(test, engine="packed"), reference))
        rows, elapsed = _eval_burst(model, test, EVAL_BURST_S)
        round_ms = []
        for index in order:
            start = time.perf_counter()
            label = model.predict(test[index : index + 1], engine="packed")
            round_ms.append(1000.0 * (time.perf_counter() - start))
            ok = int(label[0]) == int(reference[index])
            single.record(200 if ok else 500, ok, 1)
        slowdown = host.slowdown(HOST_BURST_S)
        fit_s.append((fitted, slowdown))
        eval_bursts.append((rows, elapsed, slowdown))
        latencies += [(ms, slowdown) for ms in round_ms]
    out.phases.append(single)
    out.notes["fits"] = len(fit_s)
    out.timed("train_s", _median(fit_s))
    out.timed("eval_qps", _rate(eval_bursts))
    out.timed("latency_p50_ms", _median(latencies))
    # Calls per second of time spent inside predict, one call at a time.
    out.timed("throughput_qps",
              _rate([(1, ms / 1000.0, slowdown) for ms, slowdown in latencies]))
    out.metrics["peak_rss_mb"] = vm_hwm_mb("self")

    if trace:
        out.layers["latency_p99_ms"] = _percentile([ms for ms, _ in latencies], 99)
        start = time.perf_counter()
        _replay_fit(out, tracer, workload, dataset, model)
        out.layers["trace.overhead_pct"] = _overhead_pct(
            time.perf_counter() - start, out.raw["train_s"]
        )
        out.check("replayed model stages recompose predict", layers.replay_eval(
            tracer, model, test, reference, repeats=3) == 0)
        out.layers.update(layers.model_metrics(tracer))
        bodies = _requests(64, 16, model, dataset, seed)
        replay = layers.replay_requests(tracer, model, bodies, model_stages=False)
        out.check("replayed requests recompose predict", replay.mismatches == 0)
        out.layers.update(layers.request_metrics(tracer, [r.body for r in bodies]))
        out.layers.update(layers.scheduler_metrics(replay.models_stats))
        out.layers["loadgen.late_p99_ms"] = 0.0
        out.layers["loadgen.sent"] = float(single.attempted)
    return out
