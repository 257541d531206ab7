#!/usr/bin/env python
"""Prefork scale-out walkthrough: worker processes over one shared port.

This script mirrors the README's "Prefork scale-out" section:

1. train a MEMHD checkpoint into a throwaway registry,
2. start a `WorkerSupervisor` with two workers sharing the port and a
   memory-mapped (zero-copy) copy of the packed AM,
3. verify responses are bit-identical to the in-process model and that
   the cluster `/stats` attributes traffic to every worker,
4. SIGKILL one worker and watch the supervisor respawn it while the
   other worker keeps serving,
5. fan a `POST /reload` out to every worker and verify the new version
   answers everywhere,
6. drive the pool with the `repro loadtest` closed-loop generator.

The CLI equivalent is

    repro train --dataset mnist --save demo --store STORE
    repro serve --models demo --store STORE --port 8000 --workers 2
    repro loadtest --url http://127.0.0.1:8000 --concurrency 16
    curl -X POST http://127.0.0.1:8000/reload -d '{"model": "demo"}'

Run:  python examples/prefork_serving.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import time
import urllib.request

from repro import MEMHDConfig, MEMHDModel, load_dataset
from repro.io import ArtifactRegistry
from repro.runtime import (
    ServeConfig,
    WorkerConfig,
    WorkerSupervisor,
    fork_available,
    run_load,
)


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


if not fork_available():
    print("prefork serving requires the 'fork' start method; skipping")
    sys.exit(0)

# ---------------------------------------------------------------------- 1.
# Train two versions of one artifact into a throwaway registry.
dataset = load_dataset("mnist", scale=0.01, rng=0)


def train(seed: int) -> MEMHDModel:
    model = MEMHDModel(
        dataset.num_features,
        dataset.num_classes,
        MEMHDConfig(dimension=128, columns=32, epochs=3, seed=seed),
        rng=seed,
    )
    model.fit(dataset.train_features, dataset.train_labels)
    return model


v1, v2 = train(1), train(2)
probe = dataset.test_features[:16]
expected_v1 = [int(x) for x in v1.predict(probe, engine="packed")]
expected_v2 = [int(x) for x in v2.predict(probe, engine="packed")]

with tempfile.TemporaryDirectory() as store_dir:
    registry = ArtifactRegistry(store_dir)
    registry.save(v1, "demo", tag="v1", dataset=dataset)
    registry.save(v2, "demo", tag="v2", dataset=dataset)
    print(f"saved demo:v1, demo:v2 into {store_dir}")

    # ------------------------------------------------------------------ 2.
    # Two worker processes, one shared port, one mmap'd AM copy.  The
    # `inherit` socket mode keeps the accept queue in the parent, so the
    # respawn below never drops a connection.
    config = WorkerConfig(
        models=("demo:v1",), store=store_dir, serve=ServeConfig(engine="packed")
    )
    with WorkerSupervisor(
        config, workers=2, socket_mode="inherit", drain_timeout=10.0
    ) as supervisor:
        print(
            f"serving demo:v1 on {supervisor.url} with "
            f"{supervisor.alive_count()} workers ({supervisor.socket_mode})"
        )

        # -------------------------------------------------------------- 3.
        # Bit-exact responses + per-worker attribution in cluster stats.
        for _ in range(10):
            reply = post(supervisor.url + "/predict", {"features": probe.tolist()})
            assert reply["labels"] == expected_v1
        stats = get(supervisor.url + "/stats")
        shares = {
            worker: snapshot["requests"]
            for worker, snapshot in sorted(stats["workers"].items())
        }
        assert stats["workers_total"] == 2
        print(f"cluster /stats: request share by worker = {shares}")

        # -------------------------------------------------------------- 4.
        # Kill a worker; the supervisor respawns it (exponential backoff)
        # while the sibling keeps answering.
        victim_id, victim_pid = sorted(supervisor.worker_pids().items())[0]
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            replacement = supervisor.worker_pids().get(victim_id)
            if replacement not in (None, victim_pid):
                break
            reply = post(supervisor.url + "/predict", {"features": probe.tolist()})
            assert reply["labels"] == expected_v1  # service never degrades
            time.sleep(0.1)
        else:
            raise RuntimeError("worker was not respawned in time")
        print(
            f"SIGKILLed worker {victim_id} (pid {victim_pid}); respawned as "
            f"pid {replacement} -- {supervisor.respawns} respawn(s), "
            "zero dropped requests"
        )

        # -------------------------------------------------------------- 5.
        # Coordinated reload: every worker swaps to v2; each response is
        # wholly one version, and afterwards v2 answers everywhere.
        swap = post(supervisor.url + "/reload", {"model": "demo", "spec": "demo:v2"})
        assert swap["status"] == "reloaded", swap
        for _ in range(10):
            reply = post(supervisor.url + "/predict", {"features": probe.tolist()})
            assert reply["labels"] == expected_v2
        print(
            f"reload fanned out to workers {sorted(swap['workers'])}; "
            "all responses now come from demo:v2"
        )

        # -------------------------------------------------------------- 6.
        # Saturate the pool (CLI: `repro loadtest --url ...`).
        report = run_load(
            supervisor.url, mode="closed", concurrency=8, duration_seconds=1.0
        )
        assert report.errors == 0
        print(
            f"loadtest: {report.qps:.0f} queries/s across "
            f"{supervisor.alive_count()} workers, "
            f"p99 {1000 * report.latency_percentile(0.99):.1f} ms"
        )

print("prefork serving walkthrough complete")
