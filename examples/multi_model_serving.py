#!/usr/bin/env python
"""Serving-v2 walkthrough: multi-model daemon, micro-batching, hot-swap.

This script mirrors the README's "Multi-model serving" section:

1. train two MEMHD checkpoints (two tags of one artifact) plus a second
   artifact, into a throwaway registry,
2. start one `ModelServer` hosting both artifacts with micro-batching,
3. route requests by URL path and by JSON `model` field and verify both
   models answer bit-identically to their in-process originals,
4. hot-swap `demo` from v1 to v2 with `POST /reload` while requests keep
   flowing (zero downtime, responses always wholly from one version),
5. drive the daemon with the `repro loadtest` closed-loop generator and
   print QPS + latency quantiles and the scheduler's batch histogram.

Everything below also works across processes: the CLI equivalent is

    repro train --dataset mnist --save demo:v1 --store STORE
    repro serve --models demo:latest,alt:v1 --store STORE --port 8000
    repro loadtest --url http://127.0.0.1:8000 --concurrency 32
    curl -X POST http://127.0.0.1:8000/reload -d '{"model": "demo"}'

Run:  python examples/multi_model_serving.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request

from repro import MEMHDConfig, MEMHDModel, load_dataset
from repro.io import ArtifactRegistry
from repro.runtime import ModelServer, run_load


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


# ---------------------------------------------------------------------- 1.
# Train three small models: two versions of "demo" and one "alt".
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


versions = {"demo:v1": train(1), "demo:v2": train(2), "alt:v1": train(3)}

with tempfile.TemporaryDirectory() as store_dir:
    registry = ArtifactRegistry(store_dir)
    for spec, model in versions.items():
        name, _, tag = spec.partition(":")
        registry.save(model, name, tag=tag, dataset=dataset)
    print(f"saved {', '.join(versions)} into {store_dir}")

    # ------------------------------------------------------------------ 2.
    # One daemon, two routed models, micro-batching on.  "demo" resolves
    # to its newest tag (v2 -- saved last), so we pin v1 explicitly to
    # demonstrate the hot swap below.
    server = ModelServer(
        models=["demo:v1", "alt:v1"],
        registry=registry,
        engine="packed",
        max_batch_size=64,
        queue_depth=256,
        port=0,
    )
    with server:
        print(f"serving {server.pool.keys()} on {server.url}")

        # -------------------------------------------------------------- 3.
        # Route by path and by body; verify bit-exactness per model.
        probe = dataset.test_features[:16]
        by_path = post(server.url + "/models/alt/predict", {"features": probe.tolist()})
        by_body = post(
            server.url + "/predict", {"features": probe.tolist(), "model": "alt"}
        )
        assert by_path["labels"] == by_body["labels"]
        expected = versions["alt:v1"].predict(probe, engine="packed")
        assert by_path["labels"] == [int(label) for label in expected]
        print(f"routing ok: alt answers bit-identically ({by_path['artifact']})")

        # -------------------------------------------------------------- 4.
        # Hot-swap demo v1 -> v2.  The reply names the exact artifact and
        # version each response came from, so a client can observe the
        # cutover; no request ever sees a half-swapped model.
        before = post(server.url + "/predict", {"features": probe.tolist()})
        swap = post(server.url + "/reload", {"model": "demo", "spec": "demo:v2"})
        after = post(server.url + "/predict", {"features": probe.tolist()})
        assert (before["artifact"], after["artifact"]) == ("demo:v1", "demo:v2")
        assert after["version"] == before["version"] + 1
        assert after["labels"] == [
            int(label)
            for label in versions["demo:v2"].predict(probe, engine="packed")
        ]
        print(
            f"hot-swapped {before['artifact']} -> {swap['artifact']} "
            f"(version {swap['version']}) with zero downtime"
        )

        # -------------------------------------------------------------- 5.
        # Load-test the batched daemon (the CLI equivalent is
        # `repro loadtest --url ... --concurrency 16`).
        report = run_load(
            server.url, mode="closed", concurrency=16, duration_seconds=1.5
        )
        assert report.errors == 0
        stats = post(server.url + "/predict", {"features": probe.tolist()})  # warm
        histogram = server.pool.get("demo").scheduler.stats.as_dict()[
            "batch_size_histogram"
        ]
        print(
            f"loadtest: {report.qps:.0f} queries/s, "
            f"p50 {1000 * report.latency_percentile(0.5):.1f} ms, "
            f"p99 {1000 * report.latency_percentile(0.99):.1f} ms"
        )
        print(f"micro-batch histogram (rows -> dispatches): {histogram}")
        assert stats["count"] == len(probe)

print("multi-model serving walkthrough complete")
