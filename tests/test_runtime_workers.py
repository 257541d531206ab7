"""Prefork supervisor tests (repro.runtime.workers).

The scenarios the scale-out layer must survive:

* **graceful drain** -- SIGTERM while a request is mid-predict: the
  in-flight response still arrives, only then does the worker exit;
* **crash resilience** -- a SIGKILLed worker is respawned without the
  listening socket ever dropping (inherit mode keeps the accept queue
  alive in the parent across the gap);
* **observability** -- cluster ``/stats`` merges every worker's counters
  and attributes traffic per worker, ``/stats/local`` stays per-process;
* **coordinated reload** -- ``POST /reload`` fans out to every worker and
  each response is wholly one model version, never a mix.

Everything runs against real forked processes over loopback HTTP, so the
module is skipped where the ``fork`` start method is unavailable.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import MEMHDConfig
from repro.core.model import MEMHDModel
from repro.io.registry import ArtifactRegistry
from repro.runtime.config import ServeConfig
from repro.runtime.server import ModelServer
from repro.runtime.workers import (
    WorkerConfig,
    WorkerSupervisor,
    _WorkerSlot,
    fork_available,
    reuseport_available,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="prefork serving requires the fork start method"
)


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post_status(url, payload):
    """POST returning (status, payload) without raising on 4xx/5xx."""
    try:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = json.loads(error.read().decode("utf-8"))
        error.close()
        return error.code, body


def _train(dataset, seed: int) -> MEMHDModel:
    model = MEMHDModel(
        dataset.num_features,
        dataset.num_classes,
        MEMHDConfig(dimension=48, columns=16, epochs=2, seed=seed),
        rng=seed,
    )
    model.fit(dataset.train_features, dataset.train_labels)
    return model


@pytest.fixture(scope="module")
def prefork_stack(tmp_path_factory, tiny_dataset):
    """Registry with two distinguishable 'demo' versions + probe answers."""
    store = ArtifactRegistry(tmp_path_factory.mktemp("prefork-store"))
    v1 = _train(tiny_dataset, seed=1)
    v2 = _train(tiny_dataset, seed=2)
    probe = tiny_dataset.test_features[:8]
    # The reload test asserts "wholly one version", which is vacuous if
    # both versions answer the probe identically.
    assert not np.array_equal(
        v1.predict(probe, engine="packed"), v2.predict(probe, engine="packed")
    )
    store.save(v1, "demo", tag="v1")
    store.save(v2, "demo", tag="v2")
    return {
        "store": store,
        "probe": probe.tolist(),
        "expected": {
            "v1": [int(x) for x in v1.predict(probe, engine="packed")],
            "v2": [int(x) for x in v2.predict(probe, engine="packed")],
        },
    }


def _config(stack) -> WorkerConfig:
    return WorkerConfig(
        models=("demo:v1",),
        store=str(stack["store"].root),
        serve=ServeConfig(engine="packed", max_wait_ms=1.0),
    )


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class SlowModel:
    """Wraps a trained model, stretching each predict to ~`delay` seconds.

    Forked into the worker with the config, it makes "a request is in
    flight right now" a state the drain test can reliably hit: ``entered``
    (a fork-inherited event) is set the moment a predict starts.
    """

    name = "slow"

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay
        self.num_features = inner.num_features
        self.entered = multiprocessing.get_context("fork").Event()

    def predict(self, features, engine="packed"):
        self.entered.set()
        time.sleep(self._delay)
        return self._inner.predict(features, engine=engine)


class TestClusterServing:
    @pytest.mark.parametrize(
        "socket_mode",
        ["inherit"] + (["reuseport"] if reuseport_available() else []),
    )
    def test_bit_exact_over_both_socket_modes(self, prefork_stack, socket_mode):
        config = _config(prefork_stack)
        with WorkerSupervisor(config, workers=2, socket_mode=socket_mode) as supervisor:
            for _ in range(8):
                status, payload = _post_status(
                    supervisor.url + "/predict",
                    {"features": prefork_stack["probe"]},
                )
                assert status == 200
                assert payload["labels"] == prefork_stack["expected"]["v1"]
            status, health = _get(supervisor.url + "/healthz")
            assert status == 200
            assert health["worker"] in (0, 1)

    def test_supervisor_validation(self, prefork_stack):
        config = _config(prefork_stack)
        with pytest.raises(ValueError, match="workers"):
            WorkerSupervisor(config, workers=0)
        with pytest.raises(ValueError, match="socket_mode"):
            WorkerSupervisor(config, workers=2, socket_mode="bogus")
        with pytest.raises(ValueError):
            WorkerSupervisor(WorkerConfig(), workers=2)
        with pytest.raises(ValueError):
            WorkerSupervisor(WorkerConfig(models=("demo:v1",)), workers=2)


def _assert_sigterm_drains_inflight(tiny_dataset, socket_mode):
    """SIGTERM mid-predict: the response lands, then the worker exits."""
    model = SlowModel(_train(tiny_dataset, seed=1), delay=0.6)
    probe = tiny_dataset.test_features[:4]
    expected = [int(x) for x in model._inner.predict(probe, engine="packed")]
    config = WorkerConfig(model=model, serve=ServeConfig(engine="packed"))
    supervisor = WorkerSupervisor(
        config,
        workers=1,
        socket_mode=socket_mode,
        respawn=False,
        drain_timeout=15.0,
    )
    try:
        supervisor.start()
        results = []

        def _fire():
            results.append(
                _post_status(
                    supervisor.url + "/predict", {"features": probe.tolist()}
                )
            )

        client = threading.Thread(target=_fire)
        client.start()
        # Signal only once the request is inside the worker's predict.
        assert model.entered.wait(30.0), "request never reached predict"
        (pid,) = supervisor.worker_pids().values()
        os.kill(pid, signal.SIGTERM)
        client.join(timeout=30.0)
        assert not client.is_alive(), "in-flight request never completed"
        ((status, payload),) = results
        assert status == 200, f"drained request failed: {payload}"
        assert payload["labels"] == expected
        assert _wait_until(lambda: supervisor.alive_count() == 0, timeout=20.0)
    finally:
        supervisor.shutdown(drain=False)


class TestGracefulDrain:
    def test_sigterm_completes_inflight_request(self, tiny_dataset):
        _assert_sigterm_drains_inflight(tiny_dataset, "inherit")

    @pytest.mark.skipif(
        not reuseport_available(), reason="SO_REUSEPORT is unavailable"
    )
    def test_sigterm_completes_inflight_request_reuseport(self, tiny_dataset):
        _assert_sigterm_drains_inflight(tiny_dataset, "reuseport")


class TestCheckpointLoading:
    def test_replica_loads_mapped_standalone_server_eagerly(
        self, tmp_path, tiny_dataset, monkeypatch
    ):
        """Whether specs load through ``load_mapped`` follows from being a
        prefork replica; there is no knob for it."""
        import repro.io.registry as registry_module

        store = ArtifactRegistry(tmp_path)
        store.save(_train(tiny_dataset, seed=1), "demo", tag="v1")
        mapped_load = multiprocessing.get_context("fork").Event()
        load_mapped = registry_module.load_mapped_with_manifest

        def recording_load_mapped(*args, **kwargs):
            mapped_load.set()  # fork-inherited: visible from a worker too
            return load_mapped(*args, **kwargs)

        monkeypatch.setattr(
            registry_module, "load_mapped_with_manifest", recording_load_mapped
        )
        with ModelServer(models=["demo:v1"], registry=store, port=0):
            pass
        assert not mapped_load.is_set()
        config = WorkerConfig(models=("demo:v1",), store=str(store.root))
        with WorkerSupervisor(config, workers=1):
            assert mapped_load.is_set()


class TestCrashRespawn:
    def test_sigkill_respawns_without_dropping_listener(self, prefork_stack):
        """Inherit mode: the accept queue lives in the parent's listener,
        so even with every worker dead a connection is only delayed, never
        refused -- and the respawned worker then serves it."""
        config = _config(prefork_stack)
        with WorkerSupervisor(config, workers=1, socket_mode="inherit") as supervisor:
            status, payload = _post_status(
                supervisor.url + "/predict", {"features": prefork_stack["probe"]}
            )
            assert status == 200
            (old_pid,) = supervisor.worker_pids().values()
            os.kill(old_pid, signal.SIGKILL)
            assert _wait_until(
                lambda: supervisor.worker_pids().get(0) not in (None, old_pid)
            ), "worker was not respawned"
            status, payload = _post_status(
                supervisor.url + "/predict", {"features": prefork_stack["probe"]}
            )
            assert status == 200
            assert payload["labels"] == prefork_stack["expected"]["v1"]
            assert supervisor.respawns >= 1
            status, stats = _get(supervisor.url + "/stats")
            assert stats["respawns"] >= 1


class TestControlLinkClose:
    def test_close_waits_for_the_request_polling_the_link(self, tmp_path):
        """Reaping a dead worker closes its control link only after a
        request polling that link has seen the EOF.  Closed under the
        poll, the descriptor number can be reused and the poll then waits
        out its timeout, holding the lock every ``/stats`` needs."""
        supervisor = WorkerSupervisor(
            WorkerConfig(models=("tiny",), store=str(tmp_path)), workers=1
        )
        slot = _WorkerSlot(0)
        slot.control_conn, worker_end = multiprocessing.get_context("fork").Pipe()
        errors = []

        def request():
            try:
                supervisor._control_request(slot, {"op": "stats"}, timeout=30.0)
            except (OSError, EOFError) as error:
                errors.append(error)

        requester = threading.Thread(target=request)
        requester.start()
        assert worker_end.poll(10)  # the request is in flight
        closer = threading.Thread(target=slot.close_conns)
        closer.start()
        closer.join(0.5)
        assert closer.is_alive()  # the link stays open while it is polled
        worker_end.close()  # the worker dies
        requester.join(10)
        closer.join(10)
        assert not requester.is_alive() and not closer.is_alive()
        assert len(errors) == 1 and slot.control_conn is None


class TestStatsAggregation:
    def test_three_level_stats(self, prefork_stack):
        config = _config(prefork_stack)
        with WorkerSupervisor(config, workers=2) as supervisor:
            issued = 10
            for _ in range(issued):
                status, _ = _post_status(
                    supervisor.url + "/predict",
                    {"features": prefork_stack["probe"]},
                )
                assert status == 200

            status, cluster = _get(supervisor.url + "/stats")
            assert status == 200
            assert cluster["workers_total"] == 2
            assert cluster["workers_alive"] == 2
            assert set(cluster["workers"]) == {"0", "1"}
            assert (
                sum(snap["requests"] for snap in cluster["workers"].values())
                >= issued
            )
            assert cluster["requests"] >= issued
            assert cluster["queries"] >= issued * len(prefork_stack["probe"])
            assert np.isfinite(cluster["queries_per_second"])
            # Per-model merge: one 'demo' entry summing both workers.
            assert cluster["models"]["demo"]["queries"] >= issued * len(
                prefork_stack["probe"]
            )

            status, local = _get(supervisor.url + "/stats/local")
            assert status == 200
            assert local["worker"] in (0, 1)
            assert "workers" not in local, "/stats/local must stay per-process"


class TestReloadFanout:
    def test_reload_reaches_every_worker_wholly_one_version(self, prefork_stack):
        config = _config(prefork_stack)
        expected = prefork_stack["expected"]
        probe = prefork_stack["probe"]
        with WorkerSupervisor(config, workers=2) as supervisor:
            observed = []
            stop = threading.Event()
            streaming = threading.Event()

            def _stream():
                while not stop.is_set():
                    status, payload = _post_status(
                        supervisor.url + "/predict", {"features": probe}
                    )
                    if status == 200:
                        observed.append(payload["labels"])
                        streaming.set()

            client = threading.Thread(target=_stream)
            client.start()
            try:
                # Reload only once responses are flowing, so the race is real.
                assert streaming.wait(timeout=30.0), "no /predict answered 200"
                status, reply = _post_status(
                    supervisor.url + "/reload",
                    {"model": "demo", "spec": "demo:v2"},
                )
            finally:
                stop.set()
                client.join(timeout=30.0)
            assert status == 200, f"reload failed: {reply}"
            assert reply["status"] == "reloaded"
            assert set(reply["workers"]) == {"0", "1"}

            # Racing responses may be v1 or v2, but never a blend.
            assert observed
            for labels in observed:
                assert labels in (expected["v1"], expected["v2"])
            # After the fan-out both workers answer with v2, every time.
            for _ in range(8):
                status, payload = _post_status(
                    supervisor.url + "/predict", {"features": probe}
                )
                assert status == 200
                assert payload["labels"] == expected["v2"]

    def test_resync_cannot_undo_a_fanout_that_reached_the_worker(self, tmp_path):
        """A respawned worker's replay must not land after a newer reload.

        The fan-out has delivered ``v2`` to the fresh worker and is still
        waiting on its reply when the resync thread starts; the replay of
        the last recorded payload (``v1``) must wait for the fan-out, so
        the worker ends on ``v2``.
        """
        config = WorkerConfig(models=("demo:v1",), store=str(tmp_path))
        supervisor = WorkerSupervisor(config, workers=1)  # never started

        class _Running:
            def is_alive(self):
                return True

        slot = _WorkerSlot(0)
        slot.process = _Running()
        slot.control_conn = object()
        slot.ready.set()
        supervisor._slots[0] = slot
        supervisor._last_reload["demo"] = {"model": "demo", "spec": "demo:v1"}
        applied = []
        delivered = threading.Event()
        reply_released = threading.Event()

        def control(target, message, timeout):
            spec = message["payload"]["spec"]
            applied.append(spec)
            if spec == "demo:v2" and not delivered.is_set():
                delivered.set()
                assert reply_released.wait(timeout=30.0)
            return {"ok": True, "value": {"spec": spec}}

        supervisor._control_request = control
        fanout = threading.Thread(
            target=supervisor.reload, args=({"model": "demo", "spec": "demo:v2"},)
        )
        fanout.start()
        assert delivered.wait(timeout=30.0)
        resync = threading.Thread(target=supervisor._resync_worker, args=(slot,))
        resync.start()
        resync.join(timeout=0.5)  # an unserialized replay finishes here
        reply_released.set()
        fanout.join(timeout=30.0)
        resync.join(timeout=30.0)
        assert not fanout.is_alive() and not resync.is_alive()
        assert applied[-1] == "demo:v2", applied
