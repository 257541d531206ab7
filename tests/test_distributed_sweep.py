"""Chaos/differential harness for distributed elastic sweeps.

The contract under test (``repro.eval.distributed``): workers sharing a
store directory complete the grid *exactly once per cell* through lease
files, surviving worker death mid-cell.  The harness runs real
subprocess workers over one shared tmpdir, SIGKILLs one mid-cell, and
asserts the survivors' store is cell-for-cell identical (config hashes +
deterministic metrics) to a single-worker oneshot run -- the same
equivalence CI's ``sweep diff`` gate checks.
"""

import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.distributed import (
    LeaseDir,
    pool_status,
    read_events,
    run_distributed,
    run_distributed_pool,
    store_paths,
)
from repro.eval.store import ResultStore
from repro.eval.sweep import DELAY_ENV, SweepSpec, run_sweep

#: The chaos grid: 4 quick deterministic cells (2 models x 2 dimensions).
CHAOS_SPEC = SweepSpec(
    models=("memhd", "basichdc"),
    datasets=("mnist",),
    dimensions=(32, 48),
    columns=(16,),
    engines=("float",),
    scale=0.01,
    epochs=1,
    seed=11,
)

#: Short lease TTL so a SIGKILLed worker's cell is reclaimed within the test.
TTL_S = 1.5


def _worker_main(spec_payload, store_dir, worker_id, ttl_s, delay_s, max_cells):
    """Subprocess entry: one elastic worker (module-level: picklable)."""
    if delay_s:
        os.environ[DELAY_ENV] = str(delay_s)
    spec = SweepSpec.from_dict(spec_payload)
    result = run_distributed(
        spec,
        store_dir,
        worker_id=worker_id,
        ttl_s=ttl_s,
        poll_s=0.05,
        max_cells=max_cells,
    )
    raise SystemExit(0 if result.ok or max_cells is not None else 1)


def _start_worker(store_dir, worker_id, delay_s=0.0, max_cells=None, spec=CHAOS_SPEC):
    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=_worker_main,
        args=(spec.to_dict(), str(store_dir), worker_id, TTL_S, delay_s, max_cells),
    )
    process.start()
    return process


def _wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return None


@pytest.fixture(scope="module")
def oneshot_store(tmp_path_factory):
    """Single-worker reference run of the chaos grid."""
    path = tmp_path_factory.mktemp("oneshot") / "reference.jsonl"
    result = run_sweep(CHAOS_SPEC, ResultStore(path), workers=1)
    assert result.ok
    return path


# --------------------------------------------------------------------------
# The headline chaos test
# --------------------------------------------------------------------------
class TestChaosEquivalence:
    def test_sigkill_mid_cell_reclaim_and_bit_identical_store(
        self, tmp_path, oneshot_store
    ):
        """3 workers, one SIGKILLed mid-cell: grid completes, store matches.

        The kill lands inside a cell (the worker sleeps ``DELAY_ENV``
        seconds after claiming), so its lease is left behind un-released;
        survivors must wait out the TTL, reclaim the cell, and finish the
        grid with results identical to the oneshot reference.
        """
        store_dir = tmp_path / "pool"
        paths = store_paths(store_dir)
        victim = _start_worker(store_dir, "victim", delay_s=6.0)
        claimed = _wait_for(
            lambda: [
                entry
                for entry in read_events(paths["events"])
                if entry["worker"] == "victim"
                and entry["event"] in ("claimed", "reclaimed")
            ]
        )
        assert claimed, "victim never claimed a cell"
        victim_key = claimed[0]["key"]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        # Died mid-cell: the lease file survives its owner.
        lease = LeaseDir(paths["leases"], "observer", ttl_s=TTL_S)
        state = lease.read(victim_key)
        assert state is not None and state.worker == "victim"
        assert victim_key not in ResultStore(paths["results"]).completed_keys()

        survivors = [
            _start_worker(store_dir, "survivor-a"),
            _start_worker(store_dir, "survivor-b"),
        ]
        for process in survivors:
            process.join(timeout=120.0)
            assert process.exitcode == 0

        # Every cell completed; the victim's cell was reclaimed by a survivor.
        store = ResultStore(paths["results"])
        expected = {job.key for job in CHAOS_SPEC.expand()}
        assert store.completed_keys() == expected
        events = read_events(paths["events"])
        reclaims = [
            entry
            for entry in events
            if entry["event"] == "reclaimed" and entry["key"] == victim_key
        ]
        assert reclaims, "expired lease was never reclaimed"
        assert all(entry["worker"].startswith("survivor") for entry in reclaims)

        # Exactly once per cell among live owners: the victim completed
        # nothing (killed mid-cell) and no survivor double-computed.
        completions = {}
        for entry in events:
            if entry["event"] == "completed":
                completions[entry["key"]] = completions.get(entry["key"], 0) + 1
        assert completions == {key: 1 for key in expected}

        # The differential gate: deterministic metrics are cell-for-cell
        # identical to the single-worker oneshot run, both directions.
        diff = ResultStore(oneshot_store).diff(store)
        assert diff.is_clean, f"pool store drifted from oneshot: {diff.summary()}"
        reverse = store.diff(ResultStore(oneshot_store))
        assert reverse.is_clean

        # No stale leases left behind after an orderly finish.
        assert lease.scan() == []

        # Attribution: the victim lost its lease to a survivor.
        status = pool_status(store_dir, ttl_s=TTL_S)
        assert status["workers"]["victim"]["expired"] == 1
        assert status["workers"]["victim"]["completed"] == 0
        total_completed = sum(row["completed"] for row in status["workers"].values())
        assert total_completed == len(expected)

    def test_late_joining_worker_picks_up_remaining_cells(
        self, tmp_path, oneshot_store
    ):
        """A worker that exits after one cell leaves work a late joiner finishes."""
        store_dir = tmp_path / "pool"
        first = run_distributed(
            CHAOS_SPEC, store_dir, worker_id="early", ttl_s=TTL_S, max_cells=1
        )
        assert first.completed == 1
        assert not first.grid_complete
        late = run_distributed(CHAOS_SPEC, store_dir, worker_id="late", ttl_s=TTL_S)
        assert late.grid_complete
        assert late.completed == len(CHAOS_SPEC.expand()) - 1
        assert late.skipped == 1
        diff = ResultStore(oneshot_store).diff(
            ResultStore(store_paths(store_dir)["results"])
        )
        assert diff.is_clean
        status = pool_status(store_dir, ttl_s=TTL_S)
        assert status["workers"]["early"]["completed"] == 1
        assert status["workers"]["late"]["completed"] == len(CHAOS_SPEC.expand()) - 1


# --------------------------------------------------------------------------
# Claim-race and lease-file mechanics
# --------------------------------------------------------------------------
class TestClaimRace:
    def test_exactly_one_racer_wins_each_claim(self, tmp_path):
        """Two workers racing the same key: the exclusive create has one winner."""
        rounds = 25
        for round_index in range(rounds):
            key = f"cell{round_index:04d}"
            a = LeaseDir(tmp_path / "leases", "racer-a", ttl_s=60.0)
            b = LeaseDir(tmp_path / "leases", "racer-b", ttl_s=60.0)
            barrier = threading.Barrier(2)
            outcomes = {}

            def race(name, leases):
                barrier.wait()
                outcomes[name] = leases.try_claim(key)

            threads = [
                threading.Thread(target=race, args=("a", a)),
                threading.Thread(target=race, args=("b", b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wins = [name for name, outcome in outcomes.items() if outcome == "claimed"]
            assert len(wins) == 1, f"round {round_index}: winners {outcomes}"

    def test_torn_and_empty_lease_files_are_expired_immediately(self, tmp_path):
        """A claim record torn by a killed creator never wedges the cell.

        Pinned behaviour: empty or unparsable lease bodies are treated as
        expired regardless of how fresh their mtime is.
        """
        leases = LeaseDir(tmp_path / "leases", "claimer", ttl_s=3600.0)
        (tmp_path / "leases").mkdir(parents=True, exist_ok=True)
        (tmp_path / "leases" / "torn.lease").write_bytes(b'{"worker": "dead')
        (tmp_path / "leases" / "empty.lease").write_bytes(b"")
        for key in ("torn", "empty"):
            state = leases.read(key)
            assert state is not None and state.torn
            assert leases.is_expired(state)
            assert leases.try_claim(key) == "reclaimed"
        # Sanity: a healthy fresh lease is NOT expired or claimable.
        other = LeaseDir(tmp_path / "leases", "owner", ttl_s=3600.0)
        assert other.try_claim("healthy") == "claimed"
        assert leases.try_claim("healthy") is None

    def test_release_then_reclaim_cycle(self, tmp_path):
        leases = LeaseDir(tmp_path / "leases", "w", ttl_s=60.0)
        assert leases.try_claim("k") == "claimed"
        assert leases.held_keys == ["k"]
        leases.release("k")
        assert leases.held_keys == []
        assert leases.try_claim("k") == "claimed"

    def test_renew_reports_leases_lost_to_reclaimers(self, tmp_path):
        now = {"t": 1000.0}
        stalled = LeaseDir(
            tmp_path / "leases", "stalled", ttl_s=1.0, clock=lambda: now["t"]
        )
        assert stalled.try_claim("k") == "claimed"
        now["t"] += 10.0  # the owner stalls past its TTL
        thief = LeaseDir(
            tmp_path / "leases", "thief", ttl_s=1.0, clock=lambda: now["t"]
        )
        assert thief.try_claim("k") == "reclaimed"
        assert stalled.renew() == ["k"]
        assert stalled.held_keys == []


# --------------------------------------------------------------------------
# Same-host pool helper (the orchestrate `distributed:` path)
# --------------------------------------------------------------------------
class TestPoolHelper:
    def test_pool_completes_grid_and_matches_oneshot(self, tmp_path, oneshot_store):
        summary = run_distributed_pool(
            CHAOS_SPEC, tmp_path / "pool", workers=2, ttl_s=TTL_S, poll_s=0.05
        )
        assert summary["cells"] == len(CHAOS_SPEC.expand())
        assert summary["exit_codes"] == [0, 0]
        diff = ResultStore(oneshot_store).diff(ResultStore(summary["results"]))
        assert diff.is_clean


# --------------------------------------------------------------------------
# CLI wiring: --distributed / --store-dir / status attribution / diff
# --------------------------------------------------------------------------
class TestDistributedCli:
    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CHAOS_SPEC.to_dict()))
        return str(path)

    def test_distributed_run_status_and_diff(self, tmp_path, oneshot_store, capsys):
        spec_file = self._spec_file(tmp_path)
        store_dir = str(tmp_path / "pool")
        run_args = ["sweep", "run", "--distributed", "--spec", spec_file]
        run_args += ["--store-dir", store_dir, "--worker-id", "cli-w0"]
        run_args += ["--lease-ttl", str(TTL_S)]
        assert main(run_args) == 0
        out = capsys.readouterr().out
        assert "grid complete" in out

        assert (
            main(["sweep", "status", "--spec", spec_file, "--store-dir", store_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "per-worker attribution" in out
        assert "cli-w0" in out

        results = str(Path(store_dir) / "results.jsonl")
        assert main(["sweep", "diff", str(oneshot_store), results]) == 0
        capsys.readouterr()
        # ... and the gate still bites on real (deterministic) drift.
        tampered = ResultStore(tmp_path / "tampered.jsonl")
        for record in ResultStore(results).records():
            metrics = dict(record.metrics)
            metrics["test_accuracy"] = 0.123
            tampered.append(record.config, metrics, key=record.key)
        assert main(["sweep", "diff", str(oneshot_store), str(tampered.path)]) == 1
        capsys.readouterr()

    def test_orchestrate_distributed_sweep_step_and_qa_report(self, tmp_path):
        """`distributed:` sweep steps run as a pool; the QA report renders
        the serving-load capacity table from the step's shared store."""
        yaml = pytest.importorskip("yaml")
        del yaml
        from repro.orchestrate import WorkflowSpec, run_workflow
        from repro.orchestrate.report import build_report

        spec = WorkflowSpec.from_dict(
            {
                "name": "pool-wf",
                "seed": 7,
                "steps": [
                    {
                        "name": "serve-grid",
                        "kind": "sweep",
                        "config": {
                            "distributed": {"workers": 2, "ttl_s": 10.0},
                            "spec": {
                                "kind": "serving-load",
                                "models": ["memhd"],
                                "datasets": ["mnist"],
                                "dimensions": [32],
                                "columns": [16],
                                "engines": ["packed"],
                                "scale": 0.01,
                                "epochs": 1,
                                "seed": 7,
                                "serving_concurrency": [2],
                                "serving_workers": [1],
                                "serving_batch": [4],
                                "serving_requests": 16,
                            },
                        },
                    }
                ],
            }
        )
        step = spec.steps[0]
        assert step.config["distributed"] == {
            "workers": 2,
            "ttl_s": 10.0,
            "poll_s": None,
        }
        workdir = tmp_path / "wf"
        result = run_workflow(spec, workdir)
        assert result.ok
        pools = list((workdir / "sweeps").glob("*.pool"))
        assert len(pools) == 1
        assert (pools[0] / "results.jsonl").is_file()
        assert (pools[0] / "events.jsonl").is_file()
        report = build_report(spec, workdir)
        assert "serving-load results" in report
        assert "p99_ms" in report and "qps" in report

    def test_orchestrate_rejects_malformed_distributed_block(self):
        pytest.importorskip("yaml")
        from repro.orchestrate import OrchestrationError, WorkflowSpec

        def payload(block):
            return {
                "name": "bad",
                "steps": [
                    {
                        "name": "grid",
                        "kind": "sweep",
                        "config": {
                            "distributed": block,
                            "spec": {"models": ["memhd"], "dimensions": [32]},
                        },
                    }
                ],
            }

        for block in ({"workers": 0}, {"ttl_s": -1}, {"unknown": 1}, "yes"):
            with pytest.raises(OrchestrationError):
                WorkflowSpec.from_dict(payload(block))

    def test_distributed_flag_validation(self, tmp_path, capsys):
        spec_file = self._spec_file(tmp_path)
        base = ["sweep", "run", "--distributed", "--spec", spec_file]
        assert main(base) == 2  # --distributed requires --store-dir
        args = base + ["--store-dir", str(tmp_path / "p"), "--workers", "4"]
        assert main(args) == 2  # --workers is oneshot-pool only
        args = base + ["--store-dir", str(tmp_path / "p"), "--no-resume"]
        assert main(args) == 2  # distributed runs always resume
        args = ["sweep", "run", "--spec", spec_file, "--store-dir", str(tmp_path)]
        assert main(args) == 2  # --store-dir requires --distributed
        capsys.readouterr()
