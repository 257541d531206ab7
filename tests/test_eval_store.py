"""Tests for the append-only JSONL result store (repro.eval.store)."""

import json
import multiprocessing
import threading
import time

import pytest

from repro.eval.store import (
    ResultRecord,
    ResultStore,
    StoreError,
    canonical_config,
    config_key,
)


class TestConfigKey:
    def test_key_is_order_insensitive(self):
        a = {"model": "memhd", "dimension": 64, "engine": "float"}
        b = {"engine": "float", "model": "memhd", "dimension": 64}
        assert config_key(a) == config_key(b)

    def test_key_changes_with_any_field(self):
        base = {"model": "memhd", "dimension": 64}
        assert config_key(base) != config_key({**base, "dimension": 65})
        assert config_key(base) != config_key({**base, "extra": None})

    def test_key_is_stable_across_processes(self):
        # Pinned literal: the hash must never depend on interpreter state
        # (PYTHONHASHSEED, dict order, platform), or resume would break.
        assert config_key({"model": "memhd", "dimension": 64}) == config_key(
            json.loads(canonical_config({"dimension": 64, "model": "memhd"}))
        )

    def test_unserializable_config_rejected(self):
        with pytest.raises(StoreError):
            config_key({"bad": object()})


class TestResultStore:
    def test_missing_file_reads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "none.jsonl")
        assert store.records() == []
        assert store.completed_keys() == set()
        assert len(store) == 0

    def test_append_and_reload(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        record = store.append({"model": "memhd"}, {"test_accuracy": 0.5})
        reloaded = ResultStore(store.path).records()
        assert reloaded == [record]
        assert reloaded[0].key == config_key({"model": "memhd"})

    def test_duplicate_keys_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append({"model": "memhd"}, {"test_accuracy": 0.5})
        store.append({"model": "memhd"}, {"test_accuracy": 0.7})
        assert len(store.records()) == 2
        assert len(store) == 1
        assert store.latest()[config_key({"model": "memhd"})].metrics[
            "test_accuracy"
        ] == pytest.approx(0.7)

    def test_torn_final_line_is_recoverable(self, tmp_path):
        """A sweep killed mid-write leaves a partial last line; reads skip it."""
        store = ResultStore(tmp_path / "r.jsonl")
        kept = store.append({"model": "memhd"}, {"test_accuracy": 0.5})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "abc", "config": {"model":')  # torn write
        assert store.records() == [kept]

    def test_append_after_torn_tail_does_not_fuse(self, tmp_path):
        """Resuming onto a torn tail must not weld the new record onto it.

        The partial line is truncated away on the next append; afterwards
        both the pre-kill and post-resume records read back cleanly (no
        fused unparseable line, no mid-file corruption on later reads).
        """
        store = ResultStore(tmp_path / "r.jsonl")
        first = store.append({"model": "memhd"}, {"test_accuracy": 0.5})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "abc", "config": {"model":')  # killed writer
        second = store.append({"model": "basichdc"}, {"test_accuracy": 0.6})
        third = store.append({"model": "quanthd"}, {"test_accuracy": 0.7})
        assert store.records() == [first, second, third]
        assert len(store) == 3

    def test_append_onto_wholly_torn_file(self, tmp_path):
        """A store whose only content is a torn line heals to just the append."""
        path = tmp_path / "r.jsonl"
        path.write_text('{"key": "abc"')  # no newline, no complete record
        store = ResultStore(path)
        record = store.append({"model": "memhd"}, {"test_accuracy": 0.5})
        assert store.records() == [record]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append({"model": "memhd"}, {"test_accuracy": 0.5})
        lines = path.read_text().splitlines()
        path.write_text("GARBAGE\n" + "\n".join(lines) + "\n")
        with pytest.raises(StoreError):
            store.records()

    def test_extend_round_trips_records(self, tmp_path):
        source = ResultStore(tmp_path / "a.jsonl")
        source.append({"model": "memhd"}, {"test_accuracy": 0.5})
        target = ResultStore(tmp_path / "b.jsonl")
        target.extend(source.records())
        assert target.latest() == source.latest()

    def test_record_requires_all_fields(self):
        with pytest.raises(StoreError):
            ResultRecord.from_dict({"key": "abc", "config": {}})

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_fork_during_append_does_not_wedge_later_appends(
        self, tmp_path, monkeypatch
    ):
        """A child forked while another thread appends must not inherit the
        append's locked handle: it would hold the lock for its whole life."""
        store = ResultStore(tmp_path / "r.jsonl")
        inside, proceed, forked = (threading.Event() for _ in range(3))
        repair = ResultStore._truncate_torn_tail

        def parked_repair(handle):
            inside.set()
            assert proceed.wait(timeout=30.0)
            return repair(handle)

        monkeypatch.setattr(
            ResultStore, "_truncate_torn_tail", staticmethod(parked_repair)
        )
        writer = threading.Thread(target=store.append, args=({"cell": 1}, {}))
        writer.start()
        assert inside.wait(timeout=30.0)
        monkeypatch.setattr(ResultStore, "_truncate_torn_tail", staticmethod(repair))
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60.0,), daemon=True
        )
        forker = threading.Thread(target=lambda: (child.start(), forked.set()))
        forker.start()
        forked.wait(timeout=1.0)  # an unguarded fork lands mid-append here
        proceed.set()
        writer.join(timeout=30.0)
        forker.join(timeout=30.0)
        try:
            second = threading.Thread(target=store.append, args=({"cell": 2}, {}))
            second.start()
            second.join(timeout=10.0)
            assert not second.is_alive(), "append blocked by the forked child"
        finally:
            child.kill()
            child.join(timeout=10.0)
            second.join(timeout=10.0)
        assert [record.config["cell"] for record in store.records()] == [1, 2]


class TestStoreDiff:
    def _store(self, tmp_path, name, cells):
        store = ResultStore(tmp_path / f"{name}.jsonl")
        for config, metrics in cells:
            store.append(config, metrics)
        return store

    def test_identical_stores_are_clean(self, tmp_path):
        cells = [({"model": "memhd", "dimension": 64}, {"test_accuracy": 0.8})]
        left = self._store(tmp_path, "left", cells)
        right = self._store(tmp_path, "right", cells)
        diff = left.diff(right)
        assert diff.is_clean
        assert diff.matching == 1

    def test_metric_drift_detected(self, tmp_path):
        config = {"model": "memhd", "dimension": 64}
        left = self._store(tmp_path, "left", [(config, {"test_accuracy": 0.8})])
        right = self._store(tmp_path, "right", [(config, {"test_accuracy": 0.6})])
        diff = left.diff(right)
        assert not diff.is_clean
        assert len(diff.changed) == 1
        change = diff.changed[0]
        assert change.metric == "test_accuracy"
        assert change.old == pytest.approx(0.8)
        assert change.new == pytest.approx(0.6)

    def test_timing_metrics_ignored_by_default(self, tmp_path):
        config = {"model": "memhd"}
        left = self._store(
            tmp_path, "left", [(config, {"test_accuracy": 0.8, "elapsed_s": 1.0})]
        )
        right = self._store(
            tmp_path, "right", [(config, {"test_accuracy": 0.8, "elapsed_s": 9.0})]
        )
        assert left.diff(right).is_clean
        # ... unless the caller opts in to comparing them.
        assert not left.diff(right, ignore=()).is_clean

    def test_latency_metrics_ignored_by_default(self, tmp_path):
        """Serving measurements (QPS, latency quantiles) never gate drift."""
        config = {"model": "memhd", "kind": "serving-load"}
        left = self._store(
            tmp_path,
            "left",
            [(config, {"requests": 64, "qps": 1500.0, "p99_ms": 9.1})],
        )
        right = self._store(
            tmp_path,
            "right",
            [(config, {"requests": 64, "qps": 2.0, "p99_ms": 900.0})],
        )
        assert left.diff(right).is_clean
        assert right.diff(left).is_clean  # symmetric: both directions clean

    def test_volatile_skip_is_exact_name_matching_not_substring(self, tmp_path):
        """Pinned regression: metrics merely *containing* a volatile word
        (``firewall_rules`` contains ``wall``) must still be compared."""
        config = {"model": "memhd"}
        left = self._store(
            tmp_path, "left", [(config, {"firewall_rules": 3, "overall_score": 0.9})]
        )
        right = self._store(
            tmp_path, "right", [(config, {"firewall_rules": 4, "overall_score": 0.5})]
        )
        diff = left.diff(right)
        assert not diff.is_clean
        assert {change.metric for change in diff.changed} == {
            "firewall_rules",
            "overall_score",
        }
        reverse = right.diff(left)
        assert {change.metric for change in reverse.changed} == {
            "firewall_rules",
            "overall_score",
        }

    def test_deterministic_serving_counts_still_gate(self, tmp_path):
        """``requests``/``errors``/``error_rate`` are NOT volatile: a pool
        that dropped requests must show up as drift in both directions."""
        config = {"model": "memhd", "kind": "serving-load"}
        left = self._store(
            tmp_path, "left", [(config, {"requests": 64, "errors": 0, "error_rate": 0.0})]
        )
        right = self._store(
            tmp_path, "right", [(config, {"requests": 60, "errors": 4, "error_rate": 0.0625})]
        )
        for diff in (left.diff(right), right.diff(left)):
            assert not diff.is_clean
            assert {change.metric for change in diff.changed} == {
                "requests",
                "errors",
                "error_rate",
            }

    def test_tolerance_is_honored(self, tmp_path):
        config = {"model": "memhd"}
        left = self._store(tmp_path, "left", [(config, {"test_accuracy": 0.8})])
        right = self._store(
            tmp_path, "right", [(config, {"test_accuracy": 0.8 + 1e-12})]
        )
        assert left.diff(right).is_clean
        assert not left.diff(right, rtol=0.0, atol=0.0).is_clean

    def test_metric_allowlist(self, tmp_path):
        config = {"model": "memhd"}
        left = self._store(
            tmp_path, "left", [(config, {"test_accuracy": 0.8, "memory_kib": 3.0})]
        )
        right = self._store(
            tmp_path, "right", [(config, {"test_accuracy": 0.8, "memory_kib": 4.0})]
        )
        assert left.diff(right, metrics=("test_accuracy",)).is_clean
        assert not left.diff(right).is_clean

    def test_missing_cells_reported(self, tmp_path):
        only_left = {"model": "memhd", "dimension": 32}
        only_right = {"model": "memhd", "dimension": 64}
        left = self._store(tmp_path, "left", [(only_left, {"test_accuracy": 0.5})])
        right = self._store(tmp_path, "right", [(only_right, {"test_accuracy": 0.5})])
        diff = left.diff(right)
        assert not diff.is_clean
        assert diff.only_left == [config_key(only_left)]
        assert diff.only_right == [config_key(only_right)]

    def test_missing_metric_counts_as_change(self, tmp_path):
        config = {"model": "memhd"}
        left = self._store(tmp_path, "left", [(config, {"test_accuracy": 0.8})])
        right = self._store(
            tmp_path, "right", [(config, {"test_accuracy": 0.8, "extra": 1.0})]
        )
        diff = left.diff(right)
        assert [change.metric for change in diff.changed] == ["extra"]

    def test_diff_of_missing_stores_is_clean_no_records(self, tmp_path):
        """Stores that were never written diff as clean "no records".

        Pins the contract ``repro sweep diff`` (and the workflow report
        builder) rely on: no special-casing required by callers, no
        exception, an honest zero-count summary.
        """
        left = ResultStore(tmp_path / "never_a.jsonl")
        right = ResultStore(tmp_path / "never_b.jsonl")
        diff = left.diff(right)
        assert diff.is_clean
        assert diff.matching == 0
        assert diff.changed == []
        assert diff.only_left == [] and diff.only_right == []
        assert "0 matching" in diff.summary()

    def test_diff_of_empty_file_store_is_clean(self, tmp_path):
        """A store file that exists but holds no records behaves the same."""
        empty_path = tmp_path / "empty.jsonl"
        empty_path.write_text("", encoding="utf-8")
        diff = ResultStore(empty_path).diff(ResultStore(tmp_path / "ghost.jsonl"))
        assert diff.is_clean
        assert diff.matching == 0

    def test_diff_populated_vs_missing_reports_only_left(self, tmp_path):
        config = {"model": "memhd", "dimension": 32}
        left = self._store(tmp_path, "left", [(config, {"test_accuracy": 0.5})])
        diff = left.diff(ResultStore(tmp_path / "ghost.jsonl"))
        assert not diff.is_clean
        assert diff.only_left == [config_key(config)]
        assert diff.only_right == []
