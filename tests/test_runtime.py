"""Runtime subsystem: fingerprints, result cache, journal, scheduler."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.experiments import get
from repro.experiments.registry import _REGISTRY, ExperimentSpec
from repro.experiments.results import ExperimentResult
from repro.report import batch_summary_section, generate
from repro.runtime import (
    ResultCache,
    RunJournal,
    completed_tasks,
    run_batch,
    source_digest,
    task_key,
)
from repro.runtime import fingerprint as fingerprint_mod
from repro.runtime.journal import final_statuses, read_entries

#: Drivers cheap enough to execute repeatedly in tests.
CHEAP_IDS = ["table2", "table3", "eq1", "ext7"]


def _purge_fakepkg():
    """Fingerprinting imports parent packages; drop stale ones."""
    import importlib
    import sys

    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    fingerprint_mod.clear_cache()


@pytest.fixture
def fake_pkg(tmp_path, monkeypatch):
    """A tiny importable package for fingerprinting without side effects."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "helper.py").write_text("VALUE = 1\n")
    (pkg / "exp.py").write_text(
        "from fakepkg import helper\n\ndef run():\n    return helper.VALUE\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    _purge_fakepkg()
    yield pkg
    _purge_fakepkg()


class TestFingerprint:
    def test_digest_is_deterministic(self, fake_pkg):
        first = source_digest("fakepkg.exp")
        fingerprint_mod.clear_cache()
        assert source_digest("fakepkg.exp") == first
        assert len(first) == 64

    def test_digest_covers_import_closure(self, fake_pkg):
        before = source_digest("fakepkg.exp")
        (fake_pkg / "helper.py").write_text("VALUE = 2\n")
        fingerprint_mod.clear_cache()
        after = source_digest("fakepkg.exp")
        assert after != before

    def test_digest_unchanged_by_unrelated_file(self, fake_pkg):
        before = source_digest("fakepkg.exp")
        (fake_pkg / "unrelated.py").write_text("X = 9\n")
        fingerprint_mod.clear_cache()
        assert source_digest("fakepkg.exp") == before

    def test_task_key_varies_by_inputs(self, fake_pkg):
        base = task_key("e1", "fakepkg.exp", quick=True, version="1")
        assert task_key("e1", "fakepkg.exp", quick=False, version="1") != base
        assert task_key("e2", "fakepkg.exp", quick=True, version="1") != base
        assert task_key("e1", "fakepkg.exp", quick=True, version="2") != base

    def test_registry_spec_exposes_fingerprints(self):
        spec = get("table2")
        assert spec.module == "repro.experiments.table02_kernels"
        assert len(spec.source_fingerprint()) == 64
        assert spec.task_key(quick=True) != spec.task_key(quick=False)
        # The digest spans the whole in-package closure, so two different
        # drivers still hash different module sets.
        assert spec.task_key(quick=True) != get("eq1").task_key(quick=True)


class TestResultSerialization:
    def _result(self):
        result = ExperimentResult(experiment_id="x", title="T")
        result.add_table(
            "t",
            ("a", "b", "c"),
            [(np.float64(1.5), np.int64(2), "s"), (0.25, 7, "u")],
        )
        result.figures.append("<ascii>")
        result.notes.append("note")
        return result

    def test_round_trip_is_json_safe_and_render_identical(self):
        result = self._result()
        payload = json.loads(json.dumps(result.as_dict()))
        back = ExperimentResult.from_dict(payload)
        assert back.render() == result.render()
        assert back.table("t").columns == ("a", "b", "c")

    def test_numpy_scalars_become_builtins(self):
        table = self._result().table("t").as_dict()
        assert type(table["rows"][0][0]) is float
        assert type(table["rows"][0][1]) is int


class TestResultCache:
    def _result(self, exp_id="table2"):
        result = ExperimentResult(experiment_id=exp_id, title="T")
        result.add_table("t", ("a",), [(1,)])
        return result

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, self._result(), quick=True, wall_time_s=0.5)
        cached = cache.get(key)
        assert cached is not None
        assert cached.render() == self._result().render()

    def test_put_writes_the_one_payload_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        path = cache.put(key, self._result(), quick=True, wall_time_s=0.5)
        doc = json.loads(path.read_text())
        assert (doc["schema"], doc["kind"], doc["quick"]) == (1, "experiment", True)
        assert doc["wall_time_s"] == 0.5
        assert cache.get_payload(key) == self._result().as_dict()

    def test_legacy_result_layout_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "0b" + "0" * 62
        path = cache.put(key, self._result(), quick=True)
        doc = json.loads(path.read_text())
        doc["result"] = doc.pop("payload")
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("ff" + "0" * 62) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache.put(key, self._result(), quick=True)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, self._result(), quick=True)
        cache.record_run(hits=3, misses=1)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.last_run_hits == 3 and stats.last_run_misses == 1
        assert stats.last_run_hit_rate == pytest.approx(0.75)
        assert "hit rate 75.0%" in stats.render()
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_env_var_sets_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPM_REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultCache().root == tmp_path / "envcache"


class TestJournal:
    def test_round_trip_and_completed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.write_header(ids=["a", "b", "c"], quick=True, jobs=2)
            journal.record("a", "running")
            journal.record("a", "done", cache="miss", duration_s=0.5)
            journal.record("b", "failed", error="boom")
            journal.record("c", "skipped")
        assert completed_tasks(path) == {"a", "c"}
        statuses = final_statuses(path)
        assert statuses["b"].error == "boom"
        assert statuses["a"].cache == "miss"

    def test_torn_last_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("a", "done")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "task", "task": "b", "sta')  # killed mid-write
        assert completed_tasks(path) == {"a"}

    def test_timeout_status_is_not_terminal_for_resume(self, tmp_path):
        """Regression: a timed-out task must be re-run by --resume."""
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("a", "running")
            journal.record(
                "a", "timeout", error="timed out after 2.00s", attempt=2
            )
            journal.record("b", "done")
        assert completed_tasks(path) == {"b"}
        entry = final_statuses(path)["a"]
        assert entry.status == "timeout"
        assert entry.attempt == 2
        assert "timed out" in entry.error

    def test_resume_appends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("a", "done")
        with RunJournal(path, append=True) as journal:
            journal.record("b", "done")
        assert {e.task for e in read_entries(path)} == {"a", "b"}


class TestScheduler:
    def test_repeat_run_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        ids = ["table2", "eq1"]
        first = run_batch(ids, cache=cache)
        second = run_batch(ids, cache=cache)
        assert first.cache_hits == 0 and first.cache_misses == 2
        assert second.cache_hits == 2 and second.cache_misses == 0
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.result.render() == b.result.render()
        stats = cache.stats()
        assert stats.last_run_hits == 2 and stats.lifetime_misses == 2

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        serial = run_batch(CHEAP_IDS, jobs=1, cache=None)
        parallel = run_batch(CHEAP_IDS, jobs=4, cache=None)
        assert [o.experiment_id for o in parallel.outcomes] == CHEAP_IDS
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert s.status == p.status == "done"
            assert s.result.render() == p.result.render()

    def test_parallel_populates_cache_serial_hits_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch(CHEAP_IDS, jobs=4, cache=cache)
        second = run_batch(CHEAP_IDS, jobs=1, cache=cache)
        assert second.cache_hits == len(CHEAP_IDS)

    def test_resume_skips_completed_entries(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        with RunJournal(journal_path) as journal:
            run_batch(["table2"], cache=None, journal=journal)
        done = completed_tasks(journal_path)
        assert done == {"table2"}
        with RunJournal(journal_path, append=True) as journal:
            summary = run_batch(
                ["table2", "eq1"],
                cache=None,
                journal=journal,
                resume_completed=done,
            )
        by_id = {o.experiment_id: o for o in summary.outcomes}
        assert by_id["table2"].status == "skipped"
        assert by_id["table2"].result is None
        assert by_id["eq1"].status == "done"
        # Both are terminal now, so a third resume would skip everything.
        assert completed_tasks(journal_path) == {"table2", "eq1"}

    def test_failed_task_is_retried_then_reported(self, monkeypatch, tmp_path):
        attempts = []

        def boom(quick=True):
            attempts.append(1)
            raise RuntimeError("driver exploded")

        monkeypatch.setitem(
            _REGISTRY,
            "failx",
            ExperimentSpec("failx", "Failing", "none", boom),
        )
        journal_path = tmp_path / "j.jsonl"
        with RunJournal(journal_path) as journal:
            summary = run_batch(
                ["failx"], cache=None, journal=journal, retries=1
            )
        (outcome,) = summary.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 2 == len(attempts)
        assert "driver exploded" in outcome.error
        assert completed_tasks(journal_path) == set()

    def test_telemetry_counters_and_spans(self, tmp_path):
        cache = ResultCache(tmp_path)
        with telemetry.session():
            run_batch(["table2"], cache=cache)
            run_batch(["table2"], cache=cache)
            snapshot = telemetry.get_registry().snapshot()
            names = {sp.name for sp in telemetry.get_tracer().finished()}
        assert snapshot["runtime.cache.misses"]["value"] == 1
        assert snapshot["runtime.cache.hits"]["value"] == 1
        assert snapshot["runtime.tasks.completed"]["value"] == 1
        assert snapshot["runtime.task_wall_s"]["count"] == 1
        assert {"batch", "task", "cache.lookup"} <= names

    def test_batch_summary_render_and_section(self, tmp_path):
        summary = run_batch(["table2"], cache=ResultCache(tmp_path))
        assert "batch: 1/1 done" in summary.render()
        section = batch_summary_section(summary)
        assert "## Batch execution" in section
        assert "| table2 | done | computed |" in section


class TestReportBatchIntegration:
    def test_report_with_cache_has_batch_section(self, tmp_path):
        text = generate(
            experiment_ids=["table2"],
            cache=ResultCache(tmp_path),
            with_telemetry=False,
        )
        assert "## Batch execution" in text
        assert "table2" in text


class TestCliRuntime:
    def test_run_with_jobs_journal_and_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "j.jsonl"
        rc = main(
            [
                "run",
                "table2",
                "--jobs",
                "2",
                "--cache-dir",
                str(cache_dir),
                "--journal",
                str(journal_path),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "Scientific kernel characteristics" in captured.out
        assert "Batch execution" in captured.err
        assert completed_tasks(journal_path) == {"table2"}

        rc = main(
            ["run", "table2", "--quiet", "--jobs", "2",
             "--cache-dir", str(cache_dir), "--journal", str(journal_path)]
        )
        assert rc == 0
        assert "cache hit rate 100.0%" in capsys.readouterr().err

    def test_cli_resume_skips_done(self, tmp_path, capsys):
        journal_path = tmp_path / "j.jsonl"
        assert main(
            ["run", "table2", "--quiet", "--no-cache",
             "--journal", str(journal_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["run", "table2", "--quiet", "--no-cache",
             "--resume", str(journal_path)]
        ) == 0
        assert "1 resumed" in capsys.readouterr().err

    def test_cache_stats_and_clear_subcommands(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(
            ["run", "table2", "--quiet", "--jobs", "2",
             "--cache-dir", str(cache_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out and "last run:" in out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1 cached result(s)" in capsys.readouterr().out

    def test_csv_and_svg_dirs_are_created(self, tmp_path, capsys):
        csv_dir = tmp_path / "does" / "not" / "exist" / "csv"
        svg_dir = tmp_path / "does" / "not" / "exist" / "svg"
        rc = main(
            ["run", "fig4", "--quiet", "--csv-dir", str(csv_dir),
             "--svg-dir", str(svg_dir)]
        )
        assert rc == 0
        assert csv_dir.is_dir() and svg_dir.is_dir()
        assert list(csv_dir.rglob("*.csv"))
