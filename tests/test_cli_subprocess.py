"""End-to-end CLI tests: ``python -m repro`` in a real subprocess.

These exercise the installed-entry-point behaviour (argument parsing,
exit codes, files on disk) that in-process ``main()`` calls can mask.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_cli(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
        cwd=str(REPO_ROOT),
    )


class TestListAndRun:
    def test_list(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        assert "fig6" in proc.stdout
        assert "table5" in proc.stdout

    def test_run_fig6_quiet_csv_dir(self, tmp_path):
        proc = run_cli("run", "fig6", "--quiet", "--csv-dir", str(tmp_path))
        assert proc.returncode == 0
        assert proc.stdout.strip() == ""  # --quiet suppresses rendering
        csvs = sorted(p.name for p in (tmp_path / "fig6").glob("*.csv"))
        assert csvs, "no CSVs written"
        assert all("wrote" in line for line in proc.stderr.splitlines())

    def test_unknown_id_exit_2(self):
        proc = run_cli("run", "fig99")
        assert proc.returncode == 2
        assert "unknown experiment" in proc.stderr
        assert "valid ids:" in proc.stderr


class TestTraceFlag:
    def test_trace_emits_valid_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        proc = run_cli("run", "fig6", "--quiet", "--trace", str(path))
        assert proc.returncode == 0
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert records, "trace file is empty"
        spans = [r for r in records if r["type"] == "span"]
        manifests = [r for r in records if r["type"] == "manifest"]
        # Nested spans: the experiment root plus per-phase children.
        assert any(r["parent_id"] is None for r in spans)
        assert any(r["parent_id"] is not None for r in spans)
        assert {r["name"] for r in spans} >= {"experiment", "stepping.curve"}
        assert all(r["duration_s"] >= 0 for r in spans)
        (manifest,) = manifests
        assert manifest["experiment_id"] == "fig6"
        assert manifest["status"] == "ok"
        assert manifest["wall_time_s"] > 0

    def test_trace_result_carries_telemetry_table(self, tmp_path):
        path = tmp_path / "t.jsonl"
        proc = run_cli("run", "fig6", "--trace", str(path))
        assert proc.returncode == 0
        assert "telemetry" in proc.stdout


class TestProfileSubcommand:
    def test_profile_fig6(self):
        proc = run_cli("profile", "fig6")
        assert proc.returncode == 0
        assert "== profile: fig6 ==" in proc.stdout
        assert "phase" in proc.stdout and "self_s" in proc.stdout
        assert "stepping.curve" in proc.stdout
        assert "manifest" in proc.stdout

    def test_profile_with_trace(self, tmp_path):
        path = tmp_path / "p.jsonl"
        proc = run_cli("profile", "fig6", "--trace", str(path))
        assert proc.returncode == 0
        types = {
            json.loads(line)["type"]
            for line in path.read_text().splitlines()
            if line.strip()
        }
        assert types >= {"span", "manifest"}


@pytest.mark.parametrize("exp_id", ["ext4"])
class TestKernelPhaseSpans:
    def test_trace_has_kernel_spans(self, tmp_path, exp_id):
        """Experiments that drive the exact simulator emit one span per
        kernel phase (trace generation + hierarchy walk)."""
        path = tmp_path / "k.jsonl"
        proc = run_cli("run", exp_id, "--quiet", "--trace", str(path))
        assert proc.returncode == 0
        names = [
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
            if line.strip() and json.loads(line)["type"] == "span"
        ]
        assert "kernel.trace" in names
        assert "hierarchy.run" in names


def _session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # After the parenthesized command name: state, ppid, pgrp, session.
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
class TestServeShutdown:
    @pytest.mark.parametrize(
        "sig,preexec",
        [(signal.SIGTERM, None), (signal.SIGINT, _ignore_sigint)],
        ids=["sigterm", "sigint-inherited-ignored"],
    )
    def test_signal_exits_0_and_reaps_shard(self, tmp_path, sig, preexec):
        trace = tmp_path / "serve.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--jobs", "1",
                "--port", "0", "--cache-dir", str(tmp_path / "cache"),
                "--trace", str(trace),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
            start_new_session=True,
            preexec_fn=preexec,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving memory advisor on" in banner, banner
            port = int(banner.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            # One advise query starts the shard worker.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            query = {"kernel": "gemm", "params": {"order": 128}}
            conn.request("POST", "/v1/advise", body=json.dumps(query))
            assert conn.getresponse().status == 200
            conn.close()
            assert len(_session_members(proc.pid)) >= 2  # server + shard

            proc.send_signal(sig)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "shutting down" in err
            assert trace.read_text().strip()
            deadline = time.monotonic() + 10
            while _session_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _session_members(proc.pid) == []
        finally:
            for pid in _session_members(proc.pid):
                os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
