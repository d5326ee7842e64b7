"""``repro serve`` as a child process: start, find its port, stop cleanly.

The server is stopped with SIGINT, its clean shutdown path. SIGTERM is
not used: it kills ``repro serve --jobs 1`` (exit -15) but leaves the
shard worker running at full size, and a stray process like that skews
every later measurement on a small machine. After the server exits, no
process of its session may remain; survivors are counted and killed.
"""

from __future__ import annotations

import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

import procs

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerError(RuntimeError):
    pass


class Server:
    def __init__(self, env: dict[str, str], work: Path, *, trace: Path | None = None) -> None:
        argv = [
            sys.executable, "-m", "repro", "serve", "--jobs", "1", "--port", "0",
            "--cache-dir", str(work / "cache"),
        ]
        if trace is not None:
            argv += ["--trace", str(trace)]
        self.stderr_path = work / "serve.err"
        self.started = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=work,
                start_new_session=True,
            )
        try:
            self.port = self._read_port()
        except ServerError:
            self.kill()
            raise

    def _read_port(self) -> int:
        """Parse ``serving memory advisor on HOST:PORT`` from stdout."""
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT_S):
                raise ServerError("server did not announce its port")
        line = self.proc.stdout.readline().decode(errors="replace")
        if "serving memory advisor on" not in line:
            raise ServerError(f"unexpected server banner {line!r}: {self.stderr_path.read_text()[-300:]}")
        return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def members(self) -> list[int]:
        return procs.session_members(self.proc.pid)

    def stop(self) -> tuple[int | None, int]:
        """SIGINT, wait; returns (exit code or None if it hung, strays)."""
        code: int | None
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        strays = procs.wait_gone(self.members(), 5.0)
        self.kill()
        return code, len(strays)

    def kill(self) -> None:
        """Kill the whole session and reap the server."""
        procs.kill_session(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
