"""Running the program as child processes and accounting for them.

Every child starts in its own session, so the whole tree it spawns can be
found (``session_members``) and killed as a group. CPU and peak RSS of a
finished tree come from ``os.wait4``; the kernel folds every waited-for
descendant into the rusage of the child that reaped it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator, Sequence

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def repro_env(root: Path) -> dict[str, str]:
    """Environment for a ``python -m repro`` child using the checkout's source."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("OPM_REPRO_CACHE_DIR", None)
    return env


@dataclasses.dataclass
class Finished:
    """One child that ran to completion."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    #: Processes of the child's session still alive after it exited
    #: (killed by the time this is returned).
    strays: int


def run_python(
    argv: Sequence[str], *, env: dict[str, str], cwd: Path, timeout_s: float
) -> Finished:
    """Run ``python <argv>`` to completion, timing it from spawn to exit.

    Output goes to files in ``cwd`` (no pipe can fill and stall the
    child). A child still running after ``timeout_s`` has its session
    killed and is reported with return code -9.
    """
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=out,
            stderr=err,
            env=env,
            cwd=cwd,
            start_new_session=True,
        )
        timer = threading.Timer(timeout_s, kill_session, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    strays = session_members(proc.pid)
    kill_session(proc.pid)  # nothing may outlive the child
    return Finished(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        strays=len(strays),
    )


#: One spinner: idle priority, and it ends when its parent does.
_SPIN = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    pass
"""


@contextlib.contextmanager
def cpus_kept_awake() -> Iterator[list[int]]:
    """Keep every CPU this process may use busy at idle priority.

    On a virtual machine a vCPU with nothing to run halts, and waking it
    waits for the hypervisor, which is slow and varies with the load of
    the host's other guests. A request to the server hops between the
    generator, the server and its shard, and would pay such a wake-up at
    each hop. One ``SCHED_IDLE`` spinner per CPU keeps the vCPUs running;
    a normal task that becomes runnable preempts it at once, so it takes
    no time the program wants. Every spinner is killed and reaped on
    exit, and one whose parent died stops by itself. Yields their pids.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPIN], stdin=subprocess.DEVNULL)
        for _ in range(len(os.sched_getaffinity(0)))
    ]
    try:
        yield [spinner.pid for spinner in spinners]
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def kill_session(sid: int) -> None:
    """SIGKILL every live process of session ``sid`` and wait until gone."""
    members = session_members(sid)
    for pid in members:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wait_gone(members, 5.0)


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name sits in parentheses and may contain spaces.
    return text[text.rindex(")") + 2 :].split()


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[3] the session id.
        if fields and fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def tree_cpu_s(pids: Sequence[int]) -> float:
    """User plus system CPU of ``pids`` and of their reaped children."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            # utime, stime, cutime, cstime are stat fields 14-17.
            total += sum(int(v) for v in fields[11:15])
    return total / _CLK_TCK


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest ``VmHWM`` (peak resident set) among ``pids``."""
    peak = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def wait_gone(pids: Sequence[int], timeout_s: float) -> list[int]:
    """Poll until none of ``pids`` is alive; returns the survivors."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.02)
        alive = [p for p in alive if _stat_fields(p) and _stat_fields(p)[0] != "Z"]
    return alive
