"""The benchmark's own statistics and correctness checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import os
import time

import pytest

import procs
import w_reproduce
from loadgen import Sent
from stats import (
    Outcomes,
    check_digest,
    has_backlog,
    latency_summary,
    percentile,
    sha256_hex,
    tail_percentile,
)


# -- percentile rule ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (48, 75.0), (41, 75.0), (20, 50.0), (19, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    if pct is not None:
        assert n * (100 - pct) / 100 >= 10


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_latency_summary_states_count_and_fixes_percentile_by_minimum():
    samples = [float(i) for i in range(1, 2001)]
    summary = latency_summary(samples, 1000)
    assert summary["n"] == 2000
    assert summary["tail_pct"] == 99.0
    assert summary["tail"] == 1980.0
    assert summary["p50"] == 1000.0
    # More samples than the minimum never change which percentile is reported.
    assert latency_summary(samples, 100)["tail_pct"] == 90.0


def test_latency_summary_refuses_too_few_samples():
    with pytest.raises(ValueError):
        latency_summary([1.0] * 19, 19)
    with pytest.raises(ValueError):
        latency_summary([1.0] * 50, 100)


# -- backlog detection ----------------------------------------------------------


def _schedule(rate, seconds, latency):
    due = [i / rate for i in range(int(rate * seconds))]
    return due, [d + latency(d) for d in due]


def test_steady_lateness_is_not_a_backlog():
    due, done = _schedule(200, 2.0, lambda d: 0.002 + 0.001 * math.sin(d * 50))
    assert not has_backlog(due, done, window_s=0.5, slack_s=0.05)


def test_growing_lateness_is_a_backlog():
    # Service slower than arrivals: each request waits behind the last.
    due, done = _schedule(200, 2.0, lambda d: 0.2 * d)
    assert has_backlog(due, done, window_s=0.5, slack_s=0.05)


def test_unanswered_request_is_a_backlog():
    due, done = _schedule(100, 1.0, lambda d: 0.001)
    done[-1] = math.inf
    assert has_backlog(due, done, window_s=0.25, slack_s=0.05)


def test_backlog_needs_paired_samples():
    with pytest.raises(ValueError):
        has_backlog([0.0, 1.0], [0.1], window_s=0.5, slack_s=0.05)


# -- failed_frac accounting -----------------------------------------------------


def test_outcomes_count_every_attempt_once():
    out = Outcomes()
    assert out.record(True)
    assert not out.record(False, "refused")
    out.record(True)
    assert (out.attempted, out.failed) == (3, 1)
    assert out.failed_frac == pytest.approx(1 / 3)
    assert out.reasons == ["refused"]


def test_nothing_attempted_is_all_failed():
    assert Outcomes().failed_frac == 1.0


def _sent(status=200, body=b"", error=""):
    s = Sent(index=0, due=0.0, started=0.0, done=0.001)
    s.status, s.body, s.error = status, body, error
    return s


def test_advise_answers_are_checked_against_offline_advisor():
    from w_advise import Expect

    query = {"kernel": "stream", "params": {"n": 4096}}
    expect = Expect([query])
    answer = dict(expect.answers[json.dumps(query, sort_keys=True)])
    out = Outcomes()
    served = dict(answer, meta={"cache": "miss", "wall_s": 0.01})
    assert expect.check(out, _sent(body=json.dumps(served).encode()), query, True)
    tampered = dict(answer, footprint_bytes=answer["footprint_bytes"] + 1)
    assert not expect.check(out, _sent(body=json.dumps(tampered).encode()), query, True)
    assert not expect.check(out, _sent(status=503), query, True)
    assert not expect.check(out, _sent(status=0, error="TimeoutError"), query, True)
    # A malformed query must be refused with 400, and only 400.
    assert expect.check(out, _sent(status=400), {"kernel": "lu"}, False)
    assert not expect.check(out, _sent(status=200), {"kernel": "lu"}, False)
    assert (out.attempted, out.failed) == (6, 4)


# -- digest checking ------------------------------------------------------------


def test_check_digest_flags_mismatch_and_missing_record():
    assert check_digest("ab" * 32, "ab" * 32, "x") is None
    assert "digest" in check_digest("ab" * 32, "cd" * 32, "x")
    assert "no recorded digest" in check_digest("ab" * 32, None, "x")


def _finished(stdout: bytes, summary: str) -> procs.Finished:
    return procs.Finished(
        returncode=0, wall_s=1.0, cpu_s=1.0, maxrss_mb=1.0,
        stdout=stdout, stderr=summary.encode(), strays=0,
    )


def test_run_all_stdout_digest_catches_tampered_output(monkeypatch):
    good = b"== fig1 ==\nresult table\n"
    monkeypatch.setitem(w_reproduce.EXPECTED["reproduce"], "run_all_stdout", sha256_hex(good))
    cold = "cache hit rate 0.0% (0 hits / 41 misses), 0 resumed, 0 failed, 0 timed out."
    out = Outcomes()
    w_reproduce.check_run_all(out, _finished(good, cold), "cold", hits=0)
    assert out.failed == 0
    w_reproduce.check_run_all(out, _finished(good.replace(b"1", b"2"), cold), "cold", hits=0)
    assert out.failed == 1
    # Right bytes, wrong cache behaviour: a warm run that missed.
    w_reproduce.check_run_all(out, _finished(good, cold), "warm", hits=41)
    assert (out.attempted, out.failed) == (3, 2)


def test_replay_digest_catches_tampered_stats():
    import w_replay
    from expected import EXPECTED

    cases, _ = w_replay.build_inputs(seed=5)
    machines = w_replay.Machines()
    name, kernel = next((n, k) for n, k in cases if n == "stream-small")
    res = w_replay.replay_case(kernel, machines, None)
    out = Outcomes()
    checker = w_replay.CaseChecker(out, EXPECTED["replay"])
    checker.check(name, kernel, res, machines)
    assert out.failed == 0, out.reasons
    tampered = dict(res, digest="0" * 64)
    checker.check(name, kernel, tampered, machines)
    fresh = w_replay.CaseChecker(Outcomes(), EXPECTED["replay"])
    fresh.check(name, kernel, tampered, machines)
    assert out.failed == 1 and fresh.out.failed == 1


# -- idle spinners --------------------------------------------------------------


def test_spinners_run_at_idle_priority_and_are_reaped():
    with procs.cpus_kept_awake() as pids:
        assert len(pids) == len(os.sched_getaffinity(0))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if all(os.sched_getscheduler(pid) == os.SCHED_IDLE for pid in pids):
                break
            time.sleep(0.01)
        assert all(os.sched_getscheduler(pid) == os.SCHED_IDLE for pid in pids)
    assert procs.wait_gone(pids, 1.0) == []
