"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
import time
from pathlib import Path

from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import serving  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from repro import obs  # noqa: E402
from repro.serve import DeadlineExceeded, PendingResponse, QueueFull  # noqa: E402


# -- tail percentile rule ------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # unsorted on purpose
    tail = stats.tail(samples)
    assert tail["value"] == 90
    assert tail["percentile"] == 90.0
    assert sum(s > tail["value"] for s in samples) == 10


def test_tail_percentile_rises_with_sample_count():
    assert stats.tail(range(1000))["percentile"] == 99.0
    assert stats.tail(range(11))["value"] == 0


def test_tail_refuses_samples_too_small():
    with pytest.raises(ValueError):
        stats.tail(range(10))


# -- open loop: due-time stamping and outcomes ---------------------------------

def test_latency_is_timed_from_due_time():
    responses = []

    def submit(index):
        response = PendingResponse()
        responses.append(response)
        if index == 0:
            time.sleep(0.1)  # a stalled submit makes request 1 late
        return response

    loop = serving.OpenLoop([0.0, 0.01])
    start = time.monotonic()
    loop.run(submit, start=start)
    for response in responses:
        response._complete(np.zeros(1))
    assert loop.wait(1.0)
    assert loop.due[1] == start + 0.01
    lateness_ms = (loop.sent_at[1] - loop.due[1]) * 1e3
    assert lateness_ms >= 85
    latency = loop.latency_ms()
    # Due-based latency counts the generator's stall; the server's own
    # submit-to-done time does not.
    assert latency[1] >= lateness_ms
    assert (loop.done[1] - loop.submitted[1]) * 1e3 < lateness_ms


def test_outcomes_are_recorded_per_request():
    futures = {}

    def submit(index):
        if index == 2:
            raise QueueFull("full")
        futures[index] = PendingResponse()
        return futures[index]

    loop = serving.OpenLoop([0.0, 0.0, 0.0, 0.0])
    loop.run(submit, keep=lambda i: i == 0)
    futures[0]._complete(np.ones(1))
    futures[1]._fail(DeadlineExceeded("late"))
    assert not loop.wait(0.01)  # request 3 is still in flight
    futures[3]._fail(RuntimeError("boom"))
    assert loop.wait(1.0)
    assert loop.status.tolist() == [serving.OK, serving.EXPIRED,
                                    serving.REJECTED, serving.FAILED]
    assert list(loop.responses) == [0]


def test_misses_count_rejected_expired_failed_and_late():
    loop = serving.OpenLoop([0.0] * 5)
    loop.due[:] = 0.0
    loop.done[:] = [0.1, 0.9, np.nan, 0.2, 0.3]
    loop.status[:] = [serving.OK, serving.OK, serving.REJECTED,
                      serving.EXPIRED, serving.FAILED]
    assert loop.within(500.0).tolist() == [True, False, False, False, False]
    goodput, miss = loop.windows(500.0, 1.0, 1)
    assert goodput == [1.0] and miss == [pytest.approx(4 / 5)]


def test_goodput_and_misses_are_counted_per_window_of_due_time():
    loop = serving.OpenLoop([0.1, 0.2, 0.3, 0.4, 0.5, 1.5, 1.6])
    loop.due[:] = loop.offsets
    loop.done[:] = np.asarray(loop.offsets) + [0.1, 0.6, 0, 0, 0, 0.2, 0.3]
    loop.status[:] = [serving.OK, serving.OK, serving.REJECTED,
                      serving.EXPIRED, serving.FAILED, serving.OK, serving.OK]
    # Window 0 (due in [0, 1) s): 5 sent, 1 within 500 ms; window 1: 2 of 2;
    # window 2: nothing due, so it has a goodput of 0 and no miss ratio.
    goodput, miss = loop.windows(500.0, 3.0, 3)
    assert goodput == [1.0, 2.0, 0.0]
    assert miss == [pytest.approx(0.8), 0.0]


def test_overload_counters_exclude_earlier_phases():
    def snapshot(completed, batches, rejected, expired):
        return SimpleNamespace(completed=completed, batches=batches,
                               rejected_queue_full=rejected, expired=expired)

    # Warm-up and steady phase ran 40 single-request batches first.
    before = snapshot(40, 40, 0, 1)
    after = snapshot(100, 70, 25, 4)
    assert serving.phase_stats(before, after) == {
        "batch_mean": 2.0, "rejected": 25, "expired": 3}


def test_arrivals_are_seeded_and_fill_the_window():
    first = serving.arrival_offsets(np.random.default_rng(5), 10.0, 3.0)
    again = serving.arrival_offsets(np.random.default_rng(5), 10.0, 3.0)
    other = serving.arrival_offsets(np.random.default_rng(6), 10.0, 3.0)
    assert first == again != other
    assert len(first) == 30
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 3.0


# -- compare classification ----------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_same_runs_are_within_bounds():
    result = compare.classify(BASE, list(BASE), "lower", 0.1)
    assert result["label"] == "within"


def test_every_run_better_is_improved():
    new = [v * 0.8 for v in BASE]
    assert compare.classify(BASE, new, "lower", 0.1)["label"] == "improved"
    assert compare.classify(BASE, new, "higher", 0.1)["label"] == "worse"


def test_worse_beyond_bound_is_worse():
    new = [v * 1.15 for v in BASE]
    assert compare.classify(BASE, new, "lower", 0.1)["label"] == "worse"
    assert compare.classify(BASE, new, "lower", 0.2)["label"] == "within"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    result = compare.classify(BASE, noisy, "lower", 0.1)
    assert result["spread"] > 0.1
    assert result["label"] == "unresolved"


def test_compare_reports_one_row_per_workload():
    metrics = [{"name": "p50_ms", "better": "lower", "bound": 0.1},
               {"name": "images_per_s", "better": "higher", "bound": 0.1}]
    base = {"a": {"p50_ms": BASE, "images_per_s": BASE},
            "b": {"p50_ms": BASE}}
    new = {"a": {"p50_ms": BASE, "images_per_s": [v * 1.3 for v in BASE]},
           "b": {"p50_ms": [v * 1.3 for v in BASE]}}
    table = compare.compare(base, new, metrics)
    assert list(table) == ["a", "b"]
    assert table["a"]["images_per_s"]["label"] == "improved"
    assert table["a"]["p50_ms"]["label"] == "within"
    assert table["b"]["p50_ms"]["label"] == "worse"
    assert "images_per_s" not in table["b"]


# -- tracing overhead ----------------------------------------------------------

def test_overhead_times_the_same_block_with_tracing_off_and_on():
    seen = []

    def block():
        seen.append(obs.is_enabled())
        time.sleep(0.02 if obs.is_enabled() else 0.01)

    with obs.tracing() as tracer:
        pct = tracing.overhead_pct(block, pairs=2)
        assert obs.active() is tracer
    assert seen == [False, True, True, False]
    assert 50.0 < pct < 150.0
