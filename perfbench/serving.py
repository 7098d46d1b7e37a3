"""Serving phase: an open loop of seeded Poisson arrivals into a Server.

One generator thread submits each request when it is due and never
waits for replies; completions arrive through ``PendingResponse.on_done``
on the server's own threads.  Latency is timed from when a request was
*due*, not from when it was submitted, so a stalled generator shows up
as latency instead of hiding as missing load.  The run has two phases
at fixed rates: a steady phase below capacity (latency), then an
overload phase above it (admission control and deadlines).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

import stats
import tracing

from repro import obs
from repro.models import build_model
from repro.nn import GraphNetwork, compile_plan
from repro.serve import DeadlineExceeded, QueueFull, Server, ServerConfig
from repro.serve.shm import SHM_PREFIX

OK, REJECTED, EXPIRED, FAILED = 0, 1, 2, 3


def arrival_offsets(rng: np.random.Generator, rate: float,
                    duration_s: float) -> List[float]:
    """Seeded Poisson arrival times in ``[0, duration_s)``.

    The process is conditioned on its expected count: given the count,
    Poisson arrival times are independent and uniform over the window.
    Every seed then offers the same load with different bursts, so the
    spread between seeds is not dominated by how many requests a seed
    happened to draw.
    """
    count = int(round(rate * duration_s))
    return sorted(rng.uniform(0.0, duration_s, size=count).tolist())


class OpenLoop:
    """Submits a fixed schedule and records each request's outcome.

    ``due[i]`` is the monotonic time request ``i`` was scheduled for;
    ``done[i]`` the time its future resolved and ``status[i]`` how.
    ``submit`` is any callable taking ``(index)`` and returning a
    future, so the accounting is testable without a server.
    """

    def __init__(self, offsets: List[float]) -> None:
        self.offsets = offsets
        n = len(offsets)
        self.due = np.full(n, np.nan)
        self.sent_at = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.submitted = np.full(n, np.nan)
        self.status = np.full(n, -1, dtype=np.int64)
        self.responses: Dict[int, object] = {}
        self._pending = 0
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()

    def _on_done(self, index: int, response) -> None:
        self.done[index] = response.completed_at
        self.submitted[index] = response.submitted_at
        error = response.exception(0)
        self.status[index] = (
            OK if error is None else
            EXPIRED if isinstance(error, DeadlineExceeded) else FAILED)
        with self._lock:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    def run(self, submit, keep=lambda index: False, start=None) -> None:
        """Submit every request at its due time; returns once all sent."""
        start = time.monotonic() if start is None else start
        for index, offset in enumerate(self.offsets):
            due = start + offset
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            self.due[index] = due
            self.sent_at[index] = time.monotonic()
            with self._lock:
                self._pending += 1
                self._idle.clear()
            try:
                with obs.span("serve.submit"):
                    response = submit(index)
            except QueueFull:
                self.status[index] = REJECTED
                with self._lock:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.set()
                continue
            if keep(index):
                self.responses[index] = response
            response.on_done(
                lambda r, index=index: self._on_done(index, r))

    def wait(self, timeout: float) -> bool:
        """Block until every submitted request resolved."""
        return self._idle.wait(timeout)

    def latency_ms(self) -> np.ndarray:
        """Due-to-done milliseconds of each request (NaN if not OK)."""
        lat = (self.done - self.due) * 1e3
        lat[self.status != OK] = np.nan
        return lat

    def within(self, slo_ms: float) -> np.ndarray:
        """Mask of requests completed OK within ``slo_ms`` of due."""
        lat = self.latency_ms()
        return (self.status == OK) & (lat <= slo_ms)

    def windows(self, slo_ms: float, duration_s: float,
                count: int) -> Tuple[List[float], List[float]]:
        """Goodput and miss ratio in each of ``count`` equal windows.

        Requests fall in windows by due time over ``[0, duration_s)``.
        Goodput is requests completed within ``slo_ms`` per second; a
        miss is a request sent that did not — rejected, expired, failed
        and late requests all count.  A window nothing was due in has no
        miss ratio.
        """
        width = duration_s / count
        index = np.minimum(np.asarray(self.offsets) // width, count - 1)
        good = self.within(slo_ms)
        goodput, miss = [], []
        for window in range(count):
            due = index == window
            sent, made = int(due.sum()), int(good[due].sum())
            goodput.append(made / width)
            if sent:
                miss.append(1.0 - made / sent)
        return goodput, miss


def _leaked_segments() -> List[str]:
    prefix = f"{SHM_PREFIX}{os.getpid()}_"
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    except FileNotFoundError:
        return []


class _Model:
    """The served network, its server config and the seeded images."""

    def __init__(self, cfg: dict, model: str, seed: int,
                 worker_mode: str) -> None:
        self.spec = build_model(model)
        shape = self.spec.input_shape
        self.shape = (shape.channels, shape.height, shape.width)
        self.images = np.random.default_rng(seed).normal(
            size=(cfg["distinct_images"],) + self.shape)
        self.config = ServerConfig(
            workers=cfg["workers"], max_batch_size=cfg["max_batch"],
            max_wait_ms=cfg["max_wait_ms"], queue_depth=cfg["queue_depth"],
            worker_mode=worker_mode, compiled=True, warmup=True)
        self.warmup_rounds = cfg["warmup_rounds"]
        self._direct = None

    def start(self):
        """Build and start a server; ready means every batch size warm.

        Returns the network, the server and the seconds from ``start()``
        to the first answers (the worker pool's own start-up).
        """
        with obs.span("setup.serve"):
            net = GraphNetwork(self.spec, rng=np.random.default_rng(0),
                               batch_norm=True).eval()
            server = Server.for_network(net, self.config)
            began = time.perf_counter()
            server.start()
            try:
                probes = [server.submit(self.images[0])
                          for _ in range(self.config.workers)]
                for probe in probes:
                    probe.result(timeout=60)
                pool_s = time.perf_counter() - began
                # Batch sizes other than 1 and the largest compile and
                # bind on first use, per worker; bursts of every size let
                # that happen here instead of inside the measured phases.
                largest = min(2 * self.config.max_batch_size,
                              self.config.queue_depth)
                for _ in range(self.warmup_rounds):
                    for size in range(2, largest + 1):
                        burst = [server.submit(
                            self.images[i % len(self.images)])
                            for i in range(size)]
                        for response in burst:
                            response.result(timeout=60)
            except BaseException:
                server.shutdown()
                raise
        return net, server, pool_s

    def mismatches(self, net, served: List[Tuple[int, object]]) -> int:
        """How many served outputs differ from a direct compiled run.

        ``served`` pairs an image index with its finished response.
        """
        if self._direct is None:
            self._direct = compile_plan(net.inference_plan(), self.shape,
                                        batch_sizes=(1,))
        return sum(
            not np.array_equal(response.result(0),
                               self._direct.run(self.images[i][None])[0])
            for i, response in served)


def phase_stats(before, after) -> Dict[str, float]:
    """Server counters over one phase: the difference of two snapshots."""
    batches = after.batches - before.batches
    completed = after.completed - before.completed
    return {"batch_mean": completed / batches if batches else 0.0,
            "rejected": after.rejected_queue_full - before.rejected_queue_full,
            "expired": after.expired - before.expired}


def run(cfg: dict, model: str, seed: int, seconds: float) -> dict:
    """Set up, run both phases, check outputs; returns the phase record."""
    scfg = cfg["serve"]
    slo_ms = scfg["slo_ms"]
    served = _Model(scfg, model, seed, "thread")
    rng = np.random.default_rng([seed, 1])
    steady_s = seconds * scfg["steady_share"]
    overload_s = seconds * scfg["overload_share"]
    phases = (("steady", arrival_offsets(rng, scfg["steady_rps"], steady_s),
               None),
              ("overload",
               arrival_offsets(rng, scfg["overload_rps"], overload_s),
               slo_ms))
    picks = [rng.integers(len(served.images), size=len(offsets))
             for _, offsets, _ in phases]

    setup_s = []
    for attempt in range(cfg["setup_repeats"]):
        began = time.perf_counter()
        net, server, _ = served.start()
        setup_s.append(time.perf_counter() - began)
        if attempt + 1 < cfg["setup_repeats"]:
            server.shutdown()

    keep = lambda i: i % scfg["check_every"] == 0  # noqa: E731
    loops = []
    snapshots = []
    overhead_pct = None
    try:
        for (name, offsets, deadline), pick in zip(phases, picks):
            snapshots.append(server.stats())
            loop = OpenLoop(offsets)
            with obs.span(f"serve.phase.{name}", requests=len(offsets)):
                loop.run(lambda i, pick=pick, deadline=deadline:
                         server.submit(served.images[pick[i]],
                                       deadline_ms=deadline),
                         keep=keep)
                if not loop.wait(timeout=120):
                    raise RuntimeError(f"{name} phase never drained")
            loops.append(loop)
        server_stats = server.stats()
        if obs.is_enabled():
            # Closed-loop bursts, each as deep as the queue, run with
            # tracing off and on: the cost of tracing per request.
            depth = served.config.queue_depth
            total = scfg["overhead_requests"]

            def bursts() -> None:
                for first in range(0, total, depth):
                    burst = [server.submit(
                        served.images[i % len(served.images)])
                        for i in range(first, min(first + depth, total))]
                    for response in burst:
                        response.result(timeout=60)

            overhead_pct = tracing.overhead_pct(bursts,
                                                cfg["overhead_pairs"])
    finally:
        server.shutdown()

    # -- correctness: served rows are bit-identical to a direct run -------
    checked = mismatched = 0
    for loop, pick in zip(loops, picks):
        ok = [(int(pick[i]), r) for i, r in loop.responses.items()
              if loop.status[i] == OK]
        checked += len(ok)
        mismatched += served.mismatches(net, ok)
    failed = sum(int((loop.status == FAILED).sum()) for loop in loops)
    failures = []
    if mismatched:
        failures.append(f"serve: {mismatched}/{checked} sampled responses "
                        f"differ from a direct compiled run")
    if not checked:
        failures.append("serve: no response was sampled for checking")
    if failed:
        failures.append(f"serve: {failed} requests failed with an error")

    steady, overload = loops
    steady_lat = steady.latency_ms()
    steady_ok = steady_lat[steady.status == OK].tolist()
    over_ok = overload.status == OK
    late = int((over_ok & (overload.latency_ms() > slo_ms)).sum())
    service_ms = ((steady.done - steady.submitted)[steady.status == OK]
                  * 1e3).tolist()
    lateness_ms = np.concatenate([loop.sent_at - loop.due
                                  for loop in loops]) * 1e3
    tail = stats.tail(steady_ok)
    # Medians over windows of the overload phase, so a stall of the host
    # in one or two windows does not set the run's figure.
    goodput, misses = overload.windows(slo_ms, overload_s,
                                       scfg["overload_windows"])
    layer = {}
    submit_us = tracing.durations_us("serve.submit")
    if submit_us:
        layer["serve.submit_us_p50"] = stats.median(submit_us)
        layer["serve.submit_us_tail"] = stats.tail(submit_us)["value"]
    layer.update({f"serve.{name}": value for name, value in
                  phase_stats(snapshots[1], server_stats).items()})
    layer.update({
        "serve.p50_ms": stats.median(steady_ok),
        "serve.tail_ms": tail["value"],
        "serve.service_ms_p50": stats.median(service_ms),
        "serve.late_done_ratio": late / max(1, int(over_ok.sum())),
        "loadgen.late_ms_max": float(np.max(lateness_ms)),
    })
    if overhead_pct is not None:
        layer["obs.serve_overhead_pct"] = overhead_pct
    return {
        "setup_s": stats.median(setup_s),
        "end_to_end": {
            "goodput_rps": stats.median(goodput),
            "miss_ratio": stats.median(misses),
        },
        "detail": {
            "model": model,
            "tail": tail,
            "steady": {"rps": scfg["steady_rps"], "seconds": steady_s,
                       "sent": len(steady.offsets)},
            "overload": {"rps": scfg["overload_rps"],
                         "seconds": overload_s,
                         "sent": len(overload.offsets),
                         "completed": int(over_ok.sum()), "late": late,
                         "within_slo": int(overload.within(slo_ms).sum()),
                         "window_goodput_rps": goodput,
                         "window_miss_ratio": misses},
            "setup_s": setup_s,
            "server": server_stats.as_dict(),
        },
        "layer": layer,
        "checks": {"attempted": sum(len(loop.offsets) for loop in loops),
                   "failed_requests": failed, "sampled": checked,
                   "failures": failures},
    }


def process_probe(cfg: dict, model: str, seed: int) -> dict:
    """Process workers over shared memory: start-up, outputs, leaks.

    Runs at the sizing where process workers were found to oversubscribe
    OpenBLAS, so their throughput stays on record (``procpool.burst_rps``)
    without being held to a bound it cannot meet.  Every response must be
    bit-identical and no segment may outlive the pool.
    """
    probe = cfg["defect_probe"]
    scfg = dict(cfg["serve"], workers=probe["serve_workers"])
    served = _Model(scfg, model, seed, "process")
    with obs.span("serve.process_probe"):
        net, server, pool_s = served.start()
        try:
            responses = []
            depth = served.config.queue_depth
            began = time.perf_counter()
            for first in range(0, len(served.images), depth):
                burst = [(i, server.submit(served.images[i]))
                         for i in range(first, min(first + depth,
                                                   len(served.images)))]
                for _, response in burst:
                    response.exception(timeout=120)
                responses += burst
            burst_s = time.perf_counter() - began
        finally:
            server.shutdown()
    leaked = _leaked_segments()
    failures = []
    ok = [(i, r) for i, r in responses if r.exception(0) is None]
    if len(ok) < len(responses):
        failures.append(f"serve_proc: {len(responses) - len(ok)} requests "
                        f"failed with an error")
    mismatched = served.mismatches(net, ok)
    if mismatched:
        failures.append(f"serve_proc: {mismatched}/{len(ok)} "
                        f"responses differ from a direct compiled run")
    if leaked:
        failures.append(f"serve_proc: {len(leaked)} {SHM_PREFIX} segments "
                        f"left behind")
    return {"layer": {"procpool.start_s": pool_s,
                      "procpool.burst_rps": len(responses) / burst_s,
                      "shm.leaked_segments": len(leaked)},
            "failures": failures, "attempted": len(responses)}


def deep_queue_probe(cfg: dict, model: str, seed: int) -> dict:
    """Overload into a deep queue, where a deadline only gates dequeue.

    Requests admitted behind a long queue are dequeued just inside their
    deadline and complete after it; ``serve.deep_queue_late_ratio``
    keeps that defect on record at the sizing that found it.
    """
    probe = cfg["defect_probe"]
    scfg = dict(cfg["serve"], workers=probe["serve_workers"],
                max_batch=probe["serve_max_batch"],
                queue_depth=probe["serve_queue_depth"])
    slo_ms = scfg["slo_ms"]
    served = _Model(scfg, model, seed, "thread")
    rng = np.random.default_rng([seed, 2])
    offsets = arrival_offsets(rng, scfg["overload_rps"], probe["seconds"])
    pick = rng.integers(len(served.images), size=len(offsets))
    with obs.span("serve.deep_queue_probe"):
        _, server, _ = served.start()
        loop = OpenLoop(offsets)
        try:
            loop.run(lambda i: server.submit(served.images[pick[i]],
                                             deadline_ms=slo_ms))
            if not loop.wait(timeout=120):
                raise RuntimeError("deep-queue probe never drained")
        finally:
            server.shutdown()
    ok = loop.status == OK
    late = int((ok & (loop.latency_ms() > slo_ms)).sum())
    return {"layer": {
        "serve.deep_queue_late_ratio": late / max(1, int(ok.sum())),
        "serve.deep_queue_goodput_rps": (float(loop.within(slo_ms).sum())
                                         / probe["seconds"]),
    }, "attempted": len(offsets)}
