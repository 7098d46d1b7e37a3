"""Design-space phase: cold and warm accelerator sweeps over the zoo.

A cold sweep of zoo x array sizes x RF sizes x global-buffer sizes runs
into a fresh persistent cache directory; fresh engines then re-sweep
the same points warm, feeding a streaming Pareto frontier per network.
This phase runs simulator, cache and frontier code only — no ``nn`` or
``serve`` code.  Cold (writes) next to warm (reads) shows a change that
speeds up one cache tier at the other's cost.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from typing import Dict, List

import numpy as np

import stats
import tracing

from repro import obs
from repro.accel.config import squeezelerator
from repro.core.pareto import ParetoFrontier, sweep_dominates
from repro.core.sweep import SweepEngine, SweepJob
from repro.models import build_model


def design_space(cfg: dict, seed: int) -> List[SweepJob]:
    """Every (model, array, RF, buffer) point, in a seeded order."""
    jobs = []
    for name in cfg["models"]:
        network = build_model(name)
        for size in cfg["array_sizes"]:
            for rf in cfg["rf_entries"]:
                for kib in cfg["global_buffer_kib"]:
                    config = dataclasses.replace(
                        squeezelerator(size, rf),
                        global_buffer_bytes=kib * 1024,
                        name=f"squeezelerator-{size}x{size}-gb{kib}k")
                    jobs.append(SweepJob(
                        label=f"{network.name}/{size}x{size}/rf{rf}/"
                              f"gb{kib}k",
                        config=config, network=network))
    order = np.random.default_rng(seed).permutation(len(jobs))
    return [jobs[i] for i in order]


def _stream(engine: SweepEngine, jobs: List[SweepJob], frontiers=None):
    """Drain ``run_iter``; returns points and gaps between yields (s)."""
    points, gaps = [], []
    with obs.span("core.SweepEngine.run_iter", points=len(jobs)):
        last = time.perf_counter()
        for point in engine.run_iter(jobs):
            now = time.perf_counter()
            gaps.append(now - last)
            last = now
            points.append(point)
            if frontiers is not None:
                frontier = frontiers.setdefault(
                    point.report.network,
                    ParetoFrontier(dominates=sweep_dominates))
                with obs.span("core.ParetoFrontier.add"):
                    frontier.add(point)
    return points, gaps


def run(cfg: dict, seed: int, seconds: float, workdir: str) -> dict:
    dcfg = cfg["sweep"]
    workers = dcfg["workers"]
    failures: List[str] = []

    def open_engine(path: str) -> SweepEngine:
        return SweepEngine(max_workers=workers, mode="thread",
                           cache_dir=path)

    setup_s = []
    root = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
    try:
        cache_dir = f"{root}/cache"
        for attempt in range(cfg["setup_repeats"]):
            began = time.perf_counter()
            with obs.span("setup.sweep"):
                jobs = design_space(dcfg, seed)
                engine = open_engine(cache_dir)
            setup_s.append(time.perf_counter() - began)
            if attempt + 1 < cfg["setup_repeats"]:
                engine.close()

        # -- cold: simulate every point into a fresh persistent cache -----
        began = time.perf_counter()
        cold, cold_gaps = _stream(engine, jobs)
        flush_began = time.perf_counter()
        with obs.span("core.SweepEngine.close"):
            engine.close()
        flush_s = time.perf_counter() - flush_began
        cold_s = time.perf_counter() - began
        cold_stats = engine.cache_stats

        # -- warm: fresh engines over the same directory, whole sweeps ----
        warm_s: List[float] = []
        budget = seconds * dcfg["warm_share"]

        def warm_sweep():
            frontiers: Dict[str, ParetoFrontier] = {}
            engine = open_engine(cache_dir)
            warm, _ = _stream(engine, jobs, frontiers)
            engine.close()
            return engine, warm, frontiers

        while True:
            began = time.perf_counter()
            engine, warm, frontiers = warm_sweep()
            warm_s.append(time.perf_counter() - began)
            sweeps = len(warm_s)
            warm_stats = engine.cache_stats
            if warm_stats.misses or warm_stats.disk.network_hits != len(jobs):
                failures.append(
                    f"sweep: warm re-sweep {sweeps} missed the cache "
                    f"({warm_stats.misses} misses, "
                    f"{warm_stats.disk.network_hits} network hits of "
                    f"{len(jobs)})")
            if sum(warm_s) >= budget:
                break

        # -- correctness ---------------------------------------------------
        for c, w in zip(cold, warm):
            if c.label != w.label or c.report != w.report:
                failures.append(f"sweep: warm point {w.label} differs from "
                                f"cold point {c.label}")
                break
        by_network: Dict[str, list] = {}
        for point in cold:
            by_network.setdefault(point.report.network, []).append(point)
        for network, points in by_network.items():
            batch = {p.label for p in points
                     if not any(sweep_dominates(q, p) for q in points)}
            streamed = {p.label for p in frontiers[network]}
            if batch != streamed:
                failures.append(f"sweep: streaming frontier of {network} "
                                f"differs from the batch frontier")

        layer = {
            "simcache.hit_ratio": cold_stats.hit_rate,
            "diskcache.writes": cold_stats.disk.writes,
            "diskcache.bytes": cold_stats.disk.size_bytes,
            "diskcache.flush_ms": flush_s * 1e3,
            "diskcache.network_hits": warm_stats.disk.network_hits,
            "sweep.cold_points_per_s": len(jobs) / cold_s,
            "sweep.warm_points_per_s": len(jobs) / stats.median(warm_s),
            "sweep.point_ms_p50": stats.median(cold_gaps) * 1e3,
            "sweep.point_ms_tail": stats.tail(cold_gaps)["value"] * 1e3,
        }
        adds = tracing.durations_us("core.ParetoFrontier.add")
        if adds:
            layer["pareto.add_us"] = stats.median(adds)
        if obs.is_enabled():
            # Reference pass: the same sweep with no cache at all, so the
            # simulator's own cost and the cache tiers' overhead separate.
            mark = len(obs.active().spans)
            began = time.perf_counter()
            with obs.span("sweep.reference_uncached"):
                reference = SweepEngine(max_workers=workers, mode="thread",
                                        use_cache=False).run(jobs)
            reference_s = time.perf_counter() - began
            layer["diskcache.overhead_s"] = cold_s - reference_s
            layer["accel.simulate_ms"] = stats.median(
                tracing.durations_us("accel.simulate", mark)) / 1e3
            if [p.report for p in reference] != [p.report for p in cold]:
                failures.append("sweep: cached points differ from the "
                                "uncached reference")
            # The same cold-versus-uncached pair at the worker count where
            # the disk tier was found to cost more than no cache at all.
            two = cfg["defect_probe"]["sweep_workers"]
            with obs.span("sweep.two_worker_probe"):
                began = time.perf_counter()
                with SweepEngine(max_workers=two, mode="thread",
                                 cache_dir=f"{root}/two") as engine:
                    engine.run(jobs)
                cold_two_s = time.perf_counter() - began
                began = time.perf_counter()
                SweepEngine(max_workers=two, mode="thread",
                            use_cache=False).run(jobs)
                layer["diskcache.overhead_2w_s"] = (
                    cold_two_s - (time.perf_counter() - began))
            layer["obs.sweep_overhead_pct"] = tracing.overhead_pct(
                warm_sweep, cfg["overhead_pairs"])
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "setup_s": stats.median(setup_s),
        "end_to_end": {},
        "detail": {"points": len(jobs), "cold_s": cold_s,
                   "warm_s": warm_s, "setup_s": setup_s},
        "layer": layer,
        "checks": {"attempted": len(jobs) * (1 + len(warm_s)),
                   "sampled": len(jobs), "failures": failures},
    }

