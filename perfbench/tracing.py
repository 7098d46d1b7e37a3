"""Helpers over the program's own tracer, for the traced run.

The traced run turns on ``repro.obs`` tracing; the phases open spans
with ``obs.span`` around calls into each layer (a shared no-op when
tracing is off), and the program's own spans and counters land in the
same tracer, kept in memory until the run ends.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, List

from repro import obs


def durations_us(name: str, since: int = 0) -> List[float]:
    """Durations of finished spans called ``name``, after span ``since``.

    Empty when tracing is off.
    """
    tracer = obs.active()
    if tracer is None:
        return []
    return [s.duration_us for s in tracer.spans[since:] if s.name == name]


def overhead_pct(block: Callable[[], object], pairs: int) -> float:
    """Slowdown of ``block`` with tracing on against off, in percent.

    ``block`` runs ``pairs`` times each way, the order alternating
    (off-on, on-off, ...) so drift in host speed falls on both sides.
    Each run starts from a full garbage collection, so a collection of
    the heap earlier phases left behind lands in neither; the result is
    the median over pairs of traced time over untraced time, minus one.
    """
    tracer = obs.active()
    ratios = []
    try:
        for pair in range(pairs):
            seconds = {}
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                if traced:
                    obs.enable(tracer)
                else:
                    obs.disable()
                gc.collect()
                began = time.perf_counter()
                block()
                seconds[traced] = time.perf_counter() - began
            ratios.append(seconds[True] / seconds[False])
    finally:
        obs.enable(tracer)
    return 100.0 * (statistics.median(ratios) - 1.0)
