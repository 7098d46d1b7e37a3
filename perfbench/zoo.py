"""Zoo inference phase: one closed-loop caller over compiled programs.

Every zoo model is compiled for batch 1 twice — float64
(``compile_plan``) and int16 (``compile_quantized_plan``) — and the
caller runs them round-robin, one image per call, with no serving layer
in between.  The kernel mix differs by model (depthwise for MobileNet,
the ``fc6`` GEMV for AlexNet, max-pool for SqueezeNet v1.0), so kernel
and precision changes show here per model.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import numpy as np

import stats
import tracing

from repro import obs
from repro.graph.stats import network_macs, network_params
from repro.models import build_model
from repro.nn import GraphNetwork, compile_plan, compile_quantized_plan

_F64 = 8


def bytes_moved(spec) -> int:
    """Bytes one batch-1 float64 inference touches, from tensor sizes.

    Every weight read once plus every layer's input and output
    activations; computed from the graph's shapes, not measured.
    """
    elems = 0
    for node in spec.nodes:
        shapes = list(node.input_shapes) + [node.output_shape]
        elems += sum(s.channels * s.height * s.width for s in shapes)
    return (elems + network_params(spec)) * _F64


class Model:
    """One zoo model: interpreted plan plus both compiled programs."""

    def __init__(self, name: str, slug: str, rng: np.random.Generator,
                 distinct: int) -> None:
        self.name = name
        self.slug = slug
        self.spec = build_model(name)
        shape = self.spec.input_shape
        self.shape = (shape.channels, shape.height, shape.width)
        self.images = rng.normal(size=(distinct, 1) + self.shape)
        net = GraphNetwork(self.spec, rng=np.random.default_rng(0),
                           batch_norm=True)
        # Non-trivial BN statistics, so BN folding does real work.
        bn_rng = np.random.default_rng(1)
        for bn in net._bn.values():
            bn.running_mean = bn_rng.normal(scale=0.3, size=bn.channels)
            bn.running_var = bn_rng.uniform(0.5, 2.0, size=bn.channels)
        net.eval()
        self.plan = net.inference_plan()
        began = time.perf_counter()
        with obs.span("nn.compile_plan", model=slug):
            self.compiled = compile_plan(self.plan, self.shape,
                                         batch_sizes=(1,))
        self.compile_s = time.perf_counter() - began
        with obs.span("nn.compile_quantized_plan", model=slug):
            self.quantized = compile_quantized_plan(
                self.plan.quantize(16), self.shape, batch_sizes=(1,))
        # First runs bind the static arenas: part of being ready.
        self.compiled.run(self.images[0])
        self.quantized.run(self.images[0])


def set_up(cfg: dict, seed: int) -> List[Model]:
    rng = np.random.default_rng(seed)
    with obs.span("setup.zoo"):
        return [Model(name, slug, rng, cfg["distinct_images"])
                for name, slug in cfg["models"].items()]


#: Model attribute -> span name, for the two compiled programs.
PROGRAMS = {"compiled": "nn.CompiledPlan.run",
            "quantized": "nn.CompiledQuantizedPlan.run"}


def _round_robin(models: List[Model], programs: Dict[str, str],
                 seconds: float) -> Dict[str, dict]:
    """Run one image per call, cycling models, for whole cycles.

    Each cycle runs every model once under each of ``programs`` in turn,
    so the calls of every program spread over the whole phase and a
    stall of the host falls on a few calls of each, not on all calls of
    one.  A program's rate is one image of every model over the sum of
    each model's median call.
    """
    times = {attr: {m.slug: [] for m in models} for attr in programs}
    stop = time.perf_counter() + seconds
    cycles = 0
    while cycles == 0 or time.perf_counter() < stop:
        for attr, span in programs.items():
            for model in models:
                program = getattr(model, attr)
                x = model.images[cycles % len(model.images)]
                with obs.span(span, model=model.slug):
                    start = time.perf_counter()
                    program.run(x)
                    times[attr][model.slug].append(
                        time.perf_counter() - start)
        cycles += 1
    return {attr: {"calls": cycles * len(models), "times": per_model,
                   "images_per_s": len(models) / sum(
                       stats.median(t) for t in per_model.values())}
            for attr, per_model in times.items()}


def run(cfg: dict, seed: int, seconds: float) -> dict:
    zcfg = cfg["zoo"]
    setup_s = []
    for attempt in range(cfg["setup_repeats"]):
        began = time.perf_counter()
        models = set_up(zcfg, seed)
        setup_s.append(time.perf_counter() - began)
        if attempt + 1 < cfg["setup_repeats"]:
            del models
            gc.collect()

    timed = _round_robin(models, PROGRAMS, seconds * zcfg["share"])
    f64, i16 = timed["compiled"], timed["quantized"]

    # -- correctness: compiled == interpreted, int16 ~= float ------------
    failures = []
    checked = 0
    for model in models:
        for x in model.images:
            reference = model.plan.run(x)
            compiled = model.compiled.run(x)
            quantized = model.quantized.run(x)
            checked += 1
            diff = float(np.max(np.abs(compiled - reference)))
            if not diff <= zcfg["compiled_atol"]:
                failures.append(f"zoo: {model.slug} compiled differs from "
                                f"the interpreted plan by {diff:.3g}")
            rel = float(np.max(np.abs(quantized - reference))
                        / max(float(np.max(np.abs(reference))), 1e-12))
            if not rel <= zcfg["int16_rtol"]:
                failures.append(f"zoo: {model.slug} int16 differs from "
                                f"float by {rel:.3g} relative")

    layer: Dict[str, float] = {}
    detail: Dict[str, dict] = {}
    for model in models:
        run_s = stats.median(f64["times"][model.slug])
        q_s = stats.median(i16["times"][model.slug])
        macs = network_macs(model.spec)
        moved = bytes_moved(model.spec)
        layer[f"compile.{model.slug}.run_ms"] = run_s * 1e3
        layer[f"compile.{model.slug}.gmacs"] = macs / run_s / 1e9
        layer[f"compile.{model.slug}.compile_s"] = model.compile_s
        layer[f"compile.{model.slug}.arena_mib"] = (
            model.compiled.static_arena_bytes(1) / 2**20)
        layer[f"quant.{model.slug}.run_ms"] = q_s * 1e3
        detail[model.slug] = {
            "model": model.name, "macs": macs,
            "bytes_moved": moved, "gbytes_per_s": moved / run_s / 1e9,
            "bytes_moved_source": "computed from tensor sizes",
            "float_calls": len(f64["times"][model.slug]),
            "int16_calls": len(i16["times"][model.slug]),
        }
    if obs.is_enabled():
        layer["obs.zoo_overhead_pct"] = tracing.overhead_pct(
            lambda: _round_robin(models, {"compiled": PROGRAMS["compiled"]},
                                 0), cfg["overhead_pairs"])
    return {
        "setup_s": stats.median(setup_s),
        "end_to_end": {
            "images_per_s": f64["images_per_s"],
            "int16_images_per_s": i16["images_per_s"],
        },
        "detail": {"setup_s": setup_s, "models": detail},
        "layer": layer,
        "checks": {"attempted": f64["calls"] + i16["calls"],
                   "sampled": checked, "failures": failures},
    }
