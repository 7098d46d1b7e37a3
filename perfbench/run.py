#!/usr/bin/env python3
"""The repository benchmark: serving, zoo inference and design sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 16 --trace 0

Every run drives the runtime through three phases, one after another,
the way their users do (constants in ``perfbench/config.json``):

1. **serve** — an open loop of seeded Poisson arrivals into a
   ``Server(compiled=True)``: a steady phase below capacity, then an
   overload phase with a bounded queue and a per-request deadline equal
   to the SLO.  The workload picks the served model: ``serve_open``
   serves SqueezeNext, ``serve_fire`` SqueezeNet v1.1.
2. **zoo** — one closed-loop caller running batch-1 compiled programs
   round-robin over the six zoo models, float64 and int16.
3. **sweep** — a cold design-space sweep into a fresh persistent cache,
   then warm re-sweeps by fresh engines feeding streaming Pareto
   frontiers.

With ``--trace 0`` the last line of output is a JSON object carrying
the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1``
the same run is traced — spans recorded by these files around each
layer's public calls, plus the program's existing ``repro.obs`` spans
and counters — and carries the per-layer metrics, with a Chrome trace
written to ``.perfbench/``.  ``--smoke`` shrinks every phase for a quick
check; smoke results are stored apart from full ones and never replace
them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Workload name -> the model the serving phase serves.
WORKLOADS = {"serve_open": "SqueezeNext", "serve_fire": "SqueezeNet v1.1"}


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def load_config(smoke: bool) -> dict:
    with open(HERE / "config.json", encoding="utf-8") as handle:
        cfg = json.load(handle)
    smoke_cfg = cfg.pop("smoke")
    if smoke:
        cfg["setup_repeats"] = smoke_cfg["setup_repeats"]
        for section in ("serve", "zoo", "sweep"):
            cfg[section].update(smoke_cfg.get(section, {}))
    return cfg


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every phase; results kept apart")
    return parser.parse_args(argv)


def run_workload(args, cfg: dict) -> dict:
    """Run the three phases; returns the full result record."""
    import host
    import serving
    import designspace
    import zoo
    from repro import obs

    tracer = obs.enable() if args.trace else None
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    model = WORKLOADS[args.workload]
    try:
        served = serving.run(cfg, model, args.seed, args.seconds)
        probes = ([serving.process_probe(cfg, model, args.seed),
                   serving.deep_queue_probe(cfg, model, args.seed)]
                  if args.trace else [])
        inferred = zoo.run(cfg, args.seed, args.seconds)
        swept = designspace.run(cfg, args.seed, args.seconds, str(OUT))
    finally:
        if tracer is not None:
            obs.disable()
    wall_s = time.perf_counter() - started
    phases = {"serve": served, "zoo": inferred, "sweep": swept}

    end_to_end = {"setup_s": sum(p["setup_s"] for p in phases.values())}
    layer = {}
    for phase in phases.values():
        end_to_end.update(phase["end_to_end"])
        layer.update(phase["layer"])
    end_to_end["peak_rss_mib"] = host.peak_rss_mib()
    failures = [f for p in phases.values() for f in p["checks"]["failures"]]
    attempted = sum(p["checks"]["attempted"] for p in phases.values())
    for probe in probes:
        layer.update(probe["layer"])
        failures += probe.get("failures", [])
        attempted += probe["attempted"]
    overheads = [value for name, value in layer.items()
                 if name.endswith("_overhead_pct")]
    if overheads:
        layer["obs.overhead_pct"] = sum(overheads) / len(overheads)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": "smoke" if args.smoke else "full",
        "wall_s": wall_s,
        "host": host.fingerprint(),
        "end_to_end": end_to_end,
        "layer": layer,
        "detail": {name: p["detail"] for name, p in phases.items()},
        "attempted": attempted,
        "failed": (len(failures)
                   + served["checks"]["failed_requests"]),
        "failures": failures,
    }
    if tracer is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        record["trace_file"] = str(path.relative_to(ROOT))
        record["trace_events"] = len(obs.validate_chrome_trace(
            obs.export_chrome_trace(tracer, str(path))))
    return record


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if a phase started one.

    Shared-memory segments start a tracker process that would otherwise
    outlive this one; closing its pipe ends it, and this waits for that.
    """
    tracking = sys.modules.get("multiprocessing.resource_tracker")
    if tracking is not None:
        tracking._resource_tracker._stop()


def save(record: dict) -> Path:
    """Store the record; smoke and full results live in separate trees."""
    directory = OUT / "results" / record["mode"] / record["workload"]
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = directory / (f"seed{record['seed']}-trace{record['trace']}-"
                        f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    cfg = load_config(args.smoke)
    try:
        record = run_workload(args, cfg)
    except Exception:  # noqa: BLE001 - report the traceback, print no result
        traceback.print_exc()
        return 1
    finally:
        stop_resource_tracker()
    path = save(record)

    metrics = record["layer"] if args.trace else record["end_to_end"]
    missing = [] if args.smoke else sorted(set(units) - set(metrics))
    undeclared = sorted(set(metrics) - set(units))
    if missing or undeclared:
        print(f"perfbench: measured metrics differ from BENCHMARK.json: "
              f"missing {missing}, undeclared {undeclared}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units if name in metrics}
    host_info = record["host"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"mode={record['mode']} wall={record['wall_s']:.1f}s")
    print(f"host: nproc={host_info['nproc']} python={host_info['python']} "
          f"numpy={host_info['numpy']} blas={host_info['blas']['config']} "
          f"blas_threads={host_info['blas']['threads']}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(f"result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
