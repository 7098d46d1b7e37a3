"""Ahead-of-time compilation of inference plans, float64 and integer.

:func:`compile_plan` lowers an :class:`~repro.nn.infer.InferencePlan`
into a :class:`CompiledPlan`, and :func:`compile_quantized_plan` a
:class:`~repro.nn.quant.QuantizedInferencePlan` into a
:class:`CompiledQuantizedPlan`: one executable program per
``(model, batch_size)`` with every byte offset resolved at compile
time.  The same separation of trace-time from run-time that
``repro.accel.schedule`` applies to the simulator (static per-layer
programs) is applied here to the nn runtime.

Both precisions share one core, as an accelerator changes only its
word width and keeps its datapath: one step IR (:class:`_StepIR`,
:class:`_Value`, :class:`_Buf`), one buffer-placement pass, one
program class with per-thread binding, one bound executor and one
front end (batch cache, autocompile, fallback, clone, stats).  What
differs is kept apart: each plan's lowering, and the per-step kernel
binders wherever the arithmetic differs (requantizing epilogues, scale
propagation, requantizing concat/add).

* **Static arena** — a single flat block sized by a liveness walk over
  the step list; every activation, im2col scratch and padded-input
  buffer is a pre-sliced view at a fixed offset.  The hot path performs
  zero shape-keyed dict lookups and zero ``acquire``/``release`` calls.
  Integer programs store activations, padded inputs and scratch in the
  plan's narrow dtype (int16, int8 at ``bits<=8``); only per-layer GEMM
  accumulators stay float64 (exact integer containers for BLAS).
* **Pre-bound kernels** — each step becomes a closure over its input
  views, weight views, and output view.  Padded inputs live in
  recycled regions whose borders are refilled per run; ``as_strided``
  window views over them are built once at bind time.
* **Kernel specialization** — pointwise (1x1/s1/p0) convolutions skip
  the im2col gather entirely (the GEMM reads a reshaped view of the
  input), depthwise convolutions gather into static scratch and run
  the batched GEMM (``dw-gemm``), and ``MaxPool2D`` lowers to a
  tap-loop of ``np.maximum`` over the window view (``taps``).
* **Join write-through** (float64) — a convolution or pooling step
  whose only consumer is a ``concat`` writes directly into its channel
  slice of the concat buffer; the copy in ``concat_channels``
  disappears.  The first branch of an ``add`` writes into the sum
  buffer likewise.

Numerics: every specialized float kernel performs the same
floating-point operations in the same order as the interpreted plan,
so outputs are bit-identical in practice and always within the 1e-12
equivalence bar enforced by the test suite.  Integer sums in float64
are exact and max is exact, so no reordering can change a bit; the
requantizing epilogue is the *same code object* the interpreted plan
runs (``QuantizedConv2D.requantize_into``), so compiled and
interpreted integer outputs are bit-identical.

Thread safety: a compiled plan may be shared across threads — each
thread binds its own static-arena block on first use (the program
metadata and weight views are immutable).  Fallback runs through the
interpreted plan under a lock.
"""

from __future__ import annotations

import copy
import functools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.nn import layers
from repro.nn.functional import conv_output_plane
from repro.nn.infer import (
    FusedConv2D,
    FusedDense,
    InferencePlan,
    _ModuleStep,
)
from repro.nn.module import Identity, no_grad
from repro.nn.quant import (
    QuantizedIdentity,
    QuantizedMaxPool,
    QuantizedReshape,
    _quant_step,
    dequantize_batch,
    quantize_batch,
)

__all__ = ["CompiledPlan", "CompiledProgram", "CompiledQuantizedPlan",
           "compile_plan", "compile_quantized_plan"]

#: Static-arena offsets are aligned so every float64 view is at least
#: cache-line aligned, matching the shm weight packing discipline.
ALIGN = 64

_F64 = np.dtype(np.float64)


def _align(nbytes: int) -> int:
    return (nbytes + ALIGN - 1) // ALIGN * ALIGN


# -- static allocator --------------------------------------------------------


class _StaticAllocator:
    """First-fit free-hole allocator producing deterministic offsets.

    Drives the compile-time layout: buffers are allocated at their step
    of first use and their bytes return to the hole list at their last
    use, so the block's high-water mark tracks the widest liveness cut
    (same objective as the interpreted planner's arena, but resolved
    once instead of per run).
    """

    def __init__(self) -> None:
        self._holes: List[List[int]] = []  # sorted [offset, nbytes]
        self.high_water = 0

    def alloc(self, nbytes: int) -> int:
        nbytes = _align(max(nbytes, 1))
        for hole in self._holes:
            if hole[1] >= nbytes:
                offset = hole[0]
                hole[0] += nbytes
                hole[1] -= nbytes
                if hole[1] == 0:
                    self._holes.remove(hole)
                return offset
        offset = self.high_water
        self.high_water += nbytes
        return offset

    def free(self, offset: int, nbytes: int) -> None:
        nbytes = _align(max(nbytes, 1))
        self._holes.append([offset, nbytes])
        self._holes.sort()
        merged: List[List[int]] = []
        for hole in self._holes:
            if merged and merged[-1][0] + merged[-1][1] == hole[0]:
                merged[-1][1] += hole[1]
            else:
                merged.append(hole)
        # A hole touching the high-water mark shrinks the block.
        if merged and merged[-1][0] + merged[-1][1] == self.high_water:
            self.high_water = merged[-1][0]
            merged.pop()
        self._holes = merged


# -- compile-time IR ---------------------------------------------------------


@dataclass
class _Buf:
    """One region of the static arena, live over steps ``[alloc_at, free_at]``.

    ``dtype`` sizes the region: the float program allocates everything
    as float64, the quantized program stores activations/scratch as
    int16 (int8 at ``bits<=8``) so its pre-resolved layout lands ~4x
    (8x) smaller.
    """

    shape: Tuple[int, ...]
    alloc_at: int
    free_at: int
    offset: int = -1
    dtype: np.dtype = _F64

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize


@dataclass
class _Value:
    """Where a step's output lives.

    ``mode`` is one of ``static`` (a whole buffer), ``slice`` (a channel
    slice of a join buffer), ``alias`` (a reshape view of another
    step's value) or ``dynamic`` (a float module output held in a
    run-time slot).  Integer programs only: ``quantized`` values hold
    levels whose per-sample scales live with step ``scale_src``.
    """

    mode: str
    shape: Tuple[int, ...]
    buf: int = -1
    channels: Tuple[int, int] = (0, 0)
    base: int = -1  # alias: producer step index
    quantized: bool = False
    scale_src: int = -1


@dataclass
class _StepIR:
    """Compile-time record for one plan step of either precision."""

    index: int
    name: str
    # float: input | conv | dense | maxpool | concat | add | alias | module
    # integer: input | qconv | qdense | qmaxpool | qrelu | concat | add
    #          | alias | module
    kind: str
    label: str
    inputs: Tuple[int, ...]  # producer step indices
    value: Optional[_Value] = None
    op: object = None
    strategy: str = ""
    write_through: bool = False
    # conv/maxpool lowering details
    padded_buf: int = -1
    scratch_buf: int = -1
    stage_buf: int = -1
    acc_buf: int = -1  # integer GEMM / add accumulator (float64)
    # concat: (input position, channel range) for inputs needing a copy
    copy_slices: Tuple[Tuple[int, Tuple[int, int]], ...] = ()
    # add: input position that already wrote into the output buffer
    inplace_src: int = -1
    module: Optional[_ModuleStep] = None

    @property
    def tag(self) -> str:
        return self.label + (f"[{self.strategy}]" if self.strategy else "")

    def describe(self) -> str:
        join = "->join" if self.write_through else ""
        return f"{self.name:<24} {self.tag}{join}"


def _new_buf(bufs: List[_Buf], shape: Tuple[int, ...], alloc_at: int,
             free_at: int, dtype: np.dtype = _F64) -> int:
    bufs.append(_Buf(tuple(int(d) for d in shape), alloc_at, free_at,
                     dtype=np.dtype(dtype)))
    return len(bufs) - 1


def _assign_offsets(bufs: List[_Buf], n_steps: int) -> int:
    """First-fit byte offsets for every buffer; returns the arena size.

    Step by step, buffers allocated at the step are placed in table
    order, then those whose last step it is are freed — so within a
    step, the creation order of the lowering (padded, scratch,
    accumulator, output) fixes the layout, and a step's transients
    never share bytes with its own output.
    """
    allocator = _StaticAllocator()
    by_alloc: Dict[int, List[_Buf]] = {}
    by_free: Dict[int, List[_Buf]] = {}
    for buf in bufs:
        by_alloc.setdefault(buf.alloc_at, []).append(buf)
        by_free.setdefault(buf.free_at, []).append(buf)
    peak = 0
    for i in range(n_steps):
        for buf in by_alloc.get(i, ()):
            buf.offset = allocator.alloc(buf.nbytes)
        peak = max(peak, allocator.high_water)
        for buf in by_free.get(i, ()):
            allocator.free(buf.offset, buf.nbytes)
    return peak


def _consumers(irs: List[_StepIR]) -> List[List[int]]:
    consumers: List[List[int]] = [[] for _ in irs]
    for ir in irs:
        for src in ir.inputs:
            consumers[src].append(ir.index)
    return consumers


def _storage_end(irs: List[_StepIR], consumers: List[List[int]],
                 idx: int) -> int:
    """Last step reading step ``idx``'s storage, directly or through
    aliases of it; ``len(irs)`` (never freed) for the program output."""
    end, stack = idx, [idx]
    while stack:
        j = stack.pop()
        if j == len(irs) - 1:
            return len(irs)
        end = max([end, j] + consumers[j])
        stack.extend(c for c in consumers[j] if irs[c].kind == "alias")
    return end


# -- compiled program (one batch size) ---------------------------------------


class _BoundProgram:
    """A program bound to one thread's static-arena block."""

    __slots__ = ("block", "ops", "names", "labels", "write_input",
                 "write_quantized", "output_fn", "batch", "span")

    def execute(self, x: np.ndarray) -> np.ndarray:
        self.write_input(x)
        return self._run()

    def execute_quantized(self, q: np.ndarray,
                          scales: np.ndarray) -> np.ndarray:
        self.write_quantized(q, scales)
        return self._run()

    def _run(self) -> np.ndarray:
        if obs.is_enabled():
            with obs.span(self.span, batch=self.batch, steps=len(self.ops)):
                for op, name, label in zip(self.ops, self.names,
                                           self.labels):
                    with obs.span("infer.compiled_step", step=name,
                                  kind=label):
                        op()
                return self.output_fn()
        for op in self.ops:
            op()
        return self.output_fn()


class CompiledProgram:
    """Immutable compiled program for one batch size.

    Holds the step IR and buffer table of either precision, placing the
    buffers on construction; :meth:`bound` binds (or returns) the
    calling thread's block + kernel closures through the precision's
    binder.  Bound replicas are cached per thread, so one program can
    serve any number of threads with one static arena each.
    ``obs_prefix`` names its obs counters, gauge and run span
    (``infer.compiled`` for float64, ``infer.qcompiled`` for integer).
    """

    def __init__(self, steps: List[_StepIR], bufs: List[_Buf],
                 binder: Callable[..., object], batch: int,
                 input_shape: Tuple[int, int, int], obs_prefix: str) -> None:
        self._steps = steps
        self._bufs = bufs
        self._binder = binder
        self.total_bytes = _assign_offsets(bufs, len(steps))
        self.batch = batch
        self.input_shape = input_shape
        self.obs_prefix = obs_prefix
        self._local = threading.local()
        self._bind_lock = threading.Lock()
        self._replicas = 0

    # -- introspection -------------------------------------------------------

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self._steps)

    @property
    def strategies(self) -> Dict[str, str]:
        return {s.name: s.strategy + ("->join" if s.write_through else "")
                for s in self._steps}

    @property
    def bound_replicas(self) -> int:
        return self._replicas

    # -- binding -------------------------------------------------------------

    def bound(self) -> _BoundProgram:
        prog = getattr(self._local, "bound", None)
        if prog is None:
            prog = self._bind()
            self._local.bound = prog
            with self._bind_lock:
                self._replicas += 1
            obs.count(f"{self.obs_prefix}.bind")
            obs.gauge(f"{self.obs_prefix}.arena_bytes", self.total_bytes)
        return prog

    def _bind(self) -> _BoundProgram:
        block = np.empty(max(self.total_bytes, ALIGN), dtype=np.uint8)
        views = [block[b.offset:b.offset + b.nbytes].view(b.dtype)
                 .reshape(b.shape) for b in self._bufs]
        binder = self._binder(self._steps, views, self.batch)
        prog = _BoundProgram()
        prog.block = block
        prog.batch = self.batch
        prog.span = self.obs_prefix
        prog.ops, prog.names, prog.labels = [], [], []
        for step in self._steps:
            op = binder.kernel(step)
            if op is not None:
                prog.ops.append(op)
                prog.names.append(step.name)
                prog.labels.append(step.tag)
        prog.write_input = binder.write_input
        prog.write_quantized = binder.write_quantized
        prog.output_fn = binder.output
        return prog


# -- kernel helpers shared by the float and integer binders ------------------


def _chain(a: Optional[Callable[[], None]],
           b: Callable[[], None]) -> Callable[[], None]:
    if a is None:
        return b

    def both() -> None:
        a()
        b()

    return both


def _static_views(steps: List[_StepIR],
                  views: List[np.ndarray]) -> List[Optional[np.ndarray]]:
    """Each step's output view in the block (None for run-time values)."""
    out: List[Optional[np.ndarray]] = []
    for step in steps:
        value = step.value
        view = None
        if value.mode == "static":
            view = views[value.buf]
        elif value.mode == "slice":
            c0, c1 = value.channels
            view = views[value.buf][:, c0:c1]
        elif value.mode == "alias" and out[value.base] is not None:
            view = out[value.base].reshape(value.shape)
            if not np.shares_memory(view, out[value.base]):
                view = None  # reshape copied: bind dynamically
        out.append(view)
    return out


def _pad_regions(padded: np.ndarray, in_shape: Tuple[int, ...]):
    """(interior view, border views) of ``padded`` around ``in_shape``."""
    h, w = padded.shape[2], padded.shape[3]
    ph, pw = (h - in_shape[2]) // 2, (w - in_shape[3]) // 2
    interior = padded[:, :, ph:h - ph, pw:w - pw]
    borders = []
    if ph:
        borders += [padded[:, :, :ph, :], padded[:, :, h - ph:, :]]
    if pw:
        borders += [padded[:, :, ph:h - ph, :pw],
                    padded[:, :, ph:h - ph, w - pw:]]
    return interior, borders


def _windows(src: np.ndarray, kernel, stride, out_plane) -> np.ndarray:
    """Strided ``(N, C, kh, kw, oh, ow)`` window view over ``src``."""
    kh, kw = kernel
    sh, sw = stride
    oh, ow = out_plane
    n, c = src.shape[:2]
    shape = (n, c, kh, kw, oh, ow)
    strides = (src.strides[0], src.strides[1], src.strides[2],
               src.strides[3], src.strides[2] * sh, src.strides[3] * sw)
    return np.lib.stride_tricks.as_strided(src, shape=shape, strides=strides)


def _taps(src: np.ndarray, kernel, stride, out_plane) -> List[np.ndarray]:
    """One ``(N, C, oh, ow)`` view per kernel tap of the windows."""
    win = _windows(src, kernel, stride, out_plane)
    kh, kw = kernel
    return [win[:, :, i, j] for i in range(kh) for j in range(kw)]


def _max_taps(out: np.ndarray, taps: List[np.ndarray], relu: bool) -> None:
    """Max-pool as a tap loop: max is exact, so any order is bit-identical."""
    np.copyto(out, taps[0])
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    if relu:
        np.maximum(out, 0, out=out)


def _gemm_columns(step: _StepIR, src: np.ndarray,
                  scratch: Optional[np.ndarray], out_plane):
    """(GEMM column matrix, window view to gather per run or None).

    ``pointwise`` reads the input itself as the column matrix; the
    other strategies gather windows into ``scratch``.
    """
    op = step.op
    n = src.shape[0]
    oh, ow = out_plane
    if step.strategy == "pointwise":
        cols = src.reshape(n, op.groups, op._cin_g, oh * ow)
        if not np.shares_memory(cols, src):  # pragma: no cover
            raise AssertionError("pointwise view must not copy")
        return cols, None
    win = _windows(src, op.kernel_size, op.stride, out_plane)
    return scratch.reshape(n, op.groups, -1, oh * ow), win


def _conv_strategy(op) -> str:
    """``pointwise`` (1x1/s1/p0: the input is the column matrix) or an
    im2col gather into static scratch feeding a batched GEMM, named
    ``dw-gemm`` for depthwise convolutions and ``gemm`` otherwise.

    Depthwise is a grouped conv with ``cin_g == 1``: with the gather
    hitting static scratch, batched BLAS beats the interpreted einsum.
    """
    if (op.kernel_size == (1, 1) and op.stride == (1, 1)
            and op.padding == (0, 0)):
        return "pointwise"
    return "dw-gemm" if op.depthwise else "gemm"


def _conv_out_shape(op, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    n, _, h, w = in_shape
    oh, ow = conv_output_plane(h, w, op.kernel_size, op.stride, op.padding)
    return (n, op.out_channels, oh, ow)


def _pool_out_shape(pool, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    n, c, h, w = in_shape
    oh, ow = conv_output_plane(h, w, pool.kernel_size, pool.stride,
                               pool.padding)
    return (n, c, oh, ow)


def _padded_shape(in_shape: Tuple[int, ...], padding) -> Tuple[int, ...]:
    n, c, h, w = in_shape
    ph, pw = padding
    return (n, c, h + 2 * ph, w + 2 * pw)


def _scratch_shape(op, in_shape: Tuple[int, ...],
                   out_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    kh, kw = op.kernel_size
    return (out_shape[0], in_shape[1], kh, kw, out_shape[2], out_shape[3])


def _module_out_shape(module: _ModuleStep,
                      in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    with no_grad():
        out = module(np.zeros(in_shape, dtype=np.float64))
    return tuple(out.shape)


# -- float64 lowering --------------------------------------------------------


def _classify(plan: InferencePlan) -> List[_StepIR]:
    """Pass 0: map plan steps to compile-time kinds (no shapes yet)."""
    index_of = {step.name: i for i, step in enumerate(plan.steps)}
    irs: List[_StepIR] = []
    for i, step in enumerate(plan.steps):
        inputs = tuple(index_of[name] for name in step.inputs)
        kind = step.kind
        label = step.fused or step.kind
        op = step.op
        module: Optional[_ModuleStep] = None
        if kind == "fused_conv":
            kind = "conv"
        elif kind == "fused_dense":
            kind = "dense"
        elif kind == "module":
            mod_step: _ModuleStep = op
            activation = mod_step.activation
            plain = activation is None or isinstance(activation, Identity)
            relu = isinstance(activation, layers.ReLU)
            if isinstance(mod_step.module, layers.MaxPool2D) and (
                    plain or relu):
                kind = "maxpool"
                op = mod_step.module
                label = "maxpool" + ("+relu" if relu else "")
            elif plain and isinstance(
                    mod_step.module, (layers.Flatten, layers.Dropout,
                                      Identity)):
                kind = "alias"
                label = f"alias[{type(mod_step.module).__name__.lower()}]"
            else:
                module = mod_step.clone()
                label = f"module[{type(mod_step.module).__name__}]"
        irs.append(_StepIR(index=i, name=step.name, kind=kind, label=label,
                           inputs=inputs, op=op, module=module))
    return irs


def _lower_float(plan: InferencePlan, batch: int,
                 input_shape: Tuple[int, int, int]):
    """(step IR, buffer table, binder) of a float64 plan at ``batch``."""
    irs = _classify(plan)
    consumers = _consumers(irs)
    n_steps = len(irs)
    out_idx = n_steps - 1
    bufs: List[_Buf] = []

    # Write-through joins: a conv/maxpool whose sole consumer is the
    # join writes straight into its slice of the join buffer.  The join
    # buffer must therefore exist from the first producer onwards.
    wt_targets: Dict[int, int] = {}  # producer index -> join index
    for ir in irs:
        if ir.kind == "concat":
            for src in ir.inputs:
                if (irs[src].kind in ("conv", "maxpool")
                        and consumers[src] == [ir.index]
                        and src != out_idx):
                    wt_targets[src] = ir.index
        elif ir.kind == "add":
            for src in ir.inputs[:2]:
                if (irs[src].kind == "conv"
                        and consumers[src] == [ir.index]
                        and src != out_idx
                        and ir.inputs.count(src) == 1):
                    wt_targets[src] = ir.index
                    break

    def lifetime(idx: int) -> int:
        """Last step of step idx's buffer.  Module steps may return
        views of their input: keep it alive while the module's value is."""
        free_at = _storage_end(irs, consumers, idx)
        for c in consumers[idx]:
            if irs[c].kind == "module":
                free_at = max(free_at, n_steps if c == out_idx
                              else max([c] + consumers[c]))
        return free_at

    def is_dynamic(value: _Value) -> bool:
        while value.mode == "alias":
            value = irs[value.base].value
        return value.mode == "dynamic"

    # Join buffers for write-through targets, created by the first
    # producer so producers can reference them.  Channel offsets follow
    # input order.
    join_bufs: Dict[int, int] = {}
    join_channels: Dict[int, Dict[int, Tuple[int, int]]] = {}

    # Shapes, values and buffers, step by step.
    shapes: List[Tuple[int, ...]] = [()] * n_steps
    for ir in irs:
        i = ir.index
        if ir.kind == "input":
            shape = (batch,) + tuple(input_shape)
            ir.value = _Value("static", shape,
                              buf=_new_buf(bufs, shape, i, lifetime(i)))
            shapes[i] = shape
            continue
        in_shape = shapes[ir.inputs[0]] if ir.inputs else ()
        in_value = irs[ir.inputs[0]].value if ir.inputs else None

        if ir.kind == "conv":
            op: FusedConv2D = ir.op
            shape = _conv_out_shape(op, in_shape)
            ir.strategy = _conv_strategy(op)
            if is_dynamic(in_value):
                ir.stage_buf = _new_buf(bufs, in_shape, i, i)
            if any(op.padding):
                ir.padded_buf = _new_buf(
                    bufs, _padded_shape(in_shape, op.padding), i, i)
            if ir.strategy != "pointwise":
                ir.scratch_buf = _new_buf(
                    bufs, _scratch_shape(op, in_shape, shape), i, i)
        elif ir.kind == "maxpool":
            pool = ir.op
            shape = _pool_out_shape(pool, in_shape)
            ir.strategy = "taps" + ("+relu" if ir.label.endswith("+relu")
                                    else "")
            if is_dynamic(in_value):
                ir.stage_buf = _new_buf(bufs, in_shape, i, i)
            if any(pool.padding):
                ir.padded_buf = _new_buf(
                    bufs, _padded_shape(in_shape, pool.padding), i, i)
        elif ir.kind == "dense":
            shape = (batch, ir.op.out_features)
            ir.strategy = "prebound"
        elif ir.kind == "concat":
            channels = [shapes[s][1] for s in ir.inputs]
            shape = (in_shape[0], sum(channels)) + tuple(in_shape[2:])
            offsets = np.concatenate([[0], np.cumsum(channels)])
            ranges = [(int(offsets[p]), int(offsets[p + 1]))
                      for p in range(len(ir.inputs))]
            wt_positions = {pos for pos, src in enumerate(ir.inputs)
                            if wt_targets.get(src) == i}
            ir.copy_slices = tuple(
                (pos, ranges[pos]) for pos in range(len(ir.inputs))
                if pos not in wt_positions)
            ir.strategy = (f"write-through:{len(wt_positions)}/"
                           f"{len(ir.inputs)}" if wt_positions else "copy")
            join_channels[i] = {ir.inputs[pos]: ranges[pos]
                                for pos in wt_positions}
        elif ir.kind == "add":
            shape = in_shape
            wt_srcs = [src for src in ir.inputs
                       if wt_targets.get(src) == i]
            if wt_srcs:
                ir.inplace_src = ir.inputs.index(wt_srcs[0])
                ir.strategy = "in-place"
                join_channels[i] = {wt_srcs[0]: (0, shape[1])}
            else:
                ir.strategy = "copy"
        elif ir.kind == "alias":
            mod = ir.op.module if isinstance(ir.op, _ModuleStep) else None
            if isinstance(mod, layers.Flatten):
                shape = (in_shape[0],
                         int(np.prod(in_shape[1:], dtype=np.int64)))
            else:
                shape = in_shape
            ir.value = _Value("alias", shape, base=ir.inputs[0])
            shapes[i] = shape
            continue
        else:  # module
            shape = _module_out_shape(ir.module, in_shape)
            ir.value = _Value("dynamic", shape)
            shapes[i] = shape
            continue

        shapes[i] = shape
        join = wt_targets.get(i)
        if join is not None:
            # Output lives inside the join's buffer; the first producer
            # creates that buffer (shaped and freed by the join itself).
            jbuf = join_bufs.get(join)
            if jbuf is None:
                jbuf = join_bufs[join] = _new_buf(bufs, (0,), i, n_steps)
            ir.value = _Value("slice", shape, buf=jbuf)
            ir.write_through = True
        elif i in join_bufs:
            # This step IS a join with write-through producers: fix up
            # the placeholder buffer created by the first one.
            buf = bufs[join_bufs[i]]
            buf.shape = tuple(int(d) for d in shape)
            buf.free_at = lifetime(i)
            ir.value = _Value("static", shape, buf=join_bufs[i])
        else:
            ir.value = _Value("static", shape,
                              buf=_new_buf(bufs, shape, i, lifetime(i)))

    # Resolve write-through slice channel ranges now the joins are known.
    for ir in irs:
        if ir.write_through:
            join = wt_targets[ir.index]
            ir.value.channels = join_channels[join][ir.index]
    return irs, bufs, _FloatBinder


class _FloatBinder:
    """Binds float64 steps to one block's views."""

    write_quantized = None

    def __init__(self, steps: List[_StepIR], views: List[np.ndarray],
                 batch: int) -> None:
        self.steps = steps
        self.views = views
        self.static = _static_views(steps, views)
        self.slots: List[Optional[np.ndarray]] = [None] * len(steps)
        self.input_views = [views[s.value.buf] for s in steps
                            if s.kind == "input"]
        get_out = self.getter(len(steps) - 1)
        self.output = lambda: get_out().copy()

    def write_input(self, x: np.ndarray) -> None:
        for view in self.input_views:
            np.copyto(view, x)

    def getter(self, idx: int) -> Callable[[], np.ndarray]:
        sv = self.static[idx]
        if sv is not None:
            return lambda: sv
        value = self.steps[idx].value
        if value.mode == "alias":
            inner = self.getter(value.base)
            shape = value.shape
            return lambda: inner().reshape(shape)
        slots = self.slots
        return lambda: slots[idx]

    def kernel(self, step: _StepIR) -> Optional[Callable[[], None]]:
        if step.kind in ("input", "alias"):
            return None
        return getattr(self, step.kind)(step)

    def _source(self, step: _StepIR, pad_value: float):
        """(window source, per-run prologue or None) for conv/maxpool:
        a stage copy of a run-time input and/or a padded refill."""
        prologue = None
        if step.stage_buf >= 0:
            in_view = self.views[step.stage_buf]
            get_in = self.getter(step.inputs[0])

            def prologue() -> None:
                np.copyto(in_view, get_in())
        else:
            in_view = self.static[step.inputs[0]]
        if step.padded_buf < 0:
            return in_view, prologue
        padded = self.views[step.padded_buf]
        interior, borders = _pad_regions(padded, in_view.shape)

        def refill() -> None:
            for b in borders:
                b.fill(pad_value)
            np.copyto(interior, in_view)

        return padded, _chain(prologue, refill)

    def conv(self, step: _StepIR) -> Callable[[], None]:
        op: FusedConv2D = step.op
        out4 = self.static[step.index]
        n, _, oh, ow = out4.shape
        g = op.groups
        relu = op.relu
        src, prologue = self._source(step, 0.0)
        scratch = (self.views[step.scratch_buf] if step.scratch_buf >= 0
                   else None)
        cols, win = _gemm_columns(step, src, scratch, (oh, ow))
        gemm_out = out4.reshape(n, g, op._cout_g, oh * ow)
        wmat = op._wmat[None]
        bias4 = (op._bias.reshape(1, g, op._cout_g, 1)
                 if op._bias is not None else None)

        def run_conv() -> None:
            if prologue is not None:
                prologue()
            if win is not None:
                np.copyto(scratch, win)
            np.matmul(wmat, cols, out=gemm_out)
            if bias4 is not None:
                np.add(gemm_out, bias4, out=gemm_out)
            if relu:
                np.maximum(gemm_out, 0.0, out=gemm_out)

        return run_conv

    def maxpool(self, step: _StepIR) -> Callable[[], None]:
        pool: layers.MaxPool2D = step.op
        out = self.static[step.index]
        src, prologue = self._source(step, -np.inf)
        taps = _taps(src, pool.kernel_size, pool.stride, out.shape[2:])
        relu = step.strategy.endswith("+relu")

        def run_pool() -> None:
            if prologue is not None:
                prologue()
            _max_taps(out, taps, relu)

        return run_pool

    def dense(self, step: _StepIR) -> Callable[[], None]:
        op: FusedDense = step.op
        out = self.static[step.index]
        weight_t = op._weight.T
        bias = op._bias
        relu = op.relu
        batch = out.shape[0]
        flat_static = self.static[step.inputs[0]]
        if flat_static is not None:
            flat = flat_static.reshape(batch, op.in_features)
            if not np.shares_memory(flat, flat_static):
                flat_static = None  # reshape copied: bind dynamically
        if flat_static is not None:
            rows = [(flat[r], out[r]) for r in range(batch)]

            def run_dense_static() -> None:
                for src, dst in rows:
                    np.matmul(src, weight_t, out=dst)
                if bias is not None:
                    np.add(out, bias, out=out)
                if relu:
                    np.maximum(out, 0.0, out=out)

            return run_dense_static
        get_in = self.getter(step.inputs[0])

        def run_dense() -> None:
            flat = get_in().reshape(batch, -1)
            for r in range(batch):
                np.matmul(flat[r], weight_t, out=out[r])
            if bias is not None:
                np.add(out, bias, out=out)
            if relu:
                np.maximum(out, 0.0, out=out)

        return run_dense

    def concat(self, step: _StepIR) -> Callable[[], None]:
        out = self.static[step.index]
        copies = [(self.getter(step.inputs[pos]), out[:, c0:c1])
                  for pos, (c0, c1) in step.copy_slices]

        def run_concat() -> None:
            for get, dst in copies:
                np.copyto(dst, get())

        return run_concat

    def add(self, step: _StepIR) -> Callable[[], None]:
        out = self.static[step.index]
        srcs = [self.getter(i) for i in step.inputs]
        if step.inplace_src >= 0:
            rest = [s for pos, s in enumerate(srcs)
                    if pos != step.inplace_src]

            def run_add_inplace() -> None:
                for s in rest:
                    np.add(out, s(), out=out)

            return run_add_inplace
        first, second = srcs[0], srcs[1]
        rest = srcs[2:]

        def run_add() -> None:
            np.add(first(), second(), out=out)
            for s in rest:
                np.add(out, s(), out=out)

        return run_add

    def module(self, step: _StepIR) -> Callable[[], None]:
        get_in = self.getter(step.inputs[0])
        module = step.module.clone()
        slots = self.slots
        idx = step.index

        def run_module() -> None:
            slots[idx] = module(get_in())

        return run_module


# -- integer lowering --------------------------------------------------------
#
# A QuantizedInferencePlan (repro.nn.quant) lowers onto the same IR,
# buffer table and kernels as the float plan.  Its arena stores
# activations, padded inputs and im2col scratch in the plan's narrow
# integer dtype (0.3-0.9x the float64 compiled arena); each conv, dense
# and add step adds a float64 accumulator, freed at the step.  Every
# quantized value carries per-sample scales, owned by the step that
# requantizes and inherited by scale-preserving steps (max-pool, ReLU,
# flatten).  Float module fallbacks keep float64 values, quantized
# afresh wherever an integer step reads them.


def _lower_quantized(qplan, batch: int, input_shape: Tuple[int, int, int]):
    """(step IR, buffer table, binder) of an integer plan at ``batch``."""
    n = batch
    steps = qplan.steps
    index = {s.name: i for i, s in enumerate(steps)}
    qdtype = np.dtype(qplan.dtype)
    bufs: List[_Buf] = []
    irs: List[_StepIR] = []
    for i, st in enumerate(steps):
        op = st.op
        kind = st.kind
        if kind == "qop":
            if isinstance(op, QuantizedMaxPool):
                kind = "qmaxpool"
            elif isinstance(op, QuantizedIdentity) or (
                    isinstance(op, QuantizedReshape) and not op.relu):
                kind = "alias"
            else:  # QuantizedReLU, or a flatten with a fused ReLU
                kind = "qrelu"
        inputs = tuple(index[nm] for nm in st.inputs)
        src = irs[inputs[0]].value if inputs else None
        ir = _StepIR(i, st.name, kind, kind, inputs, op=op)
        # A float producer (module fallback) is quantized at run time,
        # so conv and max-pool stage its levels in the padded buffer
        # even when they are unpadded themselves.
        staged = kind in ("qconv", "qmaxpool") and (
            any(op.padding) or not src.quantized)
        if staged:
            ir.padded_buf = _new_buf(bufs, _padded_shape(
                src.shape, op.padding), i, i, qdtype)
        if kind == "input":
            shape = (n,) + tuple(int(d) for d in input_shape)
        elif kind == "qconv":
            shape = _conv_out_shape(op, src.shape)
            # Exact integer sums are order-independent, so pointwise
            # skipping the gather and depthwise running a GEMM instead
            # of the interpreted einsum stay bit-identical.
            ir.strategy = _conv_strategy(op)
            if ir.strategy != "pointwise":
                ir.scratch_buf = _new_buf(
                    bufs, _scratch_shape(op, src.shape, shape), i, i, qdtype)
        elif kind == "qdense":
            shape = (n, op.out_features)
            ir.strategy = "gemm"
        elif kind == "qmaxpool":
            shape = _pool_out_shape(op, src.shape)
            ir.strategy = "taps" + ("+relu" if op.relu else "")
        elif kind in ("qrelu", "alias"):
            shape = ((n, int(np.prod(src.shape[1:], dtype=np.int64)))
                     if isinstance(op, QuantizedReshape) else src.shape)
        elif kind == "concat":
            parts = [irs[j].value.shape for j in inputs]
            shape = (n, sum(p[1] for p in parts)) + tuple(parts[0][2:])
        elif kind == "add":
            shape = src.shape
        else:  # float module fallback
            ir.module = op
            shape = _module_out_shape(op, (n,) + tuple(src.shape[1:]))
        if kind in ("qconv", "qdense", "add"):
            ir.acc_buf = _new_buf(bufs, shape, i, i, _F64)
        # Buffers are placed in creation order within a step and
        # transients free only after it, so the epilogue's accumulator
        # and its destination never overlap.
        if kind == "alias":
            ir.value = _Value("alias", shape, base=inputs[0],
                              quantized=src.quantized,
                              scale_src=src.scale_src)
        else:
            quantized = kind != "module"
            inherits = kind in ("qmaxpool", "qrelu") and src.quantized
            ir.value = _Value(
                "static", shape,
                buf=_new_buf(bufs, shape, i, i, qdtype if quantized else _F64),
                quantized=quantized,
                scale_src=src.scale_src if inherits else i)
        irs.append(ir)
    consumers = _consumers(irs)
    for ir in irs:
        if ir.value.mode == "static":
            bufs[ir.value.buf].free_at = _storage_end(irs, consumers,
                                                      ir.index)
    return irs, bufs, functools.partial(_QuantizedBinder, qplan.bits)


class _QuantizedBinder:
    """Binds integer steps: narrow levels plus per-sample scales."""

    def __init__(self, bits: int, steps: List[_StepIR],
                 views: List[np.ndarray], batch: int) -> None:
        self.bits = bits
        self.qmax = 2 ** (bits - 1) - 1
        self.n = batch
        self.steps = steps
        self.views = views
        self.vals = _static_views(steps, views)
        self.scales: List[Optional[np.ndarray]] = [None] * len(steps)
        for step in steps:
            value = step.value
            if value.quantized:
                self.scales[step.index] = (
                    np.empty(batch, dtype=np.float64)
                    if value.scale_src == step.index
                    else self.scales[value.scale_src])
        first = next(s.index for s in steps if s.kind == "input")
        self.in_view, self.in_scales = self.vals[first], self.scales[first]
        out, out_scales = self.vals[-1], self.scales[-1]
        if steps[-1].value.quantized:
            self.output = lambda: dequantize_batch(out, out_scales)
        else:
            self.output = out.copy

    def write_input(self, x: np.ndarray) -> None:
        self.write_quantized(*quantize_batch(x, self.bits))

    def write_quantized(self, q: np.ndarray, scales: np.ndarray) -> None:
        np.copyto(self.in_view, q)
        self.in_scales[:] = scales

    def kernel(self, step: _StepIR) -> Optional[Callable[[], None]]:
        if step.kind in ("input", "alias"):
            return None
        return getattr(self, step.kind)(step)

    def quantized_input(self, j: int):
        """(levels, scales) accessor for step ``j``'s output.

        Float producers (module fallbacks) are quantized afresh per
        run — the same math :meth:`QuantizedInferencePlan.run_quantized`
        applies through its ``as_quantized`` helper, so levels match
        the interpreted plan bit for bit.
        """
        xv, sx = self.vals[j], self.scales[j]
        if self.steps[j].value.quantized:
            return lambda: (xv, sx)
        bits = self.bits
        return lambda: quantize_batch(xv, bits)

    def _source(self, step: _StepIR, fill: int):
        """(window source, per-run input load) for a conv/pool step.

        The load returns the producer's ``(levels, scales)``; through
        a padded (or float-staging) buffer it first refills the
        borders with ``fill`` and copies the levels into the interior.
        """
        get_in = self.quantized_input(step.inputs[0])
        if step.padded_buf < 0:
            return self.vals[step.inputs[0]], get_in
        padded = self.views[step.padded_buf]
        interior, borders = _pad_regions(padded,
                                         self.vals[step.inputs[0]].shape)

        def load():
            qx, sx = get_in()
            for b in borders:
                b.fill(fill)
            np.copyto(interior, qx)
            return qx, sx

        return padded, load

    def qdense(self, step: _StepIR) -> Callable[[], None]:
        get_in = self.quantized_input(step.inputs[0])
        acc = self.views[step.acc_buf]
        qv, sy, op = self.vals[step.index], self.scales[step.index], step.op

        def run_qdense() -> None:
            qx, sx = get_in()
            np.matmul(qx.reshape(qx.shape[0], -1), op._wt, out=acc)
            sy[:] = op.requantize_into(acc, sx, qv)

        return run_qdense

    def qconv(self, step: _StepIR) -> Callable[[], None]:
        op = step.op
        src, load = self._source(step, 0)
        oh, ow = step.value.shape[2:]
        acc = self.views[step.acc_buf]
        accg = acc.reshape(self.n, op.groups, op._cout_g, oh * ow)
        scratch = (self.views[step.scratch_buf] if step.scratch_buf >= 0
                   else None)
        cols, win = _gemm_columns(step, src, scratch, (oh, ow))
        wmat = op._wmat[None]
        qv, sy = self.vals[step.index], self.scales[step.index]

        def run_qconv() -> None:
            _, sx = load()
            if win is not None:
                np.copyto(scratch, win)
            np.matmul(wmat, cols, out=accg)
            sy[:] = op.requantize_into(acc, sx, qv)

        return run_qconv

    def qmaxpool(self, step: _StepIR) -> Callable[[], None]:
        op = step.op
        qv, sy = self.vals[step.index], self.scales[step.index]
        # Border fill at the dtype minimum: the pad never wins.
        src, load = self._source(step, int(np.iinfo(qv.dtype).min))
        taps = _taps(src, op.kernel_size, op.stride, step.value.shape[2:])
        own_scale = step.value.scale_src == step.index
        relu = op.relu

        def run_qpool() -> None:
            _, sx = load()
            _max_taps(qv, taps, relu)
            if own_scale:
                sy[:] = sx

        return run_qpool

    def qrelu(self, step: _StepIR) -> Callable[[], None]:
        get_in = self.quantized_input(step.inputs[0])
        qv, sy = self.vals[step.index], self.scales[step.index]
        own_scale = step.value.scale_src == step.index

        def run_qrelu() -> None:
            qx, sx = get_in()
            np.maximum(qx.reshape(qv.shape), 0, out=qv)
            if own_scale:
                sy[:] = sx

        return run_qrelu

    def concat(self, step: _StepIR) -> Callable[[], None]:
        """Per-sample rescale of every branch onto the max scale."""
        qv, sy, n = self.vals[step.index], self.scales[step.index], self.n
        getters = []
        slices = []
        offset = 0
        for j in step.inputs:
            width = self.vals[j].shape[1]
            getters.append(self.quantized_input(j))
            slices.append(qv[:, offset:offset + width])
            offset += width
        extra = (1,) * (len(step.value.shape) - 1)

        def run_concat() -> None:
            parts = [g() for g in getters]
            sy[:] = np.stack([p[1] for p in parts], axis=0).max(axis=0)
            for (qp, sp), sl in zip(parts, slices):
                ratio = (sp / sy).reshape((n,) + extra)
                np.copyto(sl, np.round(qp * ratio), casting="unsafe")

        return run_concat

    def add(self, step: _StepIR) -> Callable[[], None]:
        """Dequantized sum in the accumulator, requantized per sample."""
        qv, sy, n = self.vals[step.index], self.scales[step.index], self.n
        qmax = self.qmax
        acc = self.views[step.acc_buf]
        getters = [self.quantized_input(j) for j in step.inputs]
        extra = (1,) * (len(step.value.shape) - 1)

        def run_add() -> None:
            q0, s0 = getters[0]()
            np.copyto(acc, q0)
            np.multiply(acc, s0.reshape((n,) + extra), out=acc)
            for g in getters[1:]:
                qk, sk = g()
                part = qk.astype(np.float64)
                part *= sk.reshape((n,) + extra)
                np.add(acc, part, out=acc)
            sy[:] = _quant_step(np.abs(acc.reshape(n, -1)).max(axis=1), qmax)
            np.divide(acc, sy.reshape((n,) + extra), out=acc)
            np.round(acc, out=acc)
            np.clip(acc, -qmax, qmax, out=acc)
            np.copyto(qv, acc, casting="unsafe")

        return run_add

    def module(self, step: _StepIR) -> Callable[[], None]:
        mstep = step.module.clone()
        j = step.inputs[0]
        xv, sx = self.vals[j], self.scales[j]
        src_quant = self.steps[j].value.quantized
        fv = self.vals[step.index]

        def run_module() -> None:
            xf = dequantize_batch(xv, sx) if src_quant else xv
            np.copyto(fv, mstep(xf))

        return run_module


# -- public API --------------------------------------------------------------


@dataclass
class CompiledStats:
    """Aggregate counters for one :class:`CompiledPlan`."""

    compiled_batches: Tuple[int, ...] = ()
    fallbacks: int = 0
    runs: int = 0
    arena_bytes: Dict[int, int] = field(default_factory=dict)
    bound_replicas: Dict[int, int] = field(default_factory=dict)


class CompiledPlan:
    """Batch-specialized executable programs over an interpreted plan.

    ``run`` dispatches to the program compiled for ``x.shape[0]``; any
    mismatch (batch size, input shape, dtype) transparently falls back
    to the interpreted plan's ``run`` (counted in ``fallbacks`` and the
    ``infer.compiled.fallback`` obs counter) unless ``autocompile`` is
    set, in which case unseen batch sizes are compiled on first use.

    Sharing: the compiled programs (step metadata, offsets, weight
    views) are immutable and shared by every thread and every
    :meth:`clone`; each thread binds its own static-arena block on
    first use.  The interpreted fallback plan is per-clone and guarded
    by a lock.
    """

    #: Names of this precision's obs counters/gauge/run span and its
    #: compile span.
    _obs_prefix = "infer.compiled"
    _compile_span = "infer.compile"

    def __init__(self, plan, input_shape: Tuple[int, int, int],
                 batch_sizes: Sequence[int] = (1,), *,
                 autocompile: bool = False) -> None:
        if not batch_sizes and not autocompile:
            raise ValueError("need at least one batch size or autocompile")
        self._plan = plan
        self.input_shape = tuple(int(d) for d in input_shape)
        self.autocompile = autocompile
        self._programs: Dict[int, CompiledProgram] = {}
        self._compile_lock = threading.Lock()
        self._fallback_lock = threading.Lock()
        self.fallbacks = 0
        self.runs = 0
        for b in batch_sizes:
            self._ensure(int(b))

    # -- compilation ---------------------------------------------------------

    def _lower(self, batch: int):
        return _lower_float(self._plan, batch, self.input_shape)

    def _ensure(self, batch: int) -> CompiledProgram:
        prog = self._programs.get(batch)
        if prog is None:
            with self._compile_lock:
                prog = self._programs.get(batch)
                if prog is None:
                    with obs.span(self._compile_span, batch=batch,
                                  steps=len(self._plan.steps)):
                        prog = CompiledProgram(
                            *self._lower(batch), batch, self.input_shape,
                            self._obs_prefix)
                    # Publish only once fully built.
                    programs = dict(self._programs)
                    programs[batch] = prog
                    self._programs = programs
        return prog

    @property
    def plan(self):
        return self._plan

    @property
    def batch_sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._programs))

    def program(self, batch: int) -> CompiledProgram:
        """The compiled program for ``batch`` (compiling if needed)."""
        return self._ensure(int(batch))

    def describe(self, batch: Optional[int] = None) -> str:
        batch = batch if batch is not None else self.batch_sizes[0]
        return self._programs[batch].describe()

    def static_arena_bytes(self, batch: int) -> int:
        return self._programs[batch].total_bytes

    @property
    def fused_step_count(self) -> int:
        return self._plan.fused_step_count

    def stats(self) -> CompiledStats:
        return CompiledStats(
            compiled_batches=self.batch_sizes,
            fallbacks=self.fallbacks,
            runs=self.runs,
            arena_bytes={b: p.total_bytes
                         for b, p in self._programs.items()},
            bound_replicas={b: p.bound_replicas
                            for b, p in self._programs.items()},
        )

    def clone(self):
        """A replica sharing the compiled programs and weights.

        The clone gets its own interpreted fallback plan (private
        arena) and its own counters; the immutable compiled programs —
        which already bind per-thread — are shared.
        """
        replica = copy.copy(self)
        replica._plan = self._plan.clone()
        replica._fallback_lock = threading.Lock()
        replica.fallbacks = 0
        replica.runs = 0
        return replica

    # -- execution -----------------------------------------------------------

    def _fallback(self, run: Callable[..., np.ndarray],
                  *args: np.ndarray) -> np.ndarray:
        """Answer through the interpreted plan; the one place a fallback
        is counted."""
        self.fallbacks += 1
        obs.count(f"{self._obs_prefix}.fallback")
        with self._fallback_lock:
            return run(*args)

    def _program_for(self, batch: int) -> Optional[CompiledProgram]:
        prog = self._programs.get(batch)
        if prog is None and self.autocompile:
            prog = self._ensure(batch)
        return prog

    def run(self, x: np.ndarray) -> np.ndarray:
        self.runs += 1
        prog = None
        if (x.ndim == 4 and tuple(x.shape[1:]) == self.input_shape
                and x.dtype == _F64):
            prog = self._program_for(int(x.shape[0]))
        if prog is None:
            return self._fallback(self._plan.run, x)
        return prog.bound().execute(x)

    __call__ = run


class CompiledQuantizedPlan(CompiledPlan):
    """Batch-specialized AOT programs over a quantized plan.

    The integer :class:`CompiledPlan`: static int16/int8 arenas with
    pre-resolved offsets (~4x/8x smaller than the float compiled
    arena), pre-bound integer kernels, and the same requantizing
    epilogue code the interpreted quantized plan runs — outputs are
    bit-identical to :meth:`QuantizedInferencePlan.run`.  Obs names use
    the ``infer.qcompiled`` prefix and the ``infer.qcompile`` span.
    """

    _obs_prefix = "infer.qcompiled"
    _compile_span = "infer.qcompile"

    @property
    def bits(self) -> int:
        return self._plan.bits

    def _lower(self, batch: int):
        return _lower_quantized(self._plan, batch, self.input_shape)

    def run_quantized(self, q: np.ndarray,
                      scales: np.ndarray) -> np.ndarray:
        """Run on pre-quantized input (serving ring payloads)."""
        self.runs += 1
        prog = None
        if tuple(q.shape[1:]) == self.input_shape:
            prog = self._program_for(int(q.shape[0]))
        if prog is None:
            return self._fallback(self._plan.run_quantized, q, scales)
        return prog.bound().execute_quantized(q, scales)


def compile_plan(plan: InferencePlan,
                 input_shape: Tuple[int, int, int],
                 batch_sizes: Sequence[int] = (1,), *,
                 autocompile: bool = False) -> CompiledPlan:
    """Lower an interpreted plan into batch-specialized programs.

    ``input_shape`` is the per-sample ``(C, H, W)`` shape (batch
    excluded).  ``batch_sizes`` are compiled eagerly; other batch sizes
    either fall back to the interpreted plan or — with
    ``autocompile=True`` — compile on first use.
    """
    return CompiledPlan(plan, input_shape, batch_sizes,
                        autocompile=autocompile)


def compile_quantized_plan(qplan, input_shape: Tuple[int, int, int],
                           batch_sizes: Sequence[int] = (1,), *,
                           autocompile: bool = False
                           ) -> CompiledQuantizedPlan:
    """Lower a :class:`~repro.nn.quant.QuantizedInferencePlan` AOT.

    ``input_shape`` is the per-sample ``(C, H, W)``.  The compiled
    program's static arena stores activations, padded inputs and
    gather scratch in the plan's integer dtype; only per-layer GEMM
    accumulators stay float64 (exact integer containers).
    """
    return CompiledQuantizedPlan(qplan, input_shape, batch_sizes,
                                 autocompile=autocompile)
