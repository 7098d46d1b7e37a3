"""Ahead-of-time compilation of an :class:`~repro.nn.infer.InferencePlan`.

:func:`compile_plan` lowers the interpreted step list into a
:class:`CompiledPlan`: one executable program per ``(model, batch_size)``
with every byte offset resolved at compile time.  The same separation of
trace-time from run-time that ``repro.accel.schedule`` applies to the
simulator (static per-layer programs) is applied here to the nn runtime:

* **Static arena** — a single flat block sized by a liveness walk over
  the step list; every activation, im2col scratch and padded-input
  buffer is a pre-sliced view at a fixed offset.  The hot path performs
  zero shape-keyed dict lookups and zero ``acquire``/``release`` calls.
* **Pre-bound kernels** — each step becomes a closure over its input
  views, weight views, and output view.  Padded inputs live in
  recycled regions whose zero/-inf borders are refilled per run;
  ``as_strided`` window views over them are built once at bind time.
* **Kernel specialization** — pointwise (1x1/s1/p0) convolutions skip
  the im2col gather entirely (the GEMM reads a reshaped view of the
  input), depthwise convolutions gather into static scratch and run
  the batched GEMM (``dw-gemm``), and ``MaxPool2D`` lowers to a
  tap-loop of ``np.maximum`` over the window view (bit-identical: max
  is an exact reduction).
* **Join write-through** — a convolution or pooling step whose only
  consumer is a ``concat`` writes directly into its channel slice of
  the concat buffer; the copy in ``concat_channels`` disappears.  The
  first branch of an ``add`` writes into the sum buffer likewise.
* **Optional branch parallelism** — independent chains feeding a join
  (fire-module expands, bottleneck shortcuts) can run on a small
  thread pool; numpy releases the GIL inside BLAS/einsum kernels.

Numerics: every specialized kernel performs the same floating-point
operations in the same order as the interpreted plan, so outputs are
bit-identical in practice and always within the 1e-12 equivalence bar
enforced by the test suite.

Thread safety: a :class:`CompiledPlan` may be shared across threads —
each thread binds its own static-arena block on first use (the program
metadata and weight views are immutable).  Fallback runs through the
interpreted plan under a lock.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

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
    """One region of the static arena.

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
    step's value) or ``dynamic`` (a module output held in a run-time
    slot).
    """

    mode: str
    shape: Tuple[int, ...]
    buf: int = -1
    channels: Tuple[int, int] = (0, 0)
    base: int = -1  # alias: producer step index


@dataclass
class _StepIR:
    """Compile-time record for one plan step."""

    index: int
    name: str
    kind: str  # input | conv | dense | maxpool | concat | add | alias | module
    label: str
    inputs: Tuple[int, ...]  # producer step indices
    value: Optional[_Value] = None
    op: object = None
    strategy: str = ""
    write_through: bool = False
    # conv/maxpool lowering details
    padded_buf: int = -1
    padded_shape: Tuple[int, ...] = ()
    scratch_buf: int = -1
    stage_buf: int = -1
    # concat: (input position, channel range) for inputs needing a copy
    copy_slices: Tuple[Tuple[int, Tuple[int, int]], ...] = ()
    # add: input position that already wrote into the output buffer
    inplace_src: int = -1
    module: Optional[_ModuleStep] = None

    def describe(self) -> str:
        tag = self.label + (f"[{self.strategy}]" if self.strategy else "")
        if self.write_through:
            tag += "->join"
        return f"{self.name:<24} {tag}"


@dataclass
class _Group:
    """A parallel group: independent chains between a fork and a join."""

    lo: int
    hi: int
    chains: Tuple[Tuple[int, ...], ...]


# -- compiled program (one batch size) ---------------------------------------


class _BoundProgram:
    """A program bound to one thread's static-arena block."""

    __slots__ = ("block", "ops", "names", "labels", "schedule", "input_views",
                 "output_fn", "pool", "batch")

    def __init__(self) -> None:
        self.pool: Optional[ThreadPoolExecutor] = None

    def execute(self, x: np.ndarray) -> np.ndarray:
        for view in self.input_views:
            np.copyto(view, x)
        if obs.is_enabled():
            return self._execute_traced(x)
        for item in self.schedule:
            if item.__class__ is tuple:  # parallel group: tuple of chains
                futures = [self.pool.submit(self._run_chain, chain)
                           for chain in item[1:]]
                self._run_chain(item[0])
                for f in futures:
                    f.result()
            else:
                self.ops[item]()
        return self.output_fn()

    def _run_chain(self, chain: Tuple[int, ...]) -> None:
        for idx in chain:
            self.ops[idx]()

    def _execute_traced(self, x: np.ndarray) -> np.ndarray:
        with obs.span("infer.compiled", batch=self.batch,
                      steps=len(self.ops)):
            for item in self.schedule:
                if item.__class__ is tuple:
                    with obs.span("infer.compiled_step", step="parallel-group",
                                  kind="group", chains=len(item)):
                        futures = [self.pool.submit(self._run_chain, chain)
                                   for chain in item[1:]]
                        self._run_chain(item[0])
                        for f in futures:
                            f.result()
                else:
                    with obs.span("infer.compiled_step",
                                  step=self.names[item],
                                  kind=self.labels[item]):
                        self.ops[item]()
            return self.output_fn()


class CompiledProgram:
    """Immutable compiled program for one batch size.

    Holds the step IR, buffer table and schedule; :meth:`bound` binds
    (or returns) the calling thread's block + kernel closures.  Bound
    replicas are cached per thread, so one program can serve any number
    of threads with one static arena each.
    """

    def __init__(self, steps: List[_StepIR], bufs: List[_Buf],
                 total_bytes: int, groups: List[_Group], batch: int,
                 input_shape: Tuple[int, int, int],
                 parallel_workers: int) -> None:
        self._steps = steps
        self._bufs = bufs
        self.total_bytes = total_bytes
        self._groups = groups
        self.batch = batch
        self.input_shape = input_shape
        self._parallel_workers = parallel_workers
        self._local = threading.local()
        self._bind_lock = threading.Lock()
        self._replicas = 0

    # -- introspection -------------------------------------------------------

    def describe(self) -> str:
        lines = [step.describe() for step in self._steps]
        for g in self._groups:
            chains = " | ".join(
                "+".join(self._steps[i].name for i in chain)
                for chain in g.chains)
            lines.append(f"{'<parallel>':<24} {chains}")
        return "\n".join(lines)

    @property
    def strategies(self) -> Dict[str, str]:
        return {s.name: s.strategy + ("->join" if s.write_through else "")
                for s in self._steps}

    @property
    def parallel_groups(self) -> int:
        return len(self._groups)

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
            obs.count("infer.compiled.bind")
            obs.gauge("infer.compiled.arena_bytes", self.total_bytes)
        return prog

    def _bind(self) -> _BoundProgram:
        block = np.empty(max(self.total_bytes, ALIGN), dtype=np.uint8)
        views: List[Optional[np.ndarray]] = []
        for buf in self._bufs:
            raw = block[buf.offset:buf.offset + buf.nbytes]
            views.append(raw.view(buf.dtype).reshape(buf.shape))
        slots: List[Optional[np.ndarray]] = [None] * len(self._steps)

        def static_view(idx: int) -> Optional[np.ndarray]:
            value = self._steps[idx].value
            if value.mode == "static":
                return views[value.buf]
            if value.mode == "slice":
                c0, c1 = value.channels
                return views[value.buf][:, c0:c1]
            if value.mode == "alias":
                base = static_view(value.base)
                if base is None:
                    return None
                view = base.reshape(value.shape)
                if not np.shares_memory(view, base):  # pragma: no cover
                    return None
                return view
            return None

        def getter(idx: int) -> Callable[[], np.ndarray]:
            sv = static_view(idx)
            if sv is not None:
                return lambda: sv
            value = self._steps[idx].value
            if value.mode == "alias":
                inner = getter(value.base)
                shape = value.shape
                return lambda: inner().reshape(shape)
            return lambda: slots[idx]

        prog = _BoundProgram()
        ops: List[Callable[[], None]] = []
        names: List[str] = []
        labels: List[str] = []
        for step in self._steps:
            ops.append(self._bind_step(step, views, static_view, getter,
                                       slots))
            names.append(step.name)
            labels.append(step.label + (f"[{step.strategy}]"
                                        if step.strategy else ""))
        prog.block = block
        prog.ops = ops
        prog.names = names
        prog.labels = labels
        prog.batch = self.batch
        prog.input_views = [views[s.value.buf] for s in self._steps
                            if s.kind == "input"]
        prog.schedule = self._build_schedule()
        if self._groups:
            prog.pool = ThreadPoolExecutor(
                max_workers=self._parallel_workers,
                thread_name_prefix="repro-compiled")
        out_idx = len(self._steps) - 1
        out_static = static_view(out_idx)
        if out_static is not None:
            prog.output_fn = out_static.copy
        else:
            out_get = getter(out_idx)

            def output_fn() -> np.ndarray:
                out = out_get()
                root = out
                while isinstance(root.base, np.ndarray):
                    root = root.base
                if root is block or (root.base is not None
                                     and root.base is block):
                    return out.copy()
                return out

            prog.output_fn = output_fn
        return prog

    def _build_schedule(self) -> List[object]:
        schedule: List[object] = []
        grouped: Dict[int, _Group] = {g.lo: g for g in self._groups}
        skip: Set[int] = set()
        for g in self._groups:
            for chain in g.chains:
                skip.update(chain)
        i = 0
        n = len(self._steps)
        while i < n:
            g = grouped.get(i)
            if g is not None:
                schedule.append(tuple(tuple(c) for c in g.chains))
                i = g.hi + 1
                continue
            if i not in skip and self._steps[i].kind != "input":
                schedule.append(i)
            i += 1
        return schedule

    # -- per-step kernel binding --------------------------------------------

    def _bind_step(self, step: _StepIR, views, static_view, getter,
                   slots) -> Callable[[], None]:
        noop = _noop
        if step.kind in ("input", "alias"):
            return noop
        if step.kind == "conv":
            return self._bind_conv(step, views, static_view, getter)
        if step.kind == "maxpool":
            return self._bind_maxpool(step, views, static_view, getter)
        if step.kind == "dense":
            return self._bind_dense(step, static_view, getter)
        if step.kind == "concat":
            out = static_view(step.index)
            copies = [(getter(step.inputs[pos]), out[:, c0:c1])
                      for pos, (c0, c1) in step.copy_slices]

            def run_concat() -> None:
                for get, dst in copies:
                    np.copyto(dst, get())

            return run_concat
        if step.kind == "add":
            out = static_view(step.index)
            srcs = [getter(i) for i in step.inputs]
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
        # module fallback
        get_in = getter(step.inputs[0])
        module = step.module
        idx = step.index

        def run_module() -> None:
            slots[idx] = module(get_in())

        return run_module

    def _conv_input(self, step: _StepIR, views, static_view, getter):
        """(input view, per-run stage copy or None) for conv/maxpool."""
        if step.stage_buf >= 0:
            stage = views[step.stage_buf]
            get_in = getter(step.inputs[0])

            def stage_copy() -> None:
                np.copyto(stage, get_in())

            return stage, stage_copy
        return static_view(step.inputs[0]), None

    @staticmethod
    def _padded(views, step: _StepIR, in_view: np.ndarray,
                pad_value: float):
        """(window source, per-run border fill + interior copy)."""
        padded = views[step.padded_buf]
        interior, borders = _pad_regions(padded, in_view.shape)

        def refill() -> None:
            for b in borders:
                b.fill(pad_value)
            np.copyto(interior, in_view)

        return padded, refill

    def _bind_conv(self, step: _StepIR, views, static_view, getter):
        op: FusedConv2D = step.op
        out4 = static_view(step.index)
        n = out4.shape[0]
        g = op.groups
        oh, ow = out4.shape[2], out4.shape[3]
        relu = op.relu
        in_view, stage_copy = self._conv_input(step, views, static_view,
                                               getter)
        prologue = stage_copy
        if step.padded_buf >= 0:
            src, refill = self._padded(views, step, in_view, 0.0)
            prologue = _chain(prologue, refill)
        else:
            src = in_view
        gemm_out = out4.reshape(n, g, op._cout_g, oh * ow)
        wmat = op._wmat[None]
        bias4 = (op._bias.reshape(1, g, op._cout_g, 1)
                 if op._bias is not None else None)
        if step.strategy == "pointwise":
            cols = src.reshape(n, g, op._cin_g, oh * ow)
            if not np.shares_memory(cols, src):  # pragma: no cover
                raise AssertionError("pointwise view must not copy")
            del src

            def run_pw() -> None:
                if prologue is not None:
                    prologue()
                np.matmul(wmat, cols, out=gemm_out)
                if bias4 is not None:
                    np.add(gemm_out, bias4, out=gemm_out)
                if relu:
                    np.maximum(gemm_out, 0.0, out=gemm_out)

            return run_pw
        # general im2col GEMM through the static scratch buffer
        scratch = views[step.scratch_buf]
        win = _windows(src, op.kernel_size, op.stride, (oh, ow))
        kh, kw = op.kernel_size
        cols = scratch.reshape(n, g, op._cin_g * kh * kw, oh * ow)

        def run_gemm() -> None:
            if prologue is not None:
                prologue()
            np.copyto(scratch, win)
            np.matmul(wmat, cols, out=gemm_out)
            if bias4 is not None:
                np.add(gemm_out, bias4, out=gemm_out)
            if relu:
                np.maximum(gemm_out, 0.0, out=gemm_out)

        return run_gemm

    def _bind_maxpool(self, step: _StepIR, views, static_view, getter):
        pool: layers.MaxPool2D = step.op
        out = static_view(step.index)
        oh, ow = out.shape[2], out.shape[3]
        in_view, stage_copy = self._conv_input(step, views, static_view,
                                               getter)
        prologue = stage_copy
        if step.padded_buf >= 0:
            src, refill = self._padded(views, step, in_view, -np.inf)
            prologue = _chain(prologue, refill)
        else:
            src = in_view
        taps = _taps(src, pool.kernel_size, pool.stride, (oh, ow))
        relu = step.strategy.endswith("+relu")

        def run_pool() -> None:
            if prologue is not None:
                prologue()
            _max_taps(out, taps, relu)

        return run_pool

    def _bind_dense(self, step: _StepIR, static_view, getter):
        op: FusedDense = step.op
        out = static_view(step.index)
        weight_t = op._weight.T
        bias = op._bias
        relu = op.relu
        batch = out.shape[0]
        in_features = op.in_features
        flat_static = static_view(step.inputs[0])
        if flat_static is not None:
            flat = flat_static.reshape(batch, in_features)
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
        get_in = getter(step.inputs[0])

        def run_dense() -> None:
            flat = get_in().reshape(batch, -1)
            for r in range(batch):
                np.matmul(flat[r], weight_t, out=out[r])
            if bias is not None:
                np.add(out, bias, out=out)
            if relu:
                np.maximum(out, 0.0, out=out)

        return run_dense


def _noop() -> None:
    return None


def _chain(a: Optional[Callable[[], None]],
           b: Callable[[], None]) -> Callable[[], None]:
    if a is None:
        return b

    def both() -> None:
        a()
        b()

    return both


# -- kernel helpers shared by the float and integer binders ------------------


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


# -- the compile pass --------------------------------------------------------


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


def _consumers(irs: List[_StepIR]) -> List[List[int]]:
    consumers: List[List[int]] = [[] for _ in irs]
    for ir in irs:
        for src in ir.inputs:
            consumers[src].append(ir.index)
    return consumers


def _conv_out_shape(op: FusedConv2D, in_shape: Tuple[int, ...]
                    ) -> Tuple[int, ...]:
    n, _, h, w = in_shape
    oh, ow = conv_output_plane(h, w, op.kernel_size, op.stride, op.padding)
    return (n, op.out_channels, oh, ow)


def _pool_out_shape(pool, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    n, c, h, w = in_shape
    oh, ow = conv_output_plane(h, w, pool.kernel_size, pool.stride,
                               pool.padding)
    return (n, c, oh, ow)


def _module_out_shape(module: _ModuleStep,
                      in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    with no_grad():
        out = module(np.zeros(in_shape, dtype=np.float64))
    return tuple(out.shape)


def _detect_groups(irs: List[_StepIR],
                   consumers: List[List[int]]) -> List[_Group]:
    """Find fork→join regions whose branches can run concurrently."""
    groups: List[_Group] = []
    claimed: Set[int] = set()
    runnable = {"conv", "dense", "maxpool", "module", "alias"}
    for ir in irs:
        if ir.kind not in ("concat", "add") or len(set(ir.inputs)) < 2:
            continue
        chains: List[List[int]] = []
        used: Set[int] = set()
        for src in dict.fromkeys(ir.inputs):
            chain: List[int] = []
            cur = src
            while (irs[cur].kind in runnable
                   and len(irs[cur].inputs) == 1
                   and consumers[cur] == ([ir.index] if not chain
                                          else [chain[-1]])
                   and cur not in claimed and cur not in used):
                chain.append(cur)
                cur = irs[cur].inputs[0]
            chain.reverse()
            if chain:
                chains.append(chain)
                used.update(chain)
        if sum(1 for c in chains if c) < 2:
            continue
        members = sorted(used)
        lo, hi = members[0], members[-1]
        if members != list(range(lo, hi + 1)):
            continue  # interleaved non-chain steps: stay sequential
        # Every chain step may only depend on its own chain or on steps
        # strictly before the group.
        safe = True
        for chain in chains:
            for idx in chain:
                for src in irs[idx].inputs:
                    if src >= lo and src not in chain:
                        safe = False
        if not safe:
            continue
        groups.append(_Group(lo=lo, hi=hi,
                             chains=tuple(tuple(c) for c in chains)))
        claimed.update(used)
    return groups


def _compile_program(plan: InferencePlan, batch: int,
                     input_shape: Tuple[int, int, int],
                     parallel: Union[bool, int]) -> CompiledProgram:
    irs = _classify(plan)
    consumers = _consumers(irs)
    n_steps = len(irs)
    out_idx = n_steps - 1
    bufs: List[_Buf] = []
    last_use: List[int] = [ir.index for ir in irs]
    for ir in irs:
        for src in ir.inputs:
            last_use[src] = max(last_use[src], ir.index)

    def new_buf(shape: Tuple[int, ...], alloc_at: int,
                free_at: int) -> int:
        bufs.append(_Buf(shape=tuple(int(d) for d in shape),
                         alloc_at=alloc_at, free_at=free_at))
        return len(bufs) - 1

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

    groups = _detect_groups(irs, consumers) if parallel else []
    group_of: Dict[int, _Group] = {}
    for g in groups:
        for chain in g.chains:
            for idx in chain:
                group_of[idx] = g

    def lifetime(idx: int, alloc_at: int) -> Tuple[int, int]:
        """Buffer lifetime for step idx's value, group-adjusted."""
        free_at = n_steps if idx == out_idx else last_use[idx]
        # Aliases keep their base alive: extend through alias consumers.
        stack = [c for c in consumers[idx] if irs[c].kind == "alias"]
        while stack:
            a = stack.pop()
            free_at = max(free_at, n_steps if a == out_idx else last_use[a])
            stack.extend(c for c in consumers[a] if irs[c].kind == "alias")
        # Module steps may return views of their input: keep the input
        # buffer alive while the module's own value is.
        for c in consumers[idx]:
            if irs[c].kind == "module":
                free_at = max(free_at,
                              n_steps if c == out_idx else last_use[c])
        g = group_of.get(idx)
        if g is not None:
            alloc_at = min(alloc_at, g.lo)
            free_at = max(free_at, g.hi)
        return alloc_at, free_at

    def transient(idx: int, shape: Tuple[int, ...]) -> int:
        g = group_of.get(idx)
        lo = g.lo if g is not None else idx
        hi = g.hi if g is not None else idx
        return new_buf(shape, lo, hi)

    # Join buffers for write-through targets, created up front so
    # producers can reference them.  Channel offsets follow input order.
    join_bufs: Dict[int, int] = {}
    join_channels: Dict[int, Dict[int, Tuple[int, int]]] = {}

    # Pass 1: shapes, values, transients.
    shapes: List[Tuple[int, ...]] = [()] * n_steps
    for ir in irs:
        i = ir.index
        if ir.kind == "input":
            shape = (batch,) + tuple(input_shape)
            alloc_at, free_at = lifetime(i, i)
            buf = new_buf(shape, alloc_at, free_at)
            ir.value = _Value("static", shape, buf=buf)
            shapes[i] = shape
            continue
        in_shape = shapes[ir.inputs[0]] if ir.inputs else ()
        in_value = irs[ir.inputs[0]].value if ir.inputs else None

        def resolve_dynamic(value: _Value) -> bool:
            while value.mode == "alias":
                value = irs[value.base].value
            return value.mode == "dynamic"

        if ir.kind == "conv":
            op: FusedConv2D = ir.op
            shape = _conv_out_shape(op, in_shape)
            kh, kw = op.kernel_size
            ph, pw = op.padding
            ir.strategy = _conv_strategy(op)
            if resolve_dynamic(in_value):
                ir.stage_buf = transient(i, in_shape)
            if (ph, pw) != (0, 0):
                ir.padded_shape = (in_shape[0], in_shape[1],
                                  in_shape[2] + 2 * ph, in_shape[3] + 2 * pw)
                ir.padded_buf = transient(i, ir.padded_shape)
            if ir.strategy != "pointwise":
                ir.scratch_buf = transient(
                    i, (shape[0], in_shape[1], kh, kw, shape[2], shape[3]))
        elif ir.kind == "maxpool":
            pool = ir.op
            shape = _pool_out_shape(pool, in_shape)
            ir.strategy = "taps" + ("+relu" if ir.label.endswith("+relu")
                                    else "")
            if resolve_dynamic(in_value):
                ir.stage_buf = transient(i, in_shape)
            ph, pw = pool.padding
            if (ph, pw) != (0, 0):
                ir.padded_shape = (in_shape[0], in_shape[1],
                                  in_shape[2] + 2 * ph, in_shape[3] + 2 * pw)
                ir.padded_buf = transient(i, ir.padded_shape)
        elif ir.kind == "dense":
            op = ir.op
            shape = (batch, op.out_features)
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
            # Output lives inside the join's buffer; make sure that
            # buffer exists, allocated from this step onwards (or from
            # the start of the parallel group containing this step).
            g = group_of.get(i)
            start = g.lo if g is not None else i
            jbuf = join_bufs.get(join)
            if jbuf is None:
                jbuf = new_buf((0,), start, n_steps)  # placeholder
                join_bufs[join] = jbuf
            else:
                bufs[jbuf].alloc_at = min(bufs[jbuf].alloc_at, start)
            ir.value = _Value("slice", shape, buf=jbuf)
            ir.write_through = True
        else:
            jbuf = join_bufs.get(i)
            alloc_at, free_at = lifetime(i, i)
            if jbuf is not None:
                # This step IS a join with write-through producers: fix
                # up the placeholder buffer created by the first one.
                buf = bufs[jbuf]
                buf.shape = tuple(int(d) for d in shape)
                buf.free_at = free_at
                a2, _ = lifetime(i, buf.alloc_at)
                buf.alloc_at = min(buf.alloc_at, a2)
                ir.value = _Value("static", shape, buf=jbuf)
            else:
                buf = new_buf(shape, alloc_at, free_at)
                ir.value = _Value("static", shape, buf=buf)

    # Resolve write-through slice channel ranges now the joins are known.
    for ir in irs:
        if ir.write_through:
            join = wt_targets[ir.index]
            ir.value.channels = join_channels[join][ir.index]

    # Pass 2: assign offsets.
    allocator = _StaticAllocator()
    by_alloc: Dict[int, List[int]] = {}
    by_free: Dict[int, List[int]] = {}
    for bid, buf in enumerate(bufs):
        by_alloc.setdefault(buf.alloc_at, []).append(bid)
        by_free.setdefault(buf.free_at, []).append(bid)
    peak = 0
    for i in range(n_steps):
        for bid in by_alloc.get(i, ()):
            bufs[bid].offset = allocator.alloc(bufs[bid].nbytes)
        peak = max(peak, allocator.high_water)
        for bid in by_free.get(i, ()):
            allocator.free(bufs[bid].offset, bufs[bid].nbytes)

    workers = parallel if isinstance(parallel, int) and parallel > 1 else 2
    return CompiledProgram(irs, bufs, peak, groups, batch,
                           tuple(input_shape), workers)


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
    to the interpreted :meth:`InferencePlan.run` (counted in
    ``fallbacks`` and the ``infer.compiled.fallback`` obs counter)
    unless ``autocompile`` is set, in which case unseen batch sizes are
    compiled on first use.

    Sharing: the compiled programs (step metadata, offsets, weight
    views) are immutable and shared by every thread and every
    :meth:`clone`; each thread binds its own static-arena block on
    first use.  The interpreted fallback plan is per-clone and guarded
    by a lock.
    """

    def __init__(self, plan: InferencePlan,
                 input_shape: Tuple[int, int, int],
                 batch_sizes: Sequence[int] = (1,), *,
                 parallel: Union[bool, int] = False,
                 autocompile: bool = False) -> None:
        if not batch_sizes and not autocompile:
            raise ValueError("need at least one batch size or autocompile")
        self._plan = plan
        self.input_shape = tuple(int(d) for d in input_shape)
        self.parallel = parallel
        self.autocompile = autocompile
        self._programs: Dict[int, CompiledProgram] = {}
        self._compile_lock = threading.Lock()
        self._fallback_lock = threading.Lock()
        self.fallbacks = 0
        self.runs = 0
        for b in batch_sizes:
            self._ensure(int(b))

    # -- compilation ---------------------------------------------------------

    def _ensure(self, batch: int) -> CompiledProgram:
        prog = self._programs.get(batch)
        if prog is None:
            with self._compile_lock:
                prog = self._programs.get(batch)
                if prog is None:
                    with obs.span("infer.compile", batch=batch,
                                  steps=len(self._plan.steps)):
                        prog = _compile_program(self._plan, batch,
                                                self.input_shape,
                                                self.parallel)
                    # Publish only once fully built.
                    programs = dict(self._programs)
                    programs[batch] = prog
                    self._programs = programs
        return prog

    @property
    def plan(self) -> InferencePlan:
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

    def clone(self) -> "CompiledPlan":
        """A replica sharing the compiled programs and weights.

        The clone gets its own interpreted fallback plan (private
        arena) and its own counters; the immutable compiled programs —
        which already bind per-thread — are shared.
        """
        replica = CompiledPlan.__new__(CompiledPlan)
        replica._plan = self._plan.clone()
        replica.input_shape = self.input_shape
        replica.parallel = self.parallel
        replica.autocompile = self.autocompile
        replica._programs = self._programs
        replica._compile_lock = self._compile_lock
        replica._fallback_lock = threading.Lock()
        replica.fallbacks = 0
        replica.runs = 0
        return replica

    # -- execution -----------------------------------------------------------

    def _fallback(self, x: np.ndarray) -> np.ndarray:
        self.fallbacks += 1
        obs.count("infer.compiled.fallback")
        with self._fallback_lock:
            return self._plan.run(x)

    def run(self, x: np.ndarray) -> np.ndarray:
        self.runs += 1
        if (x.ndim != 4 or tuple(x.shape[1:]) != self.input_shape
                or x.dtype != _F64):
            return self._fallback(x)
        batch = int(x.shape[0])
        prog = self._programs.get(batch)
        if prog is None:
            if not self.autocompile:
                return self._fallback(x)
            prog = self._ensure(batch)
        return prog.bound().execute(x)

    __call__ = run


def compile_plan(plan: InferencePlan,
                 input_shape: Tuple[int, int, int],
                 batch_sizes: Sequence[int] = (1,), *,
                 parallel: Union[bool, int] = False,
                 autocompile: bool = False) -> CompiledPlan:
    """Lower an interpreted plan into batch-specialized programs.

    ``input_shape`` is the per-sample ``(C, H, W)`` shape (batch
    excluded).  ``batch_sizes`` are compiled eagerly; other batch sizes
    either fall back to the interpreted plan or — with
    ``autocompile=True`` — compile on first use.  ``parallel`` enables
    branch-parallel execution of independent fork→join chains on a
    small thread pool (pass an int for the worker count).
    """
    return CompiledPlan(plan, input_shape, batch_sizes, parallel=parallel,
                        autocompile=autocompile)


# -- quantized compilation ---------------------------------------------------
#
# The integer twin of the float compiler: a QuantizedInferencePlan
# (repro.nn.quant) lowers to batch-specialized programs whose static
# arena stores activations, padded inputs and im2col scratch in the
# plan's narrow integer dtype (0.3-0.9x the float64 compiled arena),
# with only the per-conv accumulator regions staying float64 (exact
# integer containers for the BLAS GEMM).  The kernels are the float
# binder's: ``pointwise`` and ``gemm``/``dw-gemm`` convs (depthwise
# gathers into int scratch and runs the same batched GEMM instead of
# the interpreted einsum) and the ``taps`` max-pool loop over a border
# filled with the dtype minimum.  Integer sums in float64 are exact and
# max is exact, so no reordering can change a bit; the requantizing
# epilogue is the *same code object* the interpreted plan runs
# (QuantizedConv2D.requantize_into), so compiled and interpreted
# integer outputs are bit-identical.


@dataclass
class _QValue:
    """Where a quantized step's output lives."""

    shape: Tuple[int, ...]
    buf: int = -1          # static buffer index (-1 for alias)
    base: int = -1         # alias: producer step index
    quantized: bool = True
    scale_src: int = -1    # step index owning the per-sample scale array


@dataclass
class _QStepIR:
    """Compile-time record for one quantized plan step."""

    index: int
    name: str
    kind: str  # input | qconv | qdense | qmaxpool | qrelu | alias | concat | add | module
    inputs: Tuple[int, ...]
    op: object = None
    value: Optional[_QValue] = None
    padded_buf: int = -1
    padded_shape: Tuple[int, ...] = ()
    scratch_buf: int = -1
    acc_buf: int = -1
    module: Optional[_ModuleStep] = None
    strategy: str = ""


def _compile_qprogram(qplan, batch: int,
                      input_shape: Tuple[int, int, int]) -> "_QProgram":
    from repro.nn.quant import (
        QuantizedIdentity,
        QuantizedMaxPool,
        QuantizedReLU,
        QuantizedReshape,
    )

    n = batch
    steps = qplan.steps
    index = {s.name: i for i, s in enumerate(steps)}
    qdtype = np.dtype(qplan.dtype)
    allocator = _StaticAllocator()
    bufs: List[_Buf] = []
    total = 0

    def is_alias(st) -> bool:
        return st.kind == "qop" and (
            isinstance(st.op, QuantizedIdentity)
            or (isinstance(st.op, QuantizedReshape) and not st.op.relu))

    # Storage owners: an alias shares its producer's buffer, so frees
    # key off the owning step.
    owner_of: Dict[int, int] = {}
    for i, st in enumerate(steps):
        if is_alias(st):
            owner_of[i] = owner_of[index[st.inputs[0]]]
        else:
            owner_of[i] = i
    last_use: Dict[int, int] = {}
    for i, st in enumerate(steps):
        last_use[owner_of[i]] = i
        for nm in st.inputs:
            last_use[owner_of[index[nm]]] = i
    protected = owner_of[len(steps) - 1]

    def alloc_buf(shape: Tuple[int, ...], dtype: np.dtype, at: int) -> int:
        nonlocal total
        buf = _Buf(tuple(int(d) for d in shape), at, at, dtype=np.dtype(dtype))
        buf.offset = allocator.alloc(buf.nbytes)
        total = max(total, buf.offset + _align(buf.nbytes))
        bufs.append(buf)
        return len(bufs) - 1

    def free_buf(bi: int) -> None:
        allocator.free(bufs[bi].offset, bufs[bi].nbytes)

    irs: List[_QStepIR] = []
    out_buf: Dict[int, int] = {}  # owning step -> its output buffer

    for i, st in enumerate(steps):
        ir = _QStepIR(i, st.name, "", tuple(index[nm] for nm in st.inputs),
                      op=st.op)
        transients: List[int] = []
        if st.kind == "input":
            ir.kind = "input"
            shape = (n,) + tuple(int(d) for d in input_shape)
            bi = alloc_buf(shape, qdtype, i)
            ir.value = _QValue(shape, buf=bi, scale_src=i)
        elif st.kind == "qconv":
            ir.kind = "qconv"
            op = st.op
            src = irs[ir.inputs[0]].value
            in_sh = src.shape
            oh, ow = conv_output_plane(in_sh[2], in_sh[3], op.kernel_size,
                                       op.stride, op.padding)
            shape = (n, op.out_channels, oh, ow)
            ph, pw = op.padding
            # A float producer (module fallback) is quantized at run
            # time, so the integer levels need a staging buffer even
            # when the convolution itself is unpadded.
            if ph or pw or not src.quantized:
                ir.padded_shape = (n, in_sh[1], in_sh[2] + 2 * ph,
                                   in_sh[3] + 2 * pw)
                ir.padded_buf = alloc_buf(ir.padded_shape, qdtype, i)
                transients.append(ir.padded_buf)
            # Exact integer sums are order-independent, so pointwise
            # skipping the gather and depthwise running a GEMM instead
            # of the interpreted einsum stay bit-identical.
            ir.strategy = _conv_strategy(op)
            if ir.strategy != "pointwise":
                kh, kw = op.kernel_size
                ir.scratch_buf = alloc_buf((n, in_sh[1], kh, kw, oh, ow),
                                           qdtype, i)
                transients.append(ir.scratch_buf)
            ir.acc_buf = alloc_buf(shape, _F64, i)
            transients.append(ir.acc_buf)
            bi = alloc_buf(shape, qdtype, i)
            ir.value = _QValue(shape, buf=bi, scale_src=i)
        elif st.kind == "qdense":
            ir.kind, ir.strategy = "qdense", "gemm"
            shape = (n, st.op.out_features)
            ir.acc_buf = alloc_buf(shape, _F64, i)
            transients.append(ir.acc_buf)
            bi = alloc_buf(shape, qdtype, i)
            ir.value = _QValue(shape, buf=bi, scale_src=i)
        elif st.kind == "qop" and isinstance(st.op, QuantizedMaxPool):
            ir.kind = "qmaxpool"
            op = st.op
            ir.strategy = "taps" + ("+relu" if op.relu else "")
            src = irs[ir.inputs[0]].value
            in_sh = src.shape
            oh, ow = conv_output_plane(in_sh[2], in_sh[3], op.kernel_size,
                                       op.stride, op.padding)
            shape = (n, in_sh[1], oh, ow)
            ph, pw = op.padding
            if ph or pw or not src.quantized:
                ir.padded_shape = (n, in_sh[1], in_sh[2] + 2 * ph,
                                   in_sh[3] + 2 * pw)
                ir.padded_buf = alloc_buf(ir.padded_shape, qdtype, i)
                transients.append(ir.padded_buf)
            bi = alloc_buf(shape, qdtype, i)
            ir.value = _QValue(shape, buf=bi,
                               scale_src=src.scale_src if src.quantized
                               else i)
        elif st.kind == "qop" and isinstance(st.op, (QuantizedReLU,
                                                     QuantizedReshape)):
            src = irs[ir.inputs[0]].value
            if is_alias(st):
                ir.kind = "alias"
                shape = (n, int(np.prod(src.shape[1:], dtype=np.int64)))
                ir.value = _QValue(shape, base=ir.inputs[0],
                                   quantized=src.quantized,
                                   scale_src=src.scale_src)
            else:
                ir.kind = "qrelu"
                shape = (src.shape if isinstance(st.op, QuantizedReLU)
                         else (n, int(np.prod(src.shape[1:],
                                              dtype=np.int64))))
                bi = alloc_buf(shape, qdtype, i)
                ir.value = _QValue(shape, buf=bi,
                                   scale_src=src.scale_src if src.quantized
                                   else i)
        elif st.kind == "qop":  # QuantizedIdentity
            src = irs[ir.inputs[0]].value
            ir.kind = "alias"
            ir.value = _QValue(src.shape, base=ir.inputs[0],
                               quantized=src.quantized,
                               scale_src=src.scale_src)
        elif st.kind == "concat":
            ir.kind = "concat"
            parts = [irs[j].value.shape for j in ir.inputs]
            shape = list(parts[0])
            shape[1] = sum(p[1] for p in parts)
            shape = tuple(shape)
            bi = alloc_buf(shape, qdtype, i)
            ir.value = _QValue(shape, buf=bi, scale_src=i)
        elif st.kind == "add":
            ir.kind = "add"
            shape = irs[ir.inputs[0]].value.shape
            ir.acc_buf = alloc_buf(shape, _F64, i)
            transients.append(ir.acc_buf)
            bi = alloc_buf(shape, qdtype, i)
            ir.value = _QValue(shape, buf=bi, scale_src=i)
        else:  # float module fallback
            ir.kind = "module"
            ir.module = st.op
            probe = st.op(np.zeros((n,) + tuple(
                irs[ir.inputs[0]].value.shape[1:]), dtype=np.float64))
            shape = tuple(int(d) for d in probe.shape)
            bi = alloc_buf(shape, _F64, i)
            ir.value = _QValue(shape, buf=bi, quantized=False)
        irs.append(ir)
        if ir.value.buf >= 0:
            out_buf[i] = ir.value.buf
        # Transient regions become reusable only after the output
        # buffer was placed, so the epilogue's accumulator and its
        # destination can never overlap.
        for tb in transients:
            free_buf(tb)
        for o, last in last_use.items():
            if last == i and o != protected and o in out_buf:
                free_buf(out_buf[o])
                bufs[out_buf[o]].free_at = i

    return _QProgram(irs, bufs, total, batch,
                     tuple(int(d) for d in input_shape), qplan.bits)


class _QProgram:
    """Immutable compiled quantized program for one batch size."""

    def __init__(self, irs: List[_QStepIR], bufs: List[_Buf],
                 total_bytes: int, batch: int,
                 input_shape: Tuple[int, int, int], bits: int) -> None:
        self._irs = irs
        self._bufs = bufs
        self.total_bytes = total_bytes
        self.batch = batch
        self.input_shape = input_shape
        self.bits = bits
        self._local = threading.local()
        self._bind_lock = threading.Lock()
        self._replicas = 0

    def describe(self) -> str:
        return "\n".join(
            f"{ir.name:<24} {ir.kind}"
            + (f"[{ir.strategy}]" if ir.strategy else "") for ir in self._irs)

    @property
    def strategies(self) -> Dict[str, str]:
        return {ir.name: ir.strategy for ir in self._irs}

    @property
    def bound_replicas(self) -> int:
        return self._replicas

    def bound(self) -> "_QBound":
        prog = getattr(self._local, "bound", None)
        if prog is None:
            prog = self._bind()
            self._local.bound = prog
            with self._bind_lock:
                self._replicas += 1
            obs.count("infer.qcompiled.bind")
            obs.gauge("infer.qcompiled.arena_bytes", self.total_bytes)
        return prog

    def _bind(self) -> "_QBound":
        from repro.nn.quant import (
            _quant_step,
            dequantize_batch,
            quantize_batch,
        )

        n = self.batch
        bits = self.bits
        qmax = 2 ** (bits - 1) - 1
        block = np.empty(max(self.total_bytes, ALIGN), dtype=np.uint8)
        views = [
            block[b.offset:b.offset + b.nbytes].view(b.dtype).reshape(b.shape)
            for b in self._bufs
        ]
        vals: List[Optional[np.ndarray]] = [None] * len(self._irs)
        scales: List[Optional[np.ndarray]] = [None] * len(self._irs)
        for ir in self._irs:
            v = ir.value
            if v.buf >= 0:
                vals[ir.index] = views[v.buf]
            else:
                vals[ir.index] = vals[v.base].reshape(v.shape)
            if v.quantized:
                if v.scale_src == ir.index:
                    scales[ir.index] = np.empty(n, dtype=np.float64)
                else:
                    scales[ir.index] = scales[v.scale_src]

        def quantized_input(j: int):
            """(levels, scales) accessor for step ``j``'s output.

            Float producers (module fallbacks) are quantized afresh per
            run — the same math :meth:`QuantizedInferencePlan.run_quantized`
            applies through its ``as_quantized`` helper, so levels match
            the interpreted plan bit for bit.
            """
            xv, sx = vals[j], scales[j]
            if self._irs[j].value.quantized:
                return lambda: (xv, sx)
            return lambda: quantize_batch(xv, bits)

        def loader(ir: _QStepIR, fill: int):
            """(window source, per-run input load) for a conv/pool step.

            The load returns the producer's ``(levels, scales)``; through
            a padded (or float-staging) buffer it first refills the
            borders with ``fill`` and copies the levels into the interior.
            """
            get_in = quantized_input(ir.inputs[0])
            if ir.padded_buf < 0:
                return vals[ir.inputs[0]], get_in
            pv = views[ir.padded_buf]
            interior, borders = _pad_regions(
                pv, self._irs[ir.inputs[0]].value.shape)

            def load():
                qx, sx = get_in()
                for b in borders:
                    b.fill(fill)
                np.copyto(interior, qx)
                return qx, sx

            return pv, load

        ops: List[Callable[[], None]] = []
        for ir in self._irs:
            if ir.kind in ("input", "alias"):
                continue
            qv = vals[ir.index]
            sy = scales[ir.index]
            op = ir.op
            if ir.kind == "qdense":
                get_in = quantized_input(ir.inputs[0])

                def run_qdense(get_in=get_in, accv=views[ir.acc_buf], qv=qv,
                               sy=sy, op=op) -> None:
                    qx, sx = get_in()
                    np.matmul(qx.reshape(qx.shape[0], -1), op._wt, out=accv)
                    sy[:] = op.requantize_into(accv, sx, qv)

                ops.append(run_qdense)
            elif ir.kind == "qconv":
                src, load = loader(ir, 0)
                oh, ow = ir.value.shape[2:]
                accv = views[ir.acc_buf]
                accg = accv.reshape(n, op.groups, op._cout_g, oh * ow)
                sv = win = None
                if ir.strategy == "pointwise":
                    # The (staged or direct) input *is* the column matrix.
                    cols = src.reshape(n, op.groups, op._cin_g, oh * ow)
                else:  # gemm / dw-gemm: gather windows into int scratch
                    sv = views[ir.scratch_buf]
                    win = _windows(src, op.kernel_size, op.stride, (oh, ow))
                    cols = sv.reshape(n, op.groups, -1, oh * ow)

                def run_qconv(load=load, sv=sv, win=win, cols=cols,
                              accg=accg, accv=accv, qv=qv, sy=sy,
                              op=op) -> None:
                    _, sx = load()
                    if sv is not None:
                        np.copyto(sv, win)
                    np.matmul(op._wmat[None], cols, out=accg)
                    sy[:] = op.requantize_into(accv, sx, qv)

                ops.append(run_qconv)
            elif ir.kind == "qmaxpool":
                # Border fill at the dtype minimum: the pad never wins.
                src, load = loader(ir, int(np.iinfo(qv.dtype).min))
                taps = _taps(src, op.kernel_size, op.stride,
                             ir.value.shape[2:])

                def run_qpool(load=load, taps=taps, qv=qv, sy=sy,
                              own_scale=ir.value.scale_src == ir.index,
                              relu=op.relu) -> None:
                    _, sx = load()
                    _max_taps(qv, taps, relu)
                    if own_scale:
                        sy[:] = sx

                ops.append(run_qpool)
            elif ir.kind == "qrelu":
                get_in = quantized_input(ir.inputs[0])
                own_scale = ir.value.scale_src == ir.index

                def run_qrelu(get_in=get_in, qv=qv, sy=sy,
                              own_scale=own_scale) -> None:
                    qx, sx = get_in()
                    np.maximum(qx.reshape(qv.shape), 0, out=qv)
                    if own_scale:
                        sy[:] = sx

                ops.append(run_qrelu)
            elif ir.kind == "concat":
                getters = []
                slices = []
                offset = 0
                for j in ir.inputs:
                    width = self._irs[j].value.shape[1]
                    getters.append(quantized_input(j))
                    slices.append(qv[:, offset:offset + width])
                    offset += width
                extra = (1,) * (len(ir.value.shape) - 1)

                def run_concat(getters=getters, slices=slices, sy=sy,
                               extra=extra) -> None:
                    parts = [g() for g in getters]
                    sy[:] = np.stack([p[1] for p in parts], axis=0).max(axis=0)
                    for (qp, sp), sl in zip(parts, slices):
                        ratio = (sp / sy).reshape((n,) + extra)
                        np.copyto(sl, np.round(qp * ratio), casting="unsafe")

                ops.append(run_concat)
            elif ir.kind == "add":
                accv = views[ir.acc_buf]
                getters = [quantized_input(j) for j in ir.inputs]
                extra = (1,) * (len(ir.value.shape) - 1)

                def run_add(getters=getters, accv=accv, qv=qv, sy=sy,
                            extra=extra) -> None:
                    q0, s0 = getters[0]()
                    np.copyto(accv, q0)
                    accv *= s0.reshape((n,) + extra)
                    for g in getters[1:]:
                        qk, sk = g()
                        part = qk.astype(np.float64)
                        part *= sk.reshape((n,) + extra)
                        accv += part
                    sy[:] = _quant_step(
                        np.abs(accv.reshape(n, -1)).max(axis=1), qmax)
                    accv /= sy.reshape((n,) + extra)
                    np.round(accv, out=accv)
                    np.clip(accv, -qmax, qmax, out=accv)
                    np.copyto(qv, accv, casting="unsafe")

                ops.append(run_add)
            elif ir.kind == "module":
                mstep = ir.module.clone()
                j = ir.inputs[0]
                xv, sx = vals[j], scales[j]
                src_quant = self._irs[j].value.quantized

                def run_module(mstep=mstep, xv=xv, sx=sx,
                               src_quant=src_quant, fv=qv) -> None:
                    xf = dequantize_batch(xv, sx) if src_quant else xv
                    np.copyto(fv, mstep(xf))

                ops.append(run_module)
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unhandled quantized step {ir.kind}")

        input_ir = next(ir for ir in self._irs if ir.kind == "input")
        in_view = vals[input_ir.index]
        in_scales = scales[input_ir.index]
        final = self._irs[-1]
        fvals, fscales = vals[final.index], scales[final.index]

        bound = _QBound()
        bound.batch = n
        bound.ops = ops

        def write_input(x: np.ndarray) -> None:
            q, s = quantize_batch(x, bits)
            np.copyto(in_view, q)
            in_scales[:] = s

        def write_quantized(q: np.ndarray, s: np.ndarray) -> None:
            np.copyto(in_view, q)
            in_scales[:] = s

        if final.value.quantized:
            bound.output_fn = lambda: dequantize_batch(fvals, fscales)
        else:
            bound.output_fn = lambda: fvals.copy()
        bound.write_input = write_input
        bound.write_quantized = write_quantized
        return bound


class _QBound:
    """One thread's bound quantized program (block + closures)."""

    __slots__ = ("ops", "write_input", "write_quantized", "output_fn",
                 "batch")

    def execute(self, x: np.ndarray) -> np.ndarray:
        self.write_input(x)
        for op in self.ops:
            op()
        return self.output_fn()

    def execute_quantized(self, q: np.ndarray,
                          scales: np.ndarray) -> np.ndarray:
        self.write_quantized(q, scales)
        for op in self.ops:
            op()
        return self.output_fn()


class CompiledQuantizedPlan:
    """Batch-specialized AOT programs over a quantized plan.

    The integer sibling of :class:`CompiledPlan`: static int16/int8
    arenas with pre-resolved offsets (~4x/8x smaller than the float
    compiled arena), pre-bound integer kernels, and the same
    requantizing epilogue code the interpreted quantized plan runs —
    outputs are bit-identical to :meth:`QuantizedInferencePlan.run`.
    Unseen batch sizes fall back to the interpreted quantized plan (or
    compile on first use with ``autocompile=True``).
    """

    def __init__(self, qplan, input_shape: Tuple[int, int, int],
                 batch_sizes: Sequence[int] = (1,), *,
                 autocompile: bool = False) -> None:
        if not batch_sizes and not autocompile:
            raise ValueError("need at least one batch size or autocompile")
        self._qplan = qplan
        self.input_shape = tuple(int(d) for d in input_shape)
        self.autocompile = autocompile
        self._programs: Dict[int, _QProgram] = {}
        self._compile_lock = threading.Lock()
        self._fallback_lock = threading.Lock()
        self.fallbacks = 0
        self.runs = 0
        for b in batch_sizes:
            self._ensure(int(b))

    def _ensure(self, batch: int) -> _QProgram:
        prog = self._programs.get(batch)
        if prog is None:
            with self._compile_lock:
                prog = self._programs.get(batch)
                if prog is None:
                    with obs.span("infer.qcompile", batch=batch,
                                  steps=len(self._qplan.steps)):
                        prog = _compile_qprogram(self._qplan, batch,
                                                 self.input_shape)
                    programs = dict(self._programs)
                    programs[batch] = prog
                    self._programs = programs
        return prog

    @property
    def plan(self):
        return self._qplan

    @property
    def bits(self) -> int:
        return self._qplan.bits

    @property
    def batch_sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._programs))

    @property
    def fused_step_count(self) -> int:
        return self._qplan.fused_step_count

    def program(self, batch: int) -> _QProgram:
        return self._ensure(int(batch))

    def describe(self, batch: Optional[int] = None) -> str:
        batch = batch if batch is not None else self.batch_sizes[0]
        return self._programs[batch].describe()

    def static_arena_bytes(self, batch: int) -> int:
        return self._programs[batch].total_bytes

    def clone(self) -> "CompiledQuantizedPlan":
        """Replica sharing the compiled programs and quantized weights."""
        replica = CompiledQuantizedPlan.__new__(CompiledQuantizedPlan)
        replica._qplan = self._qplan.clone()
        replica.input_shape = self.input_shape
        replica.autocompile = self.autocompile
        replica._programs = self._programs
        replica._compile_lock = self._compile_lock
        replica._fallback_lock = threading.Lock()
        replica.fallbacks = 0
        replica.runs = 0
        return replica

    def _fallback(self, run: Callable[..., np.ndarray],
                  *args: np.ndarray) -> np.ndarray:
        """Answer through the interpreted plan's ``run``/``run_quantized``;
        the one place a fallback is counted."""
        self.fallbacks += 1
        obs.count("infer.qcompiled.fallback")
        with self._fallback_lock:
            return run(*args)

    def run(self, x: np.ndarray) -> np.ndarray:
        self.runs += 1
        if x.ndim != 4 or tuple(x.shape[1:]) != self.input_shape:
            return self._fallback(self._qplan.run, x)
        batch = int(x.shape[0])
        prog = self._programs.get(batch)
        if prog is None:
            if not self.autocompile:
                return self._fallback(self._qplan.run, x)
            prog = self._ensure(batch)
        return prog.bound().execute(np.asarray(x, dtype=np.float64))

    def run_quantized(self, q: np.ndarray,
                      scales: np.ndarray) -> np.ndarray:
        """Run on pre-quantized input (serving ring payloads)."""
        self.runs += 1
        if tuple(q.shape[1:]) != self.input_shape:
            return self._fallback(self._qplan.run_quantized, q, scales)
        batch = int(q.shape[0])
        prog = self._programs.get(batch)
        if prog is None:
            if not self.autocompile:
                return self._fallback(self._qplan.run_quantized, q, scales)
            prog = self._ensure(batch)
        return prog.bound().execute_quantized(q, scales)

    __call__ = run


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
