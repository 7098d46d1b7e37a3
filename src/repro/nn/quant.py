"""Post-training integer quantization and the integer inference plan.

The Squeezelerator datapath is 16-bit integer (Figure 2), so a trained
float model must be quantized before deployment.  We implement symmetric
per-tensor linear quantization of weights (and optionally activations on
the fly), the standard scheme for integer NN accelerators:

    q = clip(round(x / scale), -qmax, qmax),   x_hat = q * scale

with ``scale = max|x| / qmax``.  A quantized network wraps the float
network and fakes integer arithmetic by dequantizing — numerically
equivalent to integer execution for linear layers, and sufficient to
measure the accuracy cost of 16-bit (negligible) vs 8-bit (small) vs
4-bit (visible) deployment.

Beyond fake quantization, :func:`quantize_plan` lowers a float
:class:`~repro.nn.infer.InferencePlan` into a
:class:`QuantizedInferencePlan` whose activations *stay* narrow (int16,
or int8 at ``bits<=8``) between layers: fused conv/dense steps run an
integer GEMM over pre-quantized per-channel weights and requantize in
the epilogue, so the stored activation footprint drops 4x (8x at int8)
versus the float64 plan.

Rounding convention
-------------------
Every quantizer in this package rounds with :func:`numpy.round` — IEEE
round-half-to-even ("banker's rounding": 0.5 -> 0, 1.5 -> 2, 2.5 -> 2).
Both :mod:`repro.nn.fixed_point` (the bit-accuracy oracle) and the
integer plan inherit the convention through the shared primitives here,
so the two paths cannot drift.

Integer GEMM in float64 containers
----------------------------------
The hot GEMM keeps the *weights* as float64 arrays holding exact
integer values so BLAS does the heavy lifting; float64 arithmetic on
integers is exact below 2**53, and :func:`quantize_plan` verifies the
worst-case accumulator bound ``K * qmax_w * qmax_x`` stays far under
that for every layer (at int16 the bound needs K > 8e6 to fail).  The
emulation oracle (:func:`repro.nn.fixed_point.emulate_fixed_point`)
instead accumulates in true int64 — cross-checking the two is how the
exactness claim is tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.nn import layers
from repro.nn.functional import conv_output_plane, sliding_windows
from repro.nn.infer import (
    BufferArena,
    InferencePlan,
    PlanStep,
    _ModuleStep,
    build_inference_plan,
    liveness_release_schedule,
    release_dead,
)
from repro.nn.module import Identity, no_grad
from repro.nn.network import GraphNetwork

_F64 = np.dtype(np.float64)

#: Exact-integer guard for GEMM in float64 containers: accumulators must
#: stay below 2**53 for float64 addition to be exact; we keep margin for
#: the quantized bias added on top.
_ACC_EXACT_BITS = 51


def _quant_step(peak, qmax: int) -> np.ndarray:
    """Quantization step(s) for peak magnitude(s) ``peak``.

    ``peak / qmax``, except where that quotient is 0.0 — an all-zero
    tensor, or a subnormal peak whose quotient underflows (``5e-324 /
    32767``) — which get step 1.0.  Every step is therefore finite and
    non-zero, and at step 1.0 every value (below ``qmax * 2**-1074``)
    rounds to level 0.  All quantizers here share this convention.
    """
    step = np.asarray(peak, dtype=np.float64) / qmax
    return np.where(step == 0.0, 1.0, step)


def symmetric_quantize(x: np.ndarray, bits: int) -> Tuple[np.ndarray, float]:
    """The one symmetric-quantization primitive; returns ``(q, scale)``.

    ``q`` is an int64 array of clipped, rounded quantization levels and
    ``scale`` the per-tensor step, so ``q * scale`` is the dequantized
    (fake-quantized) tensor.  Both this module and the integer-datapath
    emulation (:mod:`repro.nn.fixed_point`) build on it, so the two
    cannot drift.

    Rounding is :func:`numpy.round` — IEEE half-to-even.  Non-finite
    inputs (NaN/inf) raise ``ValueError``: a NaN would silently poison
    the scale (``max|x|`` is NaN) and an inf would quantize everything
    else to zero, so both are treated as caller bugs.

    ``scale`` is always finite and non-zero and ``|q| <= qmax``: an
    all-zero or all-subnormal tensor (``max|x| / qmax`` underflows to
    0.0) quantizes to zeros with ``scale`` 1.0, per :func:`_quant_step`.
    """
    x = np.asarray(x)
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError(
            "symmetric_quantize: input contains non-finite values "
            "(NaN/inf); quantization scales would be meaningless")
    qmax = 2 ** (bits - 1) - 1
    scale = float(_quant_step(np.abs(x).max() if x.size else 0.0, qmax))
    q = np.clip(np.round(x / scale), -qmax, qmax).astype(np.int64)
    return q, scale


def activation_dtype(bits: int) -> np.dtype:
    """Smallest signed integer dtype holding ``bits``-bit activations."""
    if bits <= 8:
        return np.dtype(np.int8)
    if bits <= 16:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


def quantize_batch(x: np.ndarray, bits: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample symmetric quantization of a batched activation tensor.

    Returns ``(q, scales)`` where ``q`` has :func:`activation_dtype`
    and ``scales`` is one float per *sample* (leading axis).  Scales are
    per-sample rather than per-batch so that a sample's quantized bytes
    never depend on what else rode in its batch — the serving runtime's
    bit-identical-batching guarantee carries over to the integer path.
    Same rounding (half-to-even) as :func:`symmetric_quantize` and the
    same :func:`_quant_step` convention: every scale is finite and
    non-zero, a sample whose ``max|x| / qmax`` underflows (all-zero or
    all-subnormal) gets scale 1.0 and zero levels, and ``|q| <= qmax``.
    Non-finite inputs raise ``ValueError``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    flat = x.reshape(n, -1)
    if flat.size and not np.all(np.isfinite(flat)):
        raise ValueError(
            "quantize_batch: input contains non-finite values (NaN/inf)")
    qmax = 2 ** (bits - 1) - 1
    scales = _quant_step(
        np.abs(flat).max(axis=1) if flat.shape[1] else np.zeros(n), qmax)
    broadcast = scales.reshape((n,) + (1,) * (x.ndim - 1))
    q = np.clip(np.round(x / broadcast), -qmax, qmax)
    return q.astype(activation_dtype(bits)), scales


def dequantize_batch(q: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_batch` (per-sample scales)."""
    out = q.astype(np.float64)
    out *= scales.reshape((q.shape[0],) + (1,) * (q.ndim - 1))
    return out


def _per_channel_quantize(w2d: np.ndarray, bits: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise (per-output-channel) symmetric quantization.

    ``w2d`` is ``(C, K)``; returns integer levels with
    :func:`activation_dtype` plus per-row scales ``(C,)``.  Every scale
    is finite and non-zero and ``|q| <= qmax``: a row whose ``max|w| /
    qmax`` underflows (all-zero or all-subnormal) gets scale 1.0 and
    zero levels, per :func:`_quant_step`.
    """
    if w2d.size and not np.all(np.isfinite(w2d)):
        raise ValueError(
            "per-channel quantization: weights contain non-finite values")
    qmax = 2 ** (bits - 1) - 1
    scales = _quant_step(
        np.abs(w2d).max(axis=1) if w2d.size else np.zeros(w2d.shape[0]),
        qmax)
    q = np.clip(np.round(w2d / scales[:, None]), -qmax, qmax)
    return q.astype(activation_dtype(bits)), scales


def _bits_needed(value: int) -> int:
    """Signed bits needed to hold ``value`` exactly (0 -> 1)."""
    if value == 0:
        return 1
    return int(value).bit_length() + 1


@dataclass(frozen=True)
class QuantizationSpec:
    """Bit width and derived integer range for symmetric quantization."""

    bits: int = 16

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 32:
            raise ValueError("bits must be in [2, 32]")

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1


@dataclass(frozen=True)
class TensorQuantization:
    """Result of quantizing one tensor."""

    name: str
    scale: float
    bits: int
    max_abs_error: float


def quantize_tensor(x: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Symmetric fake-quantization of one tensor (returns float values)."""
    q, scale = symmetric_quantize(x, spec.bits)
    return q.astype(np.float64) * scale


def quantize_network(network: GraphNetwork,
                     spec: QuantizationSpec = QuantizationSpec()) -> List[TensorQuantization]:
    """Quantize every parameter of a network in place.

    Returns a per-tensor report (scale and introduced error) so callers
    can audit which layers are quantization-sensitive.  All-zero
    tensors report scale 1.0 (the :func:`symmetric_quantize`
    convention).
    """
    reports: List[TensorQuantization] = []
    for param in network.parameters():
        original = param.value.copy()
        q, scale = symmetric_quantize(original, spec.bits)
        param.value = q.astype(np.float64) * scale
        reports.append(TensorQuantization(
            name=param.name,
            scale=scale,
            bits=spec.bits,
            max_abs_error=float(np.abs(param.value - original).max()),
        ))
    return reports


def quantization_sweep(
    network: GraphNetwork,
    images: np.ndarray,
    labels: np.ndarray,
    bit_widths: List[int],
) -> Dict[int, float]:
    """Accuracy at each bit width (restoring float weights in between)."""
    saved = network.state_dict()
    results: Dict[int, float] = {}
    for bits in bit_widths:
        network.load_state_dict(saved)
        quantize_network(network, QuantizationSpec(bits))
        predictions = network.predict(images)
        results[bits] = float((predictions == labels).mean())
    network.load_state_dict(saved)
    return results


# -- integer inference plan --------------------------------------------------


class _QuantizedGemmOp:
    """Shared requantizing epilogue for quantized conv/dense steps.

    Subclasses provide the integer accumulation into a float64 buffer
    of exact integer values; :meth:`_requantize` then

    1. quantizes the float bias at ``in_scale * w_scale`` and adds it
       *inside* the integer accumulation (per-channel, per-sample),
    2. records the pre-ReLU accumulator peak when a ``stats`` dict is
       passed (the per-layer report; compiled programs pass none),
    3. applies the fused ReLU on the integer accumulator, and
    4. folds dequantization + fresh output quantization into one
       per-(sample, channel) multiplier, writing narrow integers.

    Scales are per-*sample* for activations and per-*output-channel*
    for weights, so batched execution is bit-identical to batch-1.
    """

    bits: int
    relu: bool
    weight_scale: np.ndarray  # (C,) per-output-channel
    _bias: Optional[np.ndarray]

    def _init_quant(self, bits: int) -> None:
        self.bits = int(bits)
        self.qmax = 2 ** (bits - 1) - 1
        self.dtype = activation_dtype(bits)

    def _check_exact(self, reduce_dim: int, label: str) -> None:
        bound = reduce_dim * self.qmax * self.qmax
        if bound >= 2 ** _ACC_EXACT_BITS:
            raise ValueError(
                f"{label}: worst-case accumulator {bound} exceeds the "
                f"float64 exact-integer range (2**{_ACC_EXACT_BITS}); "
                f"reduce bits= or the layer fan-in")

    def _requantize(self, acc: np.ndarray, acc_owner: Optional[np.ndarray],
                    x_scales: np.ndarray, arena: BufferArena,
                    stats: Optional[Dict[str, Dict[str, float]]],
                    name: str) -> Tuple[np.ndarray, np.ndarray]:
        q_y = arena.acquire(acc.shape, self.dtype)
        y_scales = self.requantize_into(acc, x_scales, q_y, stats, name)
        if acc_owner is not None:
            arena.release(acc_owner)
        return q_y, y_scales

    def requantize_into(self, acc: np.ndarray, x_scales: np.ndarray,
                        q_out: np.ndarray,
                        stats: Optional[Dict[str, Dict[str, float]]] = None,
                        name: str = "") -> np.ndarray:
        """The epilogue proper, writing into ``q_out`` (destroys ``acc``).

        Shared verbatim by the interpreted plan and the AOT-compiled
        program (:mod:`repro.nn.compile`), so the two stay bit-identical
        by construction.  Returns the per-sample output scales.
        """
        n, channels = acc.shape[0], acc.shape[1]
        extra = (1,) * (acc.ndim - 2)
        # Dequantization step per accumulator unit: one per (sample, ch).
        dequant = x_scales[:, None] * self.weight_scale[None, :]
        if self._bias is not None:
            qb = np.round(self._bias[None, :] / dequant)
            # Degenerate scales could push the integer bias outside the
            # exact-float64 range; clamp so arithmetic stays exact (the
            # accumulator report still shows the blow-up).
            np.clip(qb, -2.0 ** _ACC_EXACT_BITS, 2.0 ** _ACC_EXACT_BITS,
                    out=qb)
            acc += qb.reshape((n, channels) + extra)
        flat = acc.reshape(n, channels, -1)
        if stats is not None:
            peak = int(np.abs(flat).max()) if flat.size else 0
            stats[name] = {
                "acc_peak": peak,
                "acc_bits": _bits_needed(peak),
                "weight_scale_max": float(self.weight_scale.max()),
                "weight_scale_min": float(self.weight_scale.min()),
            }
        if self.relu:
            np.maximum(acc, 0.0, out=acc)
        # Per-sample output scale from the dequantized magnitudes.  Max
        # and min are exact, so max(max, -min) equals max(|acc|) without
        # an abs temporary; after the fused ReLU the max alone suffices.
        if not flat.size:
            mags = np.zeros((n, channels))
        elif self.relu:
            mags = flat.max(axis=2)
        else:
            mags = np.maximum(flat.max(axis=2), -flat.min(axis=2))
        ymax = (mags * dequant).max(axis=1) if channels else np.zeros(n)
        y_scales = _quant_step(ymax, self.qmax)
        if stats is not None:
            stats[name]["out_scale_max"] = float(y_scales.max())
        multiplier = dequant / y_scales[:, None]
        acc *= multiplier.reshape((n, channels) + extra)
        np.round(acc, out=acc)
        np.clip(acc, -self.qmax, self.qmax, out=acc)
        np.copyto(q_out, acc, casting="unsafe")
        return y_scales


class QuantizedConv2D(_QuantizedGemmOp):
    """Integer conv: pre-quantized per-channel weights + requant epilogue.

    Built from a :class:`~repro.nn.infer.FusedConv2D`, so the weights
    being quantized already carry the folded BatchNorm scale — the
    requantization multiplier therefore folds BN, dequantization and
    the fresh output scale into a single per-(sample, channel) float.

    ``qweight`` holds the narrow integer levels (the deployment
    artifact); ``_wmat``/``_wdw`` are float64 copies of those *exact
    integer values* so the GEMM runs through BLAS while every
    accumulator stays exact (bound checked at construction).
    """

    def __init__(self, fused, bits: int = 16) -> None:
        self._init_quant(bits)
        self.in_channels = fused.in_channels
        self.out_channels = fused.out_channels
        self.kernel_size = fused.kernel_size
        self.stride = fused.stride
        self.padding = fused.padding
        self.groups = fused.groups
        self.relu = fused.relu
        self.depthwise = fused.depthwise
        self._cout_g = fused._cout_g
        self._cin_g = fused._cin_g
        self.fused = f"{fused.fused}+int{bits}"
        g, cout_g, k = fused._wmat.shape
        self._check_exact(k, f"QuantizedConv2D({fused.fused})")
        q, scales = _per_channel_quantize(
            fused._wmat.reshape(g * cout_g, k), bits)
        self.qweight = np.ascontiguousarray(q.reshape(g, cout_g, k))
        self.weight_scale = scales
        self._wmat = self.qweight.astype(np.float64)
        kh, kw = self.kernel_size
        self._wdw = (self._wmat.reshape(g, cout_g, kh, kw)
                     if self.depthwise else None)
        self._bias = None if fused._bias is None else fused._bias.copy()

    def __call__(self, q_x: np.ndarray, x_scales: np.ndarray,
                 arena: BufferArena,
                 stats: Optional[Dict[str, Dict[str, float]]] = None,
                 name: str = "") -> Tuple[np.ndarray, np.ndarray]:
        n, c, h, w = q_x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        g = self.groups
        kh, kw = self.kernel_size
        out_h, out_w = conv_output_plane(h, w, self.kernel_size,
                                         self.stride, self.padding)
        if self.depthwise:
            # Symmetric quantization has zero-point 0, so zero padding
            # is exact in the integer domain too.
            windows = sliding_windows(q_x, self.kernel_size, self.stride,
                                      self.padding)
            acc_owner = arena.acquire((n, g, self._cout_g, out_h, out_w),
                                      _F64)
            np.einsum("ncijpq,cmij->ncmpq", windows, self._wdw,
                      out=acc_owner)
        else:
            scratch = arena.acquire((n, c, kh, kw, out_h, out_w), q_x.dtype)
            np.copyto(scratch, sliding_windows(q_x, self.kernel_size,
                                               self.stride, self.padding))
            cols = scratch.reshape(n, g, self._cin_g * kh * kw,
                                   out_h * out_w)
            acc_owner = arena.acquire((n, g, self._cout_g, out_h * out_w),
                                      _F64)
            np.matmul(self._wmat[None], cols, out=acc_owner)
            arena.release(scratch)
        acc = acc_owner.reshape(n, self.out_channels, out_h, out_w)
        return self._requantize(acc, acc_owner, x_scales, arena, stats, name)


class QuantizedDense(_QuantizedGemmOp):
    """Integer dense layer with per-output-feature weight scales."""

    def __init__(self, fused, bits: int = 16) -> None:
        self._init_quant(bits)
        self.in_features = fused.in_features
        self.out_features = fused.out_features
        self.relu = fused.relu
        self.fused = f"{fused.fused}+int{bits}"
        self._check_exact(self.in_features,
                          f"QuantizedDense({fused.fused})")
        q, scales = _per_channel_quantize(fused._weight, bits)
        self.qweight = q
        self.weight_scale = scales
        # Integer matmul in float64 is exact, so unlike the float path
        # no row-at-a-time loop is needed for batch bit-identity: every
        # summation order yields the same integer.
        self._wt = np.ascontiguousarray(q.T.astype(np.float64))
        self._bias = None if fused._bias is None else fused._bias.copy()

    def __call__(self, q_x: np.ndarray, x_scales: np.ndarray,
                 arena: BufferArena,
                 stats: Optional[Dict[str, Dict[str, float]]] = None,
                 name: str = "") -> Tuple[np.ndarray, np.ndarray]:
        flat = q_x.reshape(q_x.shape[0], -1)
        if flat.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} features, got {flat.shape[1]}")
        acc = arena.acquire((flat.shape[0], self.out_features), _F64)
        np.matmul(flat, self._wt, out=acc)
        return self._requantize(acc, None, x_scales, arena, stats, name)


class QuantizedMaxPool:
    """Max pooling directly on integer levels (scale-preserving, exact).

    Max commutes with the (positive) per-sample scale, so no
    requantization happens; padding uses the dtype minimum so a padded
    window can never beat a negative activation.
    """

    def __init__(self, kernel_size: Tuple[int, int],
                 stride: Tuple[int, int], padding: Tuple[int, int],
                 relu: bool = False) -> None:
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.relu = relu
        self.fused = "maxpool" + ("+relu" if relu else "") + "+int"

    def __call__(self, q_x: np.ndarray, x_scales: np.ndarray,
                 arena: BufferArena,
                 stats: Optional[Dict[str, Dict[str, float]]] = None,
                 name: str = "") -> Tuple[np.ndarray, np.ndarray]:
        n, c, h, w = q_x.shape
        out_h, out_w = conv_output_plane(h, w, self.kernel_size,
                                         self.stride, self.padding)
        windows = sliding_windows(
            q_x, self.kernel_size, self.stride, self.padding,
            pad_value=int(np.iinfo(q_x.dtype).min))
        out = arena.acquire((n, c, out_h, out_w), q_x.dtype)
        np.max(windows, axis=(2, 3), out=out)
        if self.relu:
            np.maximum(out, 0, out=out)
        return out, x_scales


class QuantizedReLU:
    """Standalone ReLU on integer levels (exact: scale is positive)."""

    fused = "relu+int"
    relu = True

    def __call__(self, q_x: np.ndarray, x_scales: np.ndarray,
                 arena: BufferArena,
                 stats: Optional[Dict[str, Dict[str, float]]] = None,
                 name: str = "") -> Tuple[np.ndarray, np.ndarray]:
        out = arena.acquire(q_x.shape, q_x.dtype)
        np.maximum(q_x, 0, out=out)
        return out, x_scales


class QuantizedReshape:
    """Flatten as a free view over the integer levels."""

    fused = "flatten+int"

    def __init__(self, relu: bool = False) -> None:
        self.relu = relu

    def __call__(self, q_x: np.ndarray, x_scales: np.ndarray,
                 arena: BufferArena,
                 stats: Optional[Dict[str, Dict[str, float]]] = None,
                 name: str = "") -> Tuple[np.ndarray, np.ndarray]:
        flat = q_x.reshape(q_x.shape[0], -1)
        if not self.relu:
            return flat, x_scales
        out = arena.acquire(flat.shape, flat.dtype)
        np.maximum(flat, 0, out=out)
        return out, x_scales


class QuantizedIdentity:
    """Pass-through (eval-mode Dropout / Identity activations)."""

    fused = "identity+int"
    relu = False

    def __call__(self, q_x: np.ndarray, x_scales: np.ndarray,
                 arena: BufferArena,
                 stats: Optional[Dict[str, Dict[str, float]]] = None,
                 name: str = "") -> Tuple[np.ndarray, np.ndarray]:
        return q_x, x_scales


class QuantizedInferencePlan:
    """An integer-activation twin of :class:`~repro.nn.infer.InferencePlan`.

    Built by :func:`quantize_plan` from a float plan: fused conv/dense
    steps become integer GEMMs with a requantizing epilogue, max-pool /
    ReLU / flatten run directly on the narrow integers, and anything
    else (global average pool, softmax, ...) falls back to the float
    module between a dequantize/requantize pair.  Activations stored
    between steps are int16 (int8 at ``bits<=8``), so
    ``last_peak_live_bytes`` lands near a quarter (an eighth) of the
    float64 plan's.

    Threading contract matches the float plan: one plan per thread;
    :meth:`clone` shares the immutable quantized weights and gives the
    replica a private arena.

    ``last_layer_stats`` is refreshed by each run with a per-layer dict
    (accumulator peak/bits, weight/output scales) feeding the
    experiments report.
    """

    def __init__(self, steps: List[PlanStep], input_names: Set[str],
                 bits: int, arena: Optional[BufferArena] = None) -> None:
        if not steps:
            raise ValueError("empty plan")
        if not 2 <= bits <= 16:
            raise ValueError("quantized plans support bits in [2, 16]")
        self.steps = steps
        self.input_names = input_names
        self.bits = int(bits)
        self.qmax = 2 ** (bits - 1) - 1
        self.dtype = activation_dtype(bits)
        self.arena = arena or BufferArena()
        self._releases = liveness_release_schedule(steps, input_names)
        self.last_peak_live_bytes = 0
        self.last_layer_stats: Dict[str, Dict[str, float]] = {}

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)

    @property
    def fused_step_count(self) -> int:
        return sum(1 for s in self.steps if s.fused)

    def clone(self) -> "QuantizedInferencePlan":
        """A replica safe to run on another thread.

        Quantized ops are stateless at run time (per-run stats travel
        through the plan, not the op) and read-only over their weight
        arrays, so they are shared; float module fallbacks are cloned
        (they flip ``training`` around each call); the clone gets a
        fresh private arena.
        """
        steps = [
            PlanStep(s.name, s.kind, s.inputs,
                     s.op.clone() if isinstance(s.op, _ModuleStep) else s.op,
                     s.fused)
            for s in self.steps
        ]
        return QuantizedInferencePlan(steps, set(self.input_names),
                                      self.bits, BufferArena())

    # -- execution ---------------------------------------------------------

    def run(self, x: np.ndarray) -> np.ndarray:
        """Quantize the float input per sample and run the integer plan."""
        q, scales = quantize_batch(x, self.bits)
        return self.run_quantized(q, scales)

    def run_quantized(self, q: np.ndarray,
                      scales: np.ndarray) -> np.ndarray:
        """Run on pre-quantized input (e.g. straight off a serving ring).

        ``q`` must hold :func:`quantize_batch` levels for this plan's
        ``bits`` and ``scales`` the matching per-sample scales.
        Returns the dequantized float64 output.
        """
        values: Dict[str, np.ndarray] = {}
        vscales: Dict[str, Optional[np.ndarray]] = {}
        stats: Dict[str, Dict[str, float]] = {}
        peak = 0

        def as_quantized(name: str) -> Tuple[np.ndarray, np.ndarray]:
            if vscales[name] is None:
                return quantize_batch(values[name], self.bits)
            return values[name], vscales[name]

        def as_float(name: str) -> np.ndarray:
            if vscales[name] is None:
                return values[name]
            return dequantize_batch(values[name], vscales[name])

        with no_grad():
            for i, step in enumerate(self.steps):
                if step.kind == "input":
                    values[step.name] = q
                    vscales[step.name] = scales
                elif step.kind == "concat":
                    parts = [as_quantized(n) for n in step.inputs]
                    values[step.name], vscales[step.name] = (
                        self._concat(parts))
                elif step.kind == "add":
                    total = as_float(step.inputs[0]).copy()
                    for n in step.inputs[1:]:
                        total += as_float(n)
                    q_t, s_t = quantize_batch(total, self.bits)
                    values[step.name] = q_t
                    vscales[step.name] = s_t
                elif step.kind == "module":
                    values[step.name] = step.op(as_float(step.inputs[0]))
                    vscales[step.name] = None
                else:  # quantized op
                    q_in, s_in = as_quantized(step.inputs[0])
                    q_out, s_out = step.op(q_in, s_in, self.arena,
                                           stats, step.name)
                    values[step.name] = q_out
                    vscales[step.name] = s_out
                peak = max(peak, sum(v.nbytes for v in values.values()))
                release_dead(values, self._releases[i], self.arena)
                for dead in self._releases[i]:
                    vscales.pop(dead, None)
        self.last_peak_live_bytes = peak
        self.last_layer_stats = stats
        return as_float(self.steps[-1].name)

    __call__ = run

    def _concat(self, parts: Sequence[Tuple[np.ndarray, np.ndarray]]
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Channel concat with per-sample rescale onto a common scale.

        The joint scale is the per-sample max of the branch scales, so
        every branch's levels shrink (or stay) — no clipping possible.
        """
        n = parts[0][0].shape[0]
        shape = list(parts[0][0].shape)
        shape[1] = sum(p[0].shape[1] for p in parts)
        out = self.arena.acquire(tuple(shape), self.dtype)
        joint = np.stack([p[1] for p in parts], axis=0).max(axis=0)
        offset = 0
        extra = (1,) * (len(shape) - 1)
        for q_p, s_p in parts:
            ratio = (s_p / joint).reshape((n,) + extra)
            chunk = np.round(q_p * ratio)
            np.copyto(out[:, offset:offset + q_p.shape[1]], chunk,
                      casting="unsafe")
            offset += q_p.shape[1]
        return out, joint


def quantize_plan(plan: InferencePlan, bits: int = 16,
                  arena: Optional[BufferArena] = None
                  ) -> QuantizedInferencePlan:
    """Lower a float :class:`InferencePlan` to integer execution.

    The plan's fused conv steps already hold BatchNorm-folded weights,
    so per-channel quantization here is exactly "fold the BN scale into
    the requantization multiplier".  Quantization is deterministic: the
    same float plan always lowers to the same integer plan (process
    serving workers rely on this to rebuild identical plans from the
    shared float weights).
    """
    if not 2 <= bits <= 16:
        raise ValueError("quantized plans support bits in [2, 16]")
    steps: List[PlanStep] = []
    for step in plan.steps:
        if step.kind in ("input", "concat", "add"):
            steps.append(PlanStep(step.name, step.kind, step.inputs))
        elif step.kind == "fused_conv":
            op = QuantizedConv2D(step.op, bits)
            steps.append(PlanStep(step.name, "qconv", step.inputs, op,
                                  op.fused))
        elif step.kind == "fused_dense":
            op = QuantizedDense(step.op, bits)
            steps.append(PlanStep(step.name, "qdense", step.inputs, op,
                                  op.fused))
        else:
            steps.append(_quantize_module_step(step))
    return QuantizedInferencePlan(steps, set(plan.input_names), bits, arena)


def _quantize_module_step(step: PlanStep) -> PlanStep:
    """Map a module fallback step to an integer op where exact."""
    module = step.op.module
    activation = step.op.activation
    relu = isinstance(activation, layers.ReLU)
    passthrough = activation is None or relu
    if isinstance(module, layers.MaxPool2D) and passthrough:
        op = QuantizedMaxPool(module.kernel_size, module.stride,
                              module.padding, relu)
        return PlanStep(step.name, "qop", step.inputs, op, op.fused)
    if isinstance(module, layers.Flatten) and passthrough:
        op = QuantizedReshape(relu)
        return PlanStep(step.name, "qop", step.inputs, op, op.fused)
    if isinstance(module, layers.ReLU) and activation is None:
        op = QuantizedReLU()
        return PlanStep(step.name, "qop", step.inputs, op, op.fused)
    if isinstance(module, (layers.Dropout, Identity)) and activation is None:
        op = QuantizedIdentity()
        return PlanStep(step.name, "qop", step.inputs, op, op.fused)
    # Anything else (global/average pool, softmax, ...) runs the float
    # module between a dequantize/requantize pair.
    return PlanStep(step.name, "module", step.inputs, step.op.clone(),
                    step.fused)


def build_quantized_plan(net: GraphNetwork, bits: int = 16,
                         arena: Optional[BufferArena] = None
                         ) -> QuantizedInferencePlan:
    """Fuse + quantize in one call (``quantize_plan(build_inference_plan)``)."""
    return quantize_plan(build_inference_plan(net), bits, arena)
