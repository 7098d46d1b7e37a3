"""Tests for the integer inference path: quantized plans end to end.

Covers the shared quantization primitives (half-to-even rounding,
non-finite rejection, per-sample batching), the fixed-point emulation
semantics (eval-mode walk that never mutates a training network, bias
inside the integer accumulation), exact integer convolution beyond
float64's 2**53, zoo-wide agreement of the int16
:class:`~repro.nn.quant.QuantizedInferencePlan` with both the float
plan and the :func:`~repro.nn.fixed_point.emulate_fixed_point` oracle,
the AOT-compiled quantized program's bit-identity with the interpreted
plan, quantized serving (thread and process), and the experiments
artifact's accuracy bar.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import NetworkBuilder, TensorShape
from repro.graph import layer_spec as spec
from repro.models import MODEL_FACTORIES
from repro.nn import (
    GraphNetwork,
    activation_dtype,
    build_quantized_plan,
    compile_quantized_plan,
    dequantize_batch,
    layers,
    quantize_batch,
    symmetric_quantize,
)
from repro.nn.fixed_point import (
    _integer_conv,
    _quantize as fixed_point_quantize,
    emulate_fixed_point,
)
from repro.nn.functional import im2col
from repro.nn.infer import FusedConv2D
from repro.nn.quant import (
    QuantizedConv2D,
    QuantizedMaxPool,
    _bits_needed,
    _per_channel_quantize,
)
from repro.serve import Server, ServerConfig
from tests.test_nn_infer import _randomize_running_stats
from tests.test_serve import images, make_net

RNG = np.random.default_rng(9)


def _input_shape(net: GraphNetwork):
    shape = net.spec.input_shape
    return (shape.channels, shape.height, shape.width)


# -- shared primitives -------------------------------------------------------


class TestSymmetricQuantize:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        x = np.array([1.0, bad, -2.0])
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_quantize(x, 16)
        with pytest.raises(ValueError, match="non-finite"):
            quantize_batch(x.reshape(1, 3), 16)

    def test_all_zero_convention(self):
        q, scale = symmetric_quantize(np.zeros(5), 16)
        assert scale == 1.0
        assert not q.any()
        qb, scales = quantize_batch(np.zeros((2, 5)), 16)
        assert not qb.any()
        np.testing.assert_array_equal(scales, [1.0, 1.0])

    @pytest.mark.parametrize("bits", [2, 8, 16])
    def test_subnormal_input_regression(self, bits):
        """``max|x| / qmax`` used to underflow to a 0.0 scale on
        all-subnormal input and divide by zero.  All three quantizers
        now give a finite non-zero scale with ``|q| <= qmax``, without
        a single numpy warning."""
        x = np.array([5e-324, 0.0, -5e-324])
        qmax = 2 ** (bits - 1) - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, scale = symmetric_quantize(x, bits)
            qb, batch_scales = quantize_batch(np.stack([x, np.ones(3)]), bits)
            qc, row_scales = _per_channel_quantize(
                np.stack([x, np.ones(3)]), bits)
        for levels, scales in ((q, np.array([scale])), (qb, batch_scales),
                               (qc, row_scales)):
            assert np.all(np.isfinite(scales)) and np.all(scales != 0.0)
            assert np.abs(levels).max() <= qmax
        # The subnormal sample/row dequantizes to within 5e-324 ...
        assert np.abs(q * scale - x).max() <= 5e-324
        assert np.abs(qb[0] * batch_scales[0] - x).max() <= 5e-324
        assert np.abs(qc[0] * row_scales[0] - x).max() <= 5e-324
        # ... and never disturbs its batch mate or sibling row.
        np.testing.assert_array_equal(qb[1], np.full(3, qmax))
        np.testing.assert_array_equal(qc[1], np.full(3, qmax))
        if bits == 16:  # the quotient underflows: zeros at scale 1.0
            assert scale == batch_scales[0] == row_scales[0] == 1.0
            assert not q.any() and not qb[0].any() and not qc[0].any()

    def test_half_to_even_ties(self):
        # max|x| = 3 at bits=3 gives scale exactly 1, so the inputs ARE
        # the pre-round levels: ties must land on the even neighbour.
        x = np.array([3.0, 0.5, 1.5, 2.5, -0.5, -1.5])
        q, scale = symmetric_quantize(x, 3)
        assert scale == 1.0
        np.testing.assert_array_equal(q, [3, 0, 2, 2, 0, -2])

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                    max_size=32),
           st.integers(min_value=2, max_value=16))
    def test_rounding_shared_with_fixed_point(self, values, bits):
        """The oracle and the plan must quantize identically, always."""
        x = np.array(values)
        q_a, s_a = symmetric_quantize(x, bits)
        q_b, s_b = fixed_point_quantize(x, bits)
        assert s_a == s_b
        np.testing.assert_array_equal(q_a, q_b)
        # And both follow numpy's half-to-even convention exactly.
        if s_a:
            qmax = 2 ** (bits - 1) - 1
            expected = np.clip(np.round(x / s_a), -qmax, qmax)
            np.testing.assert_array_equal(q_a, expected.astype(np.int64))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=2, max_value=16))
    def test_quantize_batch_is_per_sample(self, bits):
        """A sample's bytes never depend on its batch mates."""
        xs = np.random.default_rng(bits).normal(size=(4, 3, 5, 5))
        xs[1] *= 100.0  # an outlier sample must not disturb the others
        q_all, s_all = quantize_batch(xs, bits)
        for i in range(len(xs)):
            q_one, s_one = quantize_batch(xs[i:i + 1], bits)
            np.testing.assert_array_equal(q_all[i], q_one[0])
            assert s_all[i] == s_one[0]

    def test_dequantize_roundtrip_error_bound(self):
        xs = RNG.normal(size=(3, 2, 4, 4))
        q, scales = quantize_batch(xs, 16)
        back = dequantize_batch(q, scales)
        # Half a step per sample is the worst symmetric rounding error.
        for i in range(len(xs)):
            assert np.abs(back[i] - xs[i]).max() <= scales[i] / 2 + 1e-15

    def test_activation_dtype_widths(self):
        assert activation_dtype(8) == np.int8
        assert activation_dtype(4) == np.int8
        assert activation_dtype(16) == np.int16
        assert activation_dtype(9) == np.int16
        assert activation_dtype(32) == np.int32


# -- emulation semantics (the oracle must be safe to call any time) ----------


class TestEmulationSemantics:
    def test_training_network_left_untouched(self):
        """Regression: emulation must not flip modes or mutate BN stats."""
        net = make_net()
        for bn in net._bn.values():
            bn.training = True  # a network mid-training
        for node in net._nodes:
            for m in (node.module, node.activation):
                if m is not None:
                    m.training = True
        saved_means = {k: bn.running_mean.copy()
                       for k, bn in net._bn.items()}
        saved_vars = {k: bn.running_var.copy() for k, bn in net._bn.items()}
        emulate_fixed_point(net, images(4), 16, 16)
        for key, bn in net._bn.items():
            np.testing.assert_array_equal(bn.running_mean, saved_means[key])
            np.testing.assert_array_equal(bn.running_var, saved_vars[key])
            assert bn.training  # restored, not left in eval
        assert all(m.training for node in net._nodes
                   for m in (node.module, node.activation) if m is not None)

    def test_emulation_matches_eval_forward_regardless_of_mode(self):
        """Train-mode and eval-mode callers see the same emulation."""
        net = make_net()
        x = images(2)
        eval_out, _ = emulate_fixed_point(net, x, 16, 16)
        for bn in net._bn.values():
            bn.training = True
        train_out, _ = emulate_fixed_point(net, x, 16, 16)
        np.testing.assert_array_equal(eval_out, train_out)

    def test_bias_lands_in_accumulator_report(self):
        """The bias is added inside the integer sum, so a huge bias must
        blow up ``per_layer_acc_bits`` for exactly that layer."""
        net = make_net(seed=8)
        _, before = emulate_fixed_point(net, images(2), 16, 16)
        conv = next(n for n in net._nodes if n.module is not None
                    and getattr(n.module, "bias", None) is not None)
        conv.module.bias.value = conv.module.bias.value + 1e9
        _, after = emulate_fixed_point(net, images(2), 16, 16)
        name = conv.name
        assert after.per_layer_acc_bits[name] > before.per_layer_acc_bits[name]
        assert name in after.saturated_layers


# -- exact integer convolution (satellite: dtype-preserving im2col) ----------


class TestIntegerConvExactness:
    def test_im2col_preserves_integer_dtype_and_values(self):
        big = np.int64(1) << 60
        x = np.zeros((1, 1, 3, 3), dtype=np.int64)
        x[0, 0, 1, 1] = big
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.dtype == np.int64
        # The big value appears exactly, never squeezed through float.
        assert (cols == big).sum() == 9

    def test_integer_conv_exact_beyond_float64(self):
        """Products above 2**53 must come out exact (int64 end to end).

        This is the widest-activation case: float64 staging anywhere in
        the conv would silently round these products.
        """
        conv = spec.Conv2D(in_channels=1, out_channels=1, kernel_size=1,
                           activation="identity")
        q_in = np.array([[[[(1 << 31) + 1]]]], dtype=np.int64)
        q_w = np.array([[[[(1 << 27) + 1]]]], dtype=np.int64)
        out = _integer_conv(q_in, q_w, conv)
        expected = ((1 << 31) + 1) * ((1 << 27) + 1)  # odd: 2**58 + ...
        assert out.dtype == np.int64
        assert int(out[0, 0, 0, 0]) == expected
        # float64 provably cannot represent this product.
        assert int(np.float64(expected)) != expected


# -- the shared requantizing epilogue ----------------------------------------


def _quantized_conv(relu: bool) -> QuantizedConv2D:
    conv = layers.Conv2D(2, 3, (3, 3), padding=(1, 1),
                         rng=np.random.default_rng(0), name="c")
    op = QuantizedConv2D(FusedConv2D(conv, None, relu), 16)
    op._bias = None  # accumulators below are exactly what the test says
    return op


def _negative_heavy_acc() -> np.ndarray:
    acc = np.random.default_rng(1).integers(
        -1000, 10, size=(2, 3, 4, 4)).astype(np.float64)
    acc[0, 1, 2, 2] = -5000.0
    acc[1, 2, 0, 3] = -7000.0
    return acc


class TestRequantizeEpilogue:
    X_SCALES = np.array([0.5, 0.25])

    def test_no_relu_takes_the_negative_peak(self):
        """Without ReLU the output scale must come from ``-min`` when
        the negative accumulators dominate, never from ``max`` alone."""
        op = _quantized_conv(relu=False)
        acc = _negative_heavy_acc()
        dequant = self.X_SCALES[:, None] * op.weight_scale[None, :]
        expected = (np.abs(acc).reshape(2, 3, -1).max(axis=2)
                    * dequant).max(axis=1) / op.qmax
        q = np.empty(acc.shape, dtype=np.int16)
        np.testing.assert_array_equal(
            op.requantize_into(acc.copy(), self.X_SCALES, q), expected)
        assert q.min() == -op.qmax  # the negative peak lands on -qmax
        assert q.max() < op.qmax // 2

    def test_all_zero_accumulator_gets_unit_scale(self):
        for relu in (False, True):
            op = _quantized_conv(relu)
            q = np.ones((2, 3, 4, 4), dtype=np.int16)
            scales = op.requantize_into(np.zeros((2, 3, 4, 4)),
                                        self.X_SCALES, q)
            np.testing.assert_array_equal(scales, [1.0, 1.0])
            assert not q.any()

    def test_stats_keep_the_pre_relu_peak(self):
        """``last_layer_stats`` reports the accumulator before the fused
        ReLU; asking for stats never changes the output."""
        op = _quantized_conv(relu=True)
        acc = _negative_heavy_acc()
        q_plain = np.empty(acc.shape, dtype=np.int16)
        q_stats = np.empty(acc.shape, dtype=np.int16)
        plain = op.requantize_into(acc.copy(), self.X_SCALES, q_plain)
        stats = {}
        with_stats = op.requantize_into(acc.copy(), self.X_SCALES, q_stats,
                                        stats, "c")
        assert stats["c"]["acc_peak"] == 7000
        assert stats["c"]["acc_bits"] == _bits_needed(7000) == 14
        np.testing.assert_array_equal(plain, with_stats)
        np.testing.assert_array_equal(q_plain, q_stats)
        assert q_plain.min() == 0  # the ReLU did clip the negatives

    def test_plan_stats_match_the_accumulators(self):
        net = make_net()
        qplan = net.inference_plan().quantize(16)
        xs = images(2)
        qplan.run(xs)
        q_in, s_in = quantize_batch(xs, 16)
        trunk = qplan.steps[1]
        assert trunk.kind == "qconv" and trunk.op.relu
        stats = {}
        trunk.op(q_in, s_in, qplan.arena, stats, trunk.name)
        assert qplan.last_layer_stats[trunk.name] == stats[trunk.name]
        # Recompute the pre-ReLU peak independently: integer conv of the
        # levels plus the quantized bias, exactly as the epilogue adds it.
        cols = im2col(q_in.astype(np.float64), (3, 3), (1, 1), (1, 1))
        acc = np.einsum("ok,nkp->nop", trunk.op._wmat[0], cols)
        dequant = s_in[:, None] * trunk.op.weight_scale[None, :]
        acc += np.round(trunk.op._bias[None, :] / dequant)[:, :, None]
        assert stats[trunk.name]["acc_peak"] == int(np.abs(acc).max())


# -- zoo-wide plan agreement -------------------------------------------------


@pytest.fixture(scope="module", params=sorted(MODEL_FACTORIES))
def zoo_network(request):
    net = GraphNetwork(MODEL_FACTORIES[request.param](),
                       rng=np.random.default_rng(0), batch_norm=True)
    _randomize_running_stats(net)
    return net.eval()


class TestQuantizedPlanZoo:
    """The issue's acceptance bar, zoo-wide: the int16 plan tracks the
    float plan closely and stays within the per-layer requantization
    tolerance of the fixed-point oracle."""

    def test_int16_tracks_float_plan(self, zoo_network):
        net = zoo_network
        x = np.random.default_rng(3).normal(size=(2,) + _input_shape(net))
        float_out = net.inference_plan().run(x)
        q_out = net.inference_plan().quantize(16).run(x)
        denom = max(float(np.abs(float_out).max()), 1e-12)
        assert np.abs(q_out - float_out).max() / denom < 2e-3

    def test_int16_within_oracle_tolerance(self, zoo_network):
        net = zoo_network
        x = np.random.default_rng(4).normal(size=(1,) + _input_shape(net))
        oracle_out, _ = emulate_fixed_point(net, x, 16, 16)
        plan_out = net.inference_plan().quantize(16).run(x)
        denom = max(float(np.abs(oracle_out).max()), 1e-12)
        # Both paths requantize per layer but with different scale
        # granularity (per-channel/per-sample vs per-tensor), so they
        # agree to a small multiple of 1/qmax per layer, not bitwise.
        assert np.abs(plan_out - oracle_out).max() / denom < 5e-3

    def test_peak_live_shrinks(self, zoo_network):
        net = zoo_network
        x = np.random.default_rng(5).normal(size=(2,) + _input_shape(net))
        plan = net.inference_plan()
        plan.run(x)
        float_peak = plan.last_peak_live_bytes
        q16 = net.inference_plan().quantize(16)
        q16.run(x)
        assert q16.last_peak_live_bytes <= 0.3 * float_peak
        q8 = net.inference_plan().quantize(8)
        q8.run(x)
        assert q8.last_peak_live_bytes <= 0.2 * float_peak

    def test_batching_is_bit_identical(self, zoo_network):
        net = zoo_network
        xs = np.random.default_rng(6).normal(size=(3,) + _input_shape(net))
        qplan = net.inference_plan().quantize(16)
        batched = qplan.run(xs)
        for i in range(len(xs)):
            np.testing.assert_array_equal(batched[i],
                                          qplan.run(xs[i:i + 1])[0])


class TestQuantizedPlanSmall:
    def test_run_quantized_entry_matches_run(self):
        net = make_net()
        xs = images(4)
        qplan = net.inference_plan().quantize(16)
        q, scales = quantize_batch(xs, 16)
        np.testing.assert_array_equal(qplan.run(xs),
                                      qplan.run_quantized(q, scales))

    def test_layer_stats_populated(self):
        net = make_net()
        qplan = net.inference_plan().quantize(16)
        qplan.run(images(2))
        stats = qplan.last_layer_stats
        assert stats
        for entry in stats.values():
            assert entry["acc_bits"] >= 1
            assert entry["weight_scale_min"] <= entry["weight_scale_max"]

    def test_build_quantized_plan_shortcut(self):
        net = make_net()
        xs = images(2)
        np.testing.assert_array_equal(
            build_quantized_plan(net, 16).run(xs),
            net.inference_plan().quantize(16).run(xs))

    def test_bits_validation(self):
        net = make_net()
        plan = net.inference_plan()
        with pytest.raises(ValueError):
            plan.quantize(1)
        with pytest.raises(ValueError):
            plan.quantize(17)

    def test_clone_is_independent_and_identical(self):
        net = make_net()
        xs = images(3)
        qplan = net.inference_plan().quantize(16)
        clone = qplan.clone()
        assert clone.arena is not qplan.arena
        np.testing.assert_array_equal(qplan.run(xs), clone.run(xs))


# -- AOT-compiled quantized programs -----------------------------------------


class TestCompiledQuantized:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_compiled_bit_identical_zoo(self, zoo_network, batch):
        net = zoo_network
        x = np.random.default_rng(batch).normal(
            size=(batch,) + _input_shape(net))
        qplan = net.inference_plan().quantize(16)
        compiled = compile_quantized_plan(qplan, _input_shape(net),
                                          batch_sizes=(batch,))
        np.testing.assert_array_equal(compiled.run(x), qplan.run(x))

    def test_static_arena_smaller_than_float(self, zoo_network):
        net = zoo_network
        shape = _input_shape(net)
        from repro.nn import compile_plan
        float_compiled = compile_plan(net.inference_plan(), shape,
                                      batch_sizes=(2,))
        q_compiled = compile_quantized_plan(
            net.inference_plan().quantize(16), shape, batch_sizes=(2,))
        assert (q_compiled.static_arena_bytes(2)
                < float_compiled.static_arena_bytes(2))

    def test_zoo_kernel_strategies(self, zoo_network):
        """Every depthwise conv runs ``dw-gemm`` and every max-pool the
        ``taps`` loop; the counts match the network's own layer specs."""
        net = zoo_network
        qplan = net.inference_plan().quantize(16)
        program = compile_quantized_plan(qplan, _input_shape(net)).program(1)
        strategies = program.strategies
        layer_specs = [node.spec for node in net.spec.nodes]
        dw = [s.name for s in qplan.steps
              if s.kind == "qconv" and s.op.depthwise]
        pools = [s.name for s in qplan.steps
                 if isinstance(s.op, QuantizedMaxPool)]
        assert len(dw) == sum(isinstance(ls, spec.Conv2D)
                              and ls.is_depthwise for ls in layer_specs)
        assert len(pools) == sum(isinstance(ls, spec.Pool2D)
                                 and ls.mode == "max" for ls in layer_specs)
        assert all(strategies[name] == "dw-gemm" for name in dw)
        assert all(strategies[name].startswith("taps") for name in pools)
        if "MobileNet" in net.spec.name:
            assert dw
        for name in dw + pools:
            assert f"[{strategies[name]}]" in program.describe()

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("pool_relu", [True, False])
    def test_bit_identical_on_shapes_the_zoo_lacks(self, batch, pool_relu):
        """Odd planes, a padded 3x3/s2 max-pool (with and without a fused
        ReLU), a 2x2/s2 pool and a stride-2 padded depthwise conv."""
        b = NetworkBuilder("odd-int16", TensorShape(3, 11, 13))
        b.conv("c1", 6, kernel_size=3, padding=1, activation="identity")
        b.pool("mp3", kernel_size=3, stride=2, padding=1)
        b.depthwise_conv("dw", kernel_size=3, stride=2, padding=1,
                         activation="identity")
        b.conv("pw", 8, kernel_size=1, activation="identity")
        b.pool("mp2", kernel_size=2, stride=2)
        b.global_avg_pool("gap")
        b.dense("fc", 5, activation="identity")
        net = GraphNetwork(b.build(), rng=np.random.default_rng(6),
                           batch_norm=True)
        _randomize_running_stats(net)
        plan = net.eval().inference_plan()
        if pool_relu:  # no graph node fuses a ReLU into a pool
            next(s for s in plan.steps
                 if s.name == "mp3").op.activation = layers.ReLU()
        qplan = plan.quantize(16)
        compiled = compile_quantized_plan(qplan, (3, 11, 13),
                                          batch_sizes=(batch,))
        strategies = compiled.program(batch).strategies
        assert strategies["mp3"] == ("taps+relu" if pool_relu else "taps")
        assert strategies["mp2"] == "taps"
        assert strategies["dw"] == "dw-gemm"
        x = np.random.default_rng(batch).normal(size=(batch, 3, 11, 13))
        np.testing.assert_array_equal(compiled.run(x), qplan.run(x))
        assert compiled.fallbacks == 0

    def test_run_quantized_entry(self):
        net = make_net()
        xs = images(2)
        qplan = net.inference_plan().quantize(16)
        compiled = compile_quantized_plan(qplan, (3, 8, 8), batch_sizes=(2,))
        q, scales = quantize_batch(xs, 16)
        np.testing.assert_array_equal(compiled.run_quantized(q, scales),
                                      qplan.run(xs))

    def test_fallback_and_autocompile(self):
        net = make_net()
        qplan = net.inference_plan().quantize(16)
        compiled = compile_quantized_plan(qplan, (3, 8, 8), batch_sizes=(2,))
        # Unplanned batch size falls back to the interpreted twin...
        np.testing.assert_array_equal(compiled.run(images(5)),
                                      qplan.run(images(5)))
        assert compiled.batch_sizes == (2,)
        # ...while autocompile grows the program set instead.
        auto = compile_quantized_plan(qplan, (3, 8, 8), batch_sizes=(2,),
                                      autocompile=True)
        auto.run(images(5))
        assert 5 in auto.batch_sizes

    def test_int8_compiled(self):
        net = make_net()
        xs = images(4)
        qplan = net.inference_plan().quantize(8)
        compiled = compile_quantized_plan(qplan, (3, 8, 8), batch_sizes=(4,))
        np.testing.assert_array_equal(compiled.run(xs), qplan.run(xs))

    def test_clone_shares_programs(self):
        net = make_net()
        qplan = net.inference_plan().quantize(16)
        compiled = compile_quantized_plan(qplan, (3, 8, 8), batch_sizes=(2,))
        clone = compiled.clone()
        assert clone._programs is compiled._programs
        xs = images(2)
        np.testing.assert_array_equal(clone.run(xs), compiled.run(xs))


# -- quantized serving -------------------------------------------------------


class TestQuantizedServing:
    def test_thread_serving_bit_identical(self):
        net = make_net()
        reference = net.inference_plan().quantize(16)
        xs = images(12)
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=5.0,
                              quantized_bits=16)
        with Server.for_network(net, config) as server:
            results = [f.result(timeout=30)
                       for f in [server.submit(x) for x in xs]]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result,
                                          reference.run(xs[i:i + 1])[0])

    def test_thread_serving_int8(self):
        net = make_net()
        reference = net.inference_plan().quantize(8)
        xs = images(4)
        config = ServerConfig(workers=1, max_batch_size=4,
                              quantized_bits=8)
        with Server.for_network(net, config) as server:
            results = [f.result(timeout=30)
                       for f in [server.submit(x) for x in xs]]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result,
                                          reference.run(xs[i:i + 1])[0])

    def test_process_serving_bit_identical(self):
        net = make_net()
        reference = net.inference_plan().quantize(16)
        xs = images(8)
        config = ServerConfig(workers=1, max_batch_size=4, max_wait_ms=2.0,
                              worker_mode="process", quantized_bits=16)
        with Server.for_network(net, config) as server:
            ring = server._procpool._req_rings[0]
            assert ring.handle.payload_dtype == "<i2"
            results = [f.result(timeout=60)
                       for f in [server.submit(x) for x in xs]]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result,
                                          reference.run(xs[i:i + 1])[0])

    def test_config_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            ServerConfig(quantized_bits=1)
        with pytest.raises(ValueError):
            ServerConfig(quantized_bits=17)
        with pytest.raises(ValueError):
            ServerConfig(compiled=True, quantized_bits=16)


# -- the experiments artifact ------------------------------------------------


class TestQuantizationExperiment:
    def test_int16_accuracy_within_half_percent(self):
        from repro.experiments.quantization import (
            format_quantization,
            run_quantization,
        )
        report = run_quantization(quant_bits=(16,))
        row = report.rows[0]
        assert row.accuracy_delta <= 0.005  # the issue's acceptance bar
        assert row.agreement >= 0.99
        assert row.within_oracle_tolerance
        assert row.peak_live_ratio <= 0.3
        rendered = format_quantization(report)
        assert "int16" in rendered
        assert "oracle" in rendered

    def test_runner_quant_artifact_and_flag_matrix(self):
        from repro.experiments import run

        out = run(["quant"], quant_bits=16)
        assert "int16" in out and "int8" not in out
        with pytest.warns(UserWarning, match="--quant-bits ignored"):
            run(["t1"], quant_bits=8)
