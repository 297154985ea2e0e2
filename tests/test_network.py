import copy
import inspect
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from maqd import datasets, export, network, parallel, quantizer, training
from maqd.export import _run_conv, import_model, parity_check, runtime_infer
from maqd.network import (ActQuant, AvgPool2, Conv2d, GlobalAvgPool, ModelGraph,
                          NormLayer, ReLU, ResidualBlock, build_model)
from maqd.normalization import (Mode, NormKind, NormLayerState, norm_backward,
                                norm_forward, weight_standardize,
                                weight_standardize_backward)
from maqd.quantizer import QuantConfig, activation_surrogate_grad, round_half_away
from gradcheck import numeric_grad, rel_err
from layout import channels_last, is_c_order, is_channels_last

RNG = lambda s=0: np.random.default_rng(s)


class TestConv2d:
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_padded_window_einsum(self, tmp_path, dtype, kernel):
        # Oracle for the column order of the patch matrix against the weight
        # order: both the trainer and the runtime conv against an einsum over
        # explicitly padded windows, odd height, even width, 3 channels.
        rng = RNG(0)
        conv = Conv2d(3, 4, kernel=kernel, rng=rng, weight_standardized=False, dtype=dtype)
        x = rng.normal(size=(2, 3, 5, 6)).astype(dtype)
        w = conv.weight.data.astype(np.float64)
        pad = conv.padding
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = np.array([[xp[:, :, i:i + kernel, j:j + kernel] for j in range(6)]
                        for i in range(5)])               # (h, w, n, c, k, k)
        expected = np.einsum("ocab,hwncab->nohw", w, win)
        # the runtime's conv, bound by the import of the exported conv
        export.export(ModelGraph([conv, GlobalAvgPool()], "conv", 4, None, NormKind.LBN),
                      tmp_path / "conv.maqd")
        leaf = import_model(tmp_path / "conv.maqd").layers[0]
        y = conv.forward(x, Mode.EVAL)
        assert y.dtype == dtype
        for out in (y, _run_conv(leaf, x)):
            if dtype == np.float64:
                np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
            else:
                # float32 sums of 27 products: relative to the output scale
                np.testing.assert_allclose(out, expected, rtol=1e-5,
                                           atol=1e-5 * np.max(np.abs(expected)))

    def test_zero_weights(self):
        rng = RNG(1)
        conv = Conv2d(2, 2, kernel=3, rng=rng, weight_standardized=False)
        conv.weight.data[...] = 0.0
        x = rng.normal(size=(1, 2, 4, 4))
        y = conv.forward(x, Mode.TRAIN)
        assert not np.any(y)
        gx = conv.backward(np.ones_like(y))
        assert not np.any(gx)

    def test_matches_finite_differences(self):
        rng = RNG(2)
        conv = Conv2d(2, 3, kernel=3, rng=rng, weight_standardized=False)
        x = rng.normal(size=(1, 2, 4, 4))
        y = conv.forward(x, Mode.TRAIN)
        up = rng.normal(size=y.shape)
        conv.weight.zero_grad()
        gx = conv.backward(up)

        def loss_x(xv):
            return float(np.sum(conv.forward(xv, Mode.EVAL) * up))

        def loss_w(wv):
            old = conv.weight.data.copy()
            conv.weight.data[...] = wv
            out = float(np.sum(conv.forward(x, Mode.EVAL) * up))
            conv.weight.data[...] = old
            return out

        assert rel_err(numeric_grad(loss_x, x), gx) < 1e-5
        assert rel_err(numeric_grad(loss_w, conv.weight.data), conv.weight.grad) < 1e-5

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_backward_is_exact_transpose(self, kernel):
        # <y, A x> == <A^T y, x> for the linear map; odd height, even width
        rng = RNG(3)
        conv = Conv2d(2, 3, kernel=kernel, rng=rng, weight_standardized=False)
        x = rng.normal(size=(2, 2, 5, 6))
        y = conv.forward(x, Mode.TRAIN)
        u = rng.normal(size=y.shape)
        conv.weight.zero_grad()
        atu = conv.backward(u)
        assert np.sum(y * u) == pytest.approx(np.sum(atu * x), rel=1e-10)

    @pytest.mark.parametrize("h,w", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_small_maps_keep_their_extent(self, tmp_path, kernel, h, w):
        # a "same" conv on maps no wider than its kernel: the trainer, its
        # transpose and the runtime conv all keep the input's extent
        rng = RNG(6)
        conv = Conv2d(2, 3, kernel=kernel, rng=rng, weight_standardized=False)
        assert (conv.stride, conv.padding) == (1, kernel // 2)
        x = rng.normal(size=(2, 2, h, w))
        y = conv.forward(x, Mode.TRAIN)
        assert y.shape == (2, 3, h, w)
        u = rng.normal(size=y.shape)
        conv.weight.zero_grad()
        atu = conv.backward(u)
        assert atu.shape == x.shape
        assert np.sum(y * u) == pytest.approx(np.sum(atu * x), rel=1e-10)
        export.export(ModelGraph([conv, GlobalAvgPool()], "conv", 3, None, NormKind.LBN),
                      tmp_path / "conv.maqd")
        leaf = import_model(tmp_path / "conv.maqd").layers[0]
        np.testing.assert_allclose(_run_conv(leaf, x), y, rtol=0, atol=1e-12)

    def test_one_pixel_map_sees_only_the_center_tap(self):
        # padding by 1 puts every other tap of a 3x3 kernel on zeros
        rng = RNG(7)
        conv = Conv2d(4, 3, kernel=3, rng=rng, weight_standardized=False)
        center = conv.weight.data[:, :, 1, 1]
        x = rng.normal(size=(5, 4, 1, 1))
        y = conv.forward(x, Mode.TRAIN)
        np.testing.assert_allclose(y[:, :, 0, 0], x[:, :, 0, 0] @ center.T,
                                   rtol=0, atol=1e-12)
        u = rng.normal(size=y.shape)
        conv.weight.zero_grad()
        gx = conv.backward(u)
        np.testing.assert_allclose(gx[:, :, 0, 0], u[:, :, 0, 0] @ center,
                                   rtol=0, atol=1e-12)
        # the weight gradient reaches the center tap alone
        off_center = conv.weight.grad.copy()
        off_center[:, :, 1, 1] = 0.0
        assert not np.any(off_center)
        np.testing.assert_allclose(conv.weight.grad[:, :, 1, 1],
                                   u[:, :, 0, 0].T @ x[:, :, 0, 0], rtol=0, atol=1e-12)

    def test_shape_validation(self):
        conv = Conv2d(2, 2, kernel=3, rng=RNG(4))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 4, 4)), Mode.EVAL)
        with pytest.raises(ValueError):
            Conv2d(1, 1, kernel=5, rng=RNG(4))

    def test_quantized_backward_matches_scalar_oracle(self):
        rng = RNG(5)
        cfg = QuantConfig(m_w=3, m_a=4)
        conv = Conv2d(1, 2, kernel=1, rng=rng, weight_standardized=False, quant=cfg)
        x = rng.normal(size=(2, 1, 2, 2))
        y = conv.forward(x, Mode.TRAIN)
        up = rng.normal(size=y.shape)
        conv.weight.zero_grad()
        conv.backward(up)
        # slow path: grad through conv to effective weight, then the indicator
        w = conv.weight.data.reshape(2, 1)
        grad_w_eff = np.einsum("nohw,nchw->oc", up, x)
        indicator = (np.abs(cfg.s * w) < 1).astype(float)
        np.testing.assert_allclose(conv.weight.grad.reshape(2, 1),
                                   grad_w_eff * indicator, atol=1e-12)


def _code_oracle(conv, codes, pools, dtype, divide=True):
    """The EVAL output of a conv that reads the integer codes `codes` of an
    m_a-state quantizer through `pools` 2x2 mean pools: the exact int64 sum
    of the sum-pooled codes times the weight lattice clip(2*state, -2q, 2q)
    over explicitly padded windows, scaled by 4**-pools (exact), divided
    once by (m_a-1) * 2q in float64 unless `divide` is false, and cast to
    dtype."""
    for _ in range(pools):
        codes = (codes[..., 0::2, 0::2] + codes[..., 0::2, 1::2]
                 + codes[..., 1::2, 0::2] + codes[..., 1::2, 1::2])
    q, k = conv.quant.weight_qscale, conv.kernel
    two_q = int(2 * q)
    states = round_half_away(conv.effective_weight()[0] * q).astype(np.int64)
    lattice = np.clip(2 * states, -two_q, two_q).reshape(conv.out_ch, conv.in_ch, k, k)
    xp = np.pad(codes, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    sums = np.einsum("nchwij,ocij->nohw", win, lattice)
    divisor = float((conv.quant.m_a - 1) * two_q) if divide else 1.0
    return (sums * 4.0 ** -pools / divisor).astype(dtype)


def _leaf_walk(layers, x, outputs):
    """Run `layers` one leaf EVAL forward at a time from x, each output
    bitwise `outputs[id(layer)]`, what the graph's visitor saw. A conv that
    reads codes also equals the int64 oracle on the codes that the ActQuant
    before it emitted, its sums undivided in the codes' dtype where it ends
    a branch whose block folds its end, or where the ActQuant behind its
    norm folds it. Returns the last output."""
    seen = []
    for i, layer in enumerate(layers):
        x = layer.forward(x, Mode.EVAL)
        assert x.dtype == outputs[id(layer)].dtype
        np.testing.assert_array_equal(outputs[id(layer)], x)
        if isinstance(layer, Conv2d) and layer.codes is not None:
            pools = next(p for p in range(i) if not isinstance(layers[i - 1 - p], AvgPool2))
            act = layers[i - 1 - pools]
            assert isinstance(act, ActQuant) and act.codes is layer.codes
            codes = seen[i - 1 - pools]
            np.testing.assert_array_equal(codes, np.rint(codes))
            sums = layer.block_end or layer.folded
            dtype = layer.codes.dtype if sums else layer.weight.data.dtype
            np.testing.assert_array_equal(x, _code_oracle(layer, codes.astype(np.int64), pools,
                                                          dtype, divide=not sums))
        seen.append(x)
    return x


def _manual_eval(layers, x):
    """Each leaf's EVAL forward in turn, a residual block's branches joined
    by the block."""
    for layer in layers:
        if isinstance(layer, ResidualBlock):
            x = layer.join(x, _manual_eval(layer.s_branch, x), _manual_eval(layer.f_branch, x),
                           Mode.EVAL)
        else:
            x = layer.forward(x, Mode.EVAL)
    return x


# At the default s = 1/3 these seed-3 nets put about 0.5% of their weights
# off state 0 (R_w), so a parity test would multiply almost only zeros; at
# s = 3 about two thirds of them are off it.
LIVE = QuantConfig(s=3.0)


def _blocked_case(kernel, dtype, seed, in_ch=16, out_ch=16, block=network._BLOCK_BYTES,
                  samples=3):
    """A conv of in_ch to out_ch channels and a batch spanning three or more
    blocks of `block` bytes of patch matrix of its wider side, the last one
    ragged: square images of the extent that makes about `samples` samples
    a block. Returns the conv, the batch and the samples per block."""
    itemsize = np.dtype(dtype).itemsize
    channels = max(in_ch, out_ch)
    hw = math.isqrt(block // (samples * kernel * kernel * channels * itemsize))
    step = block // (hw * hw * kernel * kernel * channels * itemsize)
    n = 2 * step + max(1, step // 2)
    rng = RNG(seed)
    conv = Conv2d(in_ch, out_ch, kernel, rng=rng, weight_standardized=False, dtype=dtype)
    x = rng.normal(size=(n, in_ch, hw, hw)).astype(dtype)
    return conv, x, step


def _patches(x, k):
    """x's whole patch matrix, gathered by `network._im2col` into a new
    buffer."""
    n, c, h, w = x.shape
    return network._im2col(x, k, np.empty((n * h * w, k * k * c), x.dtype))


def _one_shot(conv, x, up):
    """The whole-batch conv the blocked kernel replaces: one patch matrix of
    the whole batch and one GEMM each way. The input gradient's GEMM reads
    the patch matrix of the upstream and the flipped weight with in and out
    channels swapped. Returns (y, grad_x, grad_w), grad_w summed in float64:
    a float32 GEMM over a whole batch's pixels is itself off by about 1e-6
    of its largest entry."""
    k = conv.kernel
    n, c, h, w = x.shape
    w2d = conv.weight.data.reshape(conv.out_ch, -1)
    cols = _patches(x, k)
    y = (cols @ network._tap_major(w2d, c, k).T).reshape(
        n, h, w, conv.out_ch).transpose(0, 3, 1, 2)
    g2 = up.transpose(0, 2, 3, 1).reshape(-1, conv.out_ch)
    grad_w = (np.ascontiguousarray(g2.T, np.float64) @ cols.astype(np.float64)).reshape(
        conv.out_ch, -1, c).transpose(0, 2, 1).reshape(conv.weight.data.shape)
    w_flip = conv.weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    grad_x = (_patches(up, k) @ network._tap_major(w_flip, conv.out_ch, k).T).reshape(
        n, h, w, c).transpose(0, 3, 1, 2)
    return y, grad_x, grad_w


class TestBlockedConv:
    """Both directions of the conv run one of `network._blocks` at a time,
    a block's patch matrix being at most
    network._BLOCK_BYTES // network._BWD_IN_FLIGHT. The blocks must not
    show in the forward or the input gradient: their values are rows of the
    same GEMMs as the one-shot conv's. That holds as far as the BLAS
    computes a GEMM row the same way whatever the row count: OpenBLAS on
    AVX-512 does not for some small or narrow float64 GEMMs (3 input
    channels, for one), whose rows then differ in the last bit. The weight
    gradient sums the blocks' products in another order."""

    @pytest.mark.parametrize("in_ch, out_ch", [(16, 16), (3, 16), (24, 8)])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("dtype, bound", [(np.float32, 1e-6), (np.float64, 1e-13)])
    def test_matches_the_one_shot_conv(self, kernel, dtype, bound, in_ch, out_ch):
        # in != out: a swap of the in and out axes of the flipped weight or
        # of the weight gradient's layout shows
        conv, x, step = _blocked_case(kernel, dtype, seed=40, in_ch=in_ch, out_ch=out_ch)
        assert x.shape[0] > 2 * step and x.shape[0] % step
        y = conv.forward(x, Mode.TRAIN)
        up = RNG(41).normal(size=y.shape).astype(dtype)
        assert len(network._blocks(up.shape, up.itemsize, kernel)) >= 2
        conv.weight.zero_grad()
        grad_x = conv.backward(up)
        y_ref, grad_x_ref, grad_w_ref = _one_shot(conv, x, up)
        assert y.dtype == grad_x.dtype == dtype and y.transpose(0, 2, 3, 1).flags.c_contiguous
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(conv.forward(x, Mode.EVAL), y_ref)
        if dtype == np.float64 and in_ch == 3:
            # the narrow float64 GEMM of the class docstring: its rows
            # depend on the row count, so the blocks show in the last bit
            np.testing.assert_allclose(grad_x, grad_x_ref, rtol=0,
                                       atol=bound * np.max(np.abs(grad_x_ref)))
        else:
            np.testing.assert_array_equal(grad_x, grad_x_ref)
        assert (np.max(np.abs(conv.weight.grad - grad_w_ref))
                <= bound * np.max(np.abs(grad_w_ref)))

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("dtype, bound", [(np.float32, 1e-6), (np.float64, 1e-13)])
    def test_backward_of_one_sample(self, kernel, dtype, bound):
        conv, x, _ = _blocked_case(kernel, dtype, seed=49, in_ch=5, out_ch=7)
        x = x[:1]
        up = RNG(50).normal(size=conv.forward(x, Mode.TRAIN).shape).astype(dtype)
        assert network._blocks(up.shape, up.itemsize, kernel) == [slice(0, 1)]
        conv.weight.zero_grad()
        grad_x = conv.backward(up)
        _, grad_x_ref, grad_w_ref = _one_shot(conv, x, up)
        np.testing.assert_array_equal(grad_x, grad_x_ref)
        assert (np.max(np.abs(conv.weight.grad - grad_w_ref))
                <= bound * np.max(np.abs(grad_w_ref)))

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_backward_of_an_empty_batch(self, kernel, input_grad):
        # one empty block: a zero weight gradient and an empty input gradient
        conv = Conv2d(3, 5, kernel, rng=RNG(51), dtype=np.float32)
        x = np.zeros((0, 3, 6, 7), np.float32)
        y = conv.forward(x, Mode.TRAIN)
        assert y.shape == (0, 5, 6, 7)
        assert network._blocks(y.shape, y.itemsize, kernel) == [slice(0, 0)]
        conv.weight.zero_grad()
        grad_x = conv.backward(y, input_grad)
        assert not np.any(conv.weight.grad)
        if input_grad:
            assert grad_x.shape == x.shape and grad_x.dtype == np.float32
        else:
            assert grad_x is None

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("cfg", [QuantConfig(), LIVE, None],
                             ids=["conv_q", "conv_q_live", "conv_f"])
    def test_runtime_parity(self, tmp_path, monkeypatch, kernel, cfg):
        # a CONV_Q after an ACT_Q runs on float32 codes, a CONV_F on float64
        # values; the batch spans three or more blocks of that dtype. The
        # default lattice leaves most 3x3 weights at state 0, the live one
        # few of them
        quantized = cfg is not None
        _, x, step = _blocked_case(kernel, np.float32 if quantized else np.float64, seed=42)
        graph = ModelGraph(
            [ActQuant(cfg), Conv2d(16, 16, kernel, rng=RNG(43), quant=cfg)]
            if quantized else [Conv2d(16, 16, kernel, rng=RNG(43))],
            "blocked", 16, cfg, NormKind.LBN)
        graph.layers.append(GlobalAvgPool())
        if cfg is LIVE:
            assert training.compute_r_w(graph)[0] > 0.5
        export.export(graph, tmp_path / "m.maqd")
        model = import_model(tmp_path / "m.maqd")
        gathers = []
        im2col = export._im2col

        def probe(*a):
            out = im2col(*a)
            gathers.append((a[0].shape[0], out.nbytes))
            return out

        monkeypatch.setattr(export, "_im2col", probe)
        images = x.astype(np.float64)
        report = parity_check(graph, model, images, batch_size=images.shape[0])
        assert report.max_abs_logit_diff < 1e-9
        assert report.argmax_agreement == 1.0
        # the blocks run in any order on the pool's threads; together they
        # gather every sample once, each at most one block of patch matrix
        blocks = [m for m, _ in gathers]
        assert len(blocks) >= 3 and sum(blocks) == x.shape[0]
        assert all(nbytes <= network._BLOCK_BYTES // network._BWD_IN_FLIGHT
                   for _, nbytes in gathers)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_input_gradient_runs_in_blocks(self, monkeypatch, kernel):
        # both gradients come from one gather of the upstream per block, in
        # blocks that run in any order on the pool's threads, each of at
        # most _BLOCK_BYTES // _BWD_IN_FLIGHT of patch matrix; no gather
        # reads the taped x
        conv, x, step = _blocked_case(kernel, np.float32, seed=47)
        up = RNG(48).normal(size=conv.forward(x, Mode.TRAIN).shape).astype(np.float32)
        gathers = []
        im2col = network._im2col

        def probe(*a):
            out = im2col(*a)
            gathers.append((np.shares_memory(a[0], x), a[0].shape[0], out.nbytes))
            return out

        monkeypatch.setattr(network, "_im2col", probe)
        conv.backward(up)
        assert not any(reads_x for reads_x, _, _ in gathers)
        blocks = [m for _, m, _ in gathers]
        assert len(blocks) >= 3 and sum(blocks) == x.shape[0]
        assert all(nbytes <= network._BLOCK_BYTES // network._BWD_IN_FLIGHT
                   for _, _, nbytes in gathers)

    def test_tape_is_the_input_and_one_block(self):
        # and the weight-sized effective weight; the whole batch's patch
        # matrix would be 2.3 blocks here
        conv, x, step = _blocked_case(3, np.float32, seed=44)
        conv.forward(x, Mode.TRAIN)
        per_sample = _patches(x[:1], 3).nbytes
        w2d = conv.effective_weight()[0]
        assert conv.cache_nbytes() <= x.nbytes + step * per_sample + w2d.nbytes

    def test_float32_train_step_memory_budget(self):
        # the forward's output, one block's patch matrix and its GEMM; the
        # backward's input gradient, and the buffers of the blocks in
        # flight, which hold one block of patch matrix between them
        conv, x, step = _blocked_case(3, np.float32, seed=45)
        block = step * _patches(x[:1], 3).nbytes
        up = RNG(46).normal(size=(x.shape[0], conv.out_ch) + x.shape[2:]).astype(np.float32)
        conv.forward(x, Mode.TRAIN)
        conv.backward(up)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = conv.forward(x, Mode.TRAIN)
            fwd_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            grad_x = conv.backward(up)
            bwd_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert y.dtype == grad_x.dtype == np.float32
        assert fwd_peak < y.nbytes + 1.5 * block
        assert bwd_peak < up.nbytes + x.nbytes + 1.5 * block


class TestPooling:
    def test_avgpool_constant(self):
        p = AvgPool2()
        x = np.full((1, 2, 4, 4), 3.5)
        np.testing.assert_array_equal(p.forward(x, Mode.EVAL), 3.5)

    @pytest.mark.parametrize("dtype,rel", [(np.float32, 1e-6), (np.float64, 1e-15)])
    def test_avgpool_forward_matches_reshape_mean(self, tmp_path, dtype, rel, monkeypatch):
        x = RNG(16).normal(size=(2, 3, 6, 4)).astype(dtype)
        y = AvgPool2().forward(x, Mode.EVAL)
        assert y.dtype == dtype
        expected = x.reshape(2, 3, 3, 2, 2, 2).mean(axis=(3, 5))
        assert np.max(np.abs(y - expected)) <= rel * np.max(np.abs(expected))
        # the runtime's AP2 (float64) is the same kernel, bitwise; the
        # runtime returns only logits, so the pooled map is read off a spy
        pooled = []
        real = network._avg_pool2
        monkeypatch.setattr(network, "_avg_pool2", lambda a: pooled.append(real(a)) or pooled[-1])
        x64 = x.astype(np.float64)
        export.export(ModelGraph([AvgPool2(), GlobalAvgPool()], "pool", 3, None, NormKind.LBN),
                      tmp_path / "pool.maqd")
        runtime_infer(import_model(tmp_path / "pool.maqd"), x64)
        monkeypatch.undo()
        (got,) = pooled
        np.testing.assert_array_equal(got, AvgPool2().forward(x64, Mode.EVAL))

    def test_avgpool_rejects_odd(self):
        with pytest.raises(ValueError):
            AvgPool2().forward(np.zeros((1, 1, 3, 4)), Mode.EVAL)

    def test_avgpool_backward_distributes_quarter(self):
        p = AvgPool2()
        x = RNG(6).normal(size=(1, 1, 4, 4))
        y = p.forward(x, Mode.TRAIN)
        up = np.ones_like(y)
        np.testing.assert_array_equal(p.backward(up), np.full_like(x, 0.25))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backwards_equal_the_repeat_and_broadcast_forms(self, dtype):
        rng = RNG(17)
        x = rng.normal(size=(2, 3, 6, 4)).astype(dtype)
        pool = AvgPool2()
        up = rng.normal(size=pool.forward(x, Mode.TRAIN).shape).astype(dtype)
        got = pool.backward(up)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, np.repeat(np.repeat(up, 2, axis=2), 2, axis=3) * 0.25)
        gap = GlobalAvgPool()
        up = rng.normal(size=gap.forward(x, Mode.TRAIN).shape).astype(dtype)
        got = gap.backward(up)
        assert got.dtype == dtype
        np.testing.assert_array_equal(
            got, np.broadcast_to(up[:, :, None, None] / 24, x.shape))

    def test_gap_value(self):
        g = GlobalAvgPool()
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        assert g.forward(x, Mode.EVAL).item() == 2.5

    @pytest.mark.parametrize("layer_cls", [AvgPool2, GlobalAvgPool])
    def test_backward_is_exact_transpose(self, layer_cls):
        rng = RNG(7)
        layer = layer_cls()
        x = rng.normal(size=(2, 3, 4, 4))
        y = layer.forward(x, Mode.TRAIN)
        u = rng.normal(size=y.shape)
        atu = layer.backward(u)
        assert np.sum(y * u) == pytest.approx(np.sum(atu * x), rel=1e-10)


class TestBuilders:
    def test_vgg_conv_count(self):
        g = build_model("vgg", 10, quant=QuantConfig())
        assert len(g.conv_layers()) == 17  # 16 body convs plus the head

    def test_vgg_spatial_trace(self):
        g = build_model("vgg", 10, quant=QuantConfig(), dtype=np.float32)
        x = RNG(8).normal(size=(1, 3, 32, 32)).astype(np.float32)
        traces = []
        for layer in g.layers:
            if isinstance(layer, Conv2d):
                traces.append(x.shape[2])
            x = layer.forward(x, Mode.EVAL)
        assert sorted(set(traces), reverse=True) == [32, 16, 8, 4]
        assert x.shape == (1, 10)

    def test_vgg_r_a_has_one_fewer_entry_than_convs(self):
        g = build_model("vgg-mini", 10, quant=QuantConfig())
        assert len(g.activation_layers()) == len(g.conv_layers()) - 1

    def test_vgg_head_activation_not_quantized(self):
        g = build_model("vgg", 10, quant=QuantConfig())
        assert isinstance(g.layers[-1], GlobalAvgPool)
        assert isinstance(g.layers[-2], Conv2d)
        assert g.layers[-2].kernel == 1

    def test_preact_shape_contract(self):
        for classes in (10, 100):
            g = build_model("preact_resnet", classes, quant=QuantConfig(),
                            dtype=np.float32)
            x = RNG(9).normal(size=(2, 3, 32, 32)).astype(np.float32)
            assert g.forward(x, Mode.EVAL).shape == (2, classes)

    @pytest.mark.parametrize("quant", [LIVE, None], ids=["quantized", "float"])
    def test_preact_block_is_branch_sum(self, quant):
        # each branch is its leaves' EVAL forwards, and its convs that read
        # codes equal the int64 oracle; the block's one end pass is, up to
        # rounding, the sum of each branch's conv values normalized
        g = build_model("preact-mini", 10, quant=quant, seed=3, input_hw=8)
        g.forward(RNG(90).normal(size=(8, 3, 8, 8)), Mode.TRAIN)
        block = next(l for l in g.layers if isinstance(l, ResidualBlock))
        assert block.folds_end
        x = RNG(10).normal(size=(2, 3, 8, 8))
        outputs = {}
        y = block.forward(x, Mode.EVAL, lambda layer, out: outputs.setdefault(id(layer), out))
        np.testing.assert_array_equal(block.forward(x, Mode.EVAL), y)
        ys = _leaf_walk(block.s_branch, x, outputs)
        yf = _leaf_walk(block.f_branch, x, outputs)
        np.testing.assert_array_equal(y, block.join(x, ys, yf, Mode.EVAL))
        branches = []
        for branch, sums in ((block.s_branch, ys), (block.f_branch, yf)):
            conv, norm = branch[-2:]
            np.testing.assert_array_equal(sums, outputs[id(conv)])  # the norm emits them
            values = sums.astype(np.float64) / (1.0 if conv.codes is None else conv.codes.divisor)
            branches.append(norm_forward(values, norm.state, Mode.EVAL)[0])
        np.testing.assert_allclose(y, branches[0] + branches[1], rtol=0,
                                   atol=1e-14 * np.max(np.abs(y)))

    def test_visit_sees_every_leaf_output_in_order(self):
        g = build_model("preact-mini", 10, quant=QuantConfig())
        x = RNG(11).normal(size=(2, 3, 8, 8))
        seen = []
        logits = g.forward(x, Mode.EVAL, lambda layer, out: seen.append((layer, out)))
        assert [layer for layer, _ in seen] == g.all_layers()
        np.testing.assert_array_equal(seen[-1][1], logits)
        np.testing.assert_array_equal(g.forward(x, Mode.EVAL), logits)
        block = g.layers[0]
        assert isinstance(block, ResidualBlock)
        outputs = {id(layer): out for layer, out in seen}
        for branch in (block.s_branch, block.f_branch):
            _leaf_walk(branch, x, outputs)

    def test_preact_branches_end_with_norm(self):
        g = build_model("preact_resnet", 10, quant=QuantConfig())
        for block in (l for l in g.layers if isinstance(l, ResidualBlock)):
            assert isinstance(block.s_branch[-1], NormLayer)
            assert isinstance(block.f_branch[-1], NormLayer)
            assert len([l for l in block.s_branch if isinstance(l, Conv2d)]) == 2
            assert len([l for l in block.f_branch if isinstance(l, Conv2d)]) == 1

    def test_cnn9_conv_count(self):
        g = build_model("cnn9", 100)
        assert len(g.conv_layers()) == 9

    def test_cnn9_norm_kind_does_not_change_shapes(self):
        x = RNG(11).normal(size=(2, 3, 32, 32)).astype(np.float32)
        shapes = set()
        for kind in NormKind:
            g = build_model("cnn9", 100, norm_kind=kind, dtype=np.float32)
            shapes.add(g.forward(x, Mode.EVAL).shape)
        assert shapes == {(2, 100)}

    def test_build_model_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_model("resnet50", 10)


def _live(arch, dtype, hw=16, norm_kind=NormKind.LBN):
    """A seed-3 `arch` on the live lattice, with running statistics from
    one TRAIN forward."""
    graph = build_model(arch, 10, quant=LIVE, seed=3, dtype=dtype, input_hw=hw,
                        norm_kind=norm_kind)
    graph.forward(RNG(90).normal(size=(8, 3, hw, hw)).astype(dtype), Mode.TRAIN)
    return graph


def _float64_twin(graph):
    """A float64 copy of a graph: its parameters and running statistics,
    what the export writes."""
    twin = copy.deepcopy(graph)
    for p in twin.parameters():
        p.data = p.data.astype(np.float64)
    for layer in twin.all_layers():
        if isinstance(layer, NormLayer):
            st = layer.state
            for name in ("g", "b", "running_mean", "running_var"):
                setattr(st, name, getattr(st, name).astype(np.float64))
    return twin


class TestCodesEval:
    """In EVAL each ActQuant -> AvgPool2* -> quantized conv chain runs on
    integer codes, as the export's runtime does."""

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("norm_kind", list(NormKind))
    def test_code_convs_are_the_int64_oracle(self, arch, dtype, norm_kind):
        # LN's EVAL statistics are per sample, so it runs on its own; BN
        # and LBN run in their ActQuant's code pass
        graph = _live(arch, dtype, norm_kind=norm_kind)
        norms = [l for l in graph.all_layers() if isinstance(l, NormLayer)]
        assert any(l.codes is not None for l in norms) == (norm_kind is not NormKind.LN)
        assert training.compute_r_w(graph)[0] > 0.5
        x = RNG(91).normal(size=(4, 3, 16, 16)).astype(dtype)
        seen = []
        logits = graph.forward(x, Mode.EVAL, lambda layer, out: seen.append((layer, out)))
        np.testing.assert_array_equal(graph.forward(x, Mode.EVAL), logits)
        layers = [layer for layer, _ in seen]
        outputs = {id(layer): out for layer, out in seen}
        readers = [l for l in layers if isinstance(l, Conv2d) and l.codes is not None]
        # every quantized conv but the image and residual-sum readers
        assert len(readers) == {"vgg-mini": 6, "preact-mini": 9}[arch]
        # codes, their pools and the sums of a code conv that ends a branch
        # (which its norm emits; the block's end pass makes values) or whose
        # pair folds (which its norm emits; the ActQuant makes codes) in the
        # CodeConv's dtype; all else in the net's
        code_dtype = None
        for layer, out in seen:
            sums = layer.block_end or layer.folded
            if layer.codes is not None and (isinstance(layer, ActQuant) or sums):
                code_dtype = layer.codes.dtype
            elif not (isinstance(layer, AvgPool2) or sums):
                code_dtype = None
            assert out.dtype == (code_dtype or dtype)
            if isinstance(layer, NormLayer) and layer.block_end:
                code_dtype = None
        lists = [graph.layers] + [b for l in graph.layers if isinstance(l, ResidualBlock)
                                  for b in (l.s_branch, l.f_branch)]
        for layer_list in lists:
            # from the first ActQuant on, on the visited output before it
            start = next((i for i, l in enumerate(layer_list) if isinstance(l, ActQuant)), 0)
            if start:
                _leaf_walk(layer_list[start:], outputs[id(layer_list[start - 1])], outputs)

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("norm_kind", list(NormKind))
    def test_leaf_walk_is_the_graph_forward(self, arch, norm_kind):
        graph = _live(arch, np.float32, norm_kind=norm_kind)
        x = RNG(96).normal(size=(4, 3, 16, 16)).astype(np.float32)
        logits = _manual_eval(graph.layers, x)
        np.testing.assert_array_equal(graph.forward(x, Mode.EVAL), logits)
        np.testing.assert_array_equal(graph.forward(x, Mode.EVAL, lambda l, o: None), logits)

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("norm_kind", [NormKind.BN, NormKind.LBN])
    def test_fused_codes_are_the_quantizer_of_the_norm_output(self, arch, dtype, norm_kind):
        # a chain norm emits its input, and its ActQuant's one pass gives the
        # codes of the quantizer on the norm's own EVAL output
        graph = _live(arch, dtype, norm_kind=norm_kind)
        x = RNG(97).normal(size=(4, 3, 16, 16)).astype(dtype)
        seen = []
        graph.forward(x, Mode.EVAL, lambda layer, out: seen.append((layer, out)))
        fused = 0
        for (norm, x_in), (act, codes) in zip(seen, seen[1:]):
            if not (isinstance(act, ActQuant) and act.norm is norm and norm.codes is not None):
                continue
            fused += 1
            assert x_in is norm.forward(x_in, Mode.EVAL)
            if act.folds is not None:  # the code conv's sums, which it divides unfolded
                x_in = network._code_divide(x_in, act.folds.codes.divisor, dtype)
            values = norm_forward(x_in, norm.state, Mode.EVAL)[0]
            top = act.cfg.m_a - 1
            np.testing.assert_array_equal(
                codes, quantizer.quantize_activation(values, act.cfg.m_a, codes=codes.dtype))
            q = quantizer.quantize_activation(values, act.cfg.m_a)
            np.testing.assert_array_equal(np.divide(codes, top, dtype=dtype), q)
            # k/7 * 7 rounds back to k in float32 and float64 (not so for
            # every m_a - 1: k/13 * 13 need not at float32)
            assert top == 7
            np.testing.assert_array_equal(q * top, codes)
        assert fused == {"vgg-mini": 6, "preact-mini": 9}[arch]

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_match_the_runtime(self, tmp_path, arch, dtype):
        # the float64 copy of the graph is what the export writes
        graph = _live(arch, dtype)
        export.export(graph, tmp_path / "m.maqd")
        model = import_model(tmp_path / "m.maqd")
        x = RNG(92).normal(size=(16, 3, 16, 16)).astype(np.float32)
        report = parity_check(_float64_twin(graph), model, x, batch_size=8)
        assert report.max_abs_logit_diff < 1e-9
        assert report.argmax_agreement == 1.0

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("visit", [None, lambda layer, out: None], ids=["plain", "visit"])
    def test_a_nan_image_is_a_quantizer_error(self, arch, dtype, visit):
        graph = _live(arch, dtype)
        x = RNG(93).normal(size=(2, 3, 16, 16)).astype(dtype)
        x[1, 0, 3, 3] = np.nan
        with pytest.raises(ValueError, match="quantizer input must be finite"):
            graph.forward(x, Mode.EVAL, visit)

    @pytest.mark.parametrize("in_ch,kernel,pooled,dtype", [
        (32, 3, False, np.float64), (32, 1, False, np.float32),
        (16, 3, True, np.float64), (16, 3, False, np.float32)])
    def test_trainer_and_runtime_pick_one_code_dtype(self, tmp_path, in_ch, kernel, pooled,
                                                     dtype):
        # 2q * (m_a-1) = 255 * 255, so fan_in * 2q * (m_a-1) * 4**p is
        # >= 2**24 for fan_in 288, and for fan_in 144 only after a pool
        cfg = QuantConfig(m_w=255, m_a=256)
        rng = RNG(94)
        conv = Conv2d(in_ch, 3, kernel, rng=rng, weight_standardized=False, quant=cfg)
        conv.weight.data[...] = rng.normal(0.0, 4.0, size=conv.weight.data.shape)
        act = ActQuant(cfg)
        graph = ModelGraph([act, *([AvgPool2()] if pooled else []), conv, GlobalAvgPool()],
                           "codes", 3, cfg, NormKind.LBN)
        export.export(graph, tmp_path / "m.maqd")
        model = import_model(tmp_path / "m.maqd")
        act_leaf, conv_leaf = (l for l in model.layers if isinstance(l, (ActQuant, Conv2d)))
        assert act.codes.dtype == conv.codes.dtype == dtype
        assert act_leaf.codes.dtype == conv_leaf.w.dtype == dtype
        codes = rng.integers(0, cfg.m_a, size=(2, in_ch, 6, 6))
        codes[0] = cfg.m_a - 1  # one sample at the largest codes
        images = codes / (cfg.m_a - 1)
        outputs = {}
        graph.forward(images, Mode.EVAL, lambda layer, out: outputs.setdefault(id(layer), out))
        np.testing.assert_array_equal(outputs[id(conv)],
                                      _code_oracle(conv, codes, int(pooled), np.float64))
        report = parity_check(graph, model, images)
        assert report.max_abs_logit_diff < 1e-9
        assert report.argmax_agreement == 1.0

    def test_train_mode_and_float_nets_read_values(self, monkeypatch):
        # whether each conv multiplies the integer weight lattice (codes)
        # or the weight values
        graph = _live("vgg-mini", np.float64)
        calls = []
        conv = network._conv
        monkeypatch.setattr(network, "_conv", lambda x, w, *a: calls.append(
            bool(np.array_equal(w, np.rint(w)))) or conv(x, w, *a))
        x = RNG(95).normal(size=(2, 3, 16, 16))
        graph.forward(x, Mode.EVAL)
        assert calls == [False] + [True] * 6
        calls.clear()
        graph.forward(x, Mode.TRAIN)
        build_model("vgg-mini", 10, seed=3).forward(x, Mode.EVAL)
        assert calls == [False] * 14
        assert all(l.codes is None for l in build_model("cnn9-mini", 10).all_layers())
        leaves = (Conv2d, NormLayer, ActQuant, ReLU, AvgPool2, GlobalAvgPool)
        assert all(list(inspect.signature(c.forward).parameters) == ["self", "x", "mode"]
                   for c in leaves)


def _bisection_fold(m_a, sums, scale, bias, dtype):
    """The fold by bisection over the ordered bit patterns of the whole
    range |sum| <= bound at every threshold, with no estimate: the oracle of
    `network._fold`, which starts each search from the real-valued
    threshold."""
    top, c = m_a - 1, scale.size

    def code(keys):
        s = network._floats(keys, sums.dtype)
        x = network._code_divide(s.reshape(-1, c, 1, 1), sums.divisor, dtype)
        with np.errstate(over="ignore"):
            return quantizer.quantize_activation(x, m_a, codes=np.float32,
                                                 affine=(scale, bias)).reshape(keys.shape)

    t_lo, t_hi = (np.full((top, c), key) for key in
                  network._keys(np.array([-sums.bound, sums.bound], sums.dtype)))
    try:
        code(np.stack([t_lo[0], t_hi[0]]))
    except ValueError:
        return None
    d = np.where(scale < 0, -1, 1)
    k = np.arange(1, top + 1).reshape(-1, 1)
    reached = lambda t: code(d * t) >= k
    t = network._first(reached, t_lo, t_hi)
    out = network._floats(np.where(d > 0, t, 1 - t), sums.dtype)
    never = d * np.inf
    out = np.where(reached(t_lo), -never, np.where(reached(t_hi), out, never)).astype(sums.dtype)
    flip = (d < 0).reshape(1, c, 1, 1)
    return network._Fold(out, flip if flip.any() else None)


def _spread_affine(rng, c):
    """Per-channel (scale, bias) of magnitudes 1e-6 to 1e3, some scales
    negative and about 15% zero."""
    scale = rng.choice([-1.0, 1.0], c) * 10.0 ** rng.uniform(-6, 3, c)
    scale[rng.uniform(size=c) < 0.15] = 0.0
    return scale, rng.normal(0.0, 1.0, c) * 10.0 ** rng.uniform(-6, 1, c)


def _unfolded(graph):
    """A copy of graph with no fold: its convs divide their code sums, its
    norms run their affine in their ActQuant's pass or their own."""
    twin = copy.deepcopy(graph)
    for layer in twin.all_layers():
        layer.folded = False
        if isinstance(layer, ActQuant):
            layer.folds = layer.fold = None
    return twin


def _trained(arch, s, kind, dtype):
    """A seed-5 quantized `arch` on 3x8x8 inputs, trained one epoch."""
    graph = build_model(arch, 4, quant=QuantConfig(s=s), norm_kind=kind, seed=5, dtype=dtype,
                        input_hw=8)
    rng = RNG(50)
    data = datasets.LabeledImageSet(rng.normal(size=(32, 3, 8, 8)).astype(dtype),
                                    rng.integers(0, 4, 32), 4)
    training.train(graph, data, data, epochs=1, batch_size=16, seed=5)
    return graph


def _folding(graph):
    return [l for l in graph.all_layers() if isinstance(l, ActQuant) and l.folds is not None]


def _fresh(graph):
    """A copy of graph whose ActQuants keep no fold yet."""
    twin = copy.deepcopy(graph)
    for act in _folding(twin):
        act.fold = None
    return twin


class TestThresholdFold:
    """A code conv -> BN/LBN norm -> ActQuant triple on float32 code sums
    runs in EVAL as compares on the sums (`network._fold`), in the trainer
    as in the runtime; the fold is made once per norm state."""

    @pytest.mark.parametrize("m_a", [2, 3, 8, 17])
    @pytest.mark.parametrize("pools", [0, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bracket", [network._FOLD_BRACKET, 0], ids=["estimate", "bisection"])
    def test_counts_are_the_unfolded_codes_on_every_sum(self, monkeypatch, m_a, pools, dtype,
                                                        bracket):
        # fan_in 2, 2q = 3: every sum the conv can emit, each multiple of
        # 4**-pools within the bound; a bracket of 0 keys never holds the
        # threshold, so every search runs over the whole range
        monkeypatch.setattr(network, "_FOLD_BRACKET", bracket)
        sums = quantizer.code_conv(2, 1.5, m_a, pools)
        assert network._folds(m_a, sums, network._FOLD_MAX_THRESHOLDS)
        unit = 4 ** pools
        every = np.arange(-sums.bound * unit, sums.bound * unit + 1) / unit
        rng = RNG(10 * m_a + pools)
        scale, bias = _spread_affine(rng, 16)
        fold = network._fold(m_a, sums, scale, bias, dtype)
        assert fold.thresholds.dtype == np.float32 and fold.flip is not None
        x = channels_last(np.broadcast_to(every.astype(np.float32).reshape(1, 1, -1, 1),
                                          (1, 16, every.size, 1)))
        values = network._code_divide(x, sums.divisor, dtype)
        q = quantizer.quantize_activation
        with np.errstate(over="ignore"):
            want = [q(values, m_a, codes=np.float32, affine=(scale, bias)),
                    q(values, m_a, affine=(scale, bias))]
        got = [network._fold_act(fold, x, m_a, codes, dtype, q) for codes in (np.float32, None)]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert len(np.unique(want[0])) >= min(m_a, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_an_affine_that_overflows_has_no_fold(self, dtype):
        sums = quantizer.code_conv(2, 1.5, 8, 0)
        huge = float(np.finfo(dtype).max) / 1.5  # sums / divisor reach 2
        for scale, bias in (([1.0, huge], [0.0, 0.0]), ([1.0, -huge], [0.0, 0.5])):
            scale, bias = np.array(scale), np.array(bias)
            assert network._fold(8, sums, scale, bias, dtype) is None
            ends = np.array([-sums.bound, sums.bound], np.float32).reshape(2, 1, 1, 1)
            x = network._code_divide(np.repeat(ends, 2, axis=1), sums.divisor, dtype)
            with pytest.raises(ValueError, match="must be finite"), np.errstate(all="ignore"):
                quantizer.quantize_activation(x, 8, affine=(scale, bias))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_search_is_the_bisection(self, dtype):
        rng = RNG(20)
        for c in (1, 3, 16, 64):
            for _ in range(24):
                m_a, pools = int(rng.integers(2, 18)), int(rng.integers(0, 3))
                sums = quantizer.code_conv(int(rng.integers(1, 9 * c + 1)),
                                           float(rng.integers(1, 8)) + 0.5, m_a, pools)
                scale, bias = _spread_affine(rng, c)
                want = _bisection_fold(m_a, sums, scale, bias, dtype)
                got = network._fold(m_a, sums, scale, bias, dtype)
                np.testing.assert_array_equal(got.thresholds, want.thresholds)
                assert (got.flip is None) == (want.flip is None)
                if got.flip is not None:
                    np.testing.assert_array_equal(got.flip, want.flip)

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini", "cnn9-mini"])
    @pytest.mark.parametrize("s", [1.0 / 3.0, 3.0], ids=["default", "live"])
    @pytest.mark.parametrize("kind", [NormKind.LBN, NormKind.BN])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_is_bitwise_the_unfolded_eval(self, across_threads, arch, s, kind, dtype):
        graph = _trained(arch, s, kind, dtype)
        unfolded = _unfolded(graph)
        assert len(_folding(graph)) == {"vgg-mini": 5, "preact-mini": 3, "cnn9-mini": 7}[arch]
        assert not _folding(unfolded)
        rng = RNG(51)
        x = rng.normal(size=(64, 3, 8, 8)).astype(dtype)
        data = datasets.LabeledImageSet(x, rng.integers(0, 4, 64), 4)

        def run():
            out = []
            for g in (graph, unfolded):
                res = training.evaluate(g, data, training.LossConfig(), batch_size=64)
                out += [g.forward(x, Mode.EVAL), np.array([res.loss, res.r_a]),
                        np.array(res.r_a_per_layer)]
            for a, b in zip(out[:3], out[3:]):
                np.testing.assert_array_equal(a, b)
            return out

        across_threads(run)
        assert all(act.fold[3] is not None for act in _folding(graph))

    def test_no_fold_where_the_affine_overflows(self):
        # one channel's affine overflows float32 at the ends of the sums'
        # range: that pair has no fold, and its ActQuant divides the sums
        graph = _trained("vgg-mini", 3.0, NormKind.BN, np.float32)
        act = _folding(graph)[0]
        st = act.norm.state
        fan_in = act.folds.codes.bound / act.folds.codes.divisor
        st.g[0] = 2 * float(np.finfo(np.float32).max) / fan_in * np.sqrt(st.running_var[0] + st.eps)
        x = RNG(53).normal(size=(8, 3, 8, 8)).astype(np.float32)
        with np.errstate(over="ignore"):
            logits = graph.forward(x, Mode.EVAL)
            want = _unfolded(graph).forward(x, Mode.EVAL)
        assert act.fold[3] is None
        assert all(a.fold[3] is not None for a in _folding(graph)[1:])
        np.testing.assert_array_equal(logits, want)

    @pytest.mark.parametrize("arch,folds", [("vgg-mini", 5), ("preact-mini", 3),
                                            ("cnn9-mini", 7)])
    def test_one_fold_per_norm_state(self, monkeypatch, arch, folds):
        graph = _fresh(_trained(arch, 3.0, NormKind.BN, np.float32))
        calls = []
        real = network._fold
        monkeypatch.setattr(network, "_fold", lambda *a: calls.append(a) or real(*a))
        rng = RNG(52)
        data = datasets.LabeledImageSet(rng.normal(size=(20, 3, 8, 8)).astype(np.float32),
                                        rng.integers(0, 4, 20), 4)
        training.evaluate(graph, data, training.LossConfig(), batch_size=6)  # 4 batches
        assert len(calls) == folds
        training.evaluate(graph, data, training.LossConfig(), batch_size=6)
        assert len(calls) == folds
        x = data.images[:4]
        norm = _folding(graph)[-1].norm
        for write in (lambda: norm.state.running_var.__imul__(1.5),
                      lambda: norm.g.data.__imul__(-0.5),
                      lambda: norm.b.data.__iadd__(0.25)):
            write()
            calls.clear()
            logits = graph.forward(x, Mode.EVAL)
            assert len(calls) == 1
            np.testing.assert_array_equal(logits, _fresh(graph).forward(x, Mode.EVAL))
            assert len(calls) == 1 + folds

def _unfused_eval(layers, x, relu_outputs):
    """A float net's EVAL forward one unfused pass per leaf: each conv's GEMM
    alone (`_conv` with no epilogue), each norm's `norm_forward`, each
    ReLU's np.maximum; a branch-end norm emits its input and its block joins
    the branches in its one end pass. Appends each ReLU's output to
    `relu_outputs`, in `all_layers` order."""
    for layer in layers:
        if isinstance(layer, ResidualBlock):
            s = _unfused_eval(layer.s_branch, x, relu_outputs)
            x = layer.join(x, s, _unfused_eval(layer.f_branch, x, relu_outputs), Mode.EVAL)
        elif isinstance(layer, Conv2d):
            w_tap = network._tap_major(layer.effective_weight()[0], layer.in_ch, layer.kernel)
            x = network._conv(x, w_tap, layer.kernel, network._im2col)
        elif isinstance(layer, NormLayer):
            x = x if layer.block_end else norm_forward(x, layer.state, Mode.EVAL)[0]
        elif isinstance(layer, ReLU):
            x = np.maximum(x, 0.0)
            relu_outputs.append(x)
        else:
            x = layer.forward(x, Mode.EVAL)
    return x


def _float_net(arch, kind, dtype, hw=16):
    """A seed-3 float `arch` with spread running statistics and (g, b), some
    g zero or negative, so that the ReLUs cut every layer."""
    graph = build_model(arch, 10, quant=None, norm_kind=kind, seed=3, dtype=dtype,
                        input_hw=hw)
    graph.forward(RNG(80).normal(size=(8, 3, hw, hw)).astype(dtype), Mode.TRAIN)
    rng = RNG(81)
    for norm in (l for l in graph.all_layers() if isinstance(l, NormLayer)):
        st = norm.state
        st.g[...] = rng.normal(size=st.g.shape) * (rng.uniform(size=st.g.shape) > 0.15)
        st.b[...] = rng.normal(0.0, 0.5, size=st.b.shape)
        st.running_mean[...] = rng.normal(0.0, 0.2, size=st.running_mean.shape)
        st.running_var[...] = rng.uniform(0.5, 3.0, size=st.running_var.shape)
    return graph


class TestFloatEpilogue:
    """In EVAL a float conv runs the folded affine of the BN or LBN norm
    after it, and the ReLU after that, on each block of its output; a norm
    -> ReLU pair with no conv in front runs as one `affine` pass."""

    @pytest.mark.parametrize("arch", ["cnn9-mini", "preact-mini"])
    @pytest.mark.parametrize("kind", [NormKind.BN, NormKind.LBN])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_and_r_a_are_the_unfused_walk(self, arch, kind, dtype):
        graph = _float_net(arch, kind, dtype)
        x = RNG(82).normal(size=(5, 3, 16, 16)).astype(dtype)
        relu_outputs = []
        want = _unfused_eval(graph.layers, x, relu_outputs)
        logits = graph.forward(x, Mode.EVAL)
        assert logits.dtype == want.dtype == dtype
        np.testing.assert_array_equal(logits, want)
        data = datasets.LabeledImageSet(images=x, labels=np.arange(5), class_count=10)
        result = training.evaluate(graph, data, training.LossConfig())
        per_layer = [training.compute_r_a(out) / x.shape[0] for out in relu_outputs]
        assert 0 < min(per_layer) and max(per_layer) < 1
        assert result.r_a_per_layer == per_layer
        assert result.r_a == float(np.average(per_layer,
                                              weights=[out[0].size for out in relu_outputs]))
        assert result.loss == training.combined_loss(want, data.labels,
                                                     training.LossConfig())[0]

    @pytest.mark.parametrize("arch", ["cnn9-mini", "preact-mini"])
    def test_which_layers_fuse(self, arch):
        # every body conv of cnn9-mini takes its norm and ReLU; preact-mini's
        # mid-branch convs do, its branch heads' norms run their ReLU, and
        # its branch ends fold into the block's end pass
        graph = build_model(arch, 10, quant=None, norm_kind=NormKind.BN)
        layers = graph.all_layers()
        convs = [l for l in layers if isinstance(l, Conv2d)]
        norms = [l for l in layers if isinstance(l, NormLayer)]
        relus = [l for l in layers if isinstance(l, ReLU)]
        assert all(l.fused for l in relus)
        with_norm = [c for c in convs if c.norm is not None]
        assert all(c.relu and c.norm.fused and layers[layers.index(c) + 1] is c.norm
                   for c in with_norm)
        heads = [n for n in norms if n.relu]
        assert all(not n.fused for n in heads)
        if arch == "cnn9-mini":
            assert (len(with_norm), len(heads)) == (8, 0) and with_norm == convs[:-1]
        else:
            assert (len(with_norm), len(heads)) == (3, 6)
            assert len([n for n in norms if n.block_end and not n.fused]) == 6
        # a quantized net's norms feed ActQuants: nothing fuses
        q = build_model(arch, 10, quant=QuantConfig(), norm_kind=NormKind.BN).all_layers()
        assert not any(l.norm for l in q if isinstance(l, Conv2d))
        assert not any(l.fused or l.relu for l in q)

    def test_cnn9_eval_runs_no_norm_or_relu_pass(self, monkeypatch):
        # the convs' blocks run every folded affine and every ReLU: no
        # norm_forward and no affine runs, and each norm and ReLU emits the
        # very array its conv wrote
        graph = _float_net("cnn9-mini", NormKind.BN, np.float32)
        x = RNG(83).normal(size=(4, 3, 16, 16)).astype(np.float32)
        want = graph.forward(x, Mode.EVAL)
        calls = []
        for name in ("norm_forward", "affine"):
            monkeypatch.setattr(network, name, lambda *a, name=name: calls.append(name))
        seen = []
        logits = graph.forward(x, Mode.EVAL, lambda layer, out: seen.append((layer, out)))
        np.testing.assert_array_equal(logits, want)
        assert calls == []
        for (conv, y), (norm, y_norm), (relu, y_relu) in zip(seen, seen[1:], seen[2:]):
            if isinstance(conv, Conv2d) and conv.norm is not None:
                assert norm is conv.norm and isinstance(relu, ReLU)
                assert y_norm is y and y_relu is y and y.min() == 0


class TestModelGradients:
    def _tiny_model(self, norm_kind, use_ws):
        return build_model("cnn9-mini", 4, quant=None, norm_kind=norm_kind,
                           use_ws=use_ws, seed=3)

    @pytest.mark.parametrize("norm_kind", list(NormKind))
    @pytest.mark.parametrize("use_ws", [True, False])
    def test_tiny_model_matches_finite_differences(self, norm_kind, use_ws):
        # two convs + norm + activation + head, exercised through a dot loss
        rng = RNG(12)
        layers = []
        g = ModelGraph(layers, "tiny", 3, None, norm_kind)
        layers.append(Conv2d(2, 3, kernel=3, rng=rng, weight_standardized=use_ws))
        layers.append(NormLayer(norm_kind, 3))
        layers.append(ReLU())
        layers.append(Conv2d(3, 3, kernel=1, rng=rng, weight_standardized=use_ws))
        layers.append(GlobalAvgPool())

        x = rng.normal(size=(2, 2, 6, 6))
        up = rng.normal(size=(2, 3))
        logits = g.forward(x, Mode.TRAIN)
        g.zero_grad()
        g.backward(up)

        for p in g.parameters():
            def loss(v, p=p):
                old = p.data.copy()
                p.data[...] = v
                out = float(np.sum(g.forward(x, Mode.TRAIN) * up))
                p.data[...] = old
                return out

            assert rel_err(numeric_grad(loss, p.data), p.grad) < 1e-4, p.name

    def test_backward_skips_only_the_graph_input_gradient(self, monkeypatch):
        # the same parameter gradients as the full layer-by-layer chain; the
        # leading conv's backward is the one call that forms no input gradient
        g = build_model("vgg-mini", 10, seed=0)
        x = RNG(16).normal(size=(2, 3, 8, 8))
        up = RNG(17).normal(size=(2, 10))
        calls = []
        col2im = network._col2im
        monkeypatch.setattr(network, "_col2im",
                            lambda *a: calls.append((a[2].shape, a[4])) or col2im(*a))

        def grads(backward):
            g.forward(x, Mode.TRAIN)
            g.zero_grad()
            calls.clear()
            backward()
            return [p.grad.copy() for p in g.parameters()], list(calls)

        def chain():
            gr = up
            for layer in reversed(g.layers):
                gr = layer.backward(gr)

        full, full_calls = grads(chain)
        got, got_calls = grads(lambda: g.backward(up))
        assert all(np.array_equal(a, b) for a, b in zip(full, got))
        # the last call is the leading conv's, the only one whose weight
        # reads the 3 input channels
        assert len(full_calls) == len(g.conv_layers()) == len(got_calls)
        assert full_calls[-1][0] == (16, 3 * 9)
        assert [shape for shape, _ in got_calls] == [shape for shape, _ in full_calls]
        assert all(flag for _, flag in full_calls)
        assert [flag for _, flag in got_calls] == [True] * (len(got_calls) - 1) + [False]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_leading_residual_block_forms_no_input_gradient(self, monkeypatch, dtype):
        # the same parameter gradients as the full layer-by-layer chain; the
        # leading block's two branch-head norms are the only norm backwards
        # that form no input gradient
        g = build_model("preact-mini", 10, quant=QuantConfig(), seed=0, dtype=dtype,
                        input_hw=8)
        x = RNG(18).normal(size=(2, 3, 8, 8)).astype(dtype)
        up = RNG(19).normal(size=(2, 10)).astype(dtype)
        block = g.layers[0]
        heads = (block.s_branch[0], block.f_branch[0])
        calls = []
        real = network.norm_backward

        def spy(cache, upstream, *flag):
            grads = real(cache, upstream, *flag)
            calls.append((any(cache is head.cache for head in heads), grads[0] is None))
            return grads

        monkeypatch.setattr(network, "norm_backward", spy)

        def grads(backward):
            g.forward(x, Mode.TRAIN)
            g.zero_grad()
            calls.clear()
            backward()
            return [p.grad.copy() for p in g.parameters()], list(calls)

        def chain():
            gr = up
            for layer in reversed(g.layers):
                gr = layer.backward(gr)

        full, full_calls = grads(chain)
        got, got_calls = grads(lambda: g.backward(up))
        assert all(np.array_equal(a, b) for a, b in zip(full, got))
        assert len(full_calls) == len(got_calls) == 15
        assert not any(skipped for _, skipped in full_calls)
        assert [head for head, _ in got_calls] == [head for head, _ in full_calls]
        assert all(head == skipped for head, skipped in got_calls)
        assert sum(head for head, _ in got_calls) == 2

    def test_backward_without_forward_raises(self):
        g = build_model("vgg-mini", 10, seed=0)
        with pytest.raises(RuntimeError):
            g.backward(np.zeros((1, 10)))

    def test_zero_upstream_gives_zero_grads(self):
        g = build_model("vgg-mini", 10, quant=QuantConfig(), seed=0)
        x = RNG(13).normal(size=(2, 3, 8, 8))
        logits = g.forward(x, Mode.TRAIN)
        g.zero_grad()
        g.backward(np.zeros_like(logits))
        assert all(not np.any(p.grad) for p in g.parameters())

    def test_determinism(self):
        def run():
            g = build_model("preact-mini", 10, quant=QuantConfig(), seed=7)
            x = np.random.default_rng(14).normal(size=(2, 3, 8, 8))
            logits = g.forward(x, Mode.TRAIN)
            g.zero_grad()
            g.backward(np.ones_like(logits))
            return logits, [p.grad.copy() for p in g.parameters()]

        la, ga = run()
        lb, gb = run()
        assert np.array_equal(la, lb)
        assert all(np.array_equal(a, b) for a, b in zip(ga, gb))

    def test_quantized_model_backward_matches_slow_oracle(self):
        # 1x1 quantized conv + activation quantizer, against a scalar chain
        cfg = QuantConfig(m_w=3, m_a=4)
        rng = RNG(15)
        conv = Conv2d(1, 1, kernel=1, rng=rng, weight_standardized=False, quant=cfg)
        act = ActQuant(cfg)
        g = ModelGraph([conv, act], "tiny", 1, cfg, NormKind.LBN)
        x = rng.normal(size=(3, 1, 1, 1))
        y = g.forward(x, Mode.TRAIN)
        up = rng.normal(size=y.shape)
        g.zero_grad()
        # ModelGraph.backward does not form the graph input's gradient
        gx = conv.backward(act.backward(up))

        w = conv.weight.data.item()
        w_q = np.clip(np.floor(np.abs(cfg.s * w * cfg.weight_qscale) + 0.5)
                      * np.sign(cfg.s * w) / cfg.weight_qscale, -1, 1)
        pre_act = x * w_q
        surr = activation_surrogate_grad(pre_act, cfg.m_a, cfg.alpha)
        np.testing.assert_allclose(gx, up * surr * w_q, atol=1e-12)
        expected_w_grad = np.sum(up * surr * x) * (1.0 if abs(cfg.s * w) < 1 else 0.0)
        assert conv.weight.grad.item() == pytest.approx(expected_w_grad, rel=1e-10)


def _leaf(name):
    """A leaf layer of each class on a (2, 4, 4, 4) input, a linked ActQuant
    behind its norm."""
    if name == "Conv2d":
        return Conv2d(4, 4, kernel=3, rng=RNG(50), quant=QuantConfig())
    if name == "NormLayer":
        return NormLayer(NormKind.BN, 4)
    if name in ("ActQuant", "linked ActQuant"):
        act = ActQuant(QuantConfig())
        if name == "linked ActQuant":
            network._link([NormLayer(NormKind.LBN, 4), act])
            assert act.norm is not None
        return act
    return {"ReLU": ReLU, "AvgPool2": AvgPool2, "GlobalAvgPool": GlobalAvgPool}[name]()


LEAVES = ["Conv2d", "NormLayer", "ActQuant", "linked ActQuant", "ReLU", "AvgPool2",
          "GlobalAvgPool"]


class TestBackwardBeforeForward:
    @pytest.mark.parametrize("name", LEAVES)
    @pytest.mark.parametrize("eval_first", [False, True], ids=["fresh", "after_eval"])
    def test_is_a_runtime_error_naming_the_layer(self, name, eval_first):
        layer = _leaf(name)
        x = RNG(51).normal(size=(2, 4, 4, 4))
        y = layer.forward(x, Mode.EVAL)
        if not eval_first:
            layer = _leaf(name)
        cls = type(layer).__name__
        with pytest.raises(RuntimeError, match=rf"^{cls}\.backward before a TRAIN forward$"):
            layer.backward(np.ones_like(y))

    def test_a_linked_act_whose_norm_has_no_tape(self):
        # the act's own TRAIN forward tapes nothing: its norm's tape is missing
        act = _leaf("linked ActQuant")
        y = act.forward(RNG(52).normal(size=(2, 4, 4, 4)), Mode.TRAIN)
        with pytest.raises(RuntimeError, match=r"^ActQuant\.backward before a TRAIN forward$"):
            act.backward(np.ones_like(y))


def _quantized(arch, norm_kind, dtype, seed=60):
    """A quantized mini model whose norms have non-trivial gains and shifts,
    one of them 0, so a rebuilt activation input that got g or b wrong
    would show."""
    graph = build_model(arch, 10, quant=QuantConfig(), norm_kind=norm_kind, dtype=dtype,
                        seed=seed, input_hw=8)
    rng = RNG(seed + 1)
    for layer in graph.all_layers():
        if isinstance(layer, NormLayer):
            c = layer.g.data.shape[0]
            layer.g.data[...] = rng.uniform(0.5, 1.5, size=c)
            layer.g.data[0] = 0.0
            layer.b.data[...] = rng.normal(0.2, 0.3, size=c)
    return graph


def _step(graph, x, up):
    """One TRAIN forward and backward: the logits, every parameter gradient
    and every running statistic."""
    logits = graph.forward(x, Mode.TRAIN)
    graph.zero_grad()
    graph.backward(up)
    stats = [a.copy() for l in graph.all_layers() if isinstance(l, NormLayer)
             for a in (l.state.running_mean, l.state.running_var) if a is not None]
    return [logits] + [p.grad.copy() for p in graph.parameters()] + stats


def _acts(graph):
    return [l for l in graph.all_layers() if isinstance(l, ActQuant)]


class TestTapeOnce:
    """Each tensor is taped once: every ActQuant that `build_model` makes
    reads its norm's tape, and no conv tapes a patch matrix. The numbers are those of
    a walk in which every ActQuant tapes its own input."""

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("norm_kind", list(NormKind))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [None, 100], ids=["chunk", "small_chunk"])
    def test_step_is_bitwise_the_self_taping_walk(self, monkeypatch, arch, norm_kind,
                                                  dtype, chunk):
        if chunk is not None:
            monkeypatch.setattr(quantizer, "_CHUNK", chunk)
        graph = _quantized(arch, norm_kind, dtype)
        ref = copy.deepcopy(graph)
        for act in _acts(ref):
            act.norm = None
        assert all(act.norm is not None for act in _acts(graph))
        x = RNG(62).normal(size=(4, 3, 8, 8)).astype(dtype)
        up = RNG(63).normal(size=(4, 10)).astype(dtype)
        got, want = _step(graph, x, up), _step(ref, x, up)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_a_deep_copy_reads_its_own_tapes(self):
        # perfbench trains a deep copy of a graph on every repeat
        graph = _quantized("preact-mini", NormKind.LBN, np.float32)
        x = RNG(64).normal(size=(4, 3, 8, 8)).astype(np.float32)
        up = RNG(65).normal(size=(4, 10)).astype(np.float32)
        graph.forward(x, Mode.TRAIN)
        twin = copy.deepcopy(graph)          # the taped original, kept aside
        clone = copy.deepcopy(graph)
        originals = {id(l) for l in graph.all_layers()}
        layers = clone.all_layers()
        for act in _acts(clone):
            assert act.norm is layers[layers.index(act) - 1]
            assert id(act.norm) not in originals
        norms = [l for l in graph.all_layers() if isinstance(l, NormLayer)]
        tapes = [(l.cache.x_hat, l.cache.x_hat.copy()) for l in norms]
        _step(clone, RNG(66).normal(size=(4, 3, 8, 8)).astype(np.float32), up)
        for layer, (x_hat, saved) in zip(norms, tapes):
            assert layer.cache.x_hat is x_hat
            np.testing.assert_array_equal(x_hat, saved)
        graph.zero_grad()
        graph.backward(up)
        twin.zero_grad()
        twin.backward(up)
        for p, q in zip(graph.parameters(), twin.parameters()):
            np.testing.assert_array_equal(p.grad, q.grad)

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    def test_tape_accounting(self, arch):
        # a conv tapes its float input, or one byte per element of it where
        # it tapes the codes of the ActQuant in front of it
        graph = _quantized(arch, NormKind.LBN, np.float32)
        x = RNG(67).normal(size=(4, 3, 8, 8)).astype(np.float32)
        graph.forward(x, Mode.TRAIN)
        layers = graph.all_layers()
        acts = _acts(graph)
        assert acts and all(act.cache_nbytes() == 0 for act in acts)
        conv_bytes = 0
        for conv in graph.conv_layers():
            tape = conv.cache
            assert tape[0].shape[:2] == (4, conv.in_ch) and tape[0].ndim == 4
            itemsize = 4 if conv.code_tape is None else 1
            w2d, ws_cache, q_saved = conv.effective_weight()
            want = (tape[0].size * itemsize + w2d.nbytes + network._nbytes(ws_cache)
                    + network._nbytes(q_saved))
            assert conv.cache_nbytes() == want
            conv_bytes += want
        norm_bytes = sum(l.cache_nbytes() for l in layers if isinstance(l, NormLayer))
        assert norm_bytes > 0
        assert graph.tape_nbytes() == conv_bytes + norm_bytes



def _code_taped(graph):
    """The convs that tape their input as codes."""
    return [c for c in graph.conv_layers() if c.code_tape is not None]


class TestTapeRelease:
    """A tape lives until the graph's backward walk has read it, or until the
    graph's next EVAL forward."""

    @pytest.mark.parametrize("arch, quant, norm_kind", [
        ("vgg-mini", QuantConfig(), NormKind.LBN),
        ("preact-mini", QuantConfig(), NormKind.LBN),
        ("cnn9-mini", None, NormKind.BN)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_frees_every_tape(self, arch, quant, norm_kind, dtype):
        graph = build_model(arch, 10, quant=quant, norm_kind=norm_kind, dtype=dtype, seed=3,
                            input_hw=16)
        x = RNG(100).normal(size=(4, 3, 16, 16)).astype(dtype)
        graph.forward(x, Mode.TRAIN)
        assert all(l.cache is not None for l in graph.all_layers()
                   if not (isinstance(l, ActQuant) and l.norm is not None))
        graph.backward(RNG(101).normal(size=(4, 10)).astype(dtype))
        assert all(l.cache is None for l in graph.all_layers())
        assert graph.tape_nbytes() == 0

    def test_eval_forward_frees_a_stale_tape(self):
        graph = build_model("preact-mini", 10, quant=QuantConfig(), seed=3, input_hw=8)
        x = RNG(102).normal(size=(4, 3, 8, 8))
        graph.forward(x, Mode.TRAIN)
        assert graph.tape_nbytes() > 0
        graph.forward(x, Mode.EVAL)
        assert graph.tape_nbytes() == 0
        with pytest.raises(RuntimeError, match="^backward requires a preceding TRAIN-mode forward$"):
            graph.backward(np.ones((4, 10)))

    @pytest.mark.parametrize("name", LEAVES)
    def test_a_leaf_backward_keeps_its_tape(self, name):
        layer = _leaf(name)
        source = layer.norm if name == "linked ActQuant" else layer
        x = RNG(103).normal(size=(2, 4, 4, 4))
        if source is not layer:
            x = source.forward(x, Mode.TRAIN)
        y = layer.forward(x, Mode.TRAIN)
        tape = source.cache
        layer.backward(np.ones_like(y))
        assert source.cache is tape is not None


class TestCodeTape:
    """A conv directly behind an ActQuant tapes that quantizer's codes, and
    its backward decodes them to bitwise the values."""

    @pytest.mark.parametrize("arch, want", [
        ("vgg-mini", [1, 3, 5, 6]),               # conv 2, 4, 6 and the head
        ("preact-mini", list(range(9)))])         # every branch conv, not the head
    @pytest.mark.parametrize("m_a", [8, 300])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_convs_behind_an_act_tape_its_codes(self, monkeypatch, arch, want, m_a,
                                                    dtype):
        graph = build_model(arch, 10, quant=QuantConfig(m_a=m_a), dtype=dtype, seed=3,
                            input_hw=8)
        convs = graph.conv_layers()
        assert [convs.index(c) for c in _code_taped(graph)] == want
        assert all(c.code_tape == m_a for c in _code_taped(graph))
        encoded = []
        encode = network._encode
        monkeypatch.setattr(network, "_encode",
                            lambda x, m: encoded.append(x) or encode(x, m))
        graph.forward(RNG(104).normal(size=(4, 3, 8, 8)).astype(dtype), Mode.TRAIN)
        assert len(encoded) == len(want)
        for conv, x in zip(_code_taped(graph), encoded):
            codes, _, _, _, decode = conv.cache
            assert codes.dtype == np.min_scalar_type(m_a - 1)
            assert codes.strides == np.empty_like(x, codes.dtype).strides  # x's layout
            assert decode == (m_a - 1, np.dtype(dtype))
            np.testing.assert_array_equal(codes, np.rint(x * (m_a - 1)))
        for conv in convs:
            if conv.code_tape is None:
                assert conv.cache[0].dtype == dtype and conv.cache[4] is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encode_then_decode_is_bitwise(self, dtype):
        for m_a in [*range(2, 257), 257, 4097, 65535]:
            top = m_a - 1
            k = np.arange(m_a)
            # the quantizer's own values k/top, on inputs at the states
            values = quantizer.quantize_activation((k / top).astype(dtype), m_a)
            assert values.dtype == dtype
            codes = network._encode(values, m_a)
            assert codes.dtype == np.min_scalar_type(top)
            np.testing.assert_array_equal(codes, k)
            back = network._decode(codes, top, dtype, np.empty_like(values))
            assert back.tobytes() == values.tobytes(), m_a

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_are_bitwise_a_float_tape(self, across_threads, arch, dtype):
        # 16 samples of 32x32: the convs' backwards run in several blocks
        graph = build_model(arch, 10, quant=QuantConfig(), dtype=dtype, seed=60, input_hw=32)
        oracle = copy.deepcopy(graph)
        for conv in _code_taped(oracle):
            conv.code_tape = None
        assert _code_taped(graph) and not _code_taped(oracle)
        x = RNG(105).normal(size=(16, 3, 32, 32)).astype(dtype)
        up = RNG(106).normal(size=(16, 10)).astype(dtype)
        want = _step(oracle, x, up)
        # a fresh copy each time: a step moves the running statistics
        across_threads(lambda: _step(copy.deepcopy(graph), x, up))
        for a, b in zip(_step(graph, x, up), want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_step_heap_peak_is_the_tape(self, monkeypatch):
        # vgg-mini at the qat workload's shape, pinned to two pool threads,
        # each of which adds a few MB of scratch: the tracemalloc peak of a
        # step stays within 1.25x measure_step_bytes (1.13x measured; 1.39x
        # while every tape outlived its backward and act->conv inputs were
        # taped as floats)
        monkeypatch.setattr(parallel, "THREADS", 2)
        graph = build_model("vgg-mini", 10, quant=QuantConfig(), dtype=np.float32, seed=3)
        x = RNG(107).normal(size=(100, 3, 32, 32)).astype(np.float32)
        y = RNG(108).integers(0, 10, size=100)
        training.measure_step_bytes(graph, x, y)
        tracemalloc.start()
        try:
            proxy = training.measure_step_bytes(graph, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * proxy


class TestPool:
    """The kernels run their parts on parallel.THREADS threads, parts fixed
    by bytes alone: the conv's blocks, rows of one GEMM forward and, in the
    backward, weight-gradient products summed in block order, and slices of
    an elementwise pass. So every result is bitwise the one-thread result."""

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks", ["one_block", "three_blocks"])
    def test_conv_forward_and_gradients(self, across_threads, kernel, dtype, blocks):
        # 512 in channels and 128 out, 16 samples a backward block: a block
        # of the upstream's patch matrix goes with four of x's, so that a
        # one-block backward, which runs on one thread, follows forwards of
        # several parts, long enough for the helpers to take some even on
        # one CPU
        block = network._BLOCK_BYTES // network._BWD_IN_FLIGHT
        conv, x, step = _blocked_case(kernel, dtype, seed=80, in_ch=512, out_ch=128,
                                      block=4 * block, samples=16)
        if blocks == "one_block":
            x = x[:step]
        up = RNG(81).normal(size=(x.shape[0], conv.out_ch) + x.shape[2:]).astype(dtype)
        assert len(network._blocks(up.shape, up.itemsize, kernel)) == (
            1 if blocks == "one_block" else 3)

        def run():
            conv.weight.zero_grad()
            y = conv.forward(x, Mode.TRAIN)
            grad_x = conv.backward(up)
            return y, grad_x, conv.weight.grad.copy(), conv.forward(x, Mode.EVAL)

        across_threads(run)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_conv_forward_blocks_are_fixed_by_bytes(self, monkeypatch, across_threads,
                                                    kernel):
        # a batch of one block and one of three: at every thread count the
        # forward gathers each of the `_blocks` of x once, whole
        # (512 out channels: blocks long enough for a helper to take one)
        conv, x, step = _blocked_case(kernel, np.float32, seed=90, in_ch=512, out_ch=512,
                                      block=network._BLOCK_BYTES // network._BWD_IN_FLIGHT)
        batches = [x[:step], x]
        blocks = [network._blocks(b.shape, b.itemsize, kernel) for b in batches]
        assert [len(b) for b in blocks] == [1, 3]
        gathered = []
        im2col = network._im2col

        def probe(xb, *a):
            start = (xb.ctypes.data - x.ctypes.data) // x.strides[0]
            gathered.append(slice(start, start + xb.shape[0]))
            return im2col(xb, *a)

        monkeypatch.setattr(network, "_im2col", probe)

        def run():
            ys = []
            for b, want in zip(batches, blocks):
                gathered.clear()
                ys.append(conv.forward(b, Mode.EVAL))
                assert sorted(gathered, key=lambda s: s.start) == want
            return ys

        across_threads(run, counts=(2, 3, 4))

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_forward_and_backward(self, across_threads, kind, dtype):
        rng = RNG(82)
        x = rng.normal(2.0, 3.0, size=(24, 16, 32, 32)).astype(dtype)
        up = rng.normal(size=x.shape).astype(dtype)
        g, b = rng.normal(size=16), rng.normal(size=16)

        def run():
            st = NormLayerState.create(kind, 16, dtype=dtype)
            st.g[...], st.b[...] = g, b
            y, cache = norm_forward(x, st, Mode.TRAIN)
            grads = norm_backward(cache, up)
            y_eval = norm_forward(x, st, Mode.EVAL)[0]
            stats = [a for a in (st.running_mean, st.running_var) if a is not None]
            return [y, cache.x_hat, cache.inv_std, *grads, y_eval, *stats]

        across_threads(run)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_standardization(self, across_threads, dtype):
        rng = RNG(87)
        w = rng.normal(size=(256, 2304)).astype(dtype)
        w[3] = 0.5                                   # a constant row: sigma 0
        up = rng.normal(size=w.shape).astype(dtype)

        def run():
            w_hat, cache = weight_standardize(w)
            return [w_hat, cache.mu, cache.sigma, cache.denom,
                    weight_standardize_backward(cache, up)]

        across_threads(run)

    @pytest.mark.parametrize("quant", [QuantConfig(), LIVE, None],
                             ids=["quantized", "quantized_live", "float"])
    def test_runtime_logits(self, tmp_path, across_threads, quant):
        graph = build_model("vgg-mini", 10, quant=quant, seed=3)
        if quant is LIVE:
            assert training.compute_r_w(graph)[0] > 0.5
        graph.forward(RNG(83).normal(size=(8, 3, 32, 32)), Mode.TRAIN)  # running statistics
        export.export(graph, tmp_path / "m.maqd")
        model = import_model(tmp_path / "m.maqd")
        x = RNG(84).normal(size=(24, 3, 32, 32)).astype(np.float32)
        across_threads(lambda: [runtime_infer(model, x)])

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    def test_codes_eval_forward(self, across_threads, arch):
        # the logits and every leaf output the visitor sees
        graph = _live(arch, np.float64, hw=32)
        x = RNG(89).normal(size=(24, 3, 32, 32))

        def run():
            seen = []
            logits = graph.forward(x, Mode.EVAL, lambda layer, out: seen.append(out))
            return [graph.forward(x, Mode.EVAL), logits, *seen]

        across_threads(run)

    def test_two_train_steps_are_bitwise_equal(self, monkeypatch, across_threads):
        graph = build_model("vgg-mini", 10, quant=QuantConfig(), dtype=np.float32, seed=5)
        x = RNG(85).normal(size=(24, 3, 32, 32)).astype(np.float32)
        labels = RNG(86).integers(0, 10, size=24)

        def step():
            g = copy.deepcopy(graph)
            loss, grad = training.combined_loss(g.forward(x, Mode.TRAIN), labels)
            g.zero_grad()
            g.backward(grad)
            training.sgd_momentum_step(g.parameters(), training.OptimState(learning_rate=0.1))
            return [np.float64(loss)] + [p.data for p in g.parameters()]

        monkeypatch.setattr(parallel, "THREADS", max(2, parallel.THREADS))
        first, second = step(), step()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        across_threads(step, counts=(2,))


class TestMapParts:
    def test_results_in_part_order(self, monkeypatch):
        monkeypatch.setattr(parallel, "THREADS", 3)
        assert parallel.map_parts(lambda p: p * p, range(50)) == [p * p for p in range(50)]

    def test_a_part_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(parallel, "THREADS", 2)

        def fn(p):
            if p in (7, 30):
                raise ValueError(f"part {p}")
            return p

        with pytest.raises(ValueError, match="part 7"):
            parallel.map_parts(fn, range(40))
        # the pool still serves later calls
        assert parallel.map_parts(lambda p: p, range(10)) == list(range(10))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_each_thread_makes_one_scratch_before_its_first_part(self, monkeypatch, threads):
        # more threads than CPUs under fast switching: no two parts that run
        # at once share a scratch, and each thread that ran a part made one
        monkeypatch.setattr(parallel, "THREADS", threads)
        made, users, clashes = [], {}, []

        def make():
            scratch = {"busy": False}
            made.append((threading.get_ident(), scratch))  # kept alive: ids stay unique
            return scratch

        def part(p, scratch):
            if scratch["busy"]:
                clashes.append(p)
            scratch["busy"] = True
            users.setdefault(id(scratch), set()).add(threading.get_ident())
            sum(range(500))
            scratch["busy"] = False
            return p

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert parallel.map_parts(part, range(300), make) == list(range(300))
        finally:
            sys.setswitchinterval(interval)
        assert clashes == []
        makers = [t for t, _ in made]
        assert len(makers) == len(set(makers)) <= threads
        assert sorted(users) == sorted(id(s) for _, s in made)
        assert all(len(u) == 1 for u in users.values())

    def test_concurrent_callers_under_fast_switching(self, monkeypatch):
        # more threads than CPUs, three callers sharing the helpers: every
        # part runs exactly once and each caller gets its own results
        monkeypatch.setattr(parallel, "THREADS", 4)
        runs = [[0] * 300 for _ in range(3)]
        wrong = []

        def caller(k):
            def part(p):
                runs[k][p] += 1      # each (k, p) belongs to one part
                return k, p

            if parallel.map_parts(part, range(300)) != [(k, p) for p in range(300)]:
                wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert wrong == [] and runs == [[1] * 300] * 3

    def test_small_work_runs_as_one_part_on_the_calling_thread(self, monkeypatch):
        # below two PART_BYTES an operand is one slice
        monkeypatch.setattr(parallel, "THREADS", 2)
        parts = parallel.by_samples(100, 2 * parallel.PART_BYTES - 1)
        assert parts == [slice(0, 100)]
        assert parallel.map_parts(lambda p: threading.get_ident(), parts) == [
            threading.get_ident()]
        parts = parallel.by_samples(100, 2 * parallel.PART_BYTES)
        assert parts == [slice(0, 50), slice(50, 100)]

    @pytest.mark.parametrize("n, parts", [(0, 0), (1, 64), (3, 64), (100, 1), (100, 2),
                                          (100, 5), (100, 64), (100, 200)])
    def test_sample_slices_are_fixed_by_bytes(self, monkeypatch, n, parts):
        # one slice per PART_BYTES, at least one and at most n, whatever
        # the thread count
        nbytes = parts * parallel.PART_BYTES + 7
        slices = []
        for threads in (1, 4):
            monkeypatch.setattr(parallel, "THREADS", threads)
            slices.append(parallel.by_samples(n, nbytes))
        assert slices[0] == slices[1] == parallel.even(n, max(1, min(n, parts)))

    @pytest.mark.parametrize("cpus, has_setter", [({0}, True), ({0, 1}, False)],
                             ids=["one_cpu", "no_blas_setter"])
    def test_serial_without_a_second_cpu_or_the_blas_setter(self, monkeypatch, cpus,
                                                              has_setter):
        calls = []
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(parallel, "_blas_setter",
                            lambda: calls.append if has_setter else None)
        threads = parallel._thread_count()
        assert threads == 1 and calls == []          # BLAS left alone
        monkeypatch.setattr(parallel, "THREADS", threads)
        ran_on = parallel.map_parts(lambda p: threading.get_ident(), range(8))
        assert set(ran_on) == {threading.get_ident()}

    def test_blas_is_set_to_one_thread_with_two_cpus(self, monkeypatch):
        calls = []
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(parallel, "_blas_setter", lambda: calls.append)
        assert parallel._thread_count() == 2 and calls == [1]


def _arrays(obj):
    """The ndarrays of a tape: an array, a tuple of them, or a dataclass."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for o in obj for a in _arrays(o)]
    if hasattr(obj, "__dataclass_fields__"):
        return [a for v in vars(obj).values() for a in _arrays(v)]
    return []


class TestLayout:
    """Activations stay channels-last from the first conv to the head: the
    conv writes its GEMMs into NHWC rows whatever its input's layout, and
    every other kernel keeps its input's. A C-order input and its
    channels-last copy give bitwise the same values."""

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv(self, kernel, dtype):
        conv, x, _ = _blocked_case(kernel, dtype, seed=90, in_ch=24, out_ch=8)
        up = RNG(91).normal(size=(x.shape[0], 8) + x.shape[2:]).astype(dtype)
        assert len(network._blocks(up.shape, up.itemsize, kernel)) >= 2
        out = []
        for layout in (np.asarray, channels_last):
            conv.weight.zero_grad()
            y = conv.forward(layout(x), Mode.TRAIN)
            grad_x = conv.backward(layout(up))
            y_eval = conv.forward(layout(x), Mode.EVAL)
            assert all(is_channels_last(a) for a in (y, grad_x, y_eval))
            out.append((y, grad_x, y_eval, conv.weight.grad.copy()))
        for a, b in zip(*out):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layer", [AvgPool2, GlobalAvgPool])
    def test_pool(self, layer, dtype):
        x = RNG(92).normal(size=(6, 5, 8, 12)).astype(dtype)
        out = []
        for layout in (np.asarray, channels_last):
            pool = layer()
            y = pool.forward(layout(x), Mode.TRAIN)
            up = RNG(93).normal(size=y.shape).astype(dtype)
            out.append((y, pool.backward(layout(up) if up.ndim == 4 else up)))
        (y, g), (y_cl, g_cl) = out
        assert is_c_order(y) and is_c_order(g) and is_channels_last(g_cl)
        assert y.ndim == 2 or is_channels_last(y_cl)
        np.testing.assert_array_equal(y, y_cl)
        np.testing.assert_array_equal(g, g_cl)

    @pytest.mark.parametrize("arch, quant, norm_kind", [
        ("vgg-mini", QuantConfig(), NormKind.LBN),
        ("preact-mini", QuantConfig(), NormKind.LBN),
        ("cnn9-mini", None, NormKind.BN)])
    def test_activations_stay_channels_last(self, monkeypatch, arch, quant, norm_kind):
        # A tensor with other than the input's 3 channels comes after a conv:
        # whatever a visitor sees, a TRAIN tape holds, a leaf backward
        # receives or returns, or an EVAL code pass gathers must then be
        # channels-last, so that no kernel transposes it. The first convs
        # read the image, or in preact-mini the first block's activations
        # of it.
        graph = build_model(arch, 10, quant=quant, norm_kind=norm_kind, seed=3,
                            dtype=np.float32, input_hw=16)
        x = RNG(94).normal(size=(4, 3, 16, 16)).astype(np.float32)
        labels = np.arange(4)

        def after_a_conv(a):
            return a.ndim == 4 and a.shape[1] != 3

        seen = []
        visit = lambda layer, out: seen.append(out)
        _, grad = training.combined_loss(graph.forward(x, Mode.TRAIN, visit), labels)
        taped = [a for layer in graph.all_layers() for a in _arrays(layer.cache)]
        grads = []  # every leaf backward's upstream and input gradient
        for layer in graph.all_layers():
            def backward(up, *args, _backward=layer.backward, **kwargs):
                g = _backward(up, *args, **kwargs)
                grads.extend(_arrays([up, g]))
                return g
            monkeypatch.setattr(layer, "backward", backward)
        graph.backward(grad)
        graph.forward(x, Mode.EVAL, visit)
        gathered = []
        im2col = network._im2col
        monkeypatch.setattr(network, "_im2col",
                            lambda x, *a: gathered.append(x) or im2col(x, *a))
        graph.forward(x, Mode.EVAL)  # the code pass that runs norms in the ActQuant
        for name, arrays in [("visited", seen), ("taped", taped), ("gradients", grads),
                             ("gathered", gathered)]:
            later = [a for a in arrays if after_a_conv(a)]
            assert later, name
            assert all(is_channels_last(a) for a in later), name
