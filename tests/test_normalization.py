import math
import tracemalloc

import numpy as np
import pytest

from maqd import export, normalization
from maqd.normalization import (Mode, NormKind, NormLayerState, affine,
                                fold_normalization, norm_backward, norm_forward,
                                weight_standardize, weight_standardize_backward)
from gradcheck import numeric_grad, rel_err
from layout import channels_last, is_c_order, is_channels_last

ALL_KINDS = [NormKind.BN, NormKind.LN, NormKind.LBN]


def make_state(kind, channels, eps=1e-5):
    return NormLayerState.create(kind, channels, eps=eps)


class TestForward:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_constant_input_maps_to_zero(self, kind):
        st = make_state(kind, 3)
        x = np.full((2, 3, 4, 4), 7.0)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_lbn_two_point(self):
        st = make_state(NormKind.LBN, 1, eps=0.0)
        x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        np.testing.assert_allclose(y.ravel(), [-1.0, 1.0], atol=1e-12)

    def test_lbn_hand_case(self):
        st = make_state(NormKind.LBN, 2, eps=1e-5)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1, 1)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        expected = (x - 2.5) / np.sqrt(1.25 + 1e-5)
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_channel_mismatch(self):
        st = make_state(NormKind.BN, 3)
        with pytest.raises(ValueError):
            norm_forward(np.zeros((1, 4, 2, 2)), st, Mode.TRAIN)

    def test_lbn_train_standardizes_globally(self):
        rng = np.random.default_rng(0)
        x = 3.0 + 2.0 * rng.normal(size=(8, 4, 4, 4))
        st = make_state(NormKind.LBN, 4)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        var = x.var()
        assert abs(y.mean()) < 1e-6
        assert y.var() == pytest.approx(var / (var + st.eps), rel=1e-4)

    def test_bn_per_channel_statistics(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3, 4, 4)) * np.array([1, 2, 3]).reshape(1, 3, 1, 1)
        st = make_state(NormKind.BN, 3)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_ln_per_sample_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 4, 4)) + np.arange(4).reshape(4, 1, 1, 1)
        st = make_state(NormKind.LN, 3)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        np.testing.assert_allclose(y.mean(axis=(1, 2, 3)), 0.0, atol=1e-10)

    def test_lbn_statistics_permutation_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 2, 2))
        st1, st2 = make_state(NormKind.LBN, 3), make_state(NormKind.LBN, 3)
        norm_forward(x, st1, Mode.TRAIN)
        norm_forward(x[::-1][:, ::-1], st2, Mode.TRAIN)
        assert st1.running_mean == pytest.approx(st2.running_mean, rel=1e-12)
        assert st1.running_var == pytest.approx(st2.running_var, rel=1e-12)

    @pytest.mark.parametrize("kind", [NormKind.BN, NormKind.LBN])
    def test_eval_is_fixed_affine(self, kind):
        rng = np.random.default_rng(4)
        st = make_state(kind, 3)
        for _ in range(3):
            norm_forward(rng.normal(size=(4, 3, 2, 2)), st, Mode.TRAIN)
        shared = rng.normal(size=(1, 3, 2, 2))
        batch_a = np.concatenate([shared, rng.normal(size=(3, 3, 2, 2))])
        batch_b = np.concatenate([shared, rng.normal(size=(5, 3, 2, 2))])
        ya, _ = norm_forward(batch_a, st, Mode.EVAL)
        yb, _ = norm_forward(batch_b, st, Mode.EVAL)
        np.testing.assert_array_equal(ya[0], yb[0])

    def test_eval_running_stats_converge(self):
        # constant stream: EMA pulls the running pair onto the batch statistics
        st = make_state(NormKind.LBN, 2)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 2, 3, 3))
        for _ in range(200):
            norm_forward(x, st, Mode.TRAIN)
        y_train, _ = norm_forward(x, st, Mode.TRAIN)
        y_eval, _ = norm_forward(x, st, Mode.EVAL)
        np.testing.assert_allclose(y_eval, y_train, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", [NormKind.BN, NormKind.LBN])
    def test_train_step_updates_the_running_arrays_in_place(self, kind, dtype):
        # the arrays `create` made stay the state's, with their type and
        # dtype, so a checkpoint's view of them (cli._state) stays live
        st = NormLayerState.create(kind, 3, dtype=dtype)
        before = [st.running_mean, st.running_var]
        shapes = [a.shape for a in before]
        x = np.random.default_rng(6).normal(1.0, 2.0, size=(4, 3, 2, 2)).astype(dtype)
        norm_forward(x, st, Mode.TRAIN)
        for new, old, shape in zip([st.running_mean, st.running_var], before, shapes):
            assert new is old
            assert type(new) is np.ndarray and new.dtype == dtype and new.shape == shape
        assert np.all(st.running_mean != 0) and np.all(st.running_var != 1)
        old[...] = 5    # writable in place, as a checkpoint load writes it


class TestBackward:
    def test_requires_train_cache(self):
        st = make_state(NormKind.BN, 2)
        for _ in range(1):
            norm_forward(np.zeros((2, 2, 2, 2)), st, Mode.TRAIN)
        _, cache = norm_forward(np.zeros((2, 2, 2, 2)), st, Mode.EVAL)
        with pytest.raises(ValueError):
            norm_backward(cache, np.zeros((2, 2, 2, 2)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_upstream(self, kind):
        st = make_state(kind, 2)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 3, 3))
        _, cache = norm_forward(x, st, Mode.TRAIN)
        gx, gg, gb = norm_backward(cache, np.zeros_like(x))
        assert not np.any(gx) and not np.any(gg) and not np.any(gb)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_grad_b_is_channel_sum(self, kind):
        st = make_state(kind, 3)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 2, 2))
        up = rng.normal(size=x.shape)
        _, cache = norm_forward(x, st, Mode.TRAIN)
        _, _, gb = norm_backward(cache, up)
        np.testing.assert_allclose(gb, up.sum(axis=(0, 2, 3)), atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 2, 2))
        up = rng.normal(size=x.shape)
        g0 = rng.normal(size=3)
        b0 = rng.normal(size=3)

        def loss_from(x_val, g_val, b_val):
            st = make_state(kind, 3)
            st.g[:] = g_val
            st.b[:] = b_val
            y, _ = norm_forward(x_val, st, Mode.TRAIN)
            return float(np.sum(y * up))

        st = make_state(kind, 3)
        st.g[:] = g0
        st.b[:] = b0
        _, cache = norm_forward(x, st, Mode.TRAIN)
        gx, gg, gb = norm_backward(cache, up)

        assert rel_err(numeric_grad(lambda v: loss_from(v, g0, b0), x), gx) < 1e-5
        assert rel_err(numeric_grad(lambda v: loss_from(x, v, b0), g0), gg) < 1e-5
        assert rel_err(numeric_grad(lambda v: loss_from(x, g0, v), b0), gb) < 1e-5


_AXES = {NormKind.BN: (0, 2, 3), NormKind.LN: (1, 2, 3), NormKind.LBN: (0, 1, 2, 3)}


def _reference_forward(x, st, mode):
    """The two-pass formulas the kernels replaced: statistics from a float64
    copy of x, then x_hat and y as whole-tensor expressions. Returns
    (y, x_hat, inv_std, running_mean, running_var) without touching st."""
    axes = _AXES[st.kind]
    g4, b4 = st.g.reshape(1, -1, 1, 1), st.b.reshape(1, -1, 1, 1)
    rm, rv = st.running_mean, st.running_var
    if mode is Mode.TRAIN or st.kind is NormKind.LN:
        mean = np.mean(x, axis=axes, keepdims=True, dtype=np.float64)
        var = np.mean(np.square(x.astype(np.float64) - mean), axis=axes, keepdims=True)
        mean, var = mean.astype(x.dtype), var.astype(x.dtype)
        if mode is Mode.TRAIN and st.kind is not NormKind.LN:
            r = st.ema_rate
            rm = ((1 - r) * rm + r * mean.squeeze()).astype(rm.dtype)
            rv = ((1 - r) * rv + r * var.squeeze()).astype(rv.dtype)
    else:
        mean = np.asarray(rm, dtype=x.dtype).reshape(1, -1, 1, 1)
        var = np.asarray(rv, dtype=x.dtype).reshape(1, -1, 1, 1)
    inv_std = 1.0 / np.sqrt(var + st.eps)
    x_hat = (x - mean) * inv_std
    return (g4 * x_hat + b4).astype(x.dtype), x_hat, inv_std, rm, rv


def _reference_backward(x_hat, inv_std, g, kind, up):
    axes = _AXES[kind]
    d_xhat = up * g.reshape(1, -1, 1, 1)
    m1 = np.mean(d_xhat, axis=axes, keepdims=True, dtype=np.float64).astype(up.dtype)
    m2 = np.mean(d_xhat * x_hat, axis=axes, keepdims=True, dtype=np.float64).astype(up.dtype)
    grad_x = ((d_xhat - m1 - x_hat * m2) * inv_std).astype(up.dtype)
    grad_g = np.sum(up * x_hat, axis=(0, 2, 3), dtype=np.float64)
    grad_b = np.sum(up, axis=(0, 2, 3), dtype=np.float64)
    return grad_x, grad_g, grad_b


def _oracle_case(kind, shape, dtype, seed):
    """A state with a few EMA steps behind it, one zero gain, and a batch."""
    rng = np.random.default_rng(seed)
    st = NormLayerState.create(kind, shape[1], dtype=dtype)
    st.g[:] = rng.normal(size=shape[1])
    st.g[1] = 0.0
    st.b[:] = rng.normal(size=shape[1])
    for _ in range(3):
        norm_forward((1 + 2 * rng.normal(size=shape)).astype(dtype), st, Mode.TRAIN)
    x = (2 + 3 * rng.normal(size=shape)).astype(dtype)
    up = rng.normal(size=shape).astype(dtype)
    return st, x, up


def _term_scale(g, inv_std, up):
    """Largest term g * upstream * inv_std of grad_x. Where x_hat is 0
    everywhere (BN with one element per channel) the exact grad_x is 0 and
    only this scale gives the rounding of its cancelling terms a size."""
    return np.max(np.abs(up * g.reshape(1, -1, 1, 1) * inv_std))


# n=1, h=w=1 and n=h=w=1 are the edge cases; every case has a zero gain.
ORACLE_SHAPES = [(4, 3, 5, 6), (1, 3, 4, 4), (5, 3, 1, 1), (1, 3, 1, 1)]


class TestKernelOracle:
    """The fewest-pass kernels against the two-pass reference formulas."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_float64_train_is_bitwise_and_gradients_agree(self, kind, shape):
        st, x, up = _oracle_case(kind, shape, np.float64, seed=20)
        y_ref, x_hat, inv_std, rm, rv = _reference_forward(x, st, Mode.TRAIN)
        y, cache = norm_forward(x, st, Mode.TRAIN)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(cache.x_hat, x_hat)
        if kind is not NormKind.LN:
            np.testing.assert_array_equal(st.running_mean, rm)
            np.testing.assert_array_equal(st.running_var, rv)
        gx, gg, gb = norm_backward(cache, up)
        gx_ref, gg_ref, gb_ref = _reference_backward(x_hat, inv_std, st.g, kind, up)
        assert gx.dtype == gg.dtype == gb.dtype == np.float64
        assert np.max(np.abs(gx - gx_ref)) <= 1e-12 * _term_scale(st.g, inv_std, up)
        assert rel_err(gg, gg_ref) < 1e-12
        assert rel_err(gb, gb_ref) < 1e-12

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_float32_train_within_stated_bound(self, kind, shape):
        # The variance now sums float32 squares of x - mean (float32) in a
        # float64 accumulator instead of squaring a float64 copy of x, and
        # m1, m2 come from the channel sums: each moves y and the
        # gradients by a few float32 roundings, bounded here by 1e-6 of the
        # output's (or the largest gradient term's) magnitude.
        st, x, up = _oracle_case(kind, shape, np.float32, seed=21)
        y_ref, x_hat, inv_std, _, _ = _reference_forward(x, st, Mode.TRAIN)
        y, cache = norm_forward(x, st, Mode.TRAIN)
        assert y.dtype == cache.x_hat.dtype == np.float32
        assert np.max(np.abs(y - y_ref)) <= 1e-6 * np.max(np.abs(y_ref))
        gx, gg, gb = norm_backward(cache, up)
        gx_ref, gg_ref, gb_ref = _reference_backward(x_hat, inv_std, st.g, kind, up)
        assert gx.dtype == gg.dtype == gb.dtype == np.float32
        assert np.max(np.abs(gx - gx_ref)) <= 1e-6 * _term_scale(st.g, inv_std, up)
        assert rel_err(gg, gg_ref) < 1e-6
        assert rel_err(gb, gb_ref) < 1e-6

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-15), (np.float32, 1e-6)])
    @pytest.mark.parametrize("kind", [NormKind.BN, NormKind.LBN])
    def test_eval_is_the_fold(self, kind, dtype, bound, shape):
        # EVAL computes x * scale + bias from fold_normalization, the
        # constants the export writes; the reference's (x - mean) * inv_std
        # * g + b rounds differently, by a few roundings of its terms.
        st, x, _ = _oracle_case(kind, shape, dtype, seed=22)
        y, cache = norm_forward(x, st, Mode.EVAL)
        assert cache is None and y.dtype == dtype
        scale, bias = fold_normalization(st)
        np.testing.assert_array_equal(
            y, x * scale.astype(dtype).reshape(1, -1, 1, 1) + bias.astype(dtype).reshape(1, -1, 1, 1))
        y_ref = _reference_forward(x, st, Mode.EVAL)[0]
        terms = np.abs(x * scale.reshape(1, -1, 1, 1)) + np.abs(bias.reshape(1, -1, 1, 1))
        assert np.max(np.abs(y.astype(np.float64) - y_ref)) <= bound * np.max(terms)
        # the zero-gain channel is its bias, exactly
        np.testing.assert_array_equal(y[:, 1], st.b[1])

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_ln_eval_is_bitwise(self, shape):
        st, x, _ = _oracle_case(NormKind.LN, shape, np.float64, seed=23)
        y, _ = norm_forward(x, st, Mode.EVAL)
        np.testing.assert_array_equal(y, _reference_forward(x, st, Mode.EVAL)[0])

    def test_export_shares_the_fold(self):
        assert export.fold_normalization is fold_normalization

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_float32_train_makes_no_float64_copy(self, kind):
        # TRAIN keeps x_hat and y (one x-sized float32 buffer each); a
        # float64 copy of x alone would take two more.
        rng = np.random.default_rng(24)
        x = rng.normal(size=(8, 16, 32, 32)).astype(np.float32)
        up = rng.normal(size=x.shape).astype(np.float32)
        st = NormLayerState.create(kind, 16, dtype=np.float32)
        norm_forward(x, st, Mode.TRAIN)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y, cache = norm_forward(x, st, Mode.TRAIN)
            fwd_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            grads = norm_backward(cache, up)
            bwd_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert y.dtype == grads[0].dtype == np.float32
        assert fwd_peak < 2.5 * x.nbytes
        # the backward's grad_x and one product buffer, both float32
        assert bwd_peak < 2.5 * x.nbytes


class TestWeightStandardize:
    def test_constant_row_is_zeroed(self):
        w = np.full((1, 5), 3.0)
        w_hat, _ = weight_standardize(w)
        np.testing.assert_array_equal(w_hat, 0.0)

    def test_two_element_row(self):
        eps = 1e-10
        w = np.array([[1.0, -1.0]])
        w_hat, _ = weight_standardize(w, eps=eps)
        np.testing.assert_allclose(w_hat, w / (np.sqrt(2) + eps), atol=1e-15)

    def test_row_statistics(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(8, 27)) * 3 + 1
        w_hat, _ = weight_standardize(w, eps=0.0)
        np.testing.assert_allclose(w_hat.mean(axis=1), 0.0, atol=1e-8)
        np.testing.assert_allclose(w_hat.std(axis=1), 1 / np.sqrt(27), atol=1e-6)

    def test_eps_outside_sqrt(self):
        # denominator is sqrt(fan_in)*sigma + eps, not sqrt(var + eps)
        eps = 0.5
        w = np.array([[2.0, -2.0]])
        w_hat, _ = weight_standardize(w, eps=eps)
        np.testing.assert_allclose(w_hat, w / (np.sqrt(2) * 2.0 + eps), atol=1e-15)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            weight_standardize(np.zeros(5))


class TestWeightStandardizeBackward:
    def test_zero_upstream(self):
        w = np.random.default_rng(10).normal(size=(2, 6))
        _, cache = weight_standardize(w)
        g = weight_standardize_backward(cache, np.zeros_like(w))
        assert not np.any(g)

    def test_uniform_upstream_row_sums_vanish(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(3, 9))
        _, cache = weight_standardize(w)
        g = weight_standardize_backward(cache, np.ones_like(w))
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(3, 7))
        up = rng.normal(size=w.shape)

        def loss(w_val):
            w_hat, _ = weight_standardize(w_val.reshape(3, 7))
            return float(np.sum(w_hat * up))

        _, cache = weight_standardize(w)
        g = weight_standardize_backward(cache, up)
        assert rel_err(numeric_grad(loss, w), g) < 1e-5


# more than two parallel.PART_BYTES at float32, so the kernels run in parts,
# and several _SUM_BYTES steps of samples
LAYOUT_SHAPE = (20, 16, 32, 32)


class TestLayout:
    """A C-order input and its channels-last copy give the same values, and
    each output keeps its input's layout. At float32 every value is bitwise
    the same. At float64 the statistics' sums differ by summation order (np.mean
    walks memory order; BN's channel sums are a GEMV on channels-last
    memory), so the values agree within 1e-14 of the largest (measured
    here: at most 9.1e-16)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_affine(self, dtype):
        rng = np.random.default_rng(60)
        x = rng.normal(size=LAYOUT_SHAPE).astype(dtype)
        scale, bias = rng.normal(size=(2, LAYOUT_SHAPE[1]))
        y, y_cl = affine(x, scale, bias), affine(channels_last(x), scale, bias)
        assert is_c_order(y) and is_channels_last(y_cl) and y.dtype == y_cl.dtype == dtype
        np.testing.assert_array_equal(y, y_cl)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_norm(self, kind, dtype):
        rng = np.random.default_rng(61)
        x = (2 * rng.normal(size=LAYOUT_SHAPE) + 0.5).astype(dtype)
        up = rng.normal(size=LAYOUT_SHAPE).astype(dtype)
        out = []
        for layout in (np.asarray, channels_last):
            st = NormLayerState.create(kind, LAYOUT_SHAPE[1], dtype=dtype)
            st.g[:] = np.random.default_rng(62).normal(size=LAYOUT_SHAPE[1])
            y, cache = norm_forward(layout(x), st, Mode.TRAIN)
            grads = norm_backward(cache, layout(up))
            y_eval, _ = norm_forward(layout(x), st, Mode.EVAL)
            out.append((y, cache.x_hat, grads[0], y_eval, *grads[1:]))
        for i, (a, b) in enumerate(zip(*out)):
            if a.ndim == 4:
                assert is_c_order(a) and is_channels_last(b)
            assert a.dtype == b.dtype == dtype
            if dtype == np.float32:
                np.testing.assert_array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))

    @pytest.mark.parametrize("shape", [LAYOUT_SHAPE, (3, 5, 6, 4), (2, 7, 1, 1)])
    def test_channel_sums_within_the_stated_bound(self, shape):
        # on channels-last memory the channel sums are a GEMV per sample
        # and a sum over samples: within (n + h*w) * 2**-53 of the sum of
        # the channel's |x| of the exact sum
        x = np.random.default_rng(63).normal(1.0, 3.0, size=shape)
        n, c, h, w = shape
        got = normalization._channel_sums(channels_last(x))
        for ch in range(c):
            values = x[:, ch].ravel()
            exact = math.fsum(values)
            assert abs(got[ch] - exact) <= (n + h * w) * 2.0 ** -53 * np.sum(np.abs(values))
        # on C order the per-sample plane sums, added in sample order, are
        # bitwise np.sum over (0, 2, 3)
        np.testing.assert_array_equal(normalization._channel_sums(x),
                                      np.sum(x, axis=(0, 2, 3), dtype=np.float64))

    @pytest.mark.parametrize("layout", [np.asarray, channels_last], ids=["c", "cl"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sums_inside_a_pass_are_the_channel_sums(self, dtype, layout):
        # BN's variance sums and every kind's grad_b and grad_g are taken
        # slice by slice inside the pass that forms their operand: bitwise
        # `_channel_sums` of that operand
        rng = np.random.default_rng(65)
        x = layout((2 * rng.normal(size=LAYOUT_SHAPE) + 0.5).astype(dtype))
        up = layout(rng.normal(size=LAYOUT_SHAPE).astype(dtype))
        count = x.size // x.shape[1]

        def channel_mean(t):
            return (normalization._channel_sums(t) / count).astype(dtype).reshape(1, -1, 1, 1)

        for kind in ALL_KINDS:
            st = NormLayerState.create(kind, LAYOUT_SHAPE[1], dtype=dtype)
            _, cache = norm_forward(x, st, Mode.TRAIN)
            _, grad_g, grad_b = norm_backward(cache, up)
            np.testing.assert_array_equal(grad_b, normalization._channel_sums(up).astype(dtype))
            np.testing.assert_array_equal(
                grad_g, normalization._channel_sums(up * cache.x_hat).astype(dtype))
            if kind is NormKind.BN:
                var = channel_mean(np.square(x - channel_mean(x)))
                np.testing.assert_array_equal(cache.inv_std, 1.0 / np.sqrt(var + st.eps))

    @pytest.mark.parametrize("layout", [np.asarray, channels_last], ids=["c", "cl"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ln_grad_x_is_the_broadcast_form(self, dtype, layout):
        # LN's grad_x is bitwise the formula with inv * g as an (n, C, 1, 1)
        # operand, on either layout. Dyadic inputs keep every sum exact, so
        # the statistics' terms do not depend on the order of summation
        rng = np.random.default_rng(66)
        n, c, h, w = LAYOUT_SHAPE
        x_hat = layout((rng.integers(-8, 9, size=LAYOUT_SHAPE) / 8).astype(dtype))
        up = layout((rng.integers(-8, 9, size=LAYOUT_SHAPE) / 4).astype(dtype))
        g = (rng.integers(-4, 5, size=c) / 2).astype(dtype)
        inv_std = rng.uniform(0.5, 2.0, size=(n, 1, 1, 1)).astype(dtype)
        cache = normalization.NormCache(x_hat=x_hat, inv_std=inv_std, g=g, b=np.zeros_like(g),
                                        kind=NormKind.LN)
        grad_x = norm_backward(cache, up)[0]
        inv, g64 = inv_std.astype(np.float64), g.astype(np.float64).reshape(1, -1, 1, 1)
        m1, m2 = (np.sum(v * g64, axis=(1, 2, 3), keepdims=True) / (c * h * w)
                  for v in (up, up * x_hat))
        c1, c2, c3 = ((inv * v).astype(dtype) for v in (m1, m2, g64))
        assert c3.shape == (n, c, 1, 1)
        want = up * c3 - (x_hat * c2 + c1)
        assert grad_x.dtype == dtype and (is_channels_last(grad_x) or layout is np.asarray)
        np.testing.assert_array_equal(grad_x, want)

    @pytest.mark.parametrize("layout", [np.asarray, channels_last], ids=["c", "cl"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bitwise_across_threads(self, across_threads, kind, layout):
        # the per-sample sums run in parts of samples on the pool
        rng = np.random.default_rng(64)
        shape = (24,) + LAYOUT_SHAPE[1:]
        x = layout(rng.normal(size=shape).astype(np.float32))
        up = layout(rng.normal(size=shape).astype(np.float32))

        def run():
            st = NormLayerState.create(kind, shape[1], dtype=np.float32)
            y, cache = norm_forward(x, st, Mode.TRAIN)
            return [y, *norm_backward(cache, up), normalization._channel_sums(x)]

        across_threads(run)
