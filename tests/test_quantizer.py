import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maqd import quantizer
from maqd.normalization import affine
from maqd.quantizer import (QScaleMode, QuantConfig, QuantKind,
                            activation_surrogate_grad, quantize_activation,
                            quantize_tensor_backward, quantize_tensor_forward,
                            quantize_weight, scaled_round_clip, thresholds,
                            weight_surrogate_grad)
from gradcheck import scaled_sigmoid
from layout import channels_last, is_c_order, is_channels_last

CFG3_HALF = QuantConfig(m_w=3, m_a=4, qscale_mode=QScaleMode.HALF_MW)
CFG3_HALF_M1 = QuantConfig(m_w=3, m_a=4, qscale_mode=QScaleMode.HALF_MW_MINUS_ONE)


def reference_round_clip(z, qscale, lo, hi):
    """Direct scalar re-implementation used as the oracle."""
    v = qscale * z
    r = np.floor(abs(v) + 0.5) * (1 if v >= 0 else -1)
    return min(max(r / qscale, lo), hi)


class TestScaledRoundClip:
    def test_zero_fixed_point(self):
        assert scaled_round_clip(0.0, 3.0, 0.0, 1.0) == 0.0

    def test_saturation(self):
        assert scaled_round_clip(10.0, 1.0, -1.0, 1.0) == 1.0

    def test_hand_case(self):
        # round(3 * 0.4) / 3 = round(1.2) / 3 = 1/3
        assert scaled_round_clip(0.4, 3.0, 0.0, 1.0) == pytest.approx(1 / 3, abs=0)

    def test_exhaustive_scan_against_reference(self):
        for k in range(-200, 201):
            z = k / 100
            got = scaled_round_clip(z, 3.0, 0.0, 1.0)
            assert got == reference_round_clip(z, 3.0, 0.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            scaled_round_clip(np.nan, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            scaled_round_clip(np.inf, 1.0, -1.0, 1.0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            scaled_round_clip(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            scaled_round_clip(0.0, 1.0, 1.0, -1.0)


class TestQuantizeWeight:
    def test_zero_maps_to_zero(self):
        assert quantize_weight(0.0, CFG3_HALF) == 0.0
        assert quantize_weight(0.0, CFG3_HALF_M1) == 0.0

    def test_ternary_lattice_half_mw_minus_one(self):
        # m_w = 3 with qscale (m_w - 1)/2 = 1 gives exactly {-1, 0, 1}
        w = np.arange(-5, 5, 1e-3)
        out = np.unique(quantize_weight(w, CFG3_HALF_M1))
        assert np.array_equal(out, [-1.0, 0.0, 1.0])
        assert quantize_weight(3.0, CFG3_HALF_M1) == 1.0

    def test_half_mw_lattice(self):
        # qscale m_w/2 = 1.5: reachable set is {k/1.5} within the clip band
        w = np.arange(-5, 5, 1e-3)
        out = np.unique(quantize_weight(w, CFG3_HALF))
        assert np.array_equal(out, [-1.0, -2 / 3, 0.0, 2 / 3, 1.0])
        assert quantize_weight(0.9, CFG3_HALF) in out

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuantConfig(m_w=4)
        with pytest.raises(ValueError):
            QuantConfig(m_a=1)
        with pytest.raises(ValueError):
            QuantConfig(s=0.0)
        with pytest.raises(ValueError):
            QuantConfig(alpha=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("m_w", 65535), ("m_w", 70001), ("m_a", 65536), ("s", np.inf), ("s", np.nan),
        ("alpha", np.inf), ("alpha", np.nan)])
    def test_config_refuses_what_the_export_cannot_hold(self, field, value):
        # int16 weight states reach ceil(weight_qscale), which is 32768 at
        # m_w 65535; m_a is a u16; s and alpha are used as finite numbers.
        # The message starts with the field, which the CLI and the import name
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            QuantConfig(**{field: value})
        QuantConfig(m_w=65533, m_a=65535)

    @given(st.floats(-50, 50))
    def test_idempotent(self, w):
        for cfg in (CFG3_HALF, CFG3_HALF_M1):
            q = quantize_weight(w, cfg)
            assert quantize_weight(q / cfg.s, cfg) == q

    @given(st.floats(-20, 20), st.floats(-20, 20))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert quantize_weight(lo, CFG3_HALF) <= quantize_weight(hi, CFG3_HALF)

    @given(st.floats(-20, 20))
    def test_state_is_integer_within_qscale(self, w):
        for cfg in (CFG3_HALF, CFG3_HALF_M1, QuantConfig(m_w=15)):
            v = quantize_weight(w, cfg)
            q = cfg.weight_qscale
            state = v * q
            # clip endpoints +-1 may not sit on the lattice in HALF_MW mode
            if abs(v) != 1.0:
                assert state == round(state)
            assert abs(state) <= q + 1e-12


class TestQuantizeActivation:
    def test_four_state_lattice(self):
        a = np.arange(-2, 2, 1e-3)
        out = np.unique(quantize_activation(a, 4))
        assert np.array_equal(out, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_clip_low(self):
        assert quantize_activation(-0.7, 2) == 0.0

    def test_tie_rounds_away_from_zero(self):
        # m_a = 8: round(7 * 0.5) = round(3.5) = 4 under half-away-from-zero
        assert quantize_activation(0.5, 8) == pytest.approx(4 / 7, abs=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m_a", [2, 3, 8, 16, 256])
    def test_equals_round_half_away_form(self, dtype, m_a):
        # against scaled_round_clip, bitwise up to the sign of zero (+ 0.0
        # maps -0.0 to +0.0): ties (k + 0.5)/(m_a-1) and their neighbours,
        # negative inputs, inputs above 1 and a scalar
        ties = ((np.arange(-2, m_a + 1) + 0.5) / (m_a - 1)).astype(dtype)
        noise = np.random.default_rng(m_a).normal(0.5, 1.5, size=500).astype(dtype)
        a = np.concatenate([ties, np.nextafter(ties, dtype(-np.inf)),
                            np.nextafter(ties, dtype(np.inf)), noise,
                            np.array([-0.0, 0.0, 1.0, 7.0, -3.0], dtype)])
        uint = np.uint32 if dtype == np.float32 else np.uint64
        for x in (a, a.reshape(1, -1), a[7]):
            new = quantize_activation(x, m_a)
            old = scaled_round_clip(x, float(m_a - 1), 0.0, 1.0)
            assert type(new) is type(old) and new.dtype == old.dtype == dtype
            np.testing.assert_array_equal(np.asarray(new + 0.0).view(uint),
                                          np.asarray(old + 0.0).view(uint))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        for x in (bad, np.array([0.5, bad]), np.array([0.5, bad], dtype=np.float32)):
            with pytest.raises(ValueError, match="quantizer input must be finite"):
                quantize_activation(x, 8)

    def test_finite_input_whose_sum_overflows(self):
        x = np.full(4, np.finfo(np.float32).max, dtype=np.float32)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(quantize_activation(x, 8), 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("codes", [np.float32, np.float64])
    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "affine"])
    def test_codes_are_the_values_states(self, dtype, codes, fused):
        # the codes k, with a norm's affine in the same pass, are the states
        # of the values k/(m_a-1) of the affine's output, in the codes'
        # dtype; k/(m_a-1) in the input's dtype is bitwise those values
        rng = np.random.default_rng(36)
        x = rng.normal(0.4, 0.8, size=(3, 4, 5, 6)).astype(dtype)
        x[0, 0, 0, :3] = (np.array([0.5, 1.5, 2.5]) / 7).astype(dtype)  # ties
        scale, bias = rng.normal(size=4), rng.normal(0.3, 0.5, size=4)
        values = quantize_activation(affine(x, scale, bias) if fused else x, 8)
        k = quantize_activation(x, 8, codes=codes, affine=(scale, bias) if fused else None)
        assert k.dtype == codes and values.dtype == dtype
        np.testing.assert_array_equal(k, np.rint(values.astype(np.float64) * 7))
        np.testing.assert_array_equal(np.divide(k, 7, dtype=dtype), values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308], ids=["nan", "inf", "overflow"])
    def test_nonfinite_affine_output_rejected(self, bad):
        # the check runs on the affine's output, which is never whole
        x = np.full((2, 2, 3, 3), 0.25)
        x[1, 1, 2, 2] = bad
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="quantizer input must be finite"):
                quantize_activation(x, 8, codes=np.float32,
                                    affine=(np.array([1.0, 10.0]), np.zeros(2)))

    @given(st.floats(-10, 10), st.integers(2, 16))
    def test_lattice_membership(self, a, m_a):
        v = quantize_activation(a, m_a)
        state = v * (m_a - 1)
        assert state == round(state)
        assert 0 <= state <= m_a - 1

    @given(st.floats(-10, 10), st.integers(2, 16))
    def test_idempotent(self, a, m_a):
        q = quantize_activation(a, m_a)
        assert quantize_activation(q, m_a) == q

    @given(st.floats(-5, 5), st.floats(-5, 5), st.integers(2, 16))
    def test_monotone(self, a, b, m_a):
        lo, hi = min(a, b), max(a, b)
        assert quantize_activation(lo, m_a) <= quantize_activation(hi, m_a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m_a,count_dtype", [(2, np.uint8), (8, np.uint8),
                                                 (300, np.uint16)])
    def test_thresholds_count_the_ones_reached(self, dtype, m_a, count_dtype):
        rng = np.random.default_rng(m_a)
        x = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        t = rng.normal(size=(m_a - 1, 3)).astype(dtype)
        t[0, 0], t[-1, 1] = -np.inf, np.inf
        t[:, 2] = x[0, 2, 0, 0]  # an input on a threshold reaches it
        count = quantize_activation(x, m_a, thresholds=t)
        assert count.dtype == count_dtype
        ref = sum((x >= tk.reshape(1, 3, 1, 1)).astype(np.int64) for tk in t)
        np.testing.assert_array_equal(count, ref)
        assert np.all(count[0, 2, 0, 0] == m_a - 1)


class TestThresholds:
    def test_binary(self):
        assert np.array_equal(thresholds(2), [0.5])

    def test_four_states(self):
        np.testing.assert_allclose(thresholds(4), [1 / 6, 1 / 2, 5 / 6], rtol=0, atol=0)

    def test_three_states(self):
        np.testing.assert_allclose(thresholds(3), [0.25, 0.75], rtol=0, atol=0)

    def test_rejects_small_m_a(self):
        with pytest.raises(ValueError):
            thresholds(1)

    @pytest.mark.parametrize("m_a", range(2, 17))
    def test_each_is_state_midpoint(self, m_a):
        states = np.arange(m_a) / (m_a - 1)
        midpoints = (states[:-1] + states[1:]) / 2
        np.testing.assert_allclose(thresholds(m_a), midpoints, atol=1e-15)

    @pytest.mark.parametrize("m_a", range(2, 17))
    def test_switching_points(self, m_a):
        for b in thresholds(m_a):
            below = quantize_activation(b - 1e-6, m_a)
            above = quantize_activation(b + 1e-6, m_a)
            assert above - below == pytest.approx(1 / (m_a - 1), rel=1e-9)


class TestWeightSurrogate:
    def test_interior(self):
        assert weight_surrogate_grad(0.0, CFG3_HALF) == 1.0

    def test_outside_band(self):
        assert weight_surrogate_grad(6.0, CFG3_HALF) == 0.0

    def test_boundary_excluded(self):
        # |s * 3| = 1 exactly; the strict inequality gives zero gradient
        assert weight_surrogate_grad(3.0, CFG3_HALF) == 0.0
        assert weight_surrogate_grad(-3.0, CFG3_HALF) == 0.0
        assert weight_surrogate_grad(np.nextafter(3.0, 0.0), CFG3_HALF) == 1.0


class TestActivationSurrogate:
    def test_binary_center_value(self):
        # sigma at its center is 1/2, so (1/alpha) * 1/4 = 1 with alpha = 0.25
        assert activation_surrogate_grad(0.5, 2, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_saturation(self):
        assert activation_surrogate_grad(100.0, 2, 0.25) < 1e-30
        assert activation_surrogate_grad(-100.0, 2, 0.25) < 1e-30

    def test_positive_everywhere(self):
        grid = np.linspace(-2, 3, 501)
        assert np.all(activation_surrogate_grad(grid, 8, 0.25) > 0)

    @pytest.mark.parametrize("m_a", [2, 4, 8])
    def test_matches_finite_difference(self, m_a):
        alpha = 0.25
        grid = np.linspace(-0.5, 1.5, 1000)
        h = 1e-6

        def total_sigmoid(z):
            return np.sum(scaled_sigmoid(z[:, None] - thresholds(m_a), alpha), axis=1)

        fd = (total_sigmoid(grid + h) - total_sigmoid(grid - h)) / (2 * h)
        got = activation_surrogate_grad(grid, m_a, alpha)
        assert np.max(np.abs(got - fd) / np.abs(fd)) < 1e-6

    @pytest.mark.parametrize("m_a", [2, 4, 8])
    def test_closed_form_accuracy_and_dtype(self, m_a):
        alpha = 0.25
        z = np.concatenate([np.linspace(-3, 4, 7001),
                            np.random.default_rng(m_a).normal(size=5000)])
        zl, al = z.astype(np.longdouble), np.longdouble(alpha)
        ref = sum(1 / (al * (2 + 2 * np.cosh((zl - np.longdouble(b)) / al)))
                  for b in thresholds(m_a))
        # float32: rounding z to float32 alone moves a bump by up to
        # |z| * 2**-24 / alpha relative (~1e-6 at |z| = 4), before any
        # float32 arithmetic.
        cfg = QuantConfig(m_a=m_a, alpha=alpha)
        for dtype, bound in ((np.float64, 1e-13), (np.float32, 4e-6)):
            zd = z.astype(dtype)
            got = activation_surrogate_grad(zd, m_a, alpha)
            assert got.dtype == dtype
            assert np.max(np.abs(got.astype(np.longdouble) - ref) / ref) <= bound
            for kind in QuantKind:
                assert quantize_tensor_forward(zd, kind, cfg).dtype == dtype
                g = quantize_tensor_backward(zd, np.ones_like(zd), kind, cfg)
                assert g.dtype == dtype

    def test_closed_form_small_alpha(self):
        # 1/((m_a-1) alpha) = 33 per threshold: a float64 chain of multiplies
        # covers 6 thresholds and a float32 one covers 1, so several anchors run.
        m_a, alpha = 16, 0.002
        z = (thresholds(m_a)[:, None] + alpha * np.linspace(-4, 4, 41)).ravel()
        for dtype in (np.float64, np.float32):
            zd = z.astype(dtype)
            zl, al = zd.astype(np.longdouble), np.longdouble(alpha)
            ref = sum(1 / (al * (2 + 2 * np.cosh((zl - np.longdouble(b)) / al)))
                      for b in thresholds(m_a))
            got = activation_surrogate_grad(zd, m_a, alpha)
            bound = 1e-13 if dtype is np.float64 else 4e-6
            assert np.max(np.abs(got.astype(np.longdouble) - ref) / ref) <= bound

    def test_huge_alpha_is_finite(self):
        # 1/((m_a-1) alpha) is 0 at alpha 1e308: one chain spans every
        # threshold, and each bump is its flat value 1/(4 alpha)
        got = activation_surrogate_grad(np.linspace(-3, 4, 29), 8, 1e308)
        assert got.dtype == np.float64 and np.all(np.isfinite(got))
        np.testing.assert_allclose(got, 7 / 4 / 1e308, rtol=1e-12)

    def test_four_state_value(self):
        # sum of three bumps at offsets from the thresholds {1/6, 1/2, 5/6}
        alpha = 0.25
        expected = 0.0
        for b in thresholds(4):
            p = 1 / (1 + np.exp(-(0.5 - b) / alpha))
            expected += p * (1 - p) / alpha
        assert activation_surrogate_grad(0.5, 4, alpha) == pytest.approx(expected, rel=1e-12)


class TestTensorQuantize:
    def test_zero_tensor(self):
        t = np.zeros((2, 2, 2, 2))
        for kind in QuantKind:
            q = quantize_tensor_forward(t, kind, CFG3_HALF_M1)
            assert np.all(q == 0)
            assert q.shape == t.shape and q.dtype == t.dtype

    def test_weight_ternary(self):
        rng = np.random.default_rng(0)
        t = rng.normal(scale=5, size=(3, 2, 3, 3))
        q = quantize_tensor_forward(t, QuantKind.WEIGHT, CFG3_HALF_M1)
        assert set(np.unique(q)) <= {-1.0, 0.0, 1.0}

    def test_activation_lattice_membership(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(2, 3, 4, 4))
        q = quantize_tensor_forward(t, QuantKind.ACTIVATION, CFG3_HALF)
        states = q * (CFG3_HALF.m_a - 1)
        assert np.array_equal(states, np.round(states))

    def test_backward_zero_upstream(self):
        t = np.ones((1, 2, 2, 2))
        g = quantize_tensor_backward(t, np.zeros_like(t), QuantKind.ACTIVATION, CFG3_HALF)
        assert np.all(g == 0)

    def test_weight_passthrough_at_zero(self):
        t = np.zeros((1, 1, 2, 2))
        up = np.arange(4.0).reshape(1, 1, 2, 2)
        g = quantize_tensor_backward(t, up, QuantKind.WEIGHT, CFG3_HALF)
        assert np.array_equal(g, up)

    def test_activation_backward_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(2, 2, 3, 3))
        up = rng.normal(size=t.shape)
        g = quantize_tensor_backward(t, up, QuantKind.ACTIVATION, CFG3_HALF)
        for idx in np.ndindex(t.shape):
            expected = up[idx] * activation_surrogate_grad(
                t[idx], CFG3_HALF.m_a, CFG3_HALF.alpha)
            assert g[idx] == pytest.approx(expected, rel=1e-12)

    def test_backward_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantize_tensor_backward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)),
                                     QuantKind.WEIGHT, CFG3_HALF)


class TestBlockedSurrogateBackward:
    """The activation backward runs in blocks of quantizer._CHUNK elements;
    the blocks must not show in the result."""

    CFG = QuantConfig(m_w=15, m_a=8)

    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-13), (np.float32, 4e-6)])
    def test_tensor_spanning_blocks(self, dtype, bound):
        chunk = quantizer._CHUNK
        n = 2 * chunk + 37
        rng = np.random.default_rng(30)
        z = rng.uniform(-1.0, 2.0, size=n).astype(dtype)
        up = rng.normal(size=n).astype(dtype)
        m_a, alpha = self.CFG.m_a, self.CFG.alpha
        g = quantize_tensor_backward(z, up, QuantKind.ACTIVATION, self.CFG)
        assert g.dtype == dtype and g.shape == (n,)
        surrogate = activation_surrogate_grad(z, m_a, alpha)
        np.testing.assert_allclose(g, surrogate * up, rtol=1e-12, atol=0)
        # the same accuracy bound as test_closed_form_accuracy_and_dtype
        zl, al = z.astype(np.longdouble), np.longdouble(alpha)
        ref = sum(1 / (al * (2 + 2 * np.cosh((zl - np.longdouble(b)) / al)))
                  for b in thresholds(m_a))
        assert np.max(np.abs(surrogate.astype(np.longdouble) - ref) / ref) <= bound
        # elements on either side of each block edge, one element at a time
        for i in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n - 1):
            assert g[i] == pytest.approx(
                up[i] * activation_surrogate_grad(z[i], m_a, alpha), rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_contiguous_views(self, dtype):
        rng = np.random.default_rng(31)
        shape = (3, 8, 64, 64)     # more than one block
        saved = rng.uniform(-1.0, 2.0, size=shape[:3] + (128,)).astype(dtype)[..., ::2]
        up = rng.normal(size=(3, 64, 64, 8)).astype(dtype).transpose(0, 3, 1, 2)
        assert not saved.flags.c_contiguous and not up.flags.c_contiguous
        g = quantize_tensor_backward(saved, up, QuantKind.ACTIVATION, self.CFG)
        assert g.shape == shape and g.dtype == dtype
        surrogate = activation_surrogate_grad(saved, self.CFG.m_a, self.CFG.alpha)
        np.testing.assert_allclose(g, surrogate * up, rtol=1e-12, atol=0)
        contiguous = quantize_tensor_backward(np.ascontiguousarray(saved),
                                              np.ascontiguousarray(up),
                                              QuantKind.ACTIVATION, self.CFG)
        np.testing.assert_array_equal(g, contiguous)


class TestRebuiltInput:
    """An activation after a norm hands the backward the norm's x_hat and
    per-channel (g, b): each block, whole channel planes, rebuilds
    z = x_hat * g + b the way `norm_forward` forms its output, so the result
    is bitwise that of the backward given z itself."""

    CFG = QuantConfig(m_w=15, m_a=8)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape, chunk", [
        ((3, 5, 8, 8), None),        # one block
        ((3, 5, 8, 8), 200),         # 3 planes a block, a ragged last block
        ((2, 3, 16, 16), 100),       # planes larger than a chunk: one a block
        ((4, 6, 1, 1), 7),           # 1x1 planes
    ])
    def test_bitwise_the_backward_of_z(self, monkeypatch, dtype, shape, chunk):
        if chunk is not None:
            monkeypatch.setattr(quantizer, "_CHUNK", chunk)
        rng = np.random.default_rng(32)
        x_hat = rng.normal(size=shape).astype(dtype)
        g = rng.uniform(0.2, 2.0, size=shape[1]).astype(dtype)
        g[1] = 0.0                   # a zero gain is no special case: nothing divides by g
        b = rng.normal(0.3, 0.5, size=shape[1]).astype(dtype)
        up = rng.normal(size=shape).astype(dtype)
        z = np.multiply(x_hat, g.reshape(1, -1, 1, 1))
        z += b.reshape(1, -1, 1, 1)
        want = quantize_tensor_backward(z, up, QuantKind.ACTIVATION, self.CFG)
        got = quantize_tensor_backward(x_hat, up, QuantKind.ACTIVATION, self.CFG,
                                       affine=(g, b))
        assert got.dtype == dtype and got.shape == shape
        np.testing.assert_array_equal(got, want)


class TestPool:
    """The surrogate's _CHUNK blocks and the activation quantizer's sample
    slices run on parallel.THREADS threads; every result is bitwise the
    one-thread result."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
    def test_surrogate(self, across_threads, dtype, affine):
        rng = np.random.default_rng(33)
        shape = (24, 16, 32, 32)
        x_hat = rng.normal(size=shape).astype(dtype)
        up = rng.normal(size=shape).astype(dtype)
        gb = (rng.uniform(0.2, 2.0, size=16).astype(dtype),
              rng.normal(0.3, 0.5, size=16).astype(dtype)) if affine else None
        cfg = QuantConfig(m_w=15, m_a=8)
        across_threads(lambda: [
            quantize_tensor_backward(x_hat, up, QuantKind.ACTIVATION, cfg, affine=gb),
            activation_surrogate_grad(x_hat, cfg.m_a, cfg.alpha, affine=gb)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_activation_quantizer(self, across_threads, dtype):
        rng = np.random.default_rng(34)
        a_hat = rng.uniform(-0.5, 1.5, size=(24, 16, 32, 32)).astype(dtype)
        levels = np.sort(rng.uniform(0.0, 1.0, size=(7, 16)), axis=0).astype(dtype)
        scale, bias = rng.normal(size=16), rng.normal(size=16)
        across_threads(lambda: [quantize_activation(a_hat, 8),
                                quantize_activation(a_hat, 8, levels),
                                quantize_activation(a_hat, 8, codes=np.float32,
                                                    affine=(scale, bias))])


class TestLayout:
    """A C-order input and its channels-last copy give bitwise the same
    values, and each output keeps its input's layout. On channels-last
    memory the surrogate's blocks are whole pixels, g and b repeating with
    period c; the per-channel operands of the quantizer are tiles of one
    sample."""

    SHAPE = (20, 16, 32, 32)   # more than two parallel.PART_BYTES at float32

    @staticmethod
    def _both(fn, *tensors):
        a = fn(*tensors)
        b = fn(*(channels_last(t) for t in tensors))
        assert is_c_order(a) and is_channels_last(b) and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
        return a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_activation(self, dtype):
        rng = np.random.default_rng(70)
        a_hat = rng.uniform(-0.5, 1.5, size=self.SHAPE).astype(dtype)
        levels = np.sort(rng.uniform(0.0, 1.0, size=(7, 16)), axis=0).astype(dtype)
        scale, bias = rng.normal(size=16), rng.normal(size=16)
        self._both(lambda a: quantize_activation(a, 8), a_hat)
        self._both(lambda a: quantize_activation(a, 8, codes=np.float32), a_hat)
        self._both(lambda a: quantize_activation(a, 8, affine=(scale, bias)), a_hat)
        self._both(lambda a: quantize_activation(a, 8, codes=np.float32,
                                                 affine=(scale, bias)), a_hat)
        counts = self._both(lambda a: quantize_activation(a, 8, levels), a_hat)
        assert counts.dtype == np.uint8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
    @pytest.mark.parametrize("chunk", [None, 200], ids=["chunk", "small_chunk"])
    def test_surrogate(self, monkeypatch, dtype, affine, chunk):
        # a chunk of 200 elements: 12 pixels of 16 channels a block on
        # channels-last memory, one whole plane on C-order
        if chunk is not None:
            monkeypatch.setattr(quantizer, "_CHUNK", chunk)
        rng = np.random.default_rng(71)
        shape = self.SHAPE if chunk is None else (3, 16, 8, 8)
        x_hat = rng.normal(size=shape).astype(dtype)
        up = rng.normal(size=shape).astype(dtype)
        gb = (rng.uniform(0.2, 2.0, size=16).astype(dtype),
              rng.normal(0.3, 0.5, size=16).astype(dtype)) if affine else None
        cfg = QuantConfig(m_w=15, m_a=8)
        self._both(lambda z, u: quantize_tensor_backward(z, u, QuantKind.ACTIVATION, cfg,
                                                         affine=gb), x_hat, up)
        self._both(lambda z: activation_surrogate_grad(z, cfg.m_a, cfg.alpha, affine=gb),
                   x_hat)
