import numpy as np
import pytest

from maqd import training
from maqd.datasets import LabeledImageSet, synthetic_blobs
from maqd.network import (ActQuant, Conv2d, GlobalAvgPool, ModelGraph, Param,
                          ResidualBlock, build_model)
from maqd.normalization import Mode, NormKind
from maqd.quantizer import QuantConfig
from maqd.training import (LossConfig, OptimState, combined_loss, compute_r_w,
                           cosine_lr, evaluate, measure_step_bytes,
                           norm_comparison_experiment, scaled_lr_for_batch,
                           sgd_momentum_step, train)
from gradcheck import numeric_grad, rel_err


class TestCombinedLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 10))
        labels = np.array([0, 3, 9, 2])
        loss, _ = combined_loss(logits, labels, LossConfig(gamma=0.0))
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -np.mean(log_probs[np.arange(4), labels])
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gamma_one_at_one_hot_logits(self):
        logits = np.zeros((3, 5))
        labels = np.array([1, 2, 4])
        logits[np.arange(3), labels] = 1.0
        loss, _ = combined_loss(logits, labels, LossConfig(gamma=1.0))
        assert loss == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 10))
        labels = rng.integers(0, 10, size=4)
        cfg = LossConfig(gamma=0.05)
        _, grad = combined_loss(logits, labels, cfg)
        fd = numeric_grad(lambda v: combined_loss(v, labels, cfg)[0], logits, step=1e-6)
        assert rel_err(fd, grad) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            combined_loss(np.zeros((2, 3)), np.array([0, 3]))

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            LossConfig(gamma=1.5)


class TestSgdMomentum:
    def _params(self, values):
        return [Param("p", np.array(values, dtype=np.float64), decay=True)]

    def test_zero_grad_no_motion(self):
        params = self._params([1.0, 2.0])
        sgd_momentum_step(params, OptimState(learning_rate=0.1))
        np.testing.assert_array_equal(params[0].data, [1.0, 2.0])

    def test_plain_sgd(self):
        params = self._params([1.0])
        params[0].grad[:] = 2.0
        sgd_momentum_step(params, OptimState(learning_rate=0.1, momentum=0.0))
        assert params[0].data.item() == pytest.approx(0.8)

    def test_two_step_closed_form(self):
        # constant gradient g for two steps: displacement lr*g*(2 + mu)
        lr, mu, g = 0.1, 0.9, 3.0
        params = self._params([0.0])
        opt = OptimState(learning_rate=lr, momentum=mu)
        for _ in range(2):
            params[0].grad[:] = g
            sgd_momentum_step(params, opt)
        assert params[0].data.item() == pytest.approx(-lr * g * (2 + mu), rel=1e-12)

    def test_weight_decay_on_decaying_params_only(self):
        p_w = Param("w", np.array([1.0]), decay=True)
        p_g = Param("g", np.array([1.0]), decay=False)
        sgd_momentum_step([p_w, p_g], OptimState(learning_rate=0.1, momentum=0.0,
                                                 weight_decay=0.5))
        assert p_w.data.item() == pytest.approx(1.0 - 0.1 * 0.5)
        assert p_g.data.item() == 1.0

    def test_shape_mismatch(self):
        params = self._params([1.0])
        opt = OptimState(learning_rate=0.1, velocity=[np.zeros(3)])
        with pytest.raises(ValueError):
            sgd_momentum_step(params, opt)

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            OptimState(learning_rate=0.1, momentum=1.0)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", 0.0), ("learning_rate", np.inf), ("learning_rate", np.nan),
        ("weight_decay", -1.0), ("weight_decay", np.inf), ("weight_decay", np.nan)])
    def test_settings_that_cannot_train_name_their_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            OptimState(**{"learning_rate": 0.1, field: value})


class TestSchedules:
    def test_cosine_endpoints(self):
        assert cosine_lr(0.4, 0, 10) == pytest.approx(0.4)
        assert cosine_lr(0.4, 10, 10) == pytest.approx(0.0, abs=1e-15)
        assert cosine_lr(0.4, 5, 10) == pytest.approx(0.2)

    def test_cosine_non_increasing(self):
        values = [cosine_lr(1.0, e, 50) for e in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_lr_scaling(self):
        assert scaled_lr_for_batch(0.01, 128) == pytest.approx(0.01)
        assert scaled_lr_for_batch(0.01, 256) == pytest.approx(0.02)
        assert scaled_lr_for_batch(0.01, 32) == pytest.approx(0.0025)
        with pytest.raises(ValueError):
            scaled_lr_for_batch(0.01, 0)


class TestSparsityMetrics:
    def test_r_w_counts_nonzero_states(self):
        cfg = QuantConfig(m_w=3, m_a=2, s=1.0)
        rng = np.random.default_rng(2)
        conv = Conv2d(1, 4, kernel=1, rng=rng, weight_standardized=False, quant=cfg)
        conv.weight.data[...] = np.array([-3.0, 0.0, 3.0, 0.0]).reshape(4, 1, 1, 1)
        g = ModelGraph([conv, GlobalAvgPool()], "tiny", 4, cfg, NormKind.LBN)
        total, per_layer = compute_r_w(g)
        assert total == pytest.approx(0.5)
        assert per_layer == [0.5]

    def test_r_w_zero_when_all_states_zero(self):
        cfg = QuantConfig(m_w=3, m_a=2)
        conv = Conv2d(1, 2, kernel=1, rng=np.random.default_rng(3),
                      weight_standardized=False, quant=cfg)
        conv.weight.data[...] = 1e-4
        g = ModelGraph([conv, GlobalAvgPool()], "tiny", 2, cfg, NormKind.LBN)
        assert compute_r_w(g)[0] == 0.0

    def test_r_w_nonquantized_convention(self):
        g = build_model("vgg-mini", 10, quant=None, seed=0)
        total, per_layer = compute_r_w(g)
        assert total == 1.0 and all(v == 1.0 for v in per_layer)

    def test_r_w_matches_brute_force(self):
        cfg = QuantConfig(m_w=3, m_a=2)
        g = build_model("vgg-mini", 10, quant=cfg, seed=4)
        total, per_layer = compute_r_w(g)
        counts = []
        for conv in g.conv_layers():
            w_q, _, _ = conv.effective_weight()
            counts.append((int((w_q != 0).sum()), w_q.size))
        assert total == pytest.approx(sum(c for c, _ in counts) / sum(n for _, n in counts))
        for got, (c, n) in zip(per_layer, counts):
            assert got == pytest.approx(c / n)

    def test_r_a_single_sample(self):
        cfg = QuantConfig(m_w=3, m_a=4)
        act = ActQuant(cfg)
        conv = Conv2d(1, 1, kernel=1, rng=np.random.default_rng(5),
                      weight_standardized=False, quant=None)
        conv.weight.data[...] = 1.0
        g = ModelGraph([conv, act, GlobalAvgPool()], "tiny", 1, cfg, NormKind.LBN)
        images = np.array([0.0, 1 / 3, 0.0, 1.0]).reshape(1, 1, 2, 2)
        data = LabeledImageSet(images, np.zeros(1, dtype=np.int64), class_count=1)
        res = evaluate(g, data, LossConfig())
        assert res.r_a == pytest.approx(0.5)
        assert res.r_a_per_layer == [pytest.approx(0.5)]

    def test_r_a_averages_per_sample_ratios(self):
        cfg = QuantConfig(m_w=3, m_a=4)
        act = ActQuant(cfg)
        conv = Conv2d(1, 1, kernel=1, rng=np.random.default_rng(6),
                      weight_standardized=False, quant=None)
        conv.weight.data[...] = 1.0
        g = ModelGraph([conv, act, GlobalAvgPool()], "tiny", 1, cfg, NormKind.LBN)
        # sample A: 1/4 nonzero; sample B: 3/4 nonzero -> mean of ratios 0.5
        images = np.stack([
            np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 2, 2),
            np.array([1.0, 1.0, 1.0, 0.0]).reshape(1, 2, 2),
        ])
        data = LabeledImageSet(images, np.zeros(2, dtype=np.int64), class_count=1)
        res = evaluate(g, data, LossConfig(), batch_size=1)
        assert res.r_a == pytest.approx((0.25 + 0.75) / 2)

    def test_r_a_of_residual_branches_matches_leaf_walk(self):
        g = build_model("preact-mini", 3, quant=QuantConfig(), seed=3, input_hw=8)
        rng = np.random.default_rng(4)
        for _ in range(2):   # running statistics away from their initial values
            g.forward(rng.normal(size=(4, 3, 8, 8)), Mode.TRAIN)
        images = rng.normal(size=(10, 3, 8, 8))
        data = LabeledImageSet(images, rng.integers(0, 3, size=10), class_count=3)

        outputs = []

        def walk(layers, x):
            for layer in layers:
                if isinstance(layer, ResidualBlock):
                    x = layer.join(x, walk(layer.s_branch, x), walk(layer.f_branch, x),
                                   Mode.EVAL)
                else:
                    x = layer.forward(x, Mode.EVAL)
                    if isinstance(layer, ActQuant):
                        outputs.append(x.reshape(x.shape[0], -1))
            return x

        walk(g.layers, images)
        assert len(outputs) == len(g.activation_layers()) == 9
        expected = [float(np.mean(np.count_nonzero(o, axis=1) / o.shape[1]))
                    for o in outputs]
        assert 0.0 < max(expected) < 1.0
        res = evaluate(g, data, LossConfig(), batch_size=4)
        np.testing.assert_allclose(res.r_a_per_layer, expected, rtol=1e-12)
        sizes = [o.shape[1] for o in outputs]
        assert res.r_a == pytest.approx(np.average(expected, weights=sizes), rel=1e-12)

    def test_evaluate_leaves_layer_attributes_alone(self, monkeypatch):
        """Checked after each batch's forward and after the pass."""
        g = build_model("preact-mini", 3, quant=QuantConfig(), seed=3, input_hw=8)
        g.forward(np.random.default_rng(5).normal(size=(4, 3, 8, 8)), Mode.TRAIN)
        layers = g.layers + g.all_layers()
        before = [dict(vars(l)) for l in layers]

        def check():
            for layer, attrs in zip(layers, before):
                assert vars(layer).keys() == attrs.keys()
                assert all(vars(layer)[k] is v for k, v in attrs.items())

        def checked_loss(*args):
            check()
            return combined_loss(*args)

        monkeypatch.setattr(training, "combined_loss", checked_loss)
        data = LabeledImageSet(np.ones((5, 3, 8, 8)), np.zeros(5, dtype=np.int64), 3)
        evaluate(g, data, LossConfig(), batch_size=2)
        check()

    def test_r_a_empty_set_rejected(self):
        g = build_model("vgg-mini", 10, quant=QuantConfig(), seed=0)
        data = LabeledImageSet(np.zeros((1, 3, 8, 8)), np.zeros(1, dtype=np.int64), 10)
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(g, LabeledImageSet(data.images[:0], data.labels[:0], 10), LossConfig())

    def test_r_a_all_below_threshold(self):
        cfg = QuantConfig(m_w=3, m_a=4)
        act = ActQuant(cfg)
        conv = Conv2d(1, 1, kernel=1, rng=np.random.default_rng(7),
                      weight_standardized=False)
        conv.weight.data[...] = 1.0
        g = ModelGraph([conv, act, GlobalAvgPool()], "tiny", 1, cfg, NormKind.LBN)
        images = np.full((3, 1, 2, 2), -2.0)
        data = LabeledImageSet(images, np.zeros(3, dtype=np.int64), class_count=1)
        assert evaluate(g, data, LossConfig()).r_a == 0.0


def _blob_split(classes=2, per_class=120, seed=5):
    full = synthetic_blobs(classes=classes, per_class=per_class, seed=seed,
                           dtype=np.float32)
    n = int(0.8 * full.images.shape[0])
    train_set = LabeledImageSet(full.images[:n], full.labels[:n], classes)
    test_set = LabeledImageSet(full.images[n:], full.labels[n:], classes)
    return train_set, test_set


def _mini_graph(train_set, quant=None, seed=1):
    return build_model("vgg-mini", train_set.class_count, quant=quant,
                       norm_kind=NormKind.LBN, seed=seed, dtype=np.float32,
                       in_channels=1)


class TestTrainLoop:
    def test_zero_epochs_evaluates_initial_state(self):
        train_set, test_set = _blob_split()
        g = _mini_graph(train_set)
        log = train(g, train_set, test_set, epochs=0, batch_size=32)
        assert len(log) == 1 and log[0].epoch == 0
        assert 0.0 <= log[0].test_acc <= 1.0

    def test_one_test_pass_per_epoch(self):
        train_set, test_set = _blob_split()
        g = _mini_graph(train_set)
        modes = []
        forward = g.forward

        def counting_forward(x, mode=Mode.TRAIN, visit=None):
            modes.append(mode)
            return forward(x, mode, visit)

        g.forward = counting_forward
        train(g, train_set, test_set, epochs=1, batch_size=32)
        n_test = test_set.images.shape[0]
        assert modes.count(Mode.EVAL) == -(-n_test // 32)

    @pytest.mark.slow
    def test_fits_separable_blobs(self):
        train_set, test_set = _blob_split()
        g = _mini_graph(train_set)
        log = train(g, train_set, test_set, epochs=20, batch_size=32, base_lr=0.02)
        assert evaluate(g, train_set, LossConfig()).acc >= 0.95

    @pytest.mark.slow
    def test_loss_decreases_early(self):
        train_set, test_set = _blob_split()
        g = _mini_graph(train_set)
        log = train(g, train_set, test_set, epochs=15, batch_size=32, base_lr=0.02)
        losses = [r.train_loss for r in log]
        smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert smoothed[-1] < smoothed[0]

    def test_same_seed_reproduces_log(self):
        train_set, test_set = _blob_split()
        logs = []
        for _ in range(2):
            g = _mini_graph(train_set, seed=2)
            logs.append(train(g, train_set, test_set, epochs=2, batch_size=32, seed=9))
        for a, b in zip(*logs):
            assert (a.train_loss, a.test_loss, a.test_acc, a.r_w, a.r_a) == \
                (b.train_loss, b.test_loss, b.test_acc, b.r_w, b.r_a)

    def test_quantized_weights_are_quantizer_outputs(self):
        from maqd.quantizer import quantize_weight
        from maqd.normalization import weight_standardize
        train_set, test_set = _blob_split()
        cfg = QuantConfig(m_w=3, m_a=2)
        g = _mini_graph(train_set, quant=cfg)
        train(g, train_set, test_set, epochs=1, batch_size=32)
        for conv in g.conv_layers():
            w2d = conv.weight.data.reshape(conv.out_ch, -1)
            w_hat, _ = weight_standardize(w2d)
            expected = quantize_weight(w_hat, cfg).astype(w2d.dtype)
            got, _, _ = conv.effective_weight()
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_is_refused_before_the_first_step(self, split):
        sets = dict(zip(("train", "test"), _blob_split()))
        full = sets[split]
        sets[split] = LabeledImageSet(full.images[:0], full.labels[:0], full.class_count)
        g = _mini_graph(sets["train"])
        before = [p.data.copy() for p in g.parameters()]
        with pytest.raises(ValueError, match=f"^empty {split} set$"):
            train(g, sets["train"], sets["test"], epochs=1, batch_size=32)
        for p, b in zip(g.parameters(), before):
            np.testing.assert_array_equal(p.data, b)


class TestNormComparison:
    @pytest.mark.slow
    def test_table_shape_and_memory_monotonicity(self):
        train_set, test_set = _blob_split(classes=2, per_class=60)
        rows = norm_comparison_experiment(
            train_set, test_set, batch_sizes=[8, 32],
            variants=["BN", "LBN+WS"], epochs=2, arch="vgg-mini",
            metrics_max_samples=48)
        assert len(rows) == 4
        for variant in ("BN", "LBN+WS"):
            sizes = sorted((r.batch_size, r.peak_bytes) for r in rows
                           if r.variant == variant)
            assert sizes[0][1] < sizes[1][1]

    def test_measure_step_bytes_grows_with_batch(self):
        train_set, _ = _blob_split(classes=2, per_class=40)
        g = _mini_graph(train_set)
        small = measure_step_bytes(g, train_set.images[:4], train_set.labels[:4])
        big = measure_step_bytes(g, train_set.images[:16], train_set.labels[:16])
        assert small < big
