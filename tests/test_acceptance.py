"""End-to-end acceptance checks, one numbered test (or group) per criterion.

Criteria 1-7 are self-contained. Criteria 8-10 train on real MNIST / CIFAR-10
data and skip with an explanation when no dataset directory is available
(MAQD_DATA_DIR or a `mnist` / `cifar-10-batches-bin` subdirectory of it).
Criterion 11 is a full-scale run gated behind MAQD_RUN_EXTENDED=1.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from maqd.datasets import LabeledImageSet, load_cifar, load_mnist_idx, pad_images
from maqd.export import export, import_model, parity_check
from maqd.network import (Conv2d, GlobalAvgPool, ModelGraph, NormLayer, ReLU,
                          build_model)
from maqd.normalization import Mode, NormKind, NormLayerState, \
    norm_forward, weight_standardize
from maqd.quantizer import (QScaleMode, QuantConfig, activation_surrogate_grad,
                            quantize_activation, quantize_weight, thresholds)
from maqd.training import LossConfig, combined_loss, norm_comparison_experiment, train
from gradcheck import numeric_grad, rel_err, scaled_sigmoid


def _data_subdir(*names):
    root = os.environ.get("MAQD_DATA_DIR")
    if not root:
        return None
    for candidate in [Path(root)] + [Path(root) / n for n in names]:
        if candidate.is_dir():
            yield candidate


def find_mnist():
    for d in _data_subdir("mnist", "MNIST") or []:
        for suffix in ("", ".gz"):
            if (d / f"train-images-idx3-ubyte{suffix}").exists():
                return d
    return None


def find_cifar10():
    for d in _data_subdir("cifar-10-batches-bin", "cifar10") or []:
        if (d / "data_batch_1.bin").exists():
            return d
    return None


class TestCriterion1:
    """Quantizer lattice exactness at 64-bit, zero tolerance."""

    def test_criterion_1_activation_lattice(self):
        grid = np.arange(-2.0, 2.0 + 1e-4, 1e-4)
        emitted = set(np.unique(quantize_activation(grid, 4)))
        assert emitted == {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}

    def test_criterion_1_weight_lattice(self):
        cfg = QuantConfig(m_w=3, qscale_mode=QScaleMode.HALF_MW_MINUS_ONE)
        grid = np.arange(-2.0, 2.0 + 1e-4, 1e-4)
        emitted = set(np.unique(quantize_weight(grid, cfg)))
        assert emitted == {-1.0, 0.0, 1.0}


class TestCriterion2:
    """Threshold closed form and exact switching points for M_a in 2..16."""

    @pytest.mark.parametrize("m_a", range(2, 17))
    def test_criterion_2(self, m_a):
        m = np.arange(1, m_a)
        closed_form = ((m - 1) + 0.5) / (m_a - 1)
        np.testing.assert_array_equal(thresholds(m_a), closed_form)
        step = 1.0 / (m_a - 1)
        for b in closed_form:
            below = quantize_activation(b - 1e-6, m_a)
            above = quantize_activation(b + 1e-6, m_a)
            assert above - below == pytest.approx(step, rel=1e-9)


class TestCriterion3:
    """Activation surrogate equals the finite difference of the sigmoid sum."""

    @pytest.mark.parametrize("m_a", [2, 4, 8])
    def test_criterion_3(self, m_a):
        alpha = 0.25
        grid = np.linspace(-0.5, 1.5, 1000)
        h = 1e-6
        b = thresholds(m_a)

        def sigmoid_sum(z):
            return np.sum(scaled_sigmoid(z[:, None] - b, alpha), axis=1)

        fd = (sigmoid_sum(grid + h) - sigmoid_sum(grid - h)) / (2 * h)
        got = activation_surrogate_grad(grid, m_a, alpha)
        assert np.max(np.abs(got - fd) / np.abs(fd)) < 1e-6


class TestCriterion4:
    """All parameter gradients of a small float model match finite differences."""

    @staticmethod
    def _graph(norm_kind, use_ws):
        # seed pair chosen so every pre-ReLU activation stays well away from
        # the kink; otherwise finite differences disagree with the exact
        # (sub)gradient at isolated elements
        rng = np.random.default_rng(41)
        layers = [
            Conv2d(2, 3, 3, rng=rng, weight_standardized=use_ws, dtype=np.float64),
            NormLayer(norm_kind, 3),
            ReLU(),
            Conv2d(3, 4, 1, rng=rng, weight_standardized=use_ws, dtype=np.float64),
            GlobalAvgPool(),
        ]
        return ModelGraph(layers, "tiny", 4, None, norm_kind)

    @pytest.mark.parametrize("norm_kind", [NormKind.BN, NormKind.LN, NormKind.LBN])
    @pytest.mark.parametrize("use_ws", [False, True])
    def test_criterion_4(self, norm_kind, use_ws):
        x = np.random.default_rng(1041).normal(size=(2, 2, 6, 6))
        labels = np.array([1, 3])
        graph = self._graph(norm_kind, use_ws)

        pre_relu = graph.layers[1].forward(
            graph.layers[0].forward(x, Mode.TRAIN), Mode.TRAIN)
        assert np.min(np.abs(pre_relu)) > 3e-3  # kink-free finite differencing

        logits = graph.forward(x, Mode.TRAIN)
        loss, grad = combined_loss(logits, labels, LossConfig())
        graph.backward(grad)

        for param in graph.parameters():
            original = param.data.copy()

            def loss_at(values):
                param.data[...] = values
                out = graph.forward(x, Mode.TRAIN)
                param.data[...] = original
                return combined_loss(out, labels, LossConfig())[0]

            fd = numeric_grad(loss_at, original.copy())
            param.data[...] = original  # the last probe leaves one element perturbed
            assert rel_err(fd, param.grad) < 1e-4, param.name


class TestCriterion5:
    """TRAIN-mode normalization statistics with identity affine."""

    def test_criterion_5_lbn(self):
        rng = np.random.default_rng(15)
        x = 2.0 + 3.0 * rng.normal(size=(8, 4, 4, 4))
        st = NormLayerState.create(NormKind.LBN, 4)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        var = x.var()
        target = var / (var + st.eps)
        assert abs(y.mean()) < 1e-6
        assert 0.999 * target <= y.var() <= 1.001 * target

    def test_criterion_5_bn(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(8, 4, 4, 4)) * np.array([1, 2, 3, 4]).reshape(1, 4, 1, 1)
        st = NormLayerState.create(NormKind.BN, 4)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        var = x.var(axis=(0, 2, 3))
        target = var / (var + st.eps)
        assert np.all(np.abs(y.mean(axis=(0, 2, 3))) < 1e-6)
        assert np.all((0.999 * target <= y.var(axis=(0, 2, 3)))
                      & (y.var(axis=(0, 2, 3)) <= 1.001 * target))

    def test_criterion_5_ln(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(8, 4, 4, 4)) + np.arange(8).reshape(8, 1, 1, 1)
        st = NormLayerState.create(NormKind.LN, 4)
        y, _ = norm_forward(x, st, Mode.TRAIN)
        var = x.var(axis=(1, 2, 3))
        target = var / (var + st.eps)
        assert np.all(np.abs(y.mean(axis=(1, 2, 3))) < 1e-6)
        assert np.all((0.999 * target <= y.var(axis=(1, 2, 3)))
                      & (y.var(axis=(1, 2, 3)) <= 1.001 * target))


class TestCriterion6:
    """Weight standardization row statistics."""

    @pytest.mark.parametrize("shape", [(16, 18), (32, 144), (10, 512), (4, 2)])
    def test_criterion_6(self, shape):
        rng = np.random.default_rng(18)
        w = rng.normal(loc=0.5, scale=2.0, size=shape)
        w_hat, _ = weight_standardize(w)
        fan_in = shape[1]
        assert np.all(np.abs(w_hat.mean(axis=1)) < 1e-8)
        assert np.all(np.abs(w_hat.std(axis=1) - 1 / np.sqrt(fan_in)) < 1e-6)


class TestCriterion7:
    """Exported runtime reproduces trainer EVAL logits on 1000 samples."""

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("m_w,m_a", [(3, 2), (15, 8)])
    def test_criterion_7(self, tmp_path, arch, m_w, m_a):
        quant = QuantConfig(m_w=m_w, m_a=m_a)
        graph = build_model(arch, 10, quant=quant, seed=19, dtype=np.float64)
        rng = np.random.default_rng(20)
        for _ in range(3):
            graph.forward(rng.normal(size=(50, 3, 32, 32)), Mode.TRAIN)

        path = tmp_path / "model.maqd"
        export(graph, path)
        model = import_model(path)

        images = rng.normal(size=(1000, 3, 32, 32))
        report = parity_check(graph, model, images, batch_size=100)
        assert report.samples == 1000
        assert report.max_abs_logit_diff < 1e-6
        assert report.argmax_agreement == 1.0


def _train_mnist(quant, train_set, test_set):
    graph = build_model("cnn9-mini", 10, quant=quant, in_channels=1,
                        seed=42, dtype=np.float32)
    log = train(graph, train_set, test_set, epochs=5, batch_size=100,
                base_lr=1e-2, momentum=0.9, seed=42, augment=False)
    return log[-1]


@pytest.fixture(scope="module")
def mnist_runs():
    data_dir = find_mnist()
    if data_dir is None:
        pytest.skip("MNIST idx files not found under MAQD_DATA_DIR; "
                    "criteria 8-9 need the real dataset")
    train_set, test_set = load_mnist_idx(data_dir)
    train_set, test_set = pad_images(train_set, 32), pad_images(test_set, 32)
    return {
        "q15_8": _train_mnist(QuantConfig(m_w=15, m_a=8), train_set, test_set),
        "float": _train_mnist(None, train_set, test_set),
        "q15_2": _train_mnist(QuantConfig(m_w=15, m_a=2), train_set, test_set),
        "q3_8": _train_mnist(QuantConfig(m_w=3, m_a=8), train_set, test_set),
    }


class TestCriterion8:
    """Quantized cnn9-mini on MNIST: >= 97% and within 1.5 points of its twin."""

    def test_criterion_8(self, mnist_runs):
        quantized = mnist_runs["q15_8"].test_acc
        twin = mnist_runs["float"].test_acc
        assert quantized >= 0.97
        assert quantized >= twin - 0.015


class TestCriterion9:
    """Sparsity moves in the expected direction with the lattice sizes."""

    def test_criterion_9_activation_direction(self, mnist_runs):
        assert mnist_runs["q15_2"].r_a < mnist_runs["q15_8"].r_a

    def test_criterion_9_weight_direction(self, mnist_runs):
        assert mnist_runs["q3_8"].r_w < mnist_runs["q15_8"].r_w


@pytest.mark.slow
class TestCriterion10:
    """Batch-size robustness: LBN+WS's train-loss gap between batch sizes 16
    and 128 is smaller than BN's in at least 2 of 3 seeds."""

    def test_criterion_10(self):
        data_dir = find_cifar10()
        if data_dir is None:
            pytest.skip("CIFAR-10 binary batches not found under MAQD_DATA_DIR; "
                        "criterion 10 needs the real dataset")
        full_train, test_set = load_cifar(data_dir, 10)
        train_set = LabeledImageSet(full_train.images[:5000], full_train.labels[:5000],
                                    full_train.class_count)
        seeds = [42, 43, 44]
        rows = norm_comparison_experiment(
            train_set, test_set, batch_sizes=[16, 128], variants=["LBN+WS", "BN"],
            epochs=5, base_lr_at_128=1e-2, weight_decay=0.0, seeds=seeds,
            arch="cnn9-mini", metrics_max_samples=1000)
        loss = {(r.variant, r.batch_size, r.seed): r.final_train_loss for r in rows}
        wins = 0
        for seed in seeds:
            gap_lbn_ws = abs(loss[("LBN+WS", 16, seed)] - loss[("LBN+WS", 128, seed)])
            gap_bn = abs(loss[("BN", 16, seed)] - loss[("BN", 128, seed)])
            wins += gap_lbn_ws < gap_bn
        assert wins >= 2, f"LBN+WS had the smaller gap in only {wins}/3 seeds"


@pytest.mark.extended
class TestCriterion11:
    """Full-scale CIFAR-10 VGG run; days of CPU time, never part of CI."""

    def test_criterion_11(self):
        if os.environ.get("MAQD_RUN_EXTENDED") != "1":
            pytest.skip("full-scale run; set MAQD_RUN_EXTENDED=1 to enable")
        data_dir = find_cifar10()
        if data_dir is None:
            pytest.skip("CIFAR-10 binary batches not found under MAQD_DATA_DIR")
        train_set, test_set = load_cifar(data_dir, 10)
        graph = build_model("vgg", 10, quant=QuantConfig(m_w=15, m_a=8),
                            seed=42, dtype=np.float32)
        log = train(graph, train_set, test_set, epochs=300, batch_size=100,
                    base_lr=1e-2, momentum=0.9, seed=42, augment=True)
        assert log[-1].test_acc >= 0.9593 - 0.006
