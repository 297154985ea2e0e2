"""Loss, optimizer, schedulers, sparsity metrics, and the training loop.

The loss mixes cross-entropy with a mean-squared term against the one-hot
label, L = (1 - gamma) * CE + gamma * MSE, with gamma = 0.05 by default.
The optimizer is heavy-ball momentum SGD with cosine-annealed learning
rate. Sparsity is reported as R_w (fraction of non-zero quantized weights)
and R_a (fraction of non-zero quantized activation outputs, averaged per
test sample and then over samples).
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import log_softmax, softmax

from .datasets import BatchPlan, LabeledImageSet, batches
from .network import ModelGraph, Param
from .normalization import Mode, NormKind


@dataclass(frozen=True)
class LossConfig:
    gamma: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


def combined_loss(logits: np.ndarray, labels: np.ndarray,
                  cfg: LossConfig = LossConfig()):
    """(1-gamma)*CE + gamma*MSE of the logits against the one-hot label.

    CE is averaged over the batch; MSE over batch and classes. Returns the
    scalar loss and the exact gradient w.r.t. the logits.
    """
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ValueError("label out of range")

    logits64 = logits.astype(np.float64)
    one_hot = np.zeros((n, k))
    one_hot[np.arange(n), labels] = 1.0
    probs = softmax(logits64, axis=1)
    ce = -np.mean(log_softmax(logits64, axis=1)[np.arange(n), labels])
    grad_ce = (probs - one_hot) / n

    diff = logits64 - one_hot
    mse = np.mean(diff ** 2)
    grad_mse = 2.0 * diff / (n * k)

    loss = (1.0 - cfg.gamma) * ce + cfg.gamma * mse
    grad = (1.0 - cfg.gamma) * grad_ce + cfg.gamma * grad_mse
    return float(loss), grad.astype(logits.dtype)


@dataclass
class OptimState:
    """Momentum SGD with optional weight decay on decaying parameters."""

    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got "
                             f"{self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")


def sgd_momentum_step(params: list[Param], opt: OptimState):
    """v <- momentum*v + grad (+ wd*param); param <- param - lr*v, in place."""
    if not opt.velocity:
        opt.velocity = [np.zeros_like(p.data) for p in params]
    if len(opt.velocity) != len(params):
        raise ValueError("optimizer state does not match parameter list")
    for p, v in zip(params, opt.velocity):
        if v.shape != p.data.shape:
            raise ValueError(f"velocity shape {v.shape} does not match {p.name} {p.data.shape}")
        g = p.grad
        if opt.weight_decay and p.decay:
            g = g + opt.weight_decay * p.data
        v *= opt.momentum
        v += g
        p.data -= opt.learning_rate * v


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from base_lr at epoch 0 to 0 at total_epochs, no
    restarts."""
    if epoch > total_epochs:
        raise ValueError(f"epoch {epoch} exceeds total_epochs {total_epochs}")
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


def scaled_lr_for_batch(base_lr_at_128: float, batch_size: int) -> float:
    """Linear learning-rate scaling: base * N / 128."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return base_lr_at_128 * batch_size / 128.0


def compute_r_w(graph: ModelGraph):
    """Fraction of non-zero quantized weight states, per quantized conv layer
    and pooled over all of them. A non-quantized model reports 1.0."""
    quantized = [c for c in graph.conv_layers() if c.quant is not None]
    if not quantized:
        per_layer = [1.0] * len(graph.conv_layers())
        return 1.0, per_layer
    per_layer = []
    nonzero = total = 0
    for conv in quantized:
        w_q, _, _ = conv.effective_weight()
        nz = int(np.count_nonzero(w_q))
        per_layer.append(nz / w_q.size)
        nonzero += nz
        total += w_q.size
    return nonzero / total, per_layer


def compute_r_a(output: np.ndarray) -> float:
    """R_a count of one activation layer's output on a batch: the sum over
    the batch's samples of each sample's non-zero output fraction."""
    axes = tuple(range(1, output.ndim))  # in any layout, without a copy
    return (np.count_nonzero(output, axis=axes) / output[0].size).sum()


@dataclass
class EvalResult:
    loss: float
    acc: float
    r_a: float
    r_a_per_layer: list[float]


def evaluate(graph: ModelGraph, data: LabeledImageSet, loss_cfg: LossConfig,
             batch_size: int = 100, max_samples: int | None = None) -> EvalResult:
    """One EVAL-mode pass: mean loss, accuracy and R_a. R_a per activation
    layer is the mean over samples of that sample's non-zero output fraction,
    read by the forward's visitor (from codes on an integer-code chain, each
    non-zero exactly where its value is); the pooled value is the
    element-count weighted mean over layers."""
    images, labels = data.images, data.labels
    if max_samples is not None:
        images, labels = images[:max_samples], labels[:max_samples]
    n = images.shape[0]
    if n == 0:
        raise ValueError("empty test set")
    act_layers = graph.activation_layers()
    if not act_layers:
        raise ValueError("model has no activation layers")
    slot = {layer: i for i, layer in enumerate(act_layers)}
    ratio_sums = np.zeros(len(act_layers))
    elem_counts = [0] * len(act_layers)

    def visit(layer, output):
        i = slot.get(layer)
        if i is not None:
            ratio_sums[i] += compute_r_a(output)
            elem_counts[i] = output[0].size

    loss_sum = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        xb = images[start:start + batch_size]
        yb = labels[start:start + batch_size]
        logits = graph.forward(xb, Mode.EVAL, visit)
        loss, _ = combined_loss(logits, yb, loss_cfg)
        loss_sum += loss * xb.shape[0]
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
    per_layer = (ratio_sums / n).tolist()
    return EvalResult(loss=loss_sum / n, acc=correct / n,
                      r_a=float(np.average(per_layer, weights=elem_counts)),
                      r_a_per_layer=per_layer)


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    test_loss: float
    test_acc: float
    r_w: float
    r_a: float
    seconds: float
    r_w_per_layer: list[float]
    r_a_per_layer: list[float]


def train(graph: ModelGraph, train_set: LabeledImageSet, test_set: LabeledImageSet,
          *, epochs: int, batch_size: int, loss_cfg: LossConfig = LossConfig(),
          base_lr: float = 1e-2, momentum: float = OptimState.momentum,
          weight_decay: float = OptimState.weight_decay, seed: int = 42, augment: bool = False,
          metrics_max_samples: int | None = None) -> list[EpochRecord]:
    """Full training loop; deterministic given the seed. Returns one record
    per epoch (plus an initial-state record when epochs == 0). An empty
    train or test set is refused before the first step."""
    for name, data in (("train", train_set), ("test", test_set)):
        if data.images.shape[0] == 0:
            raise ValueError(f"empty {name} set")
    opt = OptimState(learning_rate=base_lr, momentum=momentum, weight_decay=weight_decay)
    params = graph.parameters()
    log: list[EpochRecord] = []

    def _metrics(epoch, lr, train_loss, t0):
        res = evaluate(graph, test_set, loss_cfg, batch_size,
                       max_samples=metrics_max_samples)
        r_w, r_w_layers = compute_r_w(graph)
        return EpochRecord(epoch=epoch, lr=lr, train_loss=train_loss,
                           test_loss=res.loss, test_acc=res.acc,
                           r_w=r_w, r_a=res.r_a, seconds=time.perf_counter() - t0,
                           r_w_per_layer=r_w_layers, r_a_per_layer=res.r_a_per_layer)

    if epochs == 0:
        log.append(_metrics(0, base_lr, float("nan"), time.perf_counter()))
        return log

    for epoch in range(epochs):
        t0 = time.perf_counter()
        opt.learning_rate = cosine_lr(base_lr, epoch, epochs)
        plan = BatchPlan(seed=seed + epoch, batch_size=batch_size, augment=augment)
        loss_sum = 0.0
        n_samples = 0
        for xb, yb in batches(train_set, plan):
            graph.zero_grad()
            logits = graph.forward(xb, Mode.TRAIN)
            loss, grad = combined_loss(logits, yb, loss_cfg)
            graph.backward(grad)
            sgd_momentum_step(params, opt)
            loss_sum += loss * xb.shape[0]
            n_samples += xb.shape[0]
        log.append(_metrics(epoch + 1, opt.learning_rate, loss_sum / n_samples, t0))
    return log


def write_training_log(path, log: list[EpochRecord]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "lr", "train_loss", "test_loss", "test_acc",
                         "r_w", "r_a", "seconds"])
        for rec in log:
            writer.writerow([rec.epoch, rec.lr, rec.train_loss, rec.test_loss,
                             rec.test_acc, rec.r_w, rec.r_a, rec.seconds])


def write_sparsity_csv(path, record: EpochRecord):
    """Per-layer sparsity table (layer_index, r_w, r_a) of one epoch's EVAL
    pass; r_a has one fewer entry than the conv count because the head
    activation is not quantized."""
    r_w_layers, r_a_layers = record.r_w_per_layer, record.r_a_per_layer
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer_index", "r_w", "r_a"])
        for i in range(max(len(r_w_layers), len(r_a_layers))):
            writer.writerow([
                i,
                r_w_layers[i] if i < len(r_w_layers) else "",
                r_a_layers[i] if i < len(r_a_layers) else "",
            ])


def measure_step_bytes(graph: ModelGraph, xb: np.ndarray, yb: np.ndarray,
                       loss_cfg: LossConfig = LossConfig()) -> int:
    """Bytes of the TRAIN forward's tape (`tape_nbytes`: each conv's input
    and effective weight, each norm's x_hat, each ReLU's 1-byte mask, and
    no activation input that a norm's tape rebuilds) plus parameters,
    gradients, the batch and its logits; the engine's peak-allocation proxy
    for one training step."""
    graph.zero_grad()
    logits = graph.forward(xb, Mode.TRAIN)
    _, grad = combined_loss(logits, yb, loss_cfg)
    tape = graph.tape_nbytes()
    graph.backward(grad)
    param_bytes = sum(p.data.nbytes + p.grad.nbytes for p in graph.parameters())
    return tape + param_bytes + xb.nbytes + logits.nbytes


@dataclass
class NormBenchRow:
    variant: str
    batch_size: int
    seed: int
    final_train_loss: float
    final_test_loss: float
    peak_bytes: int


NORM_VARIANTS = {
    "BN": (NormKind.BN, False),
    "BN+WS": (NormKind.BN, True),
    "LBN": (NormKind.LBN, False),
    "LBN+WS": (NormKind.LBN, True),
}


def norm_comparison_experiment(train_set: LabeledImageSet, test_set: LabeledImageSet,
                               *, batch_sizes: list[int],
                               variants: list[str] = ("LBN+WS", "LBN", "BN+WS", "BN"),
                               epochs: int = 10, base_lr_at_128: float = 1e-2,
                               loss_cfg: LossConfig = LossConfig(),
                               momentum: float = OptimState.momentum,
                               weight_decay: float = OptimState.weight_decay,
                               augment: bool = False, seeds: list[int] = (42,),
                               arch: str = "cnn9-mini", dtype=np.float32,
                               metrics_max_samples: int | None = 1000,
                               progress=None) -> list[NormBenchRow]:
    """Batch-size sensitivity comparison of the normalization variants on a
    non-quantized CNN, with N/128 learning-rate scaling."""
    from .network import build_model

    rows = []
    for variant in variants:
        kind, use_ws = NORM_VARIANTS[variant]
        for bs in batch_sizes:
            for seed in seeds:
                graph = build_model(arch, train_set.class_count, quant=None,
                                    norm_kind=kind, use_ws=use_ws, seed=seed,
                                    dtype=dtype, in_channels=train_set.images.shape[1])
                lr = scaled_lr_for_batch(base_lr_at_128, bs)
                log = train(graph, train_set, test_set, epochs=epochs, batch_size=bs,
                            loss_cfg=loss_cfg, base_lr=lr, momentum=momentum,
                            weight_decay=weight_decay, seed=seed, augment=augment,
                            metrics_max_samples=metrics_max_samples)
                nb = min(bs, train_set.images.shape[0])
                peak = measure_step_bytes(graph, train_set.images[:nb],
                                          train_set.labels[:nb])
                row = NormBenchRow(variant=variant, batch_size=bs, seed=seed,
                                   final_train_loss=log[-1].train_loss,
                                   final_test_loss=log[-1].test_loss,
                                   peak_bytes=peak)
                rows.append(row)
                if progress is not None:
                    progress(row)
    return rows


def write_norm_bench_csv(path, rows: list[NormBenchRow]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["variant", "batch_size", "seed", "final_train_loss",
                         "final_test_loss", "peak_bytes"])
        for r in rows:
            writer.writerow([r.variant, r.batch_size, r.seed, r.final_train_loss,
                             r.final_test_loss, r.peak_bytes])


def write_summary_json(path, config: dict, log: list[EpochRecord]):
    """Written to a temporary file and renamed into place, so the summary
    exists only complete; a sweep takes it as the sign that a cell is done."""
    summary = {
        "config": config,
        "epochs": len(log),
        "final": asdict(log[-1]) if log else None,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(summary, f, indent=2)
    os.replace(tmp, path)
