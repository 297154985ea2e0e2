"""Dataset ingestion and batching.

Readers for the canonical CIFAR binary layout and the MNIST idx format,
plus a linearly separable synthetic blob dataset for fast end-to-end
tests. Nothing here ever downloads; files are read from a local directory
(CLI flag or MAQD_DATA_DIR). A file that does not parse, including a
damaged `.gz` and a label outside the class range, raises a `FormatError`
that names the file and, where one is at fault, the byte (of the
decompressed stream, for a `.gz`).
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """A dataset file failed structural validation."""


@dataclass
class LabeledImageSet:
    images: np.ndarray           # (n, c, h, w)
    labels: np.ndarray           # (n,), integer classes
    class_count: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"images must be rank 4, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("label count does not match image count")
        if not np.all(np.isfinite(self.images)):
            raise ValueError("images contain non-finite values")
        if np.any(self.labels < 0) or np.any(self.labels >= self.class_count):
            raise ValueError("label outside class range")


@dataclass(frozen=True)
class BatchPlan:
    seed: int
    batch_size: int
    augment: bool = False    # random 4 px pad-crop and horizontal flip

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def _check_labels(path: Path, labels: np.ndarray, class_count: int, first: int,
                  stride: int) -> None:
    """Raise a FormatError naming the byte offset, first + i*stride, of the
    first record i whose label is not below class_count."""
    bad = np.flatnonzero(labels >= class_count)
    if bad.size:
        i = int(bad[0])
        raise FormatError(f"{path}: record at byte {first + i * stride}: label "
                          f"{labels[i]} outside the {class_count} classes")


_CIFAR_RECORD_PIXELS = 3072  # 3 x 32 x 32


def _read_cifar_file(path: Path, label_bytes: int,
                     class_count: int) -> tuple[np.ndarray, np.ndarray]:
    record = label_bytes + _CIFAR_RECORD_PIXELS
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % record != 0:
        expected = f"a multiple of {record}"
        raise FormatError(f"{path}: file size {raw.size} bytes, expected {expected}")
    raw = raw.reshape(-1, record)
    # CIFAR-100 records carry (coarse, fine) label bytes; the fine label is used.
    labels = raw[:, label_bytes - 1].astype(np.int64)
    _check_labels(path, labels, class_count, 0, record)
    images = raw[:, label_bytes:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return images, labels


def load_cifar(data_dir, variant: int = 10, dtype=np.float32):
    """Load CIFAR-10 or CIFAR-100 from the canonical binary files.

    Pixels are scaled to [0, 1], then standardized per channel with
    constants computed from the training split. Returns (train, test).
    """
    data_dir = Path(data_dir)
    if variant == 10:
        train_files = [data_dir / f"data_batch_{i}.bin" for i in range(1, 6)]
        test_files = [data_dir / "test_batch.bin"]
        label_bytes, class_count = 1, 10
    elif variant == 100:
        train_files = [data_dir / "train.bin"]
        test_files = [data_dir / "test.bin"]
        label_bytes, class_count = 2, 100
    else:
        raise ValueError(f"variant must be 10 or 100, got {variant}")

    for f in train_files + test_files:
        if not f.exists():
            raise FormatError(f"missing dataset file: {f}")

    def _load(files):
        parts = [_read_cifar_file(f, label_bytes, class_count) for f in files]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))

    train_images, train_labels = _load(train_files)
    test_images, test_labels = _load(test_files)

    mean = train_images.mean(axis=(0, 2, 3), keepdims=True)
    std = train_images.std(axis=(0, 2, 3), keepdims=True)
    # a zero-variance channel would blow up the division; leave it uncentered-scale-1
    std = np.where(std < 1e-8, 1.0, std)
    train_images = ((train_images - mean) / std).astype(dtype)
    test_images = ((test_images - mean) / std).astype(dtype)

    return (LabeledImageSet(train_images, train_labels, class_count),
            LabeledImageSet(test_images, test_labels, class_count))


def _read_bytes(path: Path) -> bytes:
    """The file's bytes, decompressed if its name ends in `.gz`."""
    if path.suffix != ".gz":
        return path.read_bytes()
    try:
        with gzip.open(path, "rb") as f:
            return f.read()
    except (gzip.BadGzipFile, zlib.error, EOFError) as e:
        raise FormatError(f"{path}: damaged gzip file: {e}") from e


def _read_idx(path: Path, expected_magic: int) -> np.ndarray:
    data = _read_bytes(path)
    if len(data) < 4:
        raise FormatError(f"{path}: truncated header")
    magic = struct.unpack(">i", data[:4])[0]
    if magic != expected_magic:
        raise FormatError(f"{path}: bad magic {magic}, expected {expected_magic}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(data) < header:
        raise FormatError(f"{path}: header cut at byte {len(data)}, "
                          f"its {ndim} dims end at byte {header}")
    dims = struct.unpack(f">{ndim}i", data[4:header])
    for i, d in enumerate(dims):
        if d < 0:
            raise FormatError(f"{path}: dim {i} at byte {4 + 4 * i} is {d}, expected >= 0")
    count = math.prod(dims)
    body = np.frombuffer(data, dtype=np.uint8, offset=header)
    if body.size != count:
        raise FormatError(f"{path}: payload {body.size} bytes, expected {count}")
    return body.reshape(dims)


def _find_idx(data_dir: Path, stem: str) -> Path:
    for name in (stem, stem + ".gz", stem.replace("-idx", ".idx"),
                 stem.replace("-idx", ".idx") + ".gz"):
        p = data_dir / name
        if p.exists():
            return p
    raise FormatError(f"missing dataset file: {data_dir / stem}")


def load_mnist_idx(data_dir, dtype=np.float32):
    """Load MNIST from idx files (optionally gzipped). Returns (train, test)
    with (n, 1, 28, 28) images scaled to [0, 1]."""
    data_dir = Path(data_dir)
    sets = []
    for img_stem, lbl_stem in (("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
                               ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")):
        images = _read_idx(_find_idx(data_dir, img_stem), 2051)
        label_path = _find_idx(data_dir, lbl_stem)
        labels = _read_idx(label_path, 2049)
        _check_labels(label_path, labels, 10, 8, 1)  # after the magic and the count
        if images.shape[0] != labels.shape[0]:
            raise FormatError(f"{data_dir}: image/label count mismatch")
        images = (images.astype(np.float64) / 255.0)[:, None, :, :].astype(dtype)
        sets.append(LabeledImageSet(images, labels.astype(np.int64), class_count=10))
    return tuple(sets)


def pad_images(data: LabeledImageSet, hw: int) -> LabeledImageSet:
    """Zero-pad images symmetrically up to hw x hw (e.g. 28 -> 32)."""
    n, c, h, w = data.images.shape
    if h > hw or w > hw:
        raise ValueError(f"cannot pad {h}x{w} down to {hw}x{hw}")
    top, left = (hw - h) // 2, (hw - w) // 2
    images = np.zeros((n, c, hw, hw), dtype=data.images.dtype)
    images[:, :, top:top + h, left:left + w] = data.images
    return LabeledImageSet(images, data.labels, data.class_count)


def synthetic_blobs(classes: int = 2, per_class: int = 100, hw: int = 8,
                    seed: int = 42, dtype=np.float64) -> LabeledImageSet:
    """Gaussian class blobs rendered as (n, 1, hw, hw) images.

    Class means sit at 6 * e_c (6 sigma apart coordinate-wise, unit noise),
    so the set is linearly separable and a nearest-mean classifier is exact.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    dim = hw * hw
    if classes > dim:
        raise ValueError(f"too many classes for a {hw}x{hw} canvas")
    rng = np.random.default_rng(seed)
    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes)] = 6.0
    labels = np.repeat(np.arange(classes), per_class)
    samples = means[labels] + rng.standard_normal((labels.size, dim))
    perm = rng.permutation(labels.size)
    images = samples[perm].reshape(-1, 1, hw, hw).astype(dtype)
    return LabeledImageSet(images, labels[perm], class_count=classes)


def _augment(xb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random crop of each image zero-padded by 4 px, then a horizontal
    flip of each with probability 1/2."""
    n, c, h, w = xb.shape
    padded = np.pad(xb, ((0, 0), (0, 0), (4, 4), (4, 4)))
    out = np.empty_like(xb)
    offs = rng.integers(0, 9, size=(n, 2))
    for i in range(n):
        oy, ox = offs[i]
        out[i] = padded[i, :, oy:oy + h, ox:ox + w]
    flip = rng.random(n) < 0.5
    out[flip] = out[flip, :, :, ::-1]
    return out


def batches(data: LabeledImageSet, plan: BatchPlan):
    """Deterministic shuffled mini-batch sequence; the final short batch is
    included.

    Shuffling and augmentation randomness derive from plan.seed via named
    substreams, so identical plans yield identical batches.
    """
    n = data.images.shape[0]
    ss = np.random.SeedSequence(plan.seed)
    shuffle_rng, aug_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    order = shuffle_rng.permutation(n)
    for start in range(0, n, plan.batch_size):
        idx = order[start:start + plan.batch_size]
        xb = data.images[idx]
        if plan.augment:
            xb = _augment(xb, aug_rng)
        yield np.ascontiguousarray(xb), data.labels[idx]
