import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maqd.datasets import (BatchPlan, FormatError, LabeledImageSet, batches,
                           load_cifar, load_mnist_idx, pad_images,
                           synthetic_blobs)


def write_cifar10(tmp_path, per_file=7, seed=0):
    rng = np.random.default_rng(seed)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = []
        for _ in range(per_file):
            label = rng.integers(0, 10, dtype=np.uint8)
            pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
            records.append(np.concatenate([[label], pixels]))
        (tmp_path / name).write_bytes(np.concatenate(records).tobytes())


def write_cifar100(tmp_path, n_train=9, n_test=4, seed=1):
    rng = np.random.default_rng(seed)
    for name, count in (("train.bin", n_train), ("test.bin", n_test)):
        records = []
        for _ in range(count):
            coarse = rng.integers(0, 20, dtype=np.uint8)
            fine = rng.integers(0, 100, dtype=np.uint8)
            pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
            records.append(np.concatenate([[coarse, fine], pixels]))
        (tmp_path / name).write_bytes(np.concatenate(records).tobytes())


def write_idx_images(path, images, gz=False):
    header = struct.pack(">iiii", 2051, *images.shape)
    data = header + images.astype(np.uint8).tobytes()
    (gzip.open(path, "wb") if gz else open(path, "wb")).write(data)


def write_idx_labels(path, labels, gz=False):
    data = struct.pack(">ii", 2049, labels.size) + labels.astype(np.uint8).tobytes()
    (gzip.open(path, "wb") if gz else open(path, "wb")).write(data)


def write_mnist(tmp_path, n_train=6, n_test=3, gz=False, seed=2):
    rng = np.random.default_rng(seed)
    suffix = ".gz" if gz else ""
    for stem, n in (("train", n_train), ("t10k", n_test)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 0
        images[0, 0, 1] = 255
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        write_idx_images(tmp_path / f"{stem}-images-idx3-ubyte{suffix}", images, gz)
        write_idx_labels(tmp_path / f"{stem}-labels-idx1-ubyte{suffix}", labels, gz)


def _set_byte(at, value):
    return lambda blob: blob[:at] + bytes([value]) + blob[at + 1:]


def _flip_middle_byte(blob):
    at = len(blob) // 2
    return _set_byte(at, blob[at] ^ 0xFF)(blob)


# Damage cases: (dataset, gzipped, file, edit of its bytes, the error
# message after "<path>: ").
DAMAGE = {
    "idx header cut": ("mnist", False, "train-images-idx3-ubyte", lambda b: b[:10],
                       "header cut at byte 10, its 3 dims end at byte 16"),
    "idx negative dim": ("mnist", False, "train-images-idx3-ubyte",
                         lambda b: b[:4] + struct.pack(">i", -6) + b[8:],
                         "dim 0 at byte 4 is -6, expected >= 0"),
    "idx label": ("mnist", False, "t10k-labels-idx1-ubyte", _set_byte(10, 12),
                  "record at byte 10: label 12 outside the 10 classes"),
    "gz flipped byte": ("mnist", True, "train-images-idx3-ubyte.gz", _flip_middle_byte,
                        "damaged gzip file"),
    "gz truncated": ("mnist", True, "train-labels-idx1-ubyte.gz", lambda b: b[:-12],
                     "damaged gzip file"),
    "cifar label": ("cifar10", False, "data_batch_2.bin", _set_byte(2 * 3073, 200),
                    f"record at byte {2 * 3073}: label 200 outside the 10 classes"),
}


def write_damaged(tmp_path, case):
    """Write a dataset with one file damaged as DAMAGE[case] says; returns
    that file's path."""
    dataset, gz, name, edit, _ = DAMAGE[case]
    if dataset == "cifar10":
        write_cifar10(tmp_path)
    else:
        write_mnist(tmp_path, gz=gz)
    path = tmp_path / name
    path.write_bytes(edit(path.read_bytes()))
    return path


class TestDamagedFiles:
    @pytest.mark.parametrize("case", DAMAGE)
    def test_names_the_file_and_byte(self, tmp_path, case):
        path = write_damaged(tmp_path, case)
        dataset, message = DAMAGE[case][0], DAMAGE[case][-1]
        with pytest.raises(FormatError) as err:
            if dataset == "cifar10":
                load_cifar(tmp_path, 10)
            else:
                load_mnist_idx(tmp_path)
        assert str(err.value).startswith(f"{path}: {message}")

    def test_cifar100_fine_label_checked(self, tmp_path):
        write_cifar100(tmp_path)
        path = tmp_path / "test.bin"
        path.write_bytes(_set_byte(3 * 3074 + 1, 100)(path.read_bytes()))
        with pytest.raises(FormatError, match=f"record at byte {3 * 3074}: label 100"):
            load_cifar(tmp_path, 100)


@pytest.fixture(scope="module")
def mnist_dirs(tmp_path_factory):
    """{gzipped: a directory of small MNIST idx files}."""
    dirs = {gz: tmp_path_factory.mktemp("gz" if gz else "raw") for gz in (False, True)}
    for gz, d in dirs.items():
        write_mnist(d, gz=gz)
    return dirs


class TestMutatedFiles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_idx_file_loads_or_fails_typed(self, mnist_dirs, data):
        gz = data.draw(st.booleans())
        stem = data.draw(st.sampled_from(["train-images-idx3-ubyte", "train-labels-idx1-ubyte"]))
        path = mnist_dirs[gz] / (stem + (".gz" if gz else ""))
        blob = path.read_bytes()
        at = st.one_of(st.integers(0, min(15, len(blob) - 1)), st.integers(0, len(blob) - 1))
        value = st.one_of(st.sampled_from([0, 1, 2, 3, 8, 10, 255]), st.integers(0, 255))
        edits = data.draw(st.lists(st.tuples(at, value), min_size=1, max_size=3))
        cut = data.draw(st.one_of(st.none(), st.integers(0, 20), st.integers(0, len(blob))))
        mutated = bytearray(blob)
        for at, value in edits:
            mutated[at] = value
        path.write_bytes(bytes(mutated[:cut]))
        try:
            load_mnist_idx(mnist_dirs[gz])
        except FormatError:
            pass
        finally:
            path.write_bytes(blob)

    @pytest.mark.parametrize("gz", [False, True])
    def test_unmutated_files_load(self, mnist_dirs, gz):
        assert load_mnist_idx(mnist_dirs[gz])[0].images.shape == (6, 1, 28, 28)


class TestCifarLoader:
    def test_cifar10_shapes_and_classes(self, tmp_path):
        write_cifar10(tmp_path)
        train, test = load_cifar(tmp_path, 10)
        assert train.images.shape == (35, 3, 32, 32)
        assert test.images.shape == (7, 3, 32, 32)
        assert train.class_count == 10
        assert np.all((0 <= train.labels) & (train.labels < 10))

    def test_cifar100_uses_fine_label(self, tmp_path):
        write_cifar100(tmp_path)
        train, test = load_cifar(tmp_path, 100)
        assert train.class_count == 100
        raw = np.frombuffer((tmp_path / "train.bin").read_bytes(), dtype=np.uint8)
        fine = raw.reshape(-1, 3074)[:, 1]
        np.testing.assert_array_equal(train.labels, fine)

    def test_channel_plane_order(self, tmp_path):
        # train records: R plane 10, G plane 20, B plane 30; the test record
        # holds them reversed
        def record(planes):
            pixels = np.concatenate([np.full(1024, v, dtype=np.uint8) for v in planes])
            return np.concatenate([[np.uint8(3)], pixels]).tobytes()

        for name in [f"data_batch_{i}.bin" for i in range(1, 6)]:
            (tmp_path / name).write_bytes(record((10, 20, 30)))
        (tmp_path / "test_batch.bin").write_bytes(record((30, 20, 10)))
        train, test = load_cifar(tmp_path, 10, dtype=np.float64)
        # constant planes have zero variance, so each channel is only
        # centered on its train-split mean: train images are 0 and the
        # test image is its planes less the train planes
        np.testing.assert_allclose(train.images, 0.0, atol=1e-12)
        np.testing.assert_allclose(test.images[0, :, 0, 0], [20 / 255, 0.0, -20 / 255],
                                   atol=1e-12)
        assert np.all(test.images == test.images[:, :, :1, :1])

    def test_truncated_file_names_file(self, tmp_path):
        write_cifar10(tmp_path)
        path = tmp_path / "data_batch_3.bin"
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="data_batch_3.bin"):
            load_cifar(tmp_path, 10)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="data_batch_1.bin"):
            load_cifar(tmp_path, 10)

    def test_standardization_reproducible(self, tmp_path):
        write_cifar10(tmp_path)
        train, test = load_cifar(tmp_path, 10, dtype=np.float64)
        raw = np.concatenate([
            np.frombuffer((tmp_path / f"data_batch_{i}.bin").read_bytes(),
                          dtype=np.uint8).reshape(-1, 3073)[:, 1:]
            for i in range(1, 6)
        ]).reshape(-1, 3, 32, 32) / 255.0
        raw_test = np.frombuffer((tmp_path / "test_batch.bin").read_bytes(),
                                 dtype=np.uint8).reshape(-1, 3073)[:, 1:].reshape(
                                     -1, 3, 32, 32) / 255.0
        mean = raw.mean(axis=(0, 2, 3), keepdims=True)
        std = raw.std(axis=(0, 2, 3), keepdims=True)
        # both splits standardized per channel with the train split's constants
        np.testing.assert_allclose(train.images, (raw - mean) / std, atol=1e-6)
        np.testing.assert_allclose(test.images, (raw_test - mean) / std, atol=1e-6)
        np.testing.assert_allclose(train.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(train.images.std(axis=(0, 2, 3)), 1.0, atol=1e-6)


class TestMnistLoader:
    @pytest.mark.parametrize("gz", [False, True])
    def test_shapes_and_scaling(self, tmp_path, gz):
        write_mnist(tmp_path, gz=gz)
        train, test = load_mnist_idx(tmp_path)
        assert train.images.shape == (6, 1, 28, 28)
        assert test.images.shape == (3, 1, 28, 28)
        assert train.images[0, 0, 0, 0] == 0.0
        assert train.images[0, 0, 0, 1] == 1.0
        assert np.all((0 <= train.labels) & (train.labels < 10))

    def test_bad_magic(self, tmp_path):
        write_mnist(tmp_path)
        path = tmp_path / "train-images-idx3-ubyte"
        data = bytearray(path.read_bytes())
        data[3] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_mnist_idx(tmp_path)

    def test_truncated_payload(self, tmp_path):
        write_mnist(tmp_path)
        path = tmp_path / "train-images-idx3-ubyte"
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_mnist_idx(tmp_path)

    def test_pad_images(self, tmp_path):
        write_mnist(tmp_path)
        train, _ = load_mnist_idx(tmp_path)
        padded = pad_images(train, 32)
        assert padded.images.shape == (6, 1, 32, 32)
        np.testing.assert_array_equal(padded.images[:, :, 2:30, 2:30], train.images)
        assert not np.any(padded.images[:, :, 0, :])


class TestSyntheticBlobs:
    def test_deterministic(self):
        a = synthetic_blobs(classes=3, per_class=10, seed=7)
        b = synthetic_blobs(classes=3, per_class=10, seed=7)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_per_class_counts(self):
        data = synthetic_blobs(classes=4, per_class=25, seed=8)
        assert data.images.shape == (100, 1, 8, 8)
        assert np.all(np.bincount(data.labels) == 25)

    def test_nearest_mean_classifier_is_exact(self):
        data = synthetic_blobs(classes=3, per_class=50, seed=9)
        flat = data.images.reshape(len(data.labels), -1)
        means = np.stack([flat[data.labels == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(((flat[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
        assert np.mean(pred == data.labels) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_blobs(classes=1)


class TestBatches:
    def _set(self, n=10, seed=3):
        rng = np.random.default_rng(seed)
        return LabeledImageSet(rng.normal(size=(n, 1, 4, 4)),
                               rng.integers(0, 2, size=n), class_count=2)

    def test_short_final_batch(self):
        data = self._set(n=250 // 25)
        data = LabeledImageSet(np.zeros((250, 1, 2, 2)), np.zeros(250, dtype=np.int64), 2)
        plan = BatchPlan(seed=0, batch_size=100)
        sizes = [xb.shape[0] for xb, _ in batches(data, plan)]
        assert sizes == [100, 100, 50]

    def test_epoch_visits_each_sample_once(self):
        data = self._set(n=17)
        plan = BatchPlan(seed=1, batch_size=5)
        seen = np.concatenate([xb for xb, _ in batches(data, plan)])
        assert seen.shape[0] == 17
        sorted_seen = np.sort(seen.ravel())
        np.testing.assert_array_equal(sorted_seen, np.sort(data.images.ravel()))

    def test_no_augmentation_is_bitwise(self):
        data = self._set()
        plan = BatchPlan(seed=2, batch_size=3)
        for xb, yb in batches(data, plan):
            for img, label in zip(xb, yb):
                matches = np.any(np.all(data.images == img, axis=(1, 2, 3)))
                assert matches

    def test_deterministic_given_seed(self):
        data = self._set()
        plan = BatchPlan(seed=4, batch_size=4, augment=True)
        run1 = [xb.copy() for xb, _ in batches(data, plan)]
        run2 = [xb.copy() for xb, _ in batches(data, plan)]
        for a, b in zip(run1, run2):
            np.testing.assert_array_equal(a, b)

    def test_augmented_labels_preserved(self):
        # augmentation moves pixels only: the labels are those of the same
        # plan without it, which shuffles alike
        data = self._set()
        (xb, yb), = batches(data, BatchPlan(seed=5, batch_size=10, augment=True))
        (_, plain), = batches(data, BatchPlan(seed=5, batch_size=10))
        np.testing.assert_array_equal(yb, plain)
        np.testing.assert_array_equal(np.sort(yb), np.sort(data.labels))
        assert xb.shape == data.images.shape

    def test_batch_plan_validation(self):
        with pytest.raises(ValueError):
            BatchPlan(seed=0, batch_size=0)
