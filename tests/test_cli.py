import argparse
import csv
import inspect
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from maqd import cli, training
from maqd.cli import CheckpointError, RunConfig, UsageError, main, parse_config
from maqd.export import export, import_model
from maqd.network import (ARCHITECTURES, ActQuant, Conv2d, GlobalAvgPool, ModelGraph,
                          NormLayer, _walk, build_model)
from maqd.normalization import Mode, NormKind
from maqd.training import OptimState, combined_loss, sgd_momentum_step
from test_datasets import DAMAGE, write_damaged, write_idx_images, write_idx_labels


BLOBS_DIMS = {"class_count": 4, "in_channels": 1, "input_hw": 8}


def write_checkpoint(path, class_count=4, in_channels=1, **run):
    """A checkpoint as `maqd train` writes it, of a blobs vgg-mini run (or
    one with the RunConfig fields `run`) that stopped before its first
    step."""
    cfg = RunConfig("train", **{"architecture": "vgg-mini", "dataset": "blobs", **run})
    dims = {**BLOBS_DIMS, "class_count": class_count, "in_channels": in_channels}
    graph = build_model(cfg.architecture, class_count, quant=cfg.quant_config(),
                        norm_kind=NormKind(cfg.norm), seed=cfg.seed, dtype=np.float32,
                        in_channels=in_channels, input_hw=dims["input_hw"])
    np.savez(path, config=json.dumps({**asdict(cfg), **dims}), **cli._state(graph))
    return graph


def train_args(out_dir, *extra):
    return ["train", "--dataset", "blobs", "--architecture", "vgg-mini",
            "--epochs", "1", "--batch-size", "60", "--no-augment",
            "--metrics-max-samples", "40", "--out-dir", str(out_dir), *extra]


# A value other than the default for every RunConfig field; a bool is
# listed with both values, so both its flags and its on/off are used.
FIELD_VALUES = [
    ("architecture", "cnn9-mini"), ("dataset", "blobs"), ("data_dir", "/data"),
    ("m_w", 7), ("m_a", 4), ("qscale_mode", "half_mw_minus_one"), ("gamma", 0.5),
    ("alpha", 0.75), ("s", 0.5), ("lr", 0.125), ("epochs", 3), ("batch_size", 7),
    ("momentum", 0.5), ("weight_decay", 0.001), ("seed", 3),
    ("augment", False), ("augment", True), ("quantize", False), ("quantize", True),
    ("quantize_head", False), ("quantize_head", True), ("norm", "bn"),
    ("pad_to", 36), ("out_dir", "runs/x"), ("metrics_max_samples", 9),
]


def config_text(key, value):
    if isinstance(value, bool):
        value = "on" if value else "off"
    return f"{key.replace('_', '-')} = {value}\n"


def flag_args(key, value):
    flag = "--" + key.replace("_", "-")
    if isinstance(value, bool):
        return [flag if value else "--no-" + flag[2:]]
    return [flag, str(value)]


class TestParseConfig:
    def test_defaults(self):
        cfg, _ = parse_config(["train"])
        assert cfg.lr == 1e-2
        assert cfg.epochs == 300
        assert cfg.m_w == 15 and cfg.m_a == 8
        assert cfg.augment and cfg.quantize

    def test_flag_overrides_default(self):
        cfg, _ = parse_config(["train", "--lr", "0.5", "--no-augment"])
        assert cfg.lr == 0.5
        assert cfg.augment is False

    def test_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lr = 0.25\nbatch-size = 7\n# comment\nquantize = off\n")
        cfg, _ = parse_config(["train", "--config", str(conf)])
        assert cfg.lr == 0.25
        assert cfg.batch_size == 7
        assert cfg.quantize is False

    def test_flag_beats_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lr = 0.25\n")
        cfg, _ = parse_config(["train", "--config", str(conf), "--lr", "0.125"])
        assert cfg.lr == 0.125

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("learning_rate = 0.25\n")
        with pytest.raises(UsageError,
                           match=r"run.conf:1: unknown config key 'learning_rate'"):
            parse_config(["train", "--config", str(conf)])

    @pytest.mark.parametrize("line,message", [
        ("epochs = abc", "epochs = 'abc' is not a valid int"),
        ("batch-size = 1.5", "batch-size = '1.5' is not a valid int"),
        ("lr = fast", "lr = 'fast' is not a valid float"),
        ("augment = maybe", "augment = 'maybe' is not a valid bool")],
        ids=["int", "fraction-for-int", "float", "bool"])
    def test_bad_config_value_names_its_line_and_key(self, tmp_path, line, message):
        conf = tmp_path / "run.conf"
        conf.write_text(f"seed = 3\n{line}\n")
        with pytest.raises(UsageError, match=rf"run.conf:2: {message}"):
            parse_config(["train", "--config", str(conf)])

    def test_every_field_is_listed(self):
        assert {key for key, _ in FIELD_VALUES} == \
            {f.name for f in fields(RunConfig)} - {"command"}

    @pytest.mark.parametrize("key,value", FIELD_VALUES,
                             ids=[f"{k}={v}" for k, v in FIELD_VALUES])
    def test_every_field_is_a_flag_and_a_config_key(self, tmp_path, key, value):
        other = (not value) if isinstance(value, bool) else getattr(RunConfig, key)
        conf = tmp_path / "run.conf"
        conf.write_text(config_text(key, other))
        by_flag, _ = parse_config(["train", "--config", str(conf), *flag_args(key, value)])
        conf.write_text(config_text(key, value))
        by_file, _ = parse_config(["train", "--config", str(conf)])
        assert getattr(by_flag, key) == getattr(by_file, key) == value
        saved = json.loads(json.dumps(asdict(by_flag)))  # as config.json holds it
        assert saved[key] == value and RunConfig(**saved) == by_flag

    def test_architecture_choices_are_the_network_s(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for p in sub.choices.values():
            arch = next(a for a in p._actions if "--architecture" in a.option_strings)
            assert tuple(arch.choices) == ARCHITECTURES

    def test_config_file_that_is_not_utf8_names_the_byte(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"\xff\xfel\x00r\x00")
        with pytest.raises(UsageError, match="run.conf: not UTF-8 text at byte 0"):
            parse_config(["train", "--config", str(conf)])

    def test_malformed_config_line(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lr 0.25\n")
        with pytest.raises(UsageError, match=":1"):
            parse_config(["train", "--config", str(conf)])

    def test_data_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAQD_DATA_DIR", str(tmp_path))
        cfg, _ = parse_config(["train"])
        assert cfg.data_dir == str(tmp_path)

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAQD_DATA_DIR", "/nowhere")
        cfg, _ = parse_config(["train", "--data-dir", str(tmp_path)])
        assert cfg.data_dir == str(tmp_path)

    @pytest.mark.parametrize("flag,value,fragment", [
        ("--m-a", "1", "m-a"),
        ("--m-w", "4", "m-w"),
        ("--gamma", "1.5", "gamma"),
        ("--lr", "0", "lr"),
        ("--weight-decay", "-1", "weight-decay"),
        ("--momentum", "1.0", "momentum"),
        ("--epochs", "-1", "epochs"),
        ("--metrics-max-samples", "-5", "metrics-max-samples"),
        ("--seed", "-1", "seed"),
        ("--pad-to", "-3", "pad-to"),
    ])
    def test_range_errors_name_the_flag(self, flag, value, fragment):
        with pytest.raises(UsageError, match=fragment):
            parse_config(["train", flag, value])

    def test_subcommand_required(self):
        with pytest.raises(UsageError):
            parse_config([])

    def test_quant_config_none_when_disabled(self):
        cfg, _ = parse_config(["train", "--no-quantize"])
        assert cfg.quant_config() is None

    def test_quant_config_mirrors_flags(self):
        cfg, _ = parse_config(["train", "--m-w", "3", "--m-a", "2",
                            "--qscale-mode", "half_mw_minus_one"])
        q = cfg.quant_config()
        assert q.m_w == 3 and q.m_a == 2
        assert q.weight_qscale == 1.0


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["train", "--m-a", "1"]) == 2
        assert "m-a" in capsys.readouterr().err

    def test_missing_data_dir_is_2(self, capsys, monkeypatch):
        monkeypatch.delenv("MAQD_DATA_DIR", raising=False)
        assert main(["train", "--dataset", "mnist", "--epochs", "0"]) == 2
        assert "data-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("case", DAMAGE)
    def test_damaged_dataset_is_2_and_names_the_file(self, tmp_path, capsys, case):
        path = write_damaged(tmp_path, case)
        dataset, message = DAMAGE[case][0], DAMAGE[case][-1]
        assert main(["train", "--dataset", dataset, "--data-dir", str(tmp_path),
                     "--epochs", "0", "--out-dir", str(tmp_path / "out")]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("norm-bench", "--variants", "FOO"),
        ("norm-bench", "--batch-sizes", "16,x"),
        ("sweep", "--m-w-grid", "3,x"),
        ("norm-bench", "--train-subset", "-5"),
    ])
    def test_bad_list_flag_is_2_and_names_the_flag(self, tmp_path, capsys, command, flag,
                                                    value):
        # refused before any data is read or any directory is made
        out = tmp_path / "out"
        assert main([command, "--dataset", "blobs", "--out-dir", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--m-w", "70001"), ("--m-w", "65535"), ("--m-a", "65536"), ("--alpha", "inf"),
        ("--alpha", "1e309"), ("--s", "nan"),
        # settings whose first step overflows the float32 weights
        ("--s", "1e200"), ("--lr", "inf"), ("--weight-decay", "inf")])
    def test_quantizer_the_export_cannot_hold_is_2(self, tmp_path, capsys, flag, value):
        # refused before the first epoch, not after training at export
        out = tmp_path / "out"
        assert main(["train", "--dataset", "blobs", "--epochs", "1", "--out-dir", str(out),
                     flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command,n_train,n_test,split", [
        ("train", 0, 3, "train"), ("train", 6, 0, "test"), ("eval", 6, 0, "test"),
        ("infer", 6, 0, "test"), ("infer_checkpoint", 6, 0, "test")])
    def test_empty_mnist_split_is_2_and_names_it(self, tmp_path, capsys, monkeypatch, command,
                                                 n_train, n_test, split):
        # 0-image idx files load; each command refuses them before its
        # first step or batch
        for stem, n in (("train", n_train), ("t10k", n_test)):
            write_idx_images(tmp_path / f"{stem}-images-idx3-ubyte",
                             np.zeros((n, 28, 28), np.uint8))
            write_idx_labels(tmp_path / f"{stem}-labels-idx1-ubyte", np.zeros(n, np.uint8))
        out = tmp_path / "out"
        checkpoint = tmp_path / "checkpoint.npz"
        export(write_checkpoint(checkpoint, class_count=10), tmp_path / "m.maqd")
        batches = []
        monkeypatch.setattr(cli.export_mod, "runtime_infer", lambda *a: batches.append(a))
        args = {"train": ["train", "--architecture", "vgg-mini", "--epochs", "1",
                          "--out-dir", str(out)],
                "eval": ["eval", "--checkpoint", str(checkpoint)],
                "infer": ["infer", "--model", str(tmp_path / "m.maqd")],
                "infer_checkpoint": ["infer", "--model", str(tmp_path / "m.maqd"),
                                     "--checkpoint", str(checkpoint)]}[command]
        assert main(args + ["--dataset", "mnist", "--data-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: empty {split} set\n"
        assert not (out / "checkpoint.npz").exists() and not batches

    def test_sweep_checks_every_cell_before_the_first_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--dataset", "blobs", "--epochs", "0", "--out-dir", str(out),
                     "--m-w-grid", "3,4", "--m-a-grid", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: --m-w: ")
        assert not out.exists()

    def test_missing_checkpoint_file_is_2(self, tmp_path, capsys):
        assert main(["eval", "--dataset", "blobs",
                     "--checkpoint", str(tmp_path / "none.npz")]) == 2

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_unreadable_checkpoint_is_2_and_names_the_file(self, tmp_path, capsys, damage):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path)
        blob = {"garbage": b"garbage", "truncated": path.read_bytes()[:2000]}[damage]
        path.write_bytes(blob)
        assert main(["export", "--checkpoint", str(path),
                     "--out", str(tmp_path / "m.maqd")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: not a readable checkpoint" in err

    @pytest.mark.parametrize("command", [
        ["train", "--config"],
        ["eval", "--dataset", "blobs", "--checkpoint"],
        ["infer", "--dataset", "blobs", "--model"]], ids=["config", "checkpoint", "model"])
    def test_directory_path_is_2_and_named(self, tmp_path, capsys, command):
        assert main([*command, str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_damaged_checkpoint_exports_or_is_2(self, tmp_path, capsys):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path)
        blob = path.read_bytes()
        # Half the mutations hit the zip and .npy headers and the config at
        # the front or the zip directory at the end; the rest land anywhere.
        ends = np.r_[0:1024, len(blob) - 2048:len(blob)]
        rng = np.random.default_rng(8)
        for i in range(400):
            data = bytearray(blob)
            where = rng.choice(ends, 3) if i % 2 else rng.integers(0, len(data), 3)
            for at in where:
                data[at] ^= int(rng.integers(1, 256))
            path.write_bytes(bytes(data))
            code = main(["export", "--checkpoint", str(path),
                         "--out", str(tmp_path / "m.maqd")])
            assert code in (0, 2)
            if code == 2:
                assert f"error: {path}: " in capsys.readouterr().err

    def test_unrunnable_model_is_2_and_names_the_record(self, tmp_path, capsys):
        path = tmp_path / "m.maqd"
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(2))
        export(ModelGraph([conv, GlobalAvgPool()], "x", 4, None, NormKind.LBN), path)
        data = bytearray(path.read_bytes())
        at = 4 + 2 + 1 + len("x") + 2 + 22 + 4  # the conv record
        data[at + 5 + 5] = 0  # its stride
        path.write_bytes(bytes(data))
        assert main(["infer", "--dataset", "blobs", "--model", str(path)]) == 2
        assert f"record at byte {at}: conv with kernel 3, stride 0" in capsys.readouterr().err


def bits(a):
    return a.dtype, a.shape, a.tobytes()


class TestCheckpoint:
    @pytest.mark.parametrize("quantize", [True, False], ids=["quantized", "float"])
    @pytest.mark.parametrize("norm", ["lbn", "bn", "ln"])
    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini", "cnn9-mini"])
    def test_round_trip_after_a_step_is_bitwise(self, tmp_path, arch, norm, quantize):
        cfg = RunConfig("train", architecture=arch, dataset="blobs", norm=norm,
                        quantize=quantize)
        graph = cli._build(cfg, **BLOBS_DIMS)
        x = np.random.default_rng(0).standard_normal((8, 1, 8, 8)).astype(np.float32)
        _, grad = combined_loss(graph.forward(x, Mode.TRAIN), np.arange(8) % 4)
        graph.backward(grad)
        sgd_momentum_step(graph.parameters(), OptimState(learning_rate=0.1))
        path = tmp_path / "checkpoint.npz"
        np.savez(path, config=json.dumps({**asdict(cfg), **BLOBS_DIMS}),
                 **cli._state(graph))

        loaded = cli._load_checkpoint(path)
        saved, got = cli._state(graph), cli._state(loaded)
        assert list(got) == list(saved)
        assert [bits(v) for v in got.values()] == [bits(v) for v in saved.values()]
        assert bits(loaded.forward(x, Mode.EVAL)) == bits(graph.forward(x, Mode.EVAL))

    def test_loaded_g_and_b_stay_the_norm_state_s(self, tmp_path):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path)
        layers = cli._load_checkpoint(path).all_layers()
        norm = next(l for l in layers if isinstance(l, NormLayer))
        assert norm.g.data is norm.state.g and norm.b.data is norm.state.b

    @pytest.mark.parametrize("edit,message", [
        ("missing", "missing key 'running_var5'"),
        ("unexpected", "unexpected key 'velocity0'"),
        ("shape", r"key 'param0' must be a float32 array of shape \(16, 1, 3, 3\)"),
        ("dtype", r"key 'param1' must be a float32 array of shape \(16,\)"),
        ("config-field", r"key 'config' does not describe a run \(KeyError: 'seed'\)"),
        ("config", r"key 'config' does not describe a run \(KeyError: 'config'\)")])
    def test_schema_errors_name_the_key(self, tmp_path, edit, message):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path)
        with np.load(path) as f:
            arrays = dict(f)
        if edit == "missing":
            del arrays["running_var5"]
        elif edit == "unexpected":
            arrays["velocity0"] = np.zeros(3)
        elif edit == "shape":
            arrays["param0"] = arrays["param0"].reshape(16, 9)
        elif edit == "dtype":
            arrays["param1"] = arrays["param1"].astype(np.float64)
        elif edit == "config-field":
            config = json.loads(str(arrays["config"]))
            del config["seed"]
            arrays["config"] = json.dumps(config)
        else:
            del arrays["config"]
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match=f"{path}: {message}"):
            cli._load_checkpoint(path)

    @pytest.mark.parametrize("command", ["eval", "export"])
    @pytest.mark.parametrize("key, index, value, rule", [
        ("param0", 5, np.nan, "finite"),
        ("running_var0", 0, -1.0, "finite and non-negative")], ids=["nan_param", "negative_var"])
    def test_bad_values_are_2_and_name_the_file_and_key(self, tmp_path, capsys, command,
                                                        key, index, value, rule):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path)
        with np.load(path) as f:
            arrays = dict(f)
        arrays[key].reshape(-1)[index] = value
        np.savez(path, **arrays)
        args = {"eval": ["eval", "--dataset", "blobs", "--checkpoint", str(path)],
                "export": ["export", "--checkpoint", str(path),
                           "--out", str(tmp_path / "m.maqd")]}[command]
        assert main(args) == 2
        assert (f"error: {path}: key {key!r} holds {value} at flat index {index}; "
                f"values must be {rule}\n") == capsys.readouterr().err
        assert not (tmp_path / "m.maqd").exists()

    def test_eval_with_a_three_channel_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path, in_channels=3)
        assert main(["eval", "--dataset", "blobs", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: the checkpoint's in_channels is 3, the data's 1" in err

    def test_infer_with_a_three_class_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "checkpoint.npz"
        graph = write_checkpoint(path, class_count=3)
        export(graph, tmp_path / "m.maqd")
        assert main(["infer", "--dataset", "blobs", "--model", str(tmp_path / "m.maqd"),
                     "--checkpoint", str(path)]) == 2
        assert "error: the checkpoint's class_count is 3, the data's 4" in capsys.readouterr().err

    @pytest.mark.parametrize("run,message", [
        ({"conv_count": 2}, "the checkpoint's conv 2 is CONV_Q, the model's (none)"),
        ({"architecture": "preact-mini", "norm": "ln"},
         "the checkpoint's architecture is preact-mini, the model's vgg-mini"),
        ({"m_a": 4}, "the checkpoint's quantizer is (m_w 15, m_a 4, qscale_mode half_mw, "
                     "s 0.3333333333333333, alpha 0.25), the model's (m_w 15, m_a 8, "
                     "qscale_mode half_mw, s 0.3333333333333333, alpha 0.25)"),
        ({"quantize": False}, "the checkpoint's quantizer is (off), the model's (m_w 15"),
        ({"quantize_head": False}, "the checkpoint's conv 6 is CONV_F, the model's CONV_Q"),
        ({"norm": "ln"}, "the checkpoint's norm is ln, the model's a folded bn or lbn: "
                         "LN recomputes statistics per sample and cannot be folded")],
        ids=["conv-count", "architecture", "quantizer", "float", "head", "ln"])
    def test_infer_with_a_checkpoint_of_another_network_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, run, message):
        # a vgg-mini LBN model, or ("conv_count") a 2-conv stream named
        # vgg-mini against a vgg-mini checkpoint; refused before the runtime
        # runs a batch
        path = tmp_path / "m.maqd"
        model = write_checkpoint(tmp_path / "model.npz")
        run = dict(run)
        if run.pop("conv_count", None):
            rng, q = np.random.default_rng(0), model.quant
            model = ModelGraph([Conv2d(1, 16, 3, rng=rng, quant=q), NormLayer(NormKind.LBN, 16),
                                ActQuant(q), Conv2d(16, 4, 1, rng=rng, quant=q),
                                GlobalAvgPool()], "vgg-mini", 4, q, NormKind.LBN)
        export(model, path)
        write_checkpoint(tmp_path / "checkpoint.npz", **run)
        batches = []
        monkeypatch.setattr(cli.export_mod, "runtime_infer", lambda *a: batches.append(a))
        assert main(["infer", "--dataset", "blobs", "--model", str(path),
                     "--checkpoint", str(tmp_path / "checkpoint.npz")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not batches

    def test_infer_with_a_three_class_model_is_a_usage_error(self, tmp_path, capsys,
                                                             monkeypatch):
        # refused before the runtime runs a batch
        path = tmp_path / "m.maqd"
        export(write_checkpoint(tmp_path / "checkpoint.npz", class_count=3), path)
        batches = []
        monkeypatch.setattr(cli.export_mod, "runtime_infer", lambda *a: batches.append(a))
        assert main(["infer", "--dataset", "blobs", "--model", str(path)]) == 2
        assert "error: the model's class_count is 3, the data's 4" in capsys.readouterr().err
        assert not batches

    def test_infer_on_a_nan_image_names_the_activation_record(self, tmp_path, capsys,
                                                              monkeypatch):
        path = tmp_path / "m.maqd"
        export(write_checkpoint(tmp_path / "checkpoint.npz"), path)
        at = next(l.at for l in _walk(import_model(path).layers) if isinstance(l, ActQuant))
        load = cli._load_dataset

        def with_a_nan(cfg):
            train, test = load(cfg)
            test.images[3, 0, 2, 2] = np.nan
            return train, test

        monkeypatch.setattr(cli, "_load_dataset", with_a_nan)
        assert main(["infer", "--dataset", "blobs", "--model", str(path)]) == 2
        assert f"error: ACT_Q record at byte {at}: quantizer input must be finite\n" \
            == capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(train_args(out)) == 0
    return out


@pytest.mark.slow
class TestTrainRun:
    def test_artifacts_exist(self, run_dir):
        for name in ("config.json", "training_log.csv", "sparsity.csv",
                     "summary.json", "checkpoint.npz", "model.maqd"):
            assert (run_dir / name).exists(), name
        assert not list(run_dir.glob("*.pkl"))

    def test_checkpoint_holds_no_tape(self, run_dir):
        assert (run_dir / "checkpoint.npz").stat().st_size < 1_000_000

    def test_config_json_round_trips(self, run_dir):
        saved = json.loads((run_dir / "config.json").read_text())
        assert saved == asdict(parse_config(train_args(run_dir))[0])
        assert saved["epochs"] == 1
        assert saved["architecture"] == "vgg-mini"
        assert saved["augment"] is False

    def test_summary_has_final_metrics(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        final = summary["final"]
        assert 0.0 <= final["test_acc"] <= 1.0
        assert 0.0 <= final["r_w"] <= 1.0
        assert 0.0 <= final["r_a"] <= 1.0

    def test_sparsity_csv_is_the_final_eval_pass(self, run_dir):
        final = json.loads((run_dir / "summary.json").read_text())["final"]
        with open(run_dir / "sparsity.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["r_a"]) for r in rows if r["r_a"]] == final["r_a_per_layer"]
        assert [float(r["r_w"]) for r in rows] == final["r_w_per_layer"]

    def test_training_log_rows(self, run_dir):
        lines = (run_dir / "training_log.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 2  # header + one epoch

    def test_exported_model_loads(self, run_dir):
        model = import_model(run_dir / "model.maqd")
        assert model.arch == "vgg-mini"
        assert model.quant is not None

    def test_eval_and_infer_commands(self, run_dir, capsys):
        assert main(["eval", "--dataset", "blobs",
                     "--checkpoint", str(run_dir / "checkpoint.npz")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["test_acc"] <= 1.0

        report_path = run_dir / "report.json"
        assert main(["infer", "--dataset", "blobs",
                     "--model", str(run_dir / "model.maqd"),
                     "--checkpoint", str(run_dir / "checkpoint.npz"),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["parity"]["argmax_agreement"] == 1.0
        assert report["parity"]["max_abs_logit_diff"] < 1e-4

    def test_ln_run_skips_the_model_file(self, tmp_path, capsys):
        assert main(train_args(tmp_path, "--norm", "ln")) == 0
        assert "skipped model.maqd: LN" in capsys.readouterr().out
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "checkpoint.npz").exists()
        assert not (tmp_path / "model.maqd").exists()

    def test_preact_resnet_plans_its_pools_for_the_data(self, tmp_path):
        assert main(["train", "--dataset", "blobs", "--architecture", "preact_resnet",
                     "--epochs", "0", "--metrics-max-samples", "4",
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "summary.json").exists()

    def test_export_command_matches_train_export(self, run_dir, tmp_path):
        out = tmp_path / "re.maqd"
        assert main(["export", "--checkpoint", str(run_dir / "checkpoint.npz"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (run_dir / "model.maqd").read_bytes()


@pytest.mark.slow
class TestSweep:
    def test_sweep_writes_grid_and_resumes(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--dataset", "blobs", "--architecture", "vgg-mini",
                "--epochs", "0", "--batch-size", "60", "--no-augment",
                "--metrics-max-samples", "40", "--out-dir", str(out),
                "--m-w-grid", "3", "--m-a-grid", "2,8",
                "--include-nonquantized"]
        assert main(args) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "m_w,m_a,accuracy,r_w,r_a"
        assert len(lines) == 4  # nonquantized + 2 grid cells
        assert (out / "nonquantized" / "summary.json").exists()
        assert (out / "mw3_ma2" / "summary.json").exists()

        capsys.readouterr()
        assert main(args) == 0
        text = capsys.readouterr().out
        assert text.count("skipping completed cell") == 3

    def test_resume_reruns_a_cell_interrupted_before_its_summary(
            self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--dataset", "blobs", "--architecture", "vgg-mini",
                "--epochs", "0", "--batch-size", "60", "--no-augment",
                "--metrics-max-samples", "40", "--out-dir", str(out),
                "--m-w-grid", "3", "--m-a-grid", "2"]
        cell = out / "mw3_ma2"

        def interrupted_export(graph, path):
            raise RuntimeError("interrupted")

        with monkeypatch.context() as m:
            m.setattr("maqd.cli.export_mod.export", interrupted_export)
            with pytest.raises(RuntimeError, match="interrupted"):
                main(args)
        assert not (cell / "summary.json").exists()

        capsys.readouterr()
        assert main(args) == 0
        assert "skipping completed cell" not in capsys.readouterr().out
        assert (cell / "model.maqd").exists()
        assert (cell / "summary.json").exists()


class TestNormBenchFlags:
    @pytest.mark.parametrize("flags,want", [
        ([], (OptimState.momentum, training.LossConfig.gamma, True)),
        (["--momentum", "0.5", "--gamma", "0.25", "--no-augment"], (0.5, 0.25, False))],
        ids=["defaults", "set"])
    def test_train_gets_momentum_gamma_and_augment(self, tmp_path, monkeypatch, flags, want):
        seen = []
        real = training.train
        monkeypatch.setattr(training, "train", lambda *a, **kw: seen.append(
            (kw["momentum"], kw["loss_cfg"].gamma, kw["augment"])) or real(*a, **kw))
        args = ["norm-bench", "--dataset", "blobs", "--architecture", "cnn9-mini",
                "--epochs", "0", "--out-dir", str(tmp_path), "--batch-sizes", "8",
                "--variants", "LBN", "--train-subset", "16", "--metrics-max-samples", "16",
                *flags]
        assert main(args) == 0
        assert seen == [want]


class TestEvalBatchSize:
    @pytest.mark.parametrize("flags,want", [([], 100), (["--batch-size", "7"], 7)],
                             ids=["default", "set"])
    def test_evaluate_gets_the_batch_size(self, tmp_path, monkeypatch, capsys, flags, want):
        path = tmp_path / "checkpoint.npz"
        write_checkpoint(path)
        seen = []
        real = training.evaluate

        def spy(*args, **kw):
            call = inspect.signature(real).bind(*args, **kw)
            call.apply_defaults()
            seen.append(call.arguments["batch_size"])
            return real(*args, **kw)

        monkeypatch.setattr(training, "evaluate", spy)
        assert main(["eval", "--dataset", "blobs", "--checkpoint", str(path), *flags]) == 0
        assert seen == [want]
        assert 0.0 <= json.loads(capsys.readouterr().out)["test_acc"] <= 1.0


@pytest.mark.slow
class TestNormBench:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench"
        args = ["norm-bench", "--dataset", "blobs", "--architecture", "cnn9-mini",
                "--epochs", "1", "--no-augment", "--out-dir", str(out),
                "--batch-sizes", "16,32", "--variants", "LBN,LBN+WS",
                "--train-subset", "64", "--metrics-max-samples", "32"]
        assert main(args) == 0
        lines = (out / "norm_bench.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + variants x batch sizes
