"""Command-line entry point.

Subcommands: train, eval, export, infer, norm-bench, sweep. Hyperparameter
precedence is flags > config file > defaults; the fully resolved config is
echoed into the run directory's JSON summary. Config files are flat
`key = value` text (same keys as the flags, kebab- or snake-case).

The dataset directory comes from --data-dir or the MAQD_DATA_DIR
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import datasets, export as export_mod, network, training
from .normalization import Mode, NormKind
from .quantizer import QScaleMode, QuantConfig


class UsageError(ValueError):
    pass


class CheckpointError(ValueError):
    """A checkpoint file that cannot be unpickled."""


_ARCHS = ("vgg", "vgg-mini", "preact_resnet", "preact-mini", "cnn9", "cnn9-mini")
_DATASETS = ("cifar10", "cifar100", "mnist", "blobs")


@dataclass
class RunConfig:
    command: str
    architecture: str = "vgg"
    dataset: str = "cifar10"
    data_dir: str | None = None
    m_w: int = 15
    m_a: int = 8
    qscale_mode: str = "half_mw"
    gamma: float = 0.05
    alpha: float = 0.25
    s: float = 1.0 / 3.0
    lr: float = 1e-2
    epochs: int = 300
    batch_size: int = 100
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 42
    augment: bool = True
    quantize: bool = True
    quantize_head: bool = True
    norm: str = "lbn"
    pad_to: int = 0
    out_dir: str = "runs/run"
    metrics_max_samples: int = 0

    def validate(self):
        checks = [
            ("architecture", self.architecture in _ARCHS, f"one of {_ARCHS}"),
            ("dataset", self.dataset in _DATASETS, f"one of {_DATASETS}"),
            ("m-w", self.m_w >= 3 and self.m_w % 2 == 1, "an odd integer >= 3"),
            ("m-a", self.m_a >= 2, ">= 2"),
            ("qscale-mode", self.qscale_mode in ("half_mw", "half_mw_minus_one"),
             "half_mw or half_mw_minus_one"),
            ("gamma", 0.0 <= self.gamma <= 1.0, "in [0, 1]"),
            ("alpha", self.alpha > 0, "> 0"),
            ("s", self.s > 0, "> 0"),
            ("lr", self.lr > 0, "> 0"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("batch-size", self.batch_size >= 1, ">= 1"),
            ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
            ("weight-decay", self.weight_decay >= 0, ">= 0"),
            ("norm", self.norm in ("bn", "ln", "lbn"), "bn, ln, or lbn"),
            ("metrics-max-samples", self.metrics_max_samples >= 0, ">= 0"),
        ]
        for key, ok, expect in checks:
            if not ok:
                raise UsageError(f"--{key}: value must be {expect}")

    def quant_config(self) -> QuantConfig | None:
        if not self.quantize:
            return None
        mode = QScaleMode.HALF_MW if self.qscale_mode == "half_mw" \
            else QScaleMode.HALF_MW_MINUS_ONE
        return QuantConfig(m_w=self.m_w, m_a=self.m_a, qscale_mode=mode,
                           s=self.s, alpha=self.alpha)


_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _read_config_file(path) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value, f"{path}:{lineno}")
    return values


def _coerce(key: str, value: str, where: str):
    """A config-file value as the type of the key's default."""
    default = _DEFAULTS[key]
    try:
        if isinstance(default, bool):
            return _BOOLEANS[value.lower()]
        if isinstance(default, (int, float)):
            return type(default)(value)
    except (KeyError, ValueError):
        raise UsageError(f"{where}: {key.replace('_', '-')} = {value!r} is not a "
                         f"valid {type(default).__name__}") from None
    return value


def parse_config(argv: list[str]) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a subcommand is required")

    resolved = dict(_DEFAULTS)
    if getattr(args, "config", None):
        resolved.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)  # argparse has typed it
        if flag_value is not None:
            resolved[key] = flag_value
    if resolved["data_dir"] is None:
        resolved["data_dir"] = os.environ.get("MAQD_DATA_DIR")

    cfg = RunConfig(command=args.command, **resolved)
    cfg.validate()
    cfg._args = args  # subcommand-specific extras (checkpoint paths etc.)
    return cfg


def _add_common_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--architecture", choices=_ARCHS)
    p.add_argument("--dataset", choices=_DATASETS)
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--m-w", dest="m_w", type=int)
    p.add_argument("--m-a", dest="m_a", type=int)
    p.add_argument("--qscale-mode", dest="qscale_mode",
                   choices=("half_mw", "half_mw_minus_one"))
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--augment", dest="augment", action="store_const", const=True)
    p.add_argument("--no-augment", dest="augment", action="store_const", const=False)
    p.add_argument("--quantize", dest="quantize", action="store_const", const=True)
    p.add_argument("--no-quantize", dest="quantize", action="store_const", const=False)
    p.add_argument("--no-quantize-head", dest="quantize_head",
                   action="store_const", const=False)
    p.add_argument("--norm", choices=("bn", "ln", "lbn"))
    p.add_argument("--pad-to", dest="pad_to", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--metrics-max-samples", dest="metrics_max_samples", type=int)


def _build_parser():
    parser = argparse.ArgumentParser(prog="maqd")
    sub = parser.add_subparsers(dest="command")

    for name in ("train", "eval", "export", "infer", "norm-bench", "sweep"):
        p = sub.add_parser(name)
        _add_common_flags(p)
        if name in ("eval", "export"):
            p.add_argument("--checkpoint", required=True)
        if name == "export":
            p.add_argument("--out", required=True)
        if name == "infer":
            p.add_argument("--model", required=True)
            p.add_argument("--checkpoint", help="trainer checkpoint for a parity report")
            p.add_argument("--report")
        if name == "norm-bench":
            p.add_argument("--batch-sizes", default="16,128")
            p.add_argument("--variants", default="LBN+WS,LBN,BN+WS,BN")
            p.add_argument("--seeds", default="42")
            p.add_argument("--train-subset", type=int, default=0)
        if name == "sweep":
            p.add_argument("--m-w-grid", default="3,15")
            p.add_argument("--m-a-grid", default="2,8")
            p.add_argument("--include-nonquantized", action="store_true")
    return parser


def _load_dataset(cfg: RunConfig):
    if cfg.dataset == "blobs":
        full = datasets.synthetic_blobs(classes=4, per_class=150, seed=cfg.seed,
                                        dtype=np.float32)
        n_train = int(0.8 * full.images.shape[0])
        train = datasets.LabeledImageSet(full.images[:n_train], full.labels[:n_train],
                                         full.class_count)
        test = datasets.LabeledImageSet(full.images[n_train:], full.labels[n_train:],
                                        full.class_count)
        return train, test
    if cfg.data_dir is None:
        raise UsageError("--data-dir (or MAQD_DATA_DIR) is required for "
                         f"dataset {cfg.dataset!r}")
    if cfg.dataset == "mnist":
        train, test = datasets.load_mnist_idx(cfg.data_dir)
        pad = cfg.pad_to or 32
        return datasets.pad_images(train, pad), datasets.pad_images(test, pad)
    variant = 10 if cfg.dataset == "cifar10" else 100
    return datasets.load_cifar(cfg.data_dir, variant)


def _build(cfg: RunConfig, class_count: int, in_channels: int, dtype=np.float32):
    return network.build_model(
        cfg.architecture, class_count, quant=cfg.quant_config(),
        norm_kind=NormKind(cfg.norm), quantize_head=cfg.quantize_head,
        seed=cfg.seed, dtype=dtype, in_channels=in_channels)


def _config_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}


def _run_train(cfg: RunConfig, out_dir: Path | None = None) -> Path:
    out_dir = Path(out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_set, test_set = _load_dataset(cfg)
    graph = _build(cfg, train_set.class_count, train_set.images.shape[1])
    loss_cfg = training.LossConfig(gamma=cfg.gamma)
    log = training.train(
        graph, train_set, test_set, epochs=cfg.epochs, batch_size=cfg.batch_size,
        loss_cfg=loss_cfg, base_lr=cfg.lr, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, seed=cfg.seed, augment=cfg.augment,
        metrics_max_samples=cfg.metrics_max_samples or None)

    with open(out_dir / "config.json", "w") as f:
        json.dump(_config_dict(cfg), f, indent=2)
    training.write_training_log(out_dir / "training_log.csv", log)
    training.write_sparsity_csv(out_dir / "sparsity.csv", log[-1])
    with open(out_dir / "checkpoint.pkl", "wb") as f:
        pickle.dump(graph, f)
    export_mod.export(graph, out_dir / "model.maqd")
    # Last: a sweep takes the summary as the sign that the cell is complete.
    training.write_summary_json(out_dir / "summary.json", _config_dict(cfg), log)
    return out_dir


def _load_checkpoint(path) -> network.ModelGraph:
    with open(path, "rb") as f:
        try:
            graph = pickle.load(f)
        except (pickle.UnpicklingError, EOFError) as e:  # not a pickle, or truncated
            raise CheckpointError(f"{path}: not a readable checkpoint "
                                  f"({type(e).__name__}: {e})") from None
    return graph


def _cmd_train(cfg):
    out = _run_train(cfg)
    print(f"run complete: {out}")
    return 0


def _cmd_eval(cfg):
    graph = _load_checkpoint(cfg._args.checkpoint)
    _, test_set = _load_dataset(cfg)
    res = training.evaluate(graph, test_set, training.LossConfig(gamma=cfg.gamma))
    print(json.dumps({"test_loss": res.loss, "test_acc": res.acc, "r_a": res.r_a}))
    return 0


def _cmd_export(cfg):
    graph = _load_checkpoint(cfg._args.checkpoint)
    export_mod.export(graph, cfg._args.out)
    print(f"exported {cfg._args.out}")
    return 0


def _cmd_infer(cfg):
    model = export_mod.import_model(cfg._args.model)
    _, test_set = _load_dataset(cfg)
    logits = []
    for start in range(0, test_set.images.shape[0], cfg.batch_size):
        logits.append(export_mod.runtime_infer(
            model, test_set.images[start:start + cfg.batch_size]))
    logits = np.concatenate(logits)
    acc = float(np.mean(np.argmax(logits, axis=1) == test_set.labels))
    report = {"samples": int(test_set.images.shape[0]), "accuracy": acc}
    if getattr(cfg._args, "checkpoint", None):
        graph = _load_checkpoint(cfg._args.checkpoint)
        parity = export_mod.parity_check(graph, model, test_set.images, cfg.batch_size)
        report["parity"] = asdict(parity)
    text = json.dumps(report, indent=2)
    if getattr(cfg._args, "report", None):
        Path(cfg._args.report).write_text(text)
    print(text)
    return 0


def _cmd_norm_bench(cfg):
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_set, test_set = _load_dataset(cfg)
    subset = cfg._args.train_subset
    if subset:
        train_set = datasets.LabeledImageSet(
            train_set.images[:subset], train_set.labels[:subset], train_set.class_count)
    rows = training.norm_comparison_experiment(
        train_set, test_set,
        batch_sizes=[int(b) for b in cfg._args.batch_sizes.split(",")],
        variants=cfg._args.variants.split(","),
        epochs=cfg.epochs, base_lr_at_128=cfg.lr, weight_decay=cfg.weight_decay,
        seeds=[int(s) for s in cfg._args.seeds.split(",")],
        arch=cfg.architecture,
        metrics_max_samples=cfg.metrics_max_samples or None,
        progress=lambda r: print(f"{r.variant} N={r.batch_size} seed={r.seed}: "
                                 f"train_loss={r.final_train_loss:.4f}"))
    training.write_norm_bench_csv(out_dir / "norm_bench.csv", rows)
    print(f"wrote {out_dir / 'norm_bench.csv'}")
    return 0


def _cmd_sweep(cfg):
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = [(int(mw), int(ma))
            for mw in cfg._args.m_w_grid.split(",")
            for ma in cfg._args.m_a_grid.split(",")]
    cells = [("nonquantized", None, None)] if cfg._args.include_nonquantized else []
    cells += [(f"mw{mw}_ma{ma}", mw, ma) for mw, ma in grid]

    rows = []
    for name, mw, ma in cells:
        cell_dir = out_dir / name
        summary_path = cell_dir / "summary.json"
        if summary_path.exists():
            print(f"skipping completed cell {name}")
        else:
            cell_cfg = RunConfig(**{**_config_dict(cfg), "command": "train"})
            if mw is None:
                cell_cfg.quantize = False
            else:
                cell_cfg.m_w, cell_cfg.m_a = mw, ma
            cell_cfg.validate()
            _run_train(cell_cfg, cell_dir)
        with open(summary_path) as f:
            final = json.load(f)["final"]
        rows.append({"m_w": mw, "m_a": ma, "accuracy": final["test_acc"],
                     "r_w": final["r_w"], "r_a": final["r_a"]})

    import csv
    with open(out_dir / "sweep.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["m_w", "m_a", "accuracy", "r_w", "r_a"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out_dir / 'sweep.csv'}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "export": _cmd_export,
    "infer": _cmd_infer,
    "norm-bench": _cmd_norm_bench,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        return _COMMANDS[cfg.command](cfg)
    except (UsageError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
