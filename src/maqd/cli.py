"""Command-line entry point.

Subcommands: train, eval, export, infer, norm-bench, sweep. Every
`RunConfig` field is a flag (a bool is `--x` / `--no-x`) and a config-file
key. Precedence is flags > config file > defaults; the fully resolved
config is echoed into the run directory's JSON summary. Config files are
flat UTF-8 `key = value` text (kebab- or snake-case keys).

The dataset directory comes from --data-dir or the MAQD_DATA_DIR
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import lzma
import os
import sys
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import datasets, export as export_mod, network, training
from .normalization import NormKind
from .quantizer import QScaleMode, QuantConfig


class UsageError(ValueError):
    pass


class CheckpointError(ValueError):
    """A checkpoint file that is damaged or does not fit the model its config builds."""


_DATASETS = ("cifar10", "cifar100", "mnist", "blobs")


@dataclass
class RunConfig:
    """Every setting of a run. Each field is a `--flag` (a bool also has
    `--no-flag`) and a config-file key. The quantizer, loss and optimizer
    defaults are those of QuantConfig, LossConfig and OptimState."""

    command: str
    architecture: str = "vgg"
    dataset: str = "cifar10"
    data_dir: str | None = None
    m_w: int = QuantConfig.m_w
    m_a: int = QuantConfig.m_a
    qscale_mode: str = QuantConfig.qscale_mode.value
    gamma: float = training.LossConfig.gamma
    alpha: float = QuantConfig.alpha
    s: float = QuantConfig.s
    lr: float = 1e-2
    epochs: int = 300
    batch_size: int = 100
    momentum: float = training.OptimState.momentum
    weight_decay: float = training.OptimState.weight_decay
    seed: int = 42
    augment: bool = True
    quantize: bool = True
    quantize_head: bool = True
    norm: str = NormKind.LBN.value
    pad_to: int = 0
    out_dir: str = "runs/run"
    metrics_max_samples: int = 0

    def validate(self):
        """The CLI checks the choice lists and the values only it reads; the
        engine configs check the rest, and their messages start with the
        name of the bad field (`_FLAG_OF` maps it to its flag)."""
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise UsageError(f"{_flag(key)}: value must be one of {allowed}")
        for key, ok, expect in [
                ("epochs", self.epochs >= 0, ">= 0"),
                ("seed", self.seed >= 0, ">= 0"),
                ("pad_to", self.pad_to >= 0, ">= 0"),
                ("metrics_max_samples", self.metrics_max_samples >= 0, ">= 0")]:
            if not ok:
                raise UsageError(f"{_flag(key)}: value must be {expect}")
        try:
            self.quant_config()
            self.loss_config()
            training.OptimState(learning_rate=self.lr, momentum=self.momentum,
                                weight_decay=self.weight_decay)
            datasets.BatchPlan(seed=self.seed, batch_size=self.batch_size)
        except ValueError as e:
            field = str(e).split()[0]
            raise UsageError(f"{_flag(_FLAG_OF.get(field, field))}: {e}") from None

    def quant_config(self) -> QuantConfig | None:
        """The quantizer settings (built, and so checked, even when
        quantization is off)."""
        quant = QuantConfig(m_w=self.m_w, m_a=self.m_a, s=self.s, alpha=self.alpha,
                            qscale_mode=QScaleMode(self.qscale_mode))
        return quant if self.quantize else None

    def loss_config(self) -> training.LossConfig:
        return training.LossConfig(gamma=self.gamma)


_CHOICES = {
    "architecture": network.ARCHITECTURES,
    "dataset": _DATASETS,
    "qscale_mode": tuple(m.value for m in QScaleMode),
    "norm": tuple(k.value for k in NormKind),
}
# An engine config field whose flag has another name.
_FLAG_OF = {"learning_rate": "lr"}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _field_type(key: str) -> type:
    default = _DEFAULTS[key]
    return str if default is None else type(default)


def _read_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 text at byte {e.start}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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
    kind = _field_type(key)
    try:
        return _BOOLEANS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise UsageError(f"{where}: {key.replace('_', '-')} = {value!r} is not a "
                         f"valid {kind.__name__}") from None


def parse_config(argv: list[str]) -> tuple[RunConfig, argparse.Namespace]:
    """The resolved and checked config, and the parsed arguments, which also
    hold the subcommand's own options (checkpoint paths and the like)."""
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError("a subcommand is required")

    resolved = dict(_DEFAULTS)
    if args.config:
        resolved.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag_value = getattr(args, key)  # argparse has typed it
        if flag_value is not None:
            resolved[key] = flag_value
    if resolved["data_dir"] is None:
        resolved["data_dir"] = os.environ.get("MAQD_DATA_DIR")

    cfg = RunConfig(command=args.command, **resolved)
    cfg.validate()
    for key in _LIST_FLAGS.keys() & vars(args).keys():
        setattr(args, key, _list_flag(key, getattr(args, key)))
    if getattr(args, "train_subset", 0) < 0:
        raise UsageError("--train-subset: value must be >= 0")
    return cfg, args


# The subcommands' comma-separated flags: item type, item check, and what
# the check asks for. The sweep checks a grid's values as --m-w and --m-a.
_LIST_FLAGS = {
    "batch_sizes": (int, lambda v: v > 0, "integers > 0"),
    "variants": (str, lambda v: v in training.NORM_VARIANTS,
                 f"names in {tuple(training.NORM_VARIANTS)}"),
    "seeds": (int, lambda v: v >= 0, "integers >= 0"),
    "m_w_grid": (int, lambda v: True, "integers"),
    "m_a_grid": (int, lambda v: True, "integers"),
}


def _list_flag(key: str, text: str) -> list:
    """The items of the comma-separated value of flag `key`, typed and
    checked as `_LIST_FLAGS` says."""
    kind, ok, expect = _LIST_FLAGS[key]
    try:
        items = [kind(v) for v in text.split(",")]
    except ValueError:
        items = []
    if not items or not all(ok(v) for v in items):
        raise UsageError(f"{_flag(key)}: {text!r} is not a comma-separated list of {expect}")
    return items


def _add_common_flags(p):
    """A flag per RunConfig field, typed as its default; unset flags stay
    None so the config file and the defaults show through."""
    p.add_argument("--config", help="flat key = value config file")
    for key, default in _DEFAULTS.items():
        if isinstance(default, bool):
            p.add_argument(_flag(key), action=argparse.BooleanOptionalAction,
                           help=f"default: {'on' if default else 'off'}")
        else:
            p.add_argument(_flag(key), type=_field_type(key),
                           choices=_CHOICES.get(key), help=f"default: {default}")


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


def _build(cfg: RunConfig, class_count: int, in_channels: int,
           input_hw: int) -> network.ModelGraph:
    """The run's model, for a dataset of these dimensions."""
    return network.build_model(
        cfg.architecture, class_count, quant=cfg.quant_config(),
        norm_kind=NormKind(cfg.norm), quantize_head=cfg.quantize_head,
        seed=cfg.seed, dtype=np.float32, in_channels=in_channels, input_hw=input_hw)


def _state(graph: network.ModelGraph) -> dict[str, np.ndarray]:
    """The checkpoint's arrays: `param<i>` in `parameters()` order, then
    `running_mean<j>` and `running_var<j>` of each BN/LBN layer in
    `all_layers()` order. They are the graph's own arrays, not copies."""
    state = {f"param{i}": p.data for i, p in enumerate(graph.parameters())}
    norms = [l.state for l in graph.all_layers()
             if isinstance(l, network.NormLayer) and l.state.running_mean is not None]
    for j, st in enumerate(norms):
        state |= {f"running_mean{j}": st.running_mean, f"running_var{j}": st.running_var}
    return state


_LN_UNFOLDED = "LN recomputes statistics per sample and cannot be folded into the runtime"


def _run_train(cfg: RunConfig, out_dir: Path | None = None) -> Path:
    out_dir = Path(out_dir or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_set, test_set = _load_dataset(cfg)
    channels, hw = train_set.images.shape[1:3]
    dims = dict(class_count=train_set.class_count, in_channels=channels, input_hw=hw)
    graph = _build(cfg, **dims)
    log = training.train(
        graph, train_set, test_set, epochs=cfg.epochs, batch_size=cfg.batch_size,
        loss_cfg=cfg.loss_config(), base_lr=cfg.lr, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, seed=cfg.seed, augment=cfg.augment,
        metrics_max_samples=cfg.metrics_max_samples or None)

    with open(out_dir / "config.json", "w") as f:
        json.dump(asdict(cfg), f, indent=2)
    training.write_training_log(out_dir / "training_log.csv", log)
    training.write_sparsity_csv(out_dir / "sparsity.csv", log[-1])
    np.savez(out_dir / "checkpoint.npz", config=json.dumps({**asdict(cfg), **dims}),
             **_state(graph))
    if graph.norm_kind is NormKind.LN:
        print(f"skipped model.maqd: {_LN_UNFOLDED}")
    else:
        export_mod.export(graph, out_dir / "model.maqd")
    # Last: a sweep takes the summary as the sign that the cell is complete.
    training.write_summary_json(out_dir / "summary.json", asdict(cfg), log)
    return out_dir


def _load_checkpoint(path, data: datasets.LabeledImageSet | None = None
                     ) -> network.ModelGraph:
    """The model a `checkpoint.npz` holds: built from its config, then each
    array written in place into the buffer of its key in `_state`, whose
    keys, shapes and dtypes the file must match. Every value must be
    finite and every running variance non-negative; the error names the
    key and the flat index of the first that is not. Using it on `data` of
    other class or channel counts is a usage error."""
    try:
        with zipfile.ZipFile(path) as archive:  # read() checks each member's CRC
            arrays = {name.removesuffix(".npy"):
                      np.load(io.BytesIO(archive.read(name)), allow_pickle=False)
                      for name in archive.namelist()}
    # What zipfile raises on a damaged file, or numpy on a member not in .npy format
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, RuntimeError,
            NotImplementedError, zlib.error, lzma.LZMAError) as e:
        raise CheckpointError(f"{path}: not a readable checkpoint "
                              f"({type(e).__name__}: {e})") from None
    try:  # a missing or unexpected config key is a KeyError or TypeError naming it
        saved = dict(json.loads(str(arrays.pop("config"))))
        graph = _build(RunConfig(**{k: saved.pop(k) for k in ["command", *_DEFAULTS]}),
                       **saved)
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: key 'config' does not describe a run "
                              f"({type(e).__name__}: {e})") from None
    expected = _state(graph)
    odd = sorted(expected.keys() ^ arrays.keys())
    if odd:
        kind = "missing" if odd[0] in expected else "unexpected"
        raise CheckpointError(f"{path}: {kind} key {odd[0]!r}")
    for key, want in expected.items():
        have = arrays[key]
        if not (isinstance(have, np.ndarray) and have.shape == want.shape
                and have.dtype == want.dtype):
            raise CheckpointError(f"{path}: key {key!r} must be a {want.dtype} array "
                                  f"of shape {want.shape}")
        bad = ~np.isfinite(have)
        if key.startswith("running_var"):
            bad |= have < 0
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            raise CheckpointError(f"{path}: key {key!r} holds {have.reshape(-1)[at]} at flat "
                                  f"index {at}; values must be finite"
                                  + (" and non-negative" if key.startswith("running_var") else ""))
        want[...] = have
    if data is not None:
        for key, value in [("class_count", data.class_count),
                           ("in_channels", data.images.shape[1])]:
            if saved[key] != value:
                raise UsageError(f"the checkpoint's {key} is {saved[key]}, the data's {value}")
    return graph


def _cmd_train(cfg, args):
    out = _run_train(cfg)
    print(f"run complete: {out}")
    return 0


def _cmd_eval(cfg, args):
    _, test_set = _load_dataset(cfg)
    res = training.evaluate(_load_checkpoint(args.checkpoint, test_set), test_set,
                            cfg.loss_config(), cfg.batch_size)
    print(json.dumps({"test_loss": res.loss, "test_acc": res.acc, "r_a": res.r_a}))
    return 0


def _cmd_export(cfg, args):
    export_mod.export(_load_checkpoint(args.checkpoint), args.out)
    print(f"exported {args.out}")
    return 0


def _conv_kinds(ops):
    """"CONV_Q" or "CONV_F" for each conv of bound runtime ops, in the order
    of `ModelGraph.conv_layers`."""
    for op in ops:
        if op.opcode == export_mod.OP_RES_BEGIN:
            yield from _conv_kinds(op.fields["s"])
            yield from _conv_kinds(op.fields["f"])
        elif op.opcode in (export_mod.OP_CONV_Q, export_mod.OP_CONV_F):
            yield "CONV_Q" if op.opcode == export_mod.OP_CONV_Q else "CONV_F"


def _check_checkpoint_of(graph: network.ModelGraph, model: export_mod.RuntimeModel):
    """A checkpoint of another network than the model's is a usage error."""
    quant = ["(off)" if q is None else f"(m_w {q.m_w}, m_a {q.m_a}, qscale_mode "
             f"{q.qscale_mode.value}, s {q.s}, alpha {q.alpha})"
             for q in (graph.quant, model.quant)]
    for what, have, want in [("architecture", graph.arch, model.arch), ("quantizer", *quant)]:
        if have != want:
            raise UsageError(f"the checkpoint's {what} is {have}, the model's {want}")
    # a quantized or float head (quantize_head) shows in its conv's opcode
    kinds = ["CONV_Q" if conv.quant is not None else "CONV_F" for conv in graph.conv_layers()]
    for i, (have, want) in enumerate(zip(kinds, _conv_kinds(model.ops))):
        if have != want:
            raise UsageError(f"the checkpoint's conv {i} is {have}, the model's {want}")
    if graph.norm_kind is NormKind.LN:
        raise UsageError(f"the checkpoint's norm is ln, the model's a folded bn or lbn: "
                         f"{_LN_UNFOLDED}")


def _cmd_infer(cfg, args):
    model = export_mod.import_model(args.model)
    _, test_set = _load_dataset(cfg)
    # every mismatch with the data or the model is refused before a batch runs
    graph = _load_checkpoint(args.checkpoint, test_set) if args.checkpoint else None
    if graph is not None:
        _check_checkpoint_of(graph, model)
    if model.class_count != test_set.class_count:
        raise UsageError(f"the model's class_count is {model.class_count}, "
                         f"the data's {test_set.class_count}")
    if test_set.images.shape[0] == 0:
        raise ValueError("empty test set")
    logits = []
    for start in range(0, test_set.images.shape[0], cfg.batch_size):
        logits.append(export_mod.runtime_infer(
            model, test_set.images[start:start + cfg.batch_size]))
    logits = np.concatenate(logits)
    acc = float(np.mean(np.argmax(logits, axis=1) == test_set.labels))
    report = {"samples": int(test_set.images.shape[0]), "accuracy": acc}
    if graph is not None:
        parity = export_mod.parity_check(graph, model, test_set.images, cfg.batch_size)
        report["parity"] = asdict(parity)
    text = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(text)
    print(text)
    return 0


def _cmd_norm_bench(cfg, args):
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_set, test_set = _load_dataset(cfg)
    subset = args.train_subset
    if subset:
        train_set = datasets.LabeledImageSet(
            train_set.images[:subset], train_set.labels[:subset], train_set.class_count)
    rows = training.norm_comparison_experiment(
        train_set, test_set,
        batch_sizes=args.batch_sizes, variants=args.variants,
        epochs=cfg.epochs, base_lr_at_128=cfg.lr, loss_cfg=cfg.loss_config(),
        momentum=cfg.momentum, weight_decay=cfg.weight_decay, augment=cfg.augment,
        seeds=args.seeds,
        arch=cfg.architecture,
        metrics_max_samples=cfg.metrics_max_samples or None,
        progress=lambda r: print(f"{r.variant} N={r.batch_size} seed={r.seed}: "
                                 f"train_loss={r.final_train_loss:.4f}"))
    training.write_norm_bench_csv(out_dir / "norm_bench.csv", rows)
    print(f"wrote {out_dir / 'norm_bench.csv'}")
    return 0


def _cmd_sweep(cfg, args):
    cells = [("nonquantized", None, None)] if args.include_nonquantized else []
    cells += [(f"mw{mw}_ma{ma}", mw, ma) for mw in args.m_w_grid for ma in args.m_a_grid]
    configs = [replace(cfg, command="train",
                       **({"quantize": False} if mw is None else {"m_w": mw, "m_a": ma}))
               for _, mw, ma in cells]
    for cell_cfg in configs:  # every cell before the first one runs
        cell_cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for (name, mw, ma), cell_cfg in zip(cells, configs):
        cell_dir = out_dir / name
        summary_path = cell_dir / "summary.json"
        if summary_path.exists():
            print(f"skipping completed cell {name}")
        else:
            _run_train(cell_cfg, cell_dir)
        with open(summary_path) as f:
            final = json.load(f)["final"]
        rows.append({"m_w": mw, "m_a": ma, "accuracy": final["test_acc"],
                     "r_w": final["r_w"], "r_a": final["r_a"]})

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
        cfg, args = parse_config(argv)
        return _COMMANDS[cfg.command](cfg, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
