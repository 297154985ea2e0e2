"""maqd-kit benchmark: quantized training, small-batch float training and
export/runtime inference, run against the engine in the checkout's `src/`.

    python3 perfbench/run.py --workload qat-vgg-mini-b100 --seed 1 --seconds 20 --trace 0

Each run is one process with a closed loop: one operation at a time, the
next one starting when the previous one is done. The inputs are generated
from `--seed`: CIFAR-shaped 3x32x32 float32 images of 10 classes, each
class a fixed blocky mean pattern plus unit Gaussian noise.

Workloads (BENCHMARK.json records why each was chosen):

* qat-vgg-mini-b100: `maqd train` defaults - vgg-mini, M_w=15, M_a=8,
  LBN+WS, batch 100, lr 1e-2, augmentation on, float32.
* fp-cnn9-mini-bn-b16: one cell of `norm_comparison_experiment` - cnn9-mini,
  BN+WS, no quantizer (ReLU), batch 16, lr 1e-2*16/128, float32.
* infer-preact-mini-q: a quantized preact-mini (LBN+WS, M_a=8, float64)
  whose running statistics come from one epoch of two training steps in the
  set-up; the timed loop runs the trainer's EVAL forward and
  `export.runtime_infer` on the same batches of 100.

The two training workloads time whole `training.train` epochs (test split
1/5 of the train split, so the per-epoch EVAL passes are included), each
repeat starting from the same initial model. After each repeat the trained
model is exported, imported and run through the runtime on the train and
test images, against the trainer's EVAL forward on a float64 copy of the
trained weights: the export is float64, and the parity bound below only
holds against a float64 forward.

Correctness: every training epoch must give finite losses, every repeat the
same final loss, and every inference batch runtime logits within 1e-9 of
the trainer's with identical argmax (the bound of tests/test_export.py),
cross-checked once per run through `export.parity_check`. A failed train
repeat counts all its steps as failed ops; a failed batch counts one op.

`--trace 1` alternates untraced and traced repeats (batches on the inference
workload) and prints per-layer metrics from the traced ones: self time in
ms per train step (per inference batch on the inference workload), call
counts and computed counts. Its spans are written to
`.perfbench_out/trace-<workload>-<seed>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Failed ops over attempted
ops is printed as `failed_ops_frac` above it.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PARITY_TOL = 1e-9      # tests/test_export.py
N_SETUPS = 3           # setup_s is the median over at least this many set-ups
SETUP_MIN_S = 4.0      # ...and over as many as fit in this many seconds
WARM_IMAGES = 10       # training warm-up: one step on this many images
MIN_REPEATS = 2        # trace runs alternate untraced and traced repeats
now = time.perf_counter


@dataclass(frozen=True)
class Workload:
    arch: str
    quantized: bool
    norm: str            # NormKind value
    batch: int
    scale_lr: bool       # lr = 1e-2 * batch / 128 instead of 1e-2
    augment: bool
    dtype: str           # trainer dtype
    n_train: int         # the test split is n_train // 5
    n_infer: int         # separate inference set; 0 = infer on train + test
    hw: int = 32

    @property
    def infer_only(self) -> bool:
        return self.n_infer > 0


WORKLOADS = {
    "qat-vgg-mini-b100": Workload("vgg-mini", True, "lbn", 100, False, True,
                                  "float32", 200, 0),
    "fp-cnn9-mini-bn-b16": Workload("cnn9-mini", False, "bn", 16, True, False,
                                    "float32", 200, 0),
    "infer-preact-mini-q": Workload("preact-mini", True, "lbn", 100, False, False,
                                    "float64", 200, 500),
}


def tiny(wl: Workload) -> Workload:
    """The same workload at sizes that run in about a second."""
    return replace(wl, batch=4, n_train=10, n_infer=8 if wl.infer_only else 0, hw=8)


# -- engine import and provenance -------------------------------------------

def import_engine():
    if not (SRC / "maqd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine at {SRC / 'maqd'}; run from a checkout "
                 "that holds src/maqd")
    sys.path.insert(0, str(SRC))
    import maqd
    from maqd import datasets, export, network, normalization, quantizer, training
    if Path(maqd.__file__).resolve().parent != (SRC / "maqd").resolve():
        sys.exit(f"perfbench: imported maqd from {maqd.__file__}, not from {SRC}")
    return {"datasets": datasets, "export": export, "network": network,
            "normalization": normalization, "quantizer": quantizer,
            "training": training}


def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, or Nones."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()
                           and line.rstrip().endswith(".so")})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return None, None


def provenance() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=60)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "maqd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas_config, blas_threads = _openblas()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas_config,
            "openblas_threads": blas_threads, "nproc": len(os.sched_getaffinity(0))}


# -- inputs and models -------------------------------------------------------

@dataclass
class Data:
    train: object
    test: object
    infer: object
    digest: str


def make_data(e, wl: Workload, seed: int) -> Data:
    import numpy as np
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, size=(10, 3, 4, 4))
    means = np.kron(base, np.ones((1, 1, wl.hw // 4, wl.hw // 4)))

    def split(n):
        labels = rng.integers(0, 10, size=n)
        noise = rng.standard_normal((n, 3, wl.hw, wl.hw))
        images = (means[labels] + noise).astype(np.float32)
        return e["datasets"].LabeledImageSet(images, labels, class_count=10)

    train, test = split(wl.n_train), split(max(1, wl.n_train // 5))
    if wl.infer_only:
        infer = split(wl.n_infer)
    else:
        infer = e["datasets"].LabeledImageSet(np.concatenate([train.images, test.images]),
                                              np.concatenate([train.labels, test.labels]),
                                              class_count=10)
    h = hashlib.sha256()
    for s in (train, test, infer):
        h.update(s.images.tobytes() + s.labels.tobytes())
    return Data(train, test, infer, h.hexdigest()[:16])


def build(e, wl: Workload, seed: int, dtype: str):
    import numpy as np
    quant = e["quantizer"].QuantConfig(m_w=15, m_a=8) if wl.quantized else None
    extra = {"input_hw": wl.hw} if wl.arch.startswith("preact") else {}
    return e["network"].build_model(
        wl.arch, 10, quant=quant, norm_kind=e["normalization"].NormKind(wl.norm),
        use_ws=True, seed=seed, dtype=np.dtype(dtype).type, in_channels=3, **extra)


def float64_twin(e, wl: Workload, graph, seed: int):
    """A float64 graph holding `graph`'s parameters and running statistics."""
    import numpy as np
    twin = build(e, wl, seed, "float64")
    for dst, src in zip(twin.parameters(), graph.parameters()):
        dst.data[...] = src.data
    for dst, src in zip(twin.all_layers(), graph.all_layers()):
        if isinstance(dst, e["network"].NormLayer) and src.state.running_mean is not None:
            dst.state.running_mean = np.asarray(src.state.running_mean, np.float64)
            dst.state.running_var = np.asarray(src.state.running_var, np.float64)
    return twin


def subset(e, data, n):
    return e["datasets"].LabeledImageSet(data.images[:n], data.labels[:n],
                                         class_count=data.class_count)


def train_epoch(e, wl: Workload, graph, train, test, seed: int):
    """One `training.train` epoch; returns (log, wall seconds)."""
    trn = e["training"]
    lr = trn.scaled_lr_for_batch(1e-2, wl.batch) if wl.scale_lr else 1e-2
    t0 = now()
    log = trn.train(graph, train, test, epochs=1, batch_size=wl.batch, base_lr=lr,
                    seed=seed, augment=wl.augment)
    return log, now() - t0


def log_finite(log) -> bool:
    return all(math.isfinite(r.train_loss) and math.isfinite(r.test_loss) for r in log)


def infer_batch(e, graph64, model, xb):
    """Trainer EVAL forward then runtime on one batch: (eval s, runtime s, ok)."""
    import numpy as np
    mode = e["normalization"].Mode.EVAL
    t0 = now()
    ref = graph64.forward(xb, mode)
    t1 = now()
    out = e["export"].runtime_infer(model, xb)
    t2 = now()
    ok = bool(np.all(np.isfinite(out))
              and np.max(np.abs(ref.astype(np.float64) - out)) < PARITY_TOL
              and np.array_equal(np.argmax(ref, axis=1), np.argmax(out, axis=1)))
    return t1 - t0, t2 - t1, ok


def batches_of(images, size):
    return [images[i:i + size] for i in range(0, images.shape[0], size)]


# -- one run -----------------------------------------------------------------

class Run:
    """Set-up, timed loop and checks of one workload in one process."""

    def __init__(self, e, name: str, wl: Workload, seed: int, seconds: float,
                 tracer=None):
        self.e, self.name, self.wl, self.seed = e, name, wl, seed
        self.seconds, self.tracer = seconds, tracer
        self.path = OUT / f"{name}-{os.getpid()}.maqd"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.train_s: list[float] = []       # untraced repeats
        self.traced_train_s: list[float] = []
        self.eval_ips: list[float] = []
        self.runtime_ips: list[float] = []
        self.traced_infer_s: list[float] = []
        self.untraced_infer_s: list[float] = []
        self.final_losses: list[float] = []
        self.traced_ops = 0

    def steps_per_epoch(self) -> int:
        return -(-self.wl.n_train // self.wl.batch)

    def export_roundtrip(self, graph):
        self.e["export"].export(graph, self.path)
        return self.e["export"].import_model(self.path)

    # set-up

    def setup_once(self):
        wl, e = self.wl, self.e
        data = make_data(e, wl, self.seed)
        graph = build(e, wl, self.seed, wl.dtype)
        state = {"data": data, "graph": graph}
        # Warm-up: one short step through the training code paths.
        train_epoch(e, wl, copy.deepcopy(graph), subset(e, data.train, WARM_IMAGES),
                    subset(e, data.test, 2), self.seed)
        if wl.infer_only:
            log, secs = train_epoch(e, wl, graph, data.train, data.test, self.seed)
            model = self.export_roundtrip(graph)
            infer_batch(e, graph, model, data.infer.images[:wl.batch])  # warm-up
            state.update(log=log, train_s=secs, model=model)
        return state

    def setup(self):
        times = []
        while len(times) < N_SETUPS or sum(times) < SETUP_MIN_S:
            self.state = None
            t0 = now()
            self.state = self.setup_once()
            times.append(now() - t0)
            if self.wl.infer_only:
                # The set-up's training steps are this workload's training sample.
                log = self.state["log"]
                self.train_s.append(self.state["train_s"])
                if not log_finite(log) or (self.final_losses
                                           and log[-1].train_loss != self.final_losses[0]):
                    self.problems.append(f"set-up training: final train loss "
                                         f"{log[-1].train_loss!r}")
                self.final_losses.append(log[-1].train_loss)
        self.setup_s = statistics.median(times)

    # timed loop

    def is_traced(self, i: int) -> bool:
        return self.tracer is not None and i % 2 == 1

    def traced(self, i: int):
        return self.tracer.installed() if self.is_traced(i) else contextlib.nullcontext()

    def root(self, i: int, name: str):
        return self.tracer.span(name) if self.is_traced(i) else contextlib.nullcontext()

    def train_repeat(self, i: int):
        e, wl, data = self.e, self.wl, self.state["data"]
        graph = copy.deepcopy(self.state["graph"])
        steps = self.steps_per_epoch()
        self.attempted += steps
        with self.traced(i):
            try:
                log, secs = train_epoch(e, wl, graph, data.train, data.test, self.seed)
            except (ValueError, FloatingPointError, RuntimeError) as exc:
                self.failed += steps
                self.problems.append(f"repeat {i}: {type(exc).__name__}: {exc}")
                return
            loss = log[-1].train_loss
            if not log_finite(log) or (self.final_losses and loss != self.final_losses[0]):
                self.failed += steps
                self.problems.append(f"repeat {i}: final train loss {loss!r}, "
                                     f"first repeat {self.final_losses[:1]}")
            self.final_losses.append(loss)
            (self.traced_train_s if self.is_traced(i) else self.train_s).append(secs)
            if self.is_traced(i):
                self.traced_ops += steps
            model = self.export_roundtrip(graph)
            twin = float64_twin(e, wl, graph, self.seed)
            self.state["last"] = (twin, model)
            with self.root(i, "bench.infer"):
                for xb in batches_of(data.infer.images, wl.batch):
                    self.infer_op(i, twin, model, xb)

    def infer_op(self, i, graph64, model, xb):
        self.attempted += 1
        try:
            t_eval, t_rt, ok = infer_batch(self.e, graph64, model, xb)
        except (ValueError, FloatingPointError) as exc:
            self.failed += 1
            self.problems.append(f"inference: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failed += 1
            self.problems.append("runtime logits differ from the trainer's EVAL logits")
        if not self.is_traced(i):
            self.eval_ips.append(xb.shape[0] / t_eval)
            self.runtime_ips.append(xb.shape[0] / t_rt)
        if self.wl.infer_only:
            (self.traced_infer_s if self.is_traced(i) else self.untraced_infer_s).append(
                t_eval + t_rt)
            if self.is_traced(i):
                self.traced_ops += 1

    def infer_loop(self):
        graph, model = self.state["graph"], self.state["model"]
        self.state["last"] = (graph, model)
        xbs = batches_of(self.state["data"].infer.images, self.wl.batch)
        i, t0 = 0, now()
        while i < MIN_REPEATS or now() - t0 < self.seconds:
            with self.traced(i), self.root(i, "bench.infer"):
                self.infer_op(i, graph, model, xbs[i % len(xbs)])
            i += 1

    def timed(self):
        OUT.mkdir(exist_ok=True)
        try:
            if self.wl.infer_only:
                self.infer_loop()
            else:
                i, t0 = 0, now()
                while i < MIN_REPEATS or now() - t0 < self.seconds:
                    self.train_repeat(i)
                    i += 1
            self.cross_check()
            if self.tracer is not None and self.wl.infer_only:
                # This workload exports in its set-up; time the round trip here.
                with self.tracer.installed():
                    for _ in range(3):
                        self.export_roundtrip(self.state["graph"])
        finally:
            self.path.unlink(missing_ok=True)

    def cross_check(self):
        """The engine's own parity check, once, on the last model."""
        graph64, model = self.state["last"]
        xb = self.state["data"].infer.images[:self.wl.batch]
        self.attempted += 1
        report = self.e["export"].parity_check(graph64, model, xb, batch_size=self.wl.batch)
        if not (report.max_abs_logit_diff < PARITY_TOL and report.argmax_agreement == 1.0):
            self.failed += 1
            self.problems.append(f"export.parity_check: {report}")

    # results

    def end_to_end(self) -> dict:
        n_train = self.wl.n_train
        return {
            "train_img_per_s": (statistics.median(n_train / s for s in self.train_s), "img/s"),
            "final_train_loss": (self.final_losses[0], "loss"),
            "eval_img_per_s": (statistics.median(self.eval_ips), "img/s"),
            "runtime_img_per_s": (statistics.median(self.runtime_ips), "img/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (self.setup_s, "s"),
        }

    def step_memory(self):
        """(measure_step_bytes, tracemalloc peak) of one train step, in MB."""
        graph = copy.deepcopy(self.state["graph"])
        data = self.state["data"].train
        xb, yb = data.images[:self.wl.batch], data.labels[:self.wl.batch]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            proxy = self.e["training"].measure_step_bytes(graph, xb, yb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return proxy / 1e6, peak / 1e6

    def per_layer(self) -> dict:
        tr, wl = self.tracer, self.wl
        primary = "bench.infer" if wl.infer_only else "training.train"
        agg = tr.aggregate(primary)
        inf = tr.aggregate("bench.infer")
        ops = max(self.traced_ops, 1)
        n_infer_batches = inf["calls"].get("bench.infer", 0) if wl.infer_only else \
            inf["calls"].get("export.runtime", 0)
        infer_ops = max(n_infer_batches, 1)

        def self_ms(*names):
            return 1e3 * sum(agg["self_s"].get(n, 0.0) for n in names) / ops

        def calls(name):
            return agg["calls"].get(name, 0) / ops

        def count(key):
            return tr.counts.get((primary, key), 0.0)

        m = {}
        for name in ("quantizer.act.fwd", "quantizer.act.bwd", "quantizer.weight.fwd",
                     "quantizer.weight.bwd", "network.conv.fwd", "network.conv.bwd",
                     "network.conv.im2col", "network.conv.col2im", "network.pool.fwd",
                     "network.pool.bwd", "network.relu.fwd", "network.relu.bwd",
                     "network.zero_grad", "normalization.norm.fwd",
                     "normalization.norm.bwd", "normalization.ws.fwd",
                     "normalization.ws.bwd", "training.loss", "training.sgd",
                     "datasets.batch"):
            m[name + "_ms"] = (self_ms(name), "ms")
        m["network.graph_ms"] = (self_ms("network.graph.fwd", "network.graph.bwd",
                                         "network.graph.fwd_eval"), "ms")
        for name in ("quantizer.act.fwd", "quantizer.act.bwd", "network.conv.fwd",
                     "network.conv.bwd"):
            m[name + "_calls"] = (calls(name), "count")
        for key in ("quantizer.act", "network.conv", "normalization.norm", "network.relu"):
            m[key + ".tape_mb"] = (tr.tape_bytes.get(key, 0) / 1e6, "MB")
        m["network.tape_mb"] = (tr.tape_bytes.get("network", 0) / 1e6, "MB")
        images = count("graph_fwd_images")
        macs = count("conv_fwd_macs") + count("conv_bwd_macs")
        conv_s = sum(agg["self_s"].get(n, 0.0) for n in ("network.conv.fwd", "network.conv.bwd"))
        m["network.conv.macs_per_img"] = (count("conv_fwd_macs") / images if images else 0.0,
                                          "MAC")
        m["network.conv.bytes_per_img"] = (count("conv_fwd_bytes") / images / 1e6
                                           if images else 0.0, "MB")
        m["network.conv.gflops"] = (2 * macs / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s")
        epochs = len(self.traced_train_s)
        evals = ("training.evaluate", "training.compute_r_a", "training.compute_r_w")
        if wl.infer_only or not epochs:
            m["training.epoch_eval_ms"] = (0.0, "ms")
            m["training.test_passes_per_epoch"] = (0.0, "count")
        else:
            test_batches = -(-self.state["data"].test.images.shape[0] // wl.batch)
            m["training.epoch_eval_ms"] = (
                1e3 * sum(agg["incl_s"].get(n, 0.0) for n in evals) / epochs, "ms")
            m["training.test_passes_per_epoch"] = (
                agg["calls"].get("network.graph.fwd_eval", 0) / (epochs * test_batches), "count")
        proxy, peak = self.step_memory()
        m["training.step_proxy_mb"] = (proxy, "MB")
        m["training.step_peak_mb"] = (peak, "MB")
        for key, span in (("export.export_ms", "export.export"),
                          ("export.import_ms", "export.import")):
            a = tr.aggregate(span)
            m[key] = (1e3 * a["root_wall_s"] / max(a["calls"].get(span, 0), 1), "ms")
        m["export.runtime_ms"] = (1e3 * inf["incl_s"].get("export.runtime", 0.0) / infer_ops, "ms")
        for name in ("export.runtime.conv", "export.runtime.im2col", "export.runtime.act"):
            m[name + "_ms"] = (1e3 * inf["self_s"].get(name, 0.0) / infer_ops, "ms")
        m["network.eval_fwd_ms"] = (1e3 * inf["incl_s"].get("network.graph.fwd_eval", 0.0)
                                    / infer_ops, "ms")
        if wl.infer_only:
            traced, untraced = self.traced_infer_s, self.untraced_infer_s
        else:
            traced, untraced = self.traced_train_s, self.train_s
        m["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1
                                    if traced and untraced else 0.0, "frac")
        wall = agg["root_wall_s"]
        m["trace.coverage_frac"] = (1 - agg["self_s"].get(primary, 0.0) / wall if wall else 0.0,
                                    "frac")
        m["trace.absent_spans"] = (float(len(tr.absent)), "count")
        return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run at tiny sizes (used by perfbench/selftest.py)")
    args = p.parse_args(argv)

    engine = import_engine()
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = tiny(wl)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(engine)

    run = Run(engine, args.workload, wl, args.seed, args.seconds, tracer)
    run.setup()
    run.timed()
    metrics = run.per_layer() if tracer is not None else run.end_to_end()

    info = provenance()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, input_digest=run.state["data"].digest,
                samples={"train_s": run.train_s, "eval_img_per_s": run.eval_ips,
                         "runtime_img_per_s": run.runtime_ips},
                problems=run.problems[:20])
    if tracer is not None:
        info["absent_spans"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if tracer is not None and tracer.absent:
        print("absent spans (engine names no longer found): " + " ".join(tracer.absent))
    print(f"failed_ops_frac {run.failed / run.attempted:.6g} "
          f"(failed {run.failed} of {run.attempted} attempted ops)")
    print("provenance " + json.dumps(info, sort_keys=True))
    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
