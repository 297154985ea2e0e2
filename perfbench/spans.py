"""Outside-in span tracing of the maqd engine.

The tracer patches public functions and layer methods of the engine at the
place where their callers look them up (a module attribute or a class
attribute), records one span per call, and restores everything on exit.
The engine's own files are not edited. A span is a list
``[name, start, end, parent]``; spans stay in memory until the run ends.

Span names are the metric keys: a span named ``network.conv.fwd`` feeds the
per-layer metric ``network.conv.fwd_ms``. A layer method that only hands its
work to a traced function is named with a ``#layer`` suffix
(``ActQuant.forward`` is ``quantizer.act.fwd#layer`` around
``network.quantize_tensor_forward``, ``quantizer.act.fwd``): its self time
adds to the metric, its calls do not, so each layer call counts once.

A patch target that no longer exists is recorded as absent rather than
raising, so a refactor of the engine shows up as missing spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_now = time.perf_counter

# Spans whose subtrees the per-layer metrics are computed over.
ROOTS = ("training.train", "bench.infer")


def _quant_kind(args, kwargs, pos):
    kind = args[pos] if len(args) > pos else kwargs["kind"]
    return "weight" if kind.value == "weight" else "act"


def _qfwd_name(args, kwargs):
    return f"quantizer.{_quant_kind(args, kwargs, 1)}.fwd"


def _qbwd_name(args, kwargs):
    return f"quantizer.{_quant_kind(args, kwargs, 2)}.bwd"


def _graph_fwd_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    return "network.graph.fwd_eval" if mode is not None and mode.value == "eval" \
        else "network.graph.fwd"


def patch_table(engine):
    """(owner, attribute, span name or name function) for every traced call
    site. `engine` maps module names to the imported engine modules."""
    net, trn, exp = engine["network"], engine["training"], engine["export"]
    table = [
        # Looked up in `network` by Conv2d, NormLayer and ActQuant.
        (net, "quantize_tensor_forward", _qfwd_name),
        (net, "quantize_tensor_backward", _qbwd_name),
        (net, "weight_standardize", "normalization.ws.fwd"),
        (net, "weight_standardize_backward", "normalization.ws.bwd"),
        (net, "norm_forward", "normalization.norm.fwd"),
        (net, "norm_backward", "normalization.norm.bwd"),
        (net, "_im2col", "network.conv.im2col"),
        (net, "_col2im", "network.conv.col2im"),
        # Looked up in `training` by train/evaluate.
        (trn, "combined_loss", "training.loss"),
        (trn, "sgd_momentum_step", "training.sgd"),
        (trn, "evaluate", "training.evaluate"),
        (trn, "compute_r_a", "training.compute_r_a"),
        (trn, "compute_r_w", "training.compute_r_w"),
        (trn, "batches", "datasets.batch"),
        (trn, "train", "training.train"),
        # Looked up in `export` by the runtime and by the benchmark.
        (exp, "quantize_activation", "export.runtime.act"),
        (exp, "_im2col", "export.runtime.im2col"),
        (exp, "_run_conv", "export.runtime.conv"),
        (exp, "runtime_infer", "export.runtime"),
        (exp, "export", "export.export"),
        (exp, "import_model", "export.import"),
        (exp, "parity_check", "export.parity_check"),
    ]
    methods = [
        ("Conv2d", "network.conv", ""), ("NormLayer", "normalization.norm", "#layer"),
        ("ActQuant", "quantizer.act", "#layer"), ("ReLU", "network.relu", ""),
        ("AvgPool2", "network.pool", ""), ("GlobalAvgPool", "network.pool", ""),
        ("ResidualBlock", "network.graph", ""), ("ModelGraph", "network.graph", ""),
    ]
    for cls_name, prefix, suffix in methods:
        cls = getattr(net, cls_name, None)
        fwd = _graph_fwd_name if cls_name == "ModelGraph" else f"{prefix}.fwd{suffix}"
        table.append((cls, "forward", fwd))
        table.append((cls, "backward", f"{prefix}.bwd{suffix}"))
    table.append((getattr(net, "ModelGraph", None), "zero_grad", "network.zero_grad"))
    return table


def _static_name(spec):
    return spec if isinstance(spec, str) else spec.__name__


class Tracer:
    """Records spans and shape-derived counts while installed."""

    def __init__(self, engine):
        self.engine = engine
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.counts = defaultdict(float)   # computed counts, keyed by root
        self.tape_bytes: dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, _now(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = _now()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, spec, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            name = spec if isinstance(spec, str) else spec(args, kwargs)
            if hook is not None:
                hook(args)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                yield item

        return traced

    # -- computed counts from call shapes ----------------------------------

    def _root_key(self):
        for idx in reversed(self._stack):
            if self.spans[idx][0] in ROOTS:
                return self.spans[idx][0]
        return None

    def _conv_fwd_hook(self, args):
        conv, x = args[0], args[1]
        n, _, h, w = x.shape
        k, s, p = conv.kernel, conv.stride, conv.padding
        ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        macs = n * ho * wo * conv.out_ch * conv.in_ch * k * k
        item = x.dtype.itemsize
        moved = item * (x.size + n * ho * wo * conv.in_ch * k * k
                        + n * ho * wo * conv.out_ch + conv.out_ch * conv.in_ch * k * k)
        key = self._root_key()
        self.counts[(key, "conv_fwd_macs")] += macs
        self.counts[(key, "conv_fwd_bytes")] += moved

    def _conv_bwd_hook(self, args):
        conv, up = args[0], args[1]
        n, _, ho, wo = up.shape
        # grad wrt weights and grad wrt the patch matrix: two GEMMs.
        macs = 2 * n * ho * wo * conv.out_ch * conv.in_ch * conv.kernel ** 2
        self.counts[(self._root_key(), "conv_bwd_macs")] += macs

    def _graph_fwd_hook(self, args):
        self.counts[(self._root_key(), "graph_fwd_images")] += args[1].shape[0]

    def _graph_bwd_hook(self, args):
        graph = args[0]
        net = self.engine["network"]
        kinds = {"network.conv": "Conv2d", "quantizer.act": "ActQuant",
                 "normalization.norm": "NormLayer", "network.relu": "ReLU"}
        snapshot = {"network": graph.tape_nbytes()}
        for key, cls_name in kinds.items():
            cls = getattr(net, cls_name, None)
            snapshot[key] = sum(l.cache_nbytes() for l in graph.all_layers()
                                if cls is not None and isinstance(l, cls))
        for key, nbytes in snapshot.items():
            self.tape_bytes[key] = max(self.tape_bytes.get(key, 0), nbytes)

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        hooks = {"network.conv.fwd": self._conv_fwd_hook,
                 "network.conv.bwd": self._conv_bwd_hook,
                 "network.graph.bwd": self._graph_bwd_hook}
        saved = []
        try:
            for owner, attr, spec in patch_table(self.engine):
                name = _static_name(spec)
                if owner is None or attr not in vars(owner):
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                orig = vars(owner)[attr]
                if name == "datasets.batch":
                    wrapped = self._wrap_generator(orig, name)
                elif spec is _graph_fwd_name:
                    wrapped = self._wrap(orig, spec, self._graph_fwd_hook)
                else:
                    wrapped = self._wrap(orig, spec, hooks.get(name))
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- aggregation -----------------------------------------------------

    def aggregate(self, root: str):
        """Self seconds per metric key (the span name without a ``#``
        suffix), inclusive seconds and calls per span name, over the
        subtrees of every span named `root`."""
        n = len(self.spans)
        self_s = [s[2] - s[1] for s in self.spans]
        root_of = [-1] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                self_s[parent] -= end - start
                root_of[i] = root_of[parent]
            if root_of[i] < 0 and name == root:
                root_of[i] = i
        self_total = defaultdict(float)
        incl_total = defaultdict(float)
        calls = defaultdict(int)
        root_wall = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if root_of[i] < 0:
                continue
            if root_of[i] == i:
                root_wall += end - start
            key = name.split("#")[0]
            self_total[key] += self_s[i]
            incl_total[name] += end - start
            calls[name] += 1
        return dict(self_s=self_total, incl_s=incl_total, calls=calls,
                    root_wall_s=root_wall)

    def dump(self):
        return {"absent": self.absent,
                "spans": [[n, round(a, 7), round(b, 7), p] for n, a, b, p in self.spans]}
