"""Model assembly: convolution, pooling, layer graph, and `build_model`,
which makes every name in `ARCHITECTURES`: a VGG stack, a pre-activation
residual net and a 9-layer CNN, each full size or mini. An architecture is
a body function (plain conv-norm-act groups, or residual blocks) and its
plan; `build_model` adds the shared classifier head.

Layers record their forward caches on themselves (the tape). One forward
walk, `_forward`, and one backward walk, `_backward`, serve the graph and
each residual branch; backward composes each layer's exact or surrogate
backward in reverse. A forward may pass `visit(layer, output)`, which sees
every leaf's output: `training.evaluate` reads R_a that way, and no layer
keeps its output. The tape holds each tensor once: an `ActQuant` that
directly follows a `NormLayer` in a layer list is linked to it (`_link`)
and tapes nothing, its backward rebuilding its input from the norm's x_hat,
g and b. A backward with no TRAIN forward's tape to read is a
RuntimeError that names the layer.

Every convolution is a 3x3 or 1x1 cross-correlation at stride 1, padded
by k // 2 so that its output keeps its input's extent (the nets downsample
with pooling). Activations are channels-last from the first conv to the
head: their memory holds NHWC rows, one pixel's channels contiguous, while
their shape stays the logical (n, c, h, w). `_conv` writes that layout
whatever its input's, and every other kernel keeps its input's layout, so
no layer transposes an activation but the global pooling, which copies
the head conv's few output channels to C order. Both directions of a conv
run on `_blocks`, blocks of whole samples fixed by bytes alone, about 2 MB
of patch matrix each, never by the thread count: each block is gathered
and multiplied whole by one pool thread, into the patch buffer that the
thread makes once per `map_parts` call; no full-batch patch matrix is
ever built. `_im2col` copies a block's NHWC rows into a zero-padded buffer, a
contiguous copy, and gathers each output pixel's window in (ki, kj, c)
order, so every kernel tap copies a contiguous run of channels (a 1x1
patch matrix is the rows themselves). Forward (`_conv`), one GEMM of the
block's patch matrix of x with the tap-major weight writes the block's
NHWC rows of the output; the blocks are rows of one GEMM. `_tap_major`
puts the (out, c*k*k) weight rows in that order; the weight itself, WS,
the quantizer and the export format keep the canonical (out, c, k, k)
layout. A TRAIN conv tapes its input and its effective weight with the WS
and quantizer caches, and no patch matrix. Backward (`_col2im`), the
block's patch matrix of the upstream gives both the input gradient's NHWC
rows, the conv's exact transpose (the upstream cross-correlated with the
weight flipped in both spatial axes, its in and out channels swapped),
and the block's weight-gradient product, the block's NHWC rows of the
input, transposed, times that patch matrix. The products are summed in
block order. So no result depends on the thread count. The export runs
`Conv2d.effective_weight` in float64; its runtime calls the same conv,
`affine`, 2x2 and global pooling kernels, so its activations are
channels-last too.

The EVAL forward computes a quantized conv that reads an activation
quantizer's output as the runtime does. `_link` finds each ActQuant ->
AvgPool2* -> quantized Conv2d run of a layer list, the rule the import
applies to ACT_Q -> AP2* -> CONV_Q, and gives its layers one
`quantizer.CodeConv`. Each of them picks its EVAL form from that alone:
the ActQuant emits its codes k, not k/(m_a-1), and runs the EVAL affine
of a BN or LBN norm it reads in the same pass, that norm emitting its
input unchanged; the pools pool the codes; and the conv multiplies them by
the weight lattice clip(2*state, -2q, 2q) in the CodeConv's dtype, where
every sum is exact, and divides by (m_a-1)*2q in float64. So every leaf
is `forward(x, mode)`, and a visitor sees what each leaf emits, codes on
a chain. TRAIN mode, float nets and convs that read images or residual
sums run on values.

A residual block whose two branches each end in a conv and a BN or LBN
norm (every block of the preact nets but LN's) ends in one EVAL pass, the
rule the import applies to a RES_BEGIN whose branches end in a conv and an
AFFINE: the two convs emit their sums (code sums undivided), the two norms
emit their input, and the block's `_block_end` writes
s_sums * a_s + f_sums * a_f + (b_s + b_f) per channel in float64, with
a = scale / divisor for a conv on codes and a = scale for one on values,
from the norms' `fold_normalization` constants (`_end_operands`). That one
pass replaces two divides, two affines and their sum.

Quantized convolutions evaluate as  quantize(standardize(raw_weight)); the
optimizer updates the raw (latent) full-precision weights.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass

import numpy as np

from . import parallel
from .normalization import (Mode, NormKind, NormLayerState, _tile, empty_in,
                            fold_normalization, memory_order, norm_backward, norm_forward,
                            weight_standardize, weight_standardize_backward)
from .quantizer import (QuantConfig, QuantKind, code_conv, lattice_states,
                        quantize_tensor_backward, quantize_tensor_forward, weight_lattice)


@dataclass
class Param:
    """One trainable array with its gradient accumulator."""

    name: str
    data: np.ndarray
    grad: np.ndarray = None
    decay: bool = False  # weight decay applies to conv weights only

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if is_dataclass(obj):
        return sum(_nbytes(v) for v in vars(obj).values())
    return 0


def _im2col(x: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n*h*w, k*k*c) patch matrix of the stride-1 conv padded
    by k // 2, whose output has x's extent.

    Columns are tap-major: column (ki*k + kj)*c + ci holds input channel ci
    at kernel tap (ki, kj), so the matrix multiplies `_tap_major` weights.
    A 3x3 patch matrix is written into `out`, a C-contiguous array of that
    shape: x's NHWC rows are copied once into a zero-padded buffer, a
    contiguous copy from channels-last x, and each output pixel's window is
    gathered from it. A 1x1 patch matrix is x's NHWC rows themselves, a
    view of channels-last x (a C-order x is copied); `out` goes unused.
    """
    n, c, h, w = x.shape
    pad = k // 2
    rows = x.transpose(0, 2, 3, 1)
    if not pad:
        return rows.reshape(n * h * w, c)
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = rows
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    out.reshape(n, h, w, k, k, c)[...] = win.transpose(0, 1, 2, 4, 5, 3)
    return out


def _tap_major(w2d: np.ndarray, c: int, k: int) -> np.ndarray:
    """(out, c*k*k) weight rows reordered to the (ki, kj, c) column order of
    `_im2col`."""
    return w2d.reshape(-1, c, k * k).transpose(0, 2, 1).reshape(w2d.shape[0], -1)


# A conv block holds _BLOCK_BYTES // _BWD_IN_FLIGHT = 2 MB of patch matrix,
# within a core's 2 MB L2, so that it stays cache-resident through its
# GEMMs; the backward holds at most _BLOCK_BYTES of weight-gradient products
# at once. Of 1, 2, 4, 8 and 32 MB of patch matrix shared by the two threads
# of a 2-vCPU VM, 4 MB gave the fastest vgg-mini batch-100 train step and
# EVAL forward; cnn9-mini at batch 16 moved within 5%. The blocks depend on
# bytes alone, so no result depends on the thread count, which only sets
# how many blocks are in flight at once.
_BLOCK_BYTES = 1 << 22
_BWD_IN_FLIGHT = 2


def _blocks(shape, itemsize: int, k: int) -> list[slice]:
    """The blocks of a conv on the (n, ch, h, w) operand whose patch matrix
    is gathered, x forward and the upstream backward: as few even slices of
    the batch as keep each block's patch matrix within
    _BLOCK_BYTES // _BWD_IN_FLIGHT (at least one sample). They depend on
    bytes alone, not on the thread count. An empty batch is one empty
    block."""
    n, ch, h, w = shape
    step = max(1, _BLOCK_BYTES // _BWD_IN_FLIGHT // max(1, h * w * k * k * ch * itemsize))
    return parallel.even(n, max(1, -(-n // step)))


def _patch_buffer(x: np.ndarray, blocks: list[slice], k: int):
    """The `make` of a pool thread's patch buffer for `_im2col` on the
    `blocks` of x: room for the largest block's patch matrix; no rows for a
    1x1 conv, whose patch matrix is a view of x."""
    n, c, h, w = x.shape
    rows = max(b.stop - b.start for b in blocks) * h * w if k > 1 else 0
    return lambda: np.empty((rows, k * k * c), x.dtype)


def _conv(x: np.ndarray, w_tap: np.ndarray, k: int, im2col) -> np.ndarray:
    """Cross-correlation of (n, c, h, w) x with the tap-major (out, k*k*c)
    matrix w_tap at stride 1 and padding k // 2, one of the `_blocks` of x
    at a time on each pool thread: the block's patch matrix, gathered by
    `im2col` (the caller's `_im2col`) into the thread's patch buffer, times
    w_tap, written straight into the block's NHWC rows of the output. The
    blocks are rows of one GEMM. Returns the (n, out, h, w) output,
    channels-last whatever x's layout."""
    n, _, h, w = x.shape
    out_ch = w_tap.shape[0]
    y = np.empty((n * h * w, out_ch), dtype=np.result_type(x, w_tap))
    blocks = _blocks(x.shape, x.itemsize, k)

    def run(b, patches):
        r = slice(b.start * h * w, b.stop * h * w)
        np.matmul(im2col(x[b], k, patches[:r.stop - r.start]), w_tap.T, out=y[r])

    parallel.map_parts(run, blocks, _patch_buffer(x, blocks, k))
    return y.reshape(n, h, w, out_ch).transpose(0, 3, 1, 2)


def _col2im(x: np.ndarray, upstream: np.ndarray, w2d: np.ndarray, k: int,
            input_grad: bool):
    """Both gradients of the conv of x with the (out, c*k*k) weight w2d,
    given the (n, out, h, w) output gradient: (the channels-last input
    gradient, or None without computing it when `input_grad` is false; the
    (out, c*k*k) weight gradient).

    Each of the `_blocks` of the upstream is gathered and multiplied whole
    by one pool thread, into the thread's patch buffer. Its patch
    matrix P of the upstream, gathered once, gives both:
    - the input gradient's NHWC rows, P times the weight flipped in both
      spatial axes with its in and out channels swapped, written straight
      into the gradient: at stride 1 and padding k // 2 the conv's
      transpose is that conv, and the rows are those of one GEMM whatever
      the blocks;
    - the block's weight-gradient product, the block's NHWC rows of x,
      transposed, times P, whose column (ki, kj, o) holds the gradient of
      weight [o, c, k-1-ki, k-1-kj]. The rows are a view of channels-last
      x (a C-order x, the graph input, is copied).
    The products are added to the gradient in block order, whatever the
    thread count, each through a view in the canonical layout; those held
    at once fill at most _BLOCK_BYTES, or one per pool thread."""
    n, c, h, w = x.shape
    out_ch = w2d.shape[0]
    w_flip = _tap_major(w2d.reshape(out_ch, c, k, k)[:, :, ::-1, ::-1].transpose(
        1, 0, 2, 3).reshape(c, -1), out_ch, k)
    grad_x = np.empty((n * h * w, c), np.result_type(upstream, w_flip)) if input_grad else None
    blocks = _blocks(upstream.shape, upstream.itemsize, k)
    prod_dtype = np.result_type(x, upstream)
    wave = max(parallel.THREADS, _BLOCK_BYTES // max(1, w2d.size * prod_dtype.itemsize))
    prods = np.empty((min(wave, len(blocks)), c, k * k * out_ch), prod_dtype)
    make = _patch_buffer(upstream, blocks, k)

    def run(i, patches):
        b = blocks[i]
        r = slice(b.start * h * w, b.stop * h * w)
        p = _im2col(upstream[b], k, patches[:r.stop - r.start])
        if input_grad:
            np.matmul(p, w_flip.T, out=grad_x[r])
        np.matmul(x[b].transpose(0, 2, 3, 1).reshape(-1, c).T, p, out=prods[i % wave])

    grad_w = np.zeros((out_ch, c, k, k), prod_dtype)
    for lo in range(0, len(blocks), wave):
        part = range(lo, min(lo + wave, len(blocks)))
        parallel.map_parts(run, part, make)
        for i in part:
            grad_w += prods[i % wave].reshape(c, k, k, out_ch)[:, ::-1, ::-1].transpose(3, 0, 1, 2)
    if input_grad:
        grad_x = grad_x.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return grad_x, grad_w.reshape(out_ch, -1)


def _code_divide(sums: np.ndarray, divisor: float, dtype) -> np.ndarray:
    """A code conv's sums divided by its divisor in float64, a new array in
    `dtype` and the sums' layout, split by samples over the pool's threads.
    The trainer's EVAL conv and the runtime's CONV_Q share it."""
    y = np.empty_like(sums, dtype)
    # float64 carries over twice float32's precision, so rounding its
    # quotient of two float32 values to float32 gives float32's own
    # correctly rounded quotient: the float32 divide is the same
    calc = np.float32 if y.dtype == sums.dtype == np.float32 and np.float32(divisor) == divisor \
        else np.float64
    parallel.map_parts(lambda s: np.divide(sums[s], divisor, out=y[s], dtype=calc,
                                           casting="unsafe"),
                       parallel.by_samples(sums.shape[0], sums.nbytes))
    return y


def _end_operands(s_end, f_end):
    """The per-channel float64 (a_s, a_f, bias) of `_block_end` from the ends
    of a residual block's two branches, each (scale, bias, divisor): the
    float64 constants of its norm's `fold_normalization` (the export's
    AFFINE) and the divisor of the code sums of the conv in front of it, or
    None where that conv runs on values. a = scale / divisor, or scale;
    bias = b_s + b_f. The trainer's EVAL block and the runtime's RES_BEGIN
    share it."""
    a_s, a_f = (scale if divisor is None else scale / divisor
                for scale, _, divisor in (s_end, f_end))
    return a_s, a_f, s_end[1] + f_end[1]


def _block_end(s_sums: np.ndarray, f_sums: np.ndarray, operands, dtype) -> np.ndarray:
    """The end of a residual block in one pass:
    s_sums * a_s + f_sums * a_f + bias per channel, the `_end_operands`, in
    float64, a new array in `dtype` and the sums' layout. It replaces each
    branch's code divide and norm affine and their sum. It runs in slices of
    samples on the pool's threads, each with a float64 scratch in the
    output's layout. The trainer's EVAL block and the runtime's RES_BEGIN
    share it."""
    y = np.empty_like(s_sums, dtype)
    a_s, a_f, bias = (_tile(v, y, np.float64) for v in operands)
    parts = parallel.by_samples(y.shape[0], y.nbytes)
    rows = max(s.stop - s.start for s in parts)
    wide = y.dtype == np.float64  # else the sum runs in a second float64 scratch

    def run(s, scratch):
        m = s.stop - s.start
        total = y[s] if wide else scratch[1][:m]
        np.multiply(s_sums[s], a_s, out=total)
        np.multiply(f_sums[s], a_f, out=scratch[0][:m])
        total += scratch[0][:m]
        total += bias
        if not wide:
            y[s] = total

    parallel.map_parts(run, parts, lambda: [np.empty_like(y, np.float64, shape=(
        rows,) + y.shape[1:]) for _ in range(1 if wide else 2)])
    return y


class _Leaf:
    """What a layer without sublayers shares: no parameters unless it says
    otherwise, a tape (`cache`) that is empty until a TRAIN forward,
    `codes`, the `quantizer.CodeConv` of the integer-code chain that `_link`
    put the layer in, or None, and `block_end`, whether the layer is the conv
    or the norm that ends a branch of a residual block whose EVAL end runs
    as one `_block_end` pass."""

    cache = None
    codes = None
    block_end = False

    def parameters(self) -> list[Param]:
        return []

    def cache_nbytes(self) -> int:
        return _nbytes(self.cache)

    def _tape(self, source=None):
        """The tape of the last TRAIN forward of this layer, or of the layer
        `source` whose tape it reads; without one, a backward is an error
        that names this layer."""
        cache = (self if source is None else source).cache
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward before a TRAIN forward")
        return cache


class Conv2d(_Leaf):
    """3x3 or 1x1 cross-correlation at stride 1, padded by kernel // 2 so
    that the output keeps the input's extent; no bias.

    Optional weight standardization and weight quantization are folded into
    the effective weight used by the forward pass.
    """

    stride = 1  # of every conv; the export writes it as the record's stride byte

    def __init__(self, in_ch: int, out_ch: int, kernel: int, *,
                 rng: np.random.Generator, weight_standardized: bool = True,
                 quant: QuantConfig | None = None, dtype=np.float64):
        if kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {kernel}")
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.padding = kernel, kernel // 2
        self.weight_standardized = weight_standardized
        self.quant = quant
        fan_in = in_ch * kernel * kernel
        init = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_ch, in_ch, kernel, kernel))
        self.weight = Param(name="weight", data=init.astype(dtype), decay=True)

    def parameters(self):
        return [self.weight]

    def effective_weight(self, dtype=None):
        """The (out, c*k*k) weight raw -> WS -> quantizer, in `dtype` (the
        weight's own by default), with the WS cache and quantizer input that
        the backward needs."""
        w2d = self.weight.data.reshape(self.out_ch, -1)
        w2d = w2d.astype(dtype or w2d.dtype, copy=False)
        ws_cache = None
        if self.weight_standardized:
            w2d, ws_cache = weight_standardize(w2d)
        q_saved = None
        if self.quant is not None:
            w2d, q_saved = quantize_tensor_forward(w2d, QuantKind.WEIGHT, self.quant), w2d
        return w2d, ws_cache, q_saved

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        """The conv of x with the effective weight. In EVAL, a conv of an
        integer-code chain (see `_link`) reads codes: it runs on them with
        the weight lattice in the dtype of `self.codes`, exactly, and
        divides its sums by the divisor in float64, in the weight's dtype
        (`_code_divide`), unless it is a `block_end`, whose sums its block's
        end pass reads."""
        if x.shape[1] != self.in_ch:
            raise ValueError(f"expected {self.in_ch} input channels, got {x.shape[1]}")
        w2d, ws_cache, q_saved = self.effective_weight()
        if mode is Mode.EVAL and self.codes is not None:
            q = self.quant.weight_qscale
            lattice = weight_lattice(lattice_states(w2d, q), q)
            w_tap = _tap_major(lattice, self.in_ch, self.kernel).astype(self.codes.dtype)
            sums = _conv(x, w_tap, self.kernel, _im2col)
            return sums if self.block_end else _code_divide(sums, self.codes.divisor, w2d.dtype)
        y = _conv(x, _tap_major(w2d, self.in_ch, self.kernel), self.kernel, _im2col)
        if mode is Mode.TRAIN:
            self.cache = (x, w2d, ws_cache, q_saved)
        return y

    def backward(self, upstream: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the weight gradient; return the input gradient, or
        None without computing it when `input_grad` is false. Both come from
        the one `_col2im` pass over the upstream and the taped input."""
        x, w2d, ws_cache, q_saved = self._tape()
        grad_x, grad_w2d = _col2im(x, upstream, w2d, self.kernel, input_grad)
        if q_saved is not None:
            grad_w2d = quantize_tensor_backward(q_saved, grad_w2d, QuantKind.WEIGHT, self.quant)
        if ws_cache is not None:
            grad_w2d = weight_standardize_backward(ws_cache, grad_w2d)
        self.weight.grad += grad_w2d.reshape(self.weight.data.shape)
        return grad_x


class NormLayer(_Leaf):
    """Wraps a NormLayerState as a graph node. In EVAL a norm of an
    integer-code chain (`_link`) emits its input, which its ActQuant's pass
    normalizes; so does a `block_end` norm, which its block's end pass
    folds."""

    def __init__(self, kind: NormKind, channels: int, dtype=np.float64):
        self.state = NormLayerState.create(kind, channels, dtype=dtype)
        self.g = Param(name="g", data=self.state.g)
        self.b = Param(name="b", data=self.state.b)

    def parameters(self):
        return [self.g, self.b]

    def forward(self, x, mode):
        if mode is Mode.EVAL and (self.codes is not None or self.block_end):
            return x
        y, cache = norm_forward(x, self.state, mode)
        if mode is Mode.TRAIN:
            self.cache = cache
        return y

    def backward(self, upstream, input_grad: bool = True):
        grad_x, grad_g, grad_b = norm_backward(self._tape(), upstream, input_grad)
        self.g.grad += grad_g
        self.b.grad += grad_b
        return grad_x


class ActQuant(_Leaf):
    """Quantized activation with scaled-sigmoid surrogate backward.

    Standalone it tapes its input. Linked to the `NormLayer` it directly
    follows (`norm`, set by `_link`) it tapes nothing: its input is that
    norm's output x_hat * g + b, which the backward rebuilds block by block
    from the norm's tape."""

    def __init__(self, cfg: QuantConfig):
        self.cfg = cfg
        self.norm = None

    def forward(self, x, mode):
        """The quantized values, in x's dtype. In EVAL, an ActQuant of an
        integer-code chain (see `_link`) emits the codes k instead, in the
        dtype of `self.codes`; when its norm is in the chain too, x is that
        norm's input and the norm's EVAL affine runs in the same pass."""
        if mode is Mode.EVAL and self.codes is not None:
            folded = self.norm is not None and self.norm.codes is not None
            return quantize_tensor_forward(
                x, QuantKind.ACTIVATION, self.cfg, codes=self.codes.dtype,
                affine=fold_normalization(self.norm.state) if folded else None)
        if mode is Mode.TRAIN and self.norm is None:
            self.cache = x  # not copied: no layer writes into its input
        return quantize_tensor_forward(x, QuantKind.ACTIVATION, self.cfg)

    def backward(self, upstream):
        if self.norm is None:
            saved, affine = self._tape(), None
        else:
            t = self._tape(self.norm)
            saved, affine = t.x_hat, (t.g, t.b)
        return quantize_tensor_backward(saved, upstream, QuantKind.ACTIVATION, self.cfg,
                                        affine=affine)


class ReLU(_Leaf):
    def forward(self, x, mode):
        if mode is Mode.TRAIN:
            self.cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, upstream):
        return upstream * self._tape()


def _avg_pool2(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 mean of (n, c, h, w) as four strided adds, in
    x's dtype."""
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"average pooling needs even spatial extents, got {h}x{w}")
    return (x[..., 0::2, 0::2] + x[..., 0::2, 1::2] + x[..., 1::2, 0::2]
            + x[..., 1::2, 1::2]) * x.dtype.type(0.25)


class AvgPool2(_Leaf):
    """Non-overlapping 2x2 mean pooling; requires even spatial extents."""

    def forward(self, x, mode):
        y = _avg_pool2(x)
        if mode is Mode.TRAIN:
            self.cache = x.shape
        return y

    def backward(self, upstream):
        quarter = upstream * 0.25
        g = np.empty_like(upstream, shape=self._tape())  # in upstream's layout
        for i in (0, 1):
            for j in (0, 1):
                g[..., i::2, j::2] = quarter
        return g


def _global_avg_pool(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n, c) spatial mean, summed in float64 over each
    plane in C order whatever x's layout (a channels-last x, the head
    conv's few channels, is copied), in x's dtype."""
    return np.mean(np.ascontiguousarray(x), axis=(2, 3),
                   dtype=np.float64).astype(x.dtype, copy=False)


class GlobalAvgPool(_Leaf):
    """Mean over all spatial positions; flattens (n, c, h, w) -> (n, c). The
    backward's gradient takes the forward input's layout."""

    def forward(self, x, mode):
        if mode is Mode.TRAIN:
            self.cache = x.shape, memory_order(x)
        return _global_avg_pool(x)

    def backward(self, upstream):
        shape, order = self._tape()
        h, w = shape[2:]
        g = empty_in(order, shape, upstream.dtype)
        g[...] = (upstream / (h * w))[:, :, None, None]
        return g


def _forward(layers: list, x: np.ndarray, mode: Mode, visit) -> np.ndarray:
    """Run `layers` in order on x; a residual block runs its branches through
    this same walk. `visit(layer, output)`, if given, sees every leaf's
    output."""
    for layer in layers:
        if isinstance(layer, ResidualBlock):
            x = layer.forward(x, mode, visit)
            continue
        x = layer.forward(x, mode)
        if visit is not None:
            visit(layer, x)
    return x


def _backward(layers: list, g: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
    """Compose the backwards of `layers` in reverse order on g. Without
    `input_grad` no caller reads the result: a leading conv, norm or
    residual block is told so and does not form its input gradient."""
    for i in reversed(range(len(layers))):
        skip = not (i or input_grad) and isinstance(layers[0], (Conv2d, NormLayer, ResidualBlock))
        g = layers[i].backward(g, input_grad=False) if skip else layers[i].backward(g)
    return g


def _link(layers: list) -> None:
    """Link each ActQuant of `layers` that directly follows a NormLayer to
    that norm, so that it reads the norm's tape instead of taping its
    input.

    Each ActQuant -> AvgPool2* -> quantized Conv2d run of `layers` becomes
    an integer-code chain, the rule that the export's import applies to
    ACT_Q -> AP2* -> CONV_Q: the ActQuant and the conv share its
    `quantizer.CodeConv`, and so does the ActQuant's norm unless it is LN,
    whose EVAL statistics are per sample, so that its EVAL affine can run in
    the ActQuant's code pass."""
    for i, layer in enumerate(layers):
        if not isinstance(layer, ActQuant):
            continue
        if i and isinstance(layers[i - 1], NormLayer):
            layer.norm = layers[i - 1]
        j = next((j for j in range(i + 1, len(layers))
                  if not isinstance(layers[j], AvgPool2)), len(layers))
        conv = layers[j] if j < len(layers) else None
        if isinstance(conv, Conv2d) and conv.quant is not None:
            layer.codes = conv.codes = code_conv(conv.in_ch * conv.kernel ** 2,
                                                 conv.quant.weight_qscale, layer.cfg.m_a,
                                                 j - i - 1)
            if layer.norm is not None and layer.norm.state.kind is not NormKind.LN:
                layer.norm.codes = layer.codes


def _folds_end(branch: list) -> bool:
    """Whether a residual branch ends in a conv and a BN or LBN norm."""
    return len(branch) > 1 and isinstance(branch[-2], Conv2d) and \
        isinstance(branch[-1], NormLayer) and branch[-1].state.kind is not NormKind.LN


def _branch_end(branch: list):
    """The (scale, bias, divisor) of `_end_operands` of a branch that
    `_folds_end`."""
    conv, norm = branch[-2:]
    return (*fold_normalization(norm.state), None if conv.codes is None else conv.codes.divisor)


class ResidualBlock:
    """Sum of two pre-activation branches evaluated on the same input.
    Where both end in a conv and a BN or LBN norm, those four layers are
    `block_end`s and the EVAL block ends in one `_block_end` pass (see the
    module docstring)."""

    def __init__(self, s_branch: list, f_branch: list):
        self.s_branch = s_branch
        self.f_branch = f_branch
        _link(s_branch)
        _link(f_branch)
        self.folds_end = _folds_end(s_branch) and _folds_end(f_branch)
        for layer in s_branch[-2:] + f_branch[-2:] if self.folds_end else ():
            layer.block_end = True

    def forward(self, x, mode, visit=None):
        return self.join(x, _forward(self.s_branch, x, mode, visit),
                         _forward(self.f_branch, x, mode, visit), mode)

    def join(self, x, s, f, mode):
        """The block's output on x from its branches' outputs s and f: their
        sum; in EVAL where the block `folds_end`, their `_block_end`, in the
        dtype of x and the two convs' weights."""
        if mode is Mode.EVAL and self.folds_end:
            ends = (self.s_branch, self.f_branch)
            dtype = np.result_type(x.dtype, *(b[-2].weight.data.dtype for b in ends))
            return _block_end(s, f, _end_operands(*map(_branch_end, ends)), dtype)
        return s + f

    def backward(self, upstream, input_grad: bool = True):
        """The input gradient, or None without forming it when `input_grad`
        is false: the branches' heads then skip theirs too."""
        s = _backward(self.s_branch, upstream, input_grad)
        f = _backward(self.f_branch, upstream, input_grad)
        return s + f if input_grad else None


def _walk(layers):
    for layer in layers:
        if isinstance(layer, ResidualBlock):
            yield from _walk(layer.s_branch)
            yield from _walk(layer.f_branch)
        else:
            yield layer


class ModelGraph:
    """Ordered layer list with a recorded forward tape."""

    def __init__(self, layers: list, arch: str, num_classes: int,
                 quant: QuantConfig | None, norm_kind: NormKind):
        self.layers = layers
        _link(layers)
        self.arch = arch
        self.num_classes = num_classes
        self.quant = quant
        self.norm_kind = norm_kind
        self._forward_done = False

    def parameters(self) -> list[Param]:
        return [p for layer in self.all_layers() for p in layer.parameters()]

    def all_layers(self):
        return list(_walk(self.layers))

    def conv_layers(self) -> list[Conv2d]:
        return [l for l in self.all_layers() if isinstance(l, Conv2d)]

    def activation_layers(self):
        return [l for l in self.all_layers() if isinstance(l, (ActQuant, ReLU))]

    def forward(self, x: np.ndarray, mode: Mode = Mode.TRAIN, visit=None) -> np.ndarray:
        """The (n, num_classes) logits; `visit` sees each leaf's output. An
        EVAL forward runs each integer-code chain on codes (see `_link`), so
        its code-reading convs compute what the export's runtime computes,
        and its logits differ from a walk on values by float rounding
        alone."""
        x = _forward(self.layers, x, mode, visit)
        self._forward_done = mode is Mode.TRAIN
        return x

    def backward(self, grad_logits: np.ndarray) -> None:
        """Accumulate every parameter's gradient. No caller uses the
        gradient of the graph input, so none is formed: a leading conv skips
        its input-gradient GEMM, and a leading ResidualBlock (the preact
        nets) has its branch-head norms skip their combine pass."""
        if not self._forward_done:
            raise RuntimeError("backward requires a preceding TRAIN-mode forward")
        _backward(self.layers, grad_logits, input_grad=False)
        self._forward_done = False

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def tape_nbytes(self) -> int:
        return sum(layer.cache_nbytes() for layer in self.all_layers())


# Conv plans: each entry is a (channels, repeat) group; "AP" inserts pooling.
_VGG_PLAN = [(64, 2), (128, 2), "AP", (256, 4), "AP", (512, 4), "AP", (512, 4)]
_VGG_MINI_PLAN = [(16, 2), "AP", (32, 2), "AP", (64, 2)]
_CNN9_PLAN = [(64, 2), "AP", (128, 2), "AP", (256, 2), "AP", (512, 2)]
_CNN9_MINI_PLAN = [(32, 2), "AP", (64, 2), "AP", (128, 2), "AP", (256, 2)]
# (channels, stride) per residual block.
_RESNET_PLAN = [(64, 1), (128, 1), (256, 2), (256, 2), (512, 2), (512, 2), (512, 2), (512, 2)]
_RESNET_MINI_PLAN = [(16, 1), (32, 2), (64, 2)]


def _plain_body(plan, ch, extent, conv, norm, act):
    """Conv-norm-act layers per plan group, with a 2x2 average pool at each
    "AP"."""
    layers: list = []
    for entry in plan:
        if entry == "AP":
            layers.append(AvgPool2())
            continue
        out_ch, repeat = entry
        for _ in range(repeat):
            layers += [conv(ch, out_ch), norm(out_ch), act()]
            ch = out_ch
    return layers, ch


def _preact_body(plan, ch, extent, conv, norm, act):
    """Pre-activation residual blocks. Each sums a long branch
    (norm-act-conv-norm-act-conv-norm) and a short branch
    (norm-act-conv-norm). A block of plan stride 2 downsamples with a 2x2
    average pool in front of it, as no conv is strided; the pool is skipped
    once the spatial extent has collapsed to 1."""
    def branch(c, out_ch, n_convs):
        layers: list = []
        for _ in range(n_convs):
            layers += [norm(c), act(), conv(c, out_ch)]
            c = out_ch
        return layers + [norm(out_ch)]

    layers: list = []
    for out_ch, stride in plan:
        if stride == 2 and extent > 1:
            layers.append(AvgPool2())
            extent //= 2
        layers.append(ResidualBlock(branch(ch, out_ch, 2), branch(ch, out_ch, 1)))
        ch = out_ch
    return layers, ch


# Each architecture's body function and plan.
_BODIES = {
    "vgg": (_plain_body, _VGG_PLAN),                 # 16 convs
    "vgg-mini": (_plain_body, _VGG_MINI_PLAN),       # 6 convs
    "preact_resnet": (_preact_body, _RESNET_PLAN),
    "preact-mini": (_preact_body, _RESNET_MINI_PLAN),
    "cnn9": (_plain_body, _CNN9_PLAN),               # 8 convs, the norm benchmark's
    "cnn9-mini": (_plain_body, _CNN9_MINI_PLAN),
}
ARCHITECTURES = tuple(_BODIES)


def build_model(arch: str, num_classes: int, *, quant: QuantConfig | None = None,
                norm_kind: NormKind = NormKind.LBN, quantize_head: bool = True,
                seed: int = 42, dtype=np.float64, use_ws: bool = True,
                in_channels: int = 3, input_hw: int = 32) -> ModelGraph:
    """The named architecture's body, then a 1x1 classifier conv (quantized
    unless `quantize_head` is false) and global average pooling. Every conv
    draws its initial weights, in layer order, from one generator seeded with
    `seed`. `input_hw` is the input's spatial extent, which only the
    residual nets read."""
    if arch not in _BODIES:
        raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    body, plan = _BODIES[arch]
    rng = np.random.default_rng(seed)

    def make_conv(c_in, c_out, kernel, q):
        return Conv2d(c_in, c_out, kernel, rng=rng, weight_standardized=use_ws,
                      quant=q, dtype=dtype)

    layers, ch = body(plan, in_channels, input_hw,
                      conv=lambda c_in, c_out: make_conv(c_in, c_out, 3, quant),
                      norm=lambda c: NormLayer(norm_kind, c, dtype=dtype),
                      act=lambda: ActQuant(quant) if quant is not None else ReLU())
    layers += [make_conv(ch, num_classes, 1, quant if quantize_head else None),
               GlobalAvgPool()]
    return ModelGraph(layers, arch, num_classes, quant, norm_kind)
