"""Normalization layers (BN / LN / LBN) and weight standardization.

All three normalizations share one affine form, g/sigma * (x - mu) + b with
per-channel g, b; they differ only in the axes the statistics are pooled
over:

    BN   per channel, over (n, h, w)
    LN   per sample, over (c, h, w)
    LBN  one scalar pair over (n, c, h, w)

BN and LBN keep EMA running statistics for input-independent evaluation;
LN recomputes per-sample statistics at eval time. Variances use the
population convention (divide by count).

The kernels make the fewest whole-tensor passes and no float64 copy of
their input, and their outputs keep their input's memory layout: C order,
or channels-last (NHWC rows), which the network keeps from its first conv
to its head. Per-channel operands (g and b, the folded scale and bias,
BN's mean and inv_std) are `_tile`s: on channels-last memory one sample
in the input's layout, so that a ufunc's inner loop runs over a whole
sample rather than one pixel's channels. Every reduction accumulates in
float64 over the input's own dtype. LN's and LBN's statistics are np.mean
over the whole tensor on the calling thread, which walks it in memory
order. Every other sum is a per-channel one (BN's statistics, every
kind's grad_b and grad_g), taken per sample by `_sums_into`, where the
one layout choice is made: on channels-last memory ones times the
sample's (h*w, C) rows, one float64 GEMV, within (n + h*w) * 2**-53 of
the sum of |x| of the exact sum; on any other layout np.sum over the
sample's planes. The samples' sums are added in sample order, which on C
order is bitwise np.sum over (0, 2, 3) where C > 1. Except for BN's mean,
which has no pass of its own to ride in (`_channel_sums`), the sums are
taken inside the pass that forms their operand, slice by slice while it
is in cache, so they add no pass and no wait for the pool's threads of
their own. So a C-order input and its channels-last copy differ by
float64 summation order alone, which at float32 the final rounding hides
on the tested tensors; at float64 they agree within 1e-14 relative. The
elementwise passes run in slices of samples on the threads of the
`parallel` pool, each slice taking all of a stage's passes while it is in
cache, so the results do not depend on the thread count.

The TRAIN forward takes the mean, squares x - mean in place for the
variance, then builds x_hat in place: x_hat is the saved buffer,
`affine(x_hat, g, b)` the output. EVAL for BN and LBN is `affine` with
the constants of `fold_normalization`, which the export writes and its
runtime's AFFINE applies. The backward of every kind forms
t = upstream * x_hat and, in the same pass, each sample's sums of
upstream and t, whose sums over samples are grad_b and grad_g. It derives
the statistics' terms m1 = mean(g * upstream) and
m2 = mean(g * upstream * x_hat) from those sums (per channel for BN, one
dot product with g for LBN, one per sample for LN) and forms
grad_x = inv_std * (g * upstream - m1 - m2 * x_hat) in one more pass of
four operations over two buffers, which a caller that reads no grad_x
(`input_grad=False`) skips. At float64 the TRAIN forward is bitwise
the two-pass formula (x - mean) * inv_std * g + b with statistics from a
float64 copy; at float32 the variance sums float32 squares, a difference
of a few float32 roundings.

Weight standardization operates on an (out, fan_in) view of a weight
tensor: each row is centered and divided by sqrt(fan_in)*std + eps (eps
outside the square root). Its rows, reductions included, are independent,
so they split over the pool's threads like samples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import parallel


class NormKind(enum.Enum):
    BN = "bn"
    LN = "ln"
    LBN = "lbn"


class Mode(enum.Enum):
    TRAIN = "train"
    EVAL = "eval"


# Reduction axes per kind, in (n, c, h, w) layout.
_REDUCE_AXES = {
    NormKind.BN: (0, 2, 3),
    NormKind.LN: (1, 2, 3),
    NormKind.LBN: (0, 1, 2, 3),
}


@dataclass
class NormLayerState:
    """Trainable per-channel affine plus running statistics for one layer."""

    kind: NormKind
    g: np.ndarray          # (C,)
    b: np.ndarray          # (C,)
    eps: float = 1e-5
    ema_rate: float = 0.1
    # BN: (C,) vectors; LBN: 0-d scalars; LN: None.
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None

    @classmethod
    def create(cls, kind: NormKind, channels: int, dtype=np.float64,
               **settings) -> "NormLayerState":
        """Fresh g = 1, b = 0 and running statistics (0, 1) in `dtype`;
        `settings` may set eps and ema_rate."""
        if kind is NormKind.BN:
            rm = np.zeros(channels, dtype=dtype)
            rv = np.ones(channels, dtype=dtype)
        elif kind is NormKind.LBN:
            rm = np.zeros((), dtype=dtype)
            rv = np.ones((), dtype=dtype)
        else:
            rm = rv = None
        return cls(kind=kind,
                   g=np.ones(channels, dtype=dtype),
                   b=np.zeros(channels, dtype=dtype),
                   running_mean=rm, running_var=rv, **settings)

    @property
    def channels(self) -> int:
        return self.g.shape[0]


def fold_normalization(st: NormLayerState) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel float64 (scale, bias) of the EVAL-mode output
    x * scale + bias: scale = g / sqrt(running_var + eps),
    bias = b - scale * running_mean. LBN's scalar statistics broadcast over
    channels. The EVAL forward and the export's AFFINE records share it."""
    if st.kind is NormKind.LN:
        raise ValueError("LN recomputes statistics per sample and cannot be folded")
    rv = np.asarray(st.running_var, dtype=np.float64)
    rm = np.asarray(st.running_mean, dtype=np.float64)
    scale = st.g.astype(np.float64) / np.sqrt(rv + st.eps)
    bias = st.b.astype(np.float64) - scale * rm
    c = st.channels
    return np.broadcast_to(scale, (c,)).copy(), np.broadcast_to(bias, (c,)).copy()


def memory_order(x: np.ndarray) -> tuple:
    """x's axes from the largest stride to the smallest, ties in axis order:
    (0, 1, 2, 3) for a C-order (n, c, h, w) array, (0, 2, 3, 1) for a
    channels-last one, whose memory holds NHWC rows."""
    return tuple(sorted(range(x.ndim), key=lambda i: -abs(x.strides[i])))


def empty_in(order, shape, dtype) -> np.ndarray:
    """An empty array of `shape` whose memory holds its axes in `order` (see
    `memory_order`)."""
    return np.empty([shape[i] for i in order], dtype).transpose(np.argsort(order))


def _tile(v, like: np.ndarray, dtype=None) -> np.ndarray:
    """A per-channel vector v as an operand of the (n, C, h, w) tensor
    `like`, in `dtype` (like's by default). Where the channels are like's
    innermost axis in memory (channels-last), a (1, C, 1, 1) operand would
    end a ufunc's inner loop at every pixel: there v is tiled into one
    sample in like's layout, and the loop runs over whole samples. Where
    they are not (C order), v broadcasts along contiguous planes as it is."""
    v = np.asarray(v).astype(dtype or like.dtype, copy=False).reshape(1, -1, 1, 1)
    if v.size == 1 or memory_order(like)[-1] != 1:
        return v
    t = np.empty_like(like, dtype=v.dtype, shape=(1,) + like.shape[1:])
    t[...] = v
    return t


# Bytes of float64 NHWC rows that `_sums_into` casts and sums at a time.
_SUM_BYTES = 1 << 18


def _sum_buffer(*xs: np.ndarray) -> np.ndarray | None:
    """The float64 buffer of one pool thread for `_sums_into` on (n, C, h, w)
    tensors of one shape: a few samples' (h*w, C) rows; None where all are
    float64, which need none."""
    if all(x.dtype == np.float64 for x in xs):
        return None
    n, c, h, w = xs[0].shape
    step = max(1, _SUM_BYTES // max(1, c * h * w * 8))
    return np.empty((min(step, n), h * w, c))


def _sums_into(x: np.ndarray, s: slice, buf: np.ndarray | None, sums: np.ndarray):
    """sums[i] = the (C,) float64 sums over (h, w) of sample i of the
    (n, C, h, w) tensor x, for the samples i of s. On channels-last memory a
    reduction over the outer axes would run one inner loop per pixel: there
    each sample's sums are ones(h*w) times its (h*w, C) NHWC rows, one
    float64 GEMV, float64 rows as they are, others cast into `buf` a few
    samples at a time. Any other layout takes np.sum over the planes."""
    n, c, h, w = x.shape
    if memory_order(x)[-1] != 1 or x.flags.c_contiguous:
        np.sum(x[s], axis=(2, 3), dtype=np.float64, out=sums[s])
        return
    rows = x.transpose(0, 2, 3, 1).reshape(n, h * w, c)
    ones = np.ones(h * w)
    if x.dtype == np.float64:
        np.matmul(ones, rows[s], out=sums[s])
        return
    step = buf.shape[0]
    for i in range(s.start, s.stop, step):
        j = min(i + step, s.stop)
        b = buf[:j - i]
        b[...] = rows[i:j]
        np.matmul(ones, b, out=sums[i:j])


def _channel_sums(x: np.ndarray) -> np.ndarray:
    """The (C,) float64 sums of an (n, C, h, w) tensor over (n, h, w): each
    sample's sums (`_sums_into`), in slices of samples on the pool's
    threads, added in sample order, so the result does not depend on the
    thread count. On C order with C > 1 that is bitwise np.sum over
    (0, 2, 3) (with C = 1 numpy sums the whole array pairwise); on
    channels-last memory each sum is within (n + h*w) * 2**-53 of the sum
    of the channel's |x| of the exact one."""
    sums = np.empty(x.shape[:2])
    parallel.map_parts(lambda s, buf: _sums_into(x, s, buf, sums),
                       parallel.by_samples(x.shape[0], x.nbytes), lambda: _sum_buffer(x))
    return sums.sum(axis=0)


def _mean(x: np.ndarray, kind: NormKind, dtype, sample_sums=None) -> np.ndarray:
    """The mean of x over the kind's axes, summed in float64, in `dtype`,
    with x's dimensions: (1, C, 1, 1) for BN, from `_channel_sums`, or from
    `sample_sums`, the (n, C) sums `_sums_into` already took of x;
    (n, 1, 1, 1) for LN and (1, 1, 1, 1) for LBN, from np.mean, which walks
    x in memory order."""
    if kind is NormKind.BN:
        sums = _channel_sums(x) if sample_sums is None else sample_sums.sum(axis=0)
        mean = (sums / (x.size // x.shape[1])).reshape(1, -1, 1, 1)
    else:
        mean = np.mean(x, axis=_REDUCE_AXES[kind], keepdims=True, dtype=np.float64)
    return mean.astype(dtype)


def _per_sample(v: np.ndarray, s: slice) -> np.ndarray:
    """The rows s of a statistic with one row per sample (LN's), else v."""
    return v[s] if v.shape[0] > 1 else v


def _operand(stat: np.ndarray, x: np.ndarray, dtype=None) -> np.ndarray:
    """A statistic with x's dimensions as an operand of x, in `dtype` (x's
    by default): a per-channel one (BN's) as a `_tile`, one with a row per
    sample (LN's) or one value as it is."""
    if stat.shape[0] == 1:
        return _tile(stat, x, dtype)
    return stat.astype(dtype or x.dtype, copy=False)


def _affine_into(x: np.ndarray, scale: np.ndarray, bias: np.ndarray, out: np.ndarray):
    np.multiply(x, scale, out=out)
    out += bias


def affine(x: np.ndarray, scale: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x * scale + bias per channel of (n, c, h, w) x, in x's dtype and
    layout, in two passes with the vectors as `_tile`s, split by samples
    over the pool's threads."""
    scale, bias = _tile(scale, x), _tile(bias, x)
    y = np.empty_like(x)
    parallel.map_parts(lambda s: _affine_into(x[s], scale, bias, y[s]),
                       parallel.by_samples(x.shape[0], x.nbytes))
    return y


@dataclass
class NormCache:
    """A TRAIN forward's tape. g and b are the layer's own arrays, not
    copies: a linked `ActQuant` rebuilds the output x_hat * g + b from them
    before the optimizer step moves them."""

    x_hat: np.ndarray
    inv_std: np.ndarray
    g: np.ndarray
    b: np.ndarray
    kind: NormKind


def norm_forward(x: np.ndarray, st: NormLayerState, mode: Mode):
    """Normalize a (n, c, h, w) tensor. Returns (output, cache); the cache is
    None in EVAL mode. TRAIN mode updates the running statistics (BN, LBN)."""
    if x.ndim != 4 or x.shape[1] != st.channels:
        raise ValueError(f"expected (n, {st.channels}, h, w) input, got {x.shape}")
    if mode is Mode.EVAL and st.kind is not NormKind.LN:
        return affine(x, *fold_normalization(st)), None

    kind = st.kind
    parts = parallel.by_samples(x.shape[0], x.nbytes)
    mean = _mean(x, kind, x.dtype)
    mean_op = _operand(mean, x)
    x_hat = np.empty_like(x)  # (x - mean)**2 first, then x_hat
    # BN takes each slice's sample sums of the squares in the pass that
    # forms them, while the slice is in cache
    sq_sums = np.empty(x.shape[:2]) if kind is NormKind.BN else None

    def squares(s, buf):
        np.subtract(x[s], _per_sample(mean_op, s), out=x_hat[s])
        np.square(x_hat[s], out=x_hat[s])
        if sq_sums is not None:
            _sums_into(x_hat, s, buf, sq_sums)

    parallel.map_parts(squares, parts, lambda: None if sq_sums is None else _sum_buffer(x_hat))
    var = _mean(x_hat, kind, x.dtype, sq_sums)
    if mode is Mode.TRAIN and kind is not NormKind.LN:
        r = st.ema_rate
        # in place: the statistics stay the arrays `create` made (checkpoints alias them)
        st.running_mean[...] = (1 - r) * st.running_mean + r * mean.squeeze()
        st.running_var[...] = (1 - r) * st.running_var + r * var.squeeze()
    inv_std = 1.0 / np.sqrt(var + st.eps)
    inv_op = _operand(inv_std, x)
    g, b = _tile(st.g, x), _tile(st.b, x)
    y = np.empty_like(x)

    def normalize(s):
        np.subtract(x[s], _per_sample(mean_op, s), out=x_hat[s])
        x_hat[s] *= _per_sample(inv_op, s)
        _affine_into(x_hat[s], g, b, y[s])

    parallel.map_parts(normalize, parts)
    if mode is Mode.TRAIN:
        return y, NormCache(x_hat=x_hat, inv_std=inv_std, g=st.g, b=st.b, kind=kind)
    return y, None


def norm_backward(cache: NormCache, upstream: np.ndarray, input_grad: bool = True):
    """Exact gradients through a TRAIN-mode forward, including the dependence
    of the statistics on the input. Returns (grad_x, grad_g, grad_b); grad_x
    in x_hat's layout, or None without its combine pass when `input_grad` is
    false."""
    if cache is None:
        raise ValueError("norm_backward requires a TRAIN-mode cache")
    x_hat, inv_std, g = cache.x_hat, cache.inv_std, cache.g
    dtype = upstream.dtype
    parts = parallel.by_samples(x_hat.shape[0], x_hat.nbytes)
    t = np.empty_like(x_hat, dtype=np.result_type(upstream, x_hat))
    # each slice's sample sums of upstream and t are taken in the pass that
    # forms t, while the slice is in cache
    sums_b, sums_g = np.empty((2,) + x_hat.shape[:2])

    def product(s, buf):
        np.multiply(upstream[s], x_hat[s], out=t[s])
        _sums_into(upstream, s, buf, sums_b)
        _sums_into(t, s, buf, sums_g)

    parallel.map_parts(product, parts, lambda: _sum_buffer(upstream, t))
    grad_b, grad_g = sums_b.sum(axis=0), sums_g.sum(axis=0)
    if not input_grad:
        return None, grad_g.astype(g.dtype), grad_b.astype(g.dtype)
    # m1 = mean(g * upstream) and m2 = mean(g * upstream * x_hat) over the
    # reduction axes, from the sums: per channel for BN, one dot product for
    # LBN, one per sample for LN; then
    # grad_x = inv_std * (g * upstream - m1 - m2 * x_hat).
    g64 = g.astype(np.float64)
    if cache.kind is NormKind.BN:
        m1, m2 = g64 * grad_b, g64 * grad_g
    elif cache.kind is NormKind.LBN:
        m1, m2 = g64 @ grad_b, g64 @ grad_g
    else:
        m1, m2 = sums_b @ g64, sums_g @ g64
    count = x_hat.size // inv_std.size
    inv = inv_std.astype(np.float64)
    m1, m2 = (np.reshape(m / count, inv.shape) for m in (m1, m2))
    c2, c1, c3 = (_operand(inv * v, x_hat, dtype) for v in (m2, m1, g64.reshape(1, -1, 1, 1)))
    grad_x = np.empty_like(x_hat, dtype=dtype)

    def combine(s):
        np.multiply(x_hat[s], _per_sample(c2, s), out=t[s])
        t[s] += _per_sample(c1, s)
        np.multiply(upstream[s], _per_sample(c3, s), out=grad_x[s])
        grad_x[s] -= t[s]

    parallel.map_parts(combine, parts)
    return grad_x, grad_g.astype(g.dtype), grad_b.astype(g.dtype)


@dataclass
class WSCache:
    w: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    denom: np.ndarray
    fan_in: int


def weight_standardize(w: np.ndarray, eps: float = 1e-10):
    """Per-row standardization of (out, fan_in) weights:
    (W - mu) / (sqrt(fan_in) * sigma + eps). Returns (w_hat, cache). The
    rows are independent, so they split over the pool's threads."""
    if w.ndim != 2 or w.shape[1] < 1:
        raise ValueError(f"expected (out, fan_in) weights, got {w.shape}")
    fan_in = w.shape[1]
    mu, sigma, denom = (np.empty((w.shape[0], 1)) for _ in range(3))
    w_hat = np.empty(w.shape, w.dtype)

    def rows(s):
        mu[s] = np.mean(w[s], axis=1, keepdims=True, dtype=np.float64)
        sigma[s] = np.sqrt(np.mean(np.square(w[s].astype(np.float64) - mu[s]), axis=1,
                                   keepdims=True))
        denom[s] = np.sqrt(fan_in) * sigma[s] + eps
        w_hat[s] = (w[s] - mu[s]) / denom[s]

    parallel.map_parts(rows, parallel.by_samples(w.shape[0], w.nbytes))
    cache = WSCache(w=w, mu=mu.astype(w.dtype), sigma=sigma.astype(w.dtype),
                    denom=denom.astype(w.dtype), fan_in=fan_in)
    return w_hat, cache


def weight_standardize_backward(cache: WSCache, upstream: np.ndarray) -> np.ndarray:
    """Exact gradient of the standardized weights w.r.t. the raw weights,
    row by row over the pool's threads."""
    w, fan_in = cache.w, cache.fan_in
    grad = np.empty(w.shape, w.dtype)

    def rows(s):
        mu, sigma, denom, up = cache.mu[s], cache.sigma[s], cache.denom[s], upstream[s]
        centered = w[s] - mu
        u_centered = up - np.mean(up, axis=1, keepdims=True, dtype=np.float64).astype(up.dtype)
        # d denom / d w_i = sqrt(fan_in) * (w_i - mu) / (fan_in * sigma)
        t = np.sum(up * centered, axis=1, keepdims=True, dtype=np.float64).astype(up.dtype)
        safe_sigma = np.where(sigma > 0, sigma, 1.0)
        sigma_term = np.where(
            sigma > 0,
            centered * (np.sqrt(fan_in) * t) / (fan_in * safe_sigma * denom ** 2),
            0.0,
        )
        grad[s] = u_centered / denom - sigma_term

    parallel.map_parts(rows, parallel.by_samples(w.shape[0], w.nbytes))
    return grad
