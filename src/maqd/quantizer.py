"""Scaled round-clip quantizers and their surrogate gradients.

Weights are pre-scaled by `s`, rounded onto a lattice of spacing 1/qscale,
and clipped to [-1, 1]; activations are rounded onto an (m_a)-state lattice
in [0, 1]. The backward pass replaces the staircase derivative with an
indicator band (weights) or a sum of scaled-sigmoid bumps centered on the
state-switching thresholds (activations).

The activation backward is the hot loop: m_a - 1 bumps per element. It runs
in blocks of _CHUNK elements, handed out to the threads of the `parallel`
pool, each thread with its own scratch buffers that stay in its core's
cache; it multiplies by the upstream gradient inside each block, and so
reads the saved input and the upstream gradient and writes the result once
from main memory, whatever m_a is. Each threshold costs five passes over
the cached block. The blocks are independent, so the result does not
depend on the thread count. Every tensor is walked in its memory order,
and every output keeps its input's layout, C order or channels-last (NHWC
rows). An activation that follows a normalization saves nothing of its
own: its backward is given the norm's x_hat and per-channel (g, b), and
rebuilds its input z = x_hat * g + b inside each block, which then holds
whole pixels on channels-last memory (whole channel planes on C order), so
that g and b repeat in it from its start. The quantizer's per-channel
operands (an affine's scale and bias, the runtime's thresholds) are
`normalization._tile`s, one sample in the input's layout on channels-last
memory.

The activation quantizer can also emit its integer codes k instead of
k/(m_a-1), for a quantized conv that reads them. `CodeConv` holds how such
a conv computes exactly on integers, the one rule of the trainer's EVAL
forward and of the export's runtime: the weight lattice, the GEMM dtype
that keeps every sum exact, and the divisor.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import parallel
from .normalization import _affine_into, _tile, empty_in, memory_order


class QScaleMode(enum.Enum):
    """Which lattice scale the weight quantizer uses for m_w states."""

    HALF_MW = "half_mw"                    # qscale = m_w / 2
    HALF_MW_MINUS_ONE = "half_mw_minus_one"  # qscale = (m_w - 1) / 2


class QuantKind(enum.Enum):
    WEIGHT = "weight"
    ACTIVATION = "activation"


@dataclass(frozen=True)
class QuantConfig:
    """All quantization hyperparameters.

    m_w: odd number of weight states, 3 to 65533, so that the export's
         int16 states (up to ceil(weight_qscale)) hold the clip endpoints.
    m_a: number of activation states, 2 to 65535 (the export's u16).
    qscale_mode: weight lattice scale selection.
    s: weight pre-scale; the clip band is |w_hat| < 1/s. s * weight_qscale
       must be finite in float32, so that no standardized weight
       (|w_hat| <= 1) overflows the quantizer in float32. WS rows
       have std 1/sqrt(fan_in), not 1, so a weight leaves state 0 only where
       |w_hat| >= 1/(2 * weight_qscale * s): 0.2 * sqrt(fan_in) row stds at
       the defaults (M_w 15, s 1/3), 3.4 of them at fan_in 288.
    alpha: finite sharpness of the activation surrogate sigmoid.
    """

    m_w: int = 15
    m_a: int = 8
    qscale_mode: QScaleMode = QScaleMode.HALF_MW
    s: float = 1.0 / 3.0
    alpha: float = 0.25

    def __post_init__(self):
        if not (3 <= self.m_w <= 65533 and self.m_w % 2):
            raise ValueError(f"m_w must be an odd integer in [3, 65533], got {self.m_w}")
        if not 2 <= self.m_a <= 65535:
            raise ValueError(f"m_a must be in [2, 65535], got {self.m_a}")
        with np.errstate(over="ignore"):
            fits = np.isfinite(np.float32(self.s) * np.float32(self.weight_qscale))
        if not (0 < self.s and fits):
            raise ValueError(f"s must be positive, with s * weight_qscale finite in "
                             f"float32, got {self.s}")
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def weight_qscale(self) -> float:
        if self.qscale_mode is QScaleMode.HALF_MW:
            return self.m_w / 2.0
        return (self.m_w - 1) / 2.0


def round_half_away(z):
    """Round to nearest integer, ties away from zero (keeps the weight lattice
    odd-symmetric about 0)."""
    z = np.asarray(z)
    return np.copysign(np.floor(np.abs(z) + 0.5), z)


def _check_finite(z, name: str):
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} must be finite")


def scaled_round_clip(z, qscale: float, lo: float, hi: float):
    """clamp(round(qscale * z) / qscale, lo, hi)."""
    if not qscale > 0:
        raise ValueError(f"qscale must be positive, got {qscale}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    _check_finite(z, "quantizer input")
    return np.clip(round_half_away(np.multiply(qscale, z)) / qscale, lo, hi)


def quantize_weight(w_hat, cfg: QuantConfig):
    """Quantize a (standardized) weight onto the signed lattice in [-1, 1]."""
    return scaled_round_clip(np.multiply(cfg.s, w_hat), cfg.weight_qscale, -1.0, 1.0)


def quantize_activation(a_hat, m_a: int, thresholds=None, codes=None, affine=None):
    """Quantize an activation onto the m_a-state lattice {0, ..., 1}.

    Equal to scaled_round_clip(a_hat, m_a - 1, 0, 1), computed in one buffer
    as floor(clip(a_hat * (m_a-1), 0, m_a-1) + 0.5) / (m_a-1): on the clipped,
    non-negative range, rounding half away from zero is floor(v + 0.5).
    Inputs in (-0.5/(m_a-1), 0] give +0.0, where scaled_round_clip gives -0.0.
    The passes run in slices of samples on the pool's threads, each slice
    checked to be finite first. Every result keeps a_hat's memory layout.

    With `codes`, a float dtype, the result is instead the integer codes
    k = value * (m_a-1) in that dtype: the same passes, in a_hat's dtype,
    without the final divide. With `affine` = (scale, bias), two
    per-channel vectors, a_hat is an (n, C, h, w) tensor and the quantizer's
    input is a_hat * scale + bias, made slice by slice by the ops of the
    normalization's `affine`, so bitwise its output, and never whole.

    With `thresholds`, an (m_a-1, C) array in a_hat's dtype, a_hat is an
    (n, C, h, w) tensor and the result is instead, per element, the number
    of k with a_hat >= thresholds[k, c], in the smallest unsigned integer
    dtype that holds m_a - 1, or in the dtype `codes` where given, cast
    slice by slice while the slice is in cache. Thresholds are bound only
    on a code conv's sums, exact and finite by construction, that make
    this count the code of the divide, affine and quantizer they fold
    (`network._fold`); no finiteness check runs.
    """
    if m_a < 2:
        raise ValueError(f"m_a must be >= 2, got {m_a}")
    if thresholds is not None:
        small = np.min_scalar_type(m_a - 1)
        count = np.empty_like(a_hat, dtype=small if codes is None else codes)
        tiles = [_tile(t, a_hat, thresholds.dtype) for t in thresholds]
        parts = parallel.by_samples(a_hat.shape[0], a_hat.nbytes)
        rows = max(s.stop - s.start for s in parts)
        wide = count.dtype != small  # then counted in a small scratch and cast

        def count_part(s, scratch):
            m = s.stop - s.start
            reached, k = scratch[0][:m], scratch[1][:m] if wide else count[s]
            k.fill(0)
            for t in tiles:
                np.greater_equal(a_hat[s], t, out=reached)
                k += reached.view(np.uint8)
            if wide:
                count[s] = k

        parallel.map_parts(count_part, parts, lambda: [
            np.empty_like(a_hat, d, shape=(rows,) + a_hat.shape[1:])
            for d in (bool, small)[:1 + wide]])
        return count
    top = float(m_a - 1)
    a = np.atleast_1d(a_hat)
    dtype = np.result_type(a, top)  # of the passes
    v = np.empty_like(a, dtype=dtype if codes is None else codes)
    if affine is not None:
        scale, bias = (_tile(t, a) for t in affine)
    parts = parallel.by_samples(a.shape[0], a.nbytes)
    rows = max(s.stop - s.start for s in parts)

    def run(s, scratch):
        # the passes run in the result where its dtype is theirs
        vs = v[s] if v.dtype == dtype else scratch[:s.stop - s.start]
        z = a[s]
        if affine is not None:
            _affine_into(z, scale, bias, vs)
            z = vs
        if not np.isfinite(np.add.reduce(z, axis=None)):
            _check_finite(z, "quantizer input")  # the sum may overflow on finite input
        np.multiply(z, top, out=vs)
        np.clip(vs, 0.0, top, out=vs)
        vs += 0.5
        np.floor(vs, out=v[s])
        if codes is None:
            vs /= top

    parallel.map_parts(run, parts, lambda: None if v.dtype == dtype
                       else np.empty_like(a, dtype, shape=(rows,) + a.shape[1:]))
    return v if np.ndim(a_hat) else v[0]


# float32 holds every integer up to this magnitude
_F32_EXACT = 1 << 24


@dataclass(frozen=True)
class CodeConv:
    """How a quantized conv computes on integers when it reads an
    activation quantizer's codes k (value k/(m_a-1)) through p 2x2 mean
    pools. Its weights are the lattice integers 2q * w_q of
    `weight_lattice` (2q = 2 * qscale), so each sum is an integer multiple
    of 4**-p of magnitude at most `bound` = fan_in * 2q * (m_a-1). While
    that bound times 4**p is below 2**24, a float32 GEMM computes every sum
    exactly, in any order of accumulation; past it a float64 GEMM does.
    `dtype` is the one the codes, the lattice and the GEMM take. A sum
    divided by `divisor` = (m_a-1) * 2q in float64 is the conv's value."""

    dtype: np.dtype
    divisor: float
    bound: float


def code_conv(fan_in: int, qscale: float, m_a: int, pools: int) -> CodeConv:
    """The CodeConv of a conv of `fan_in` inputs per output and weight
    lattice scale `qscale` (2 * qscale an integer) that reads the codes of
    an m_a-state quantizer through `pools` 2x2 mean pools."""
    two_q, top = int(2 * qscale), m_a - 1
    exact = fan_in * two_q * top * 4 ** pools < _F32_EXACT  # in exact integers
    divisor = 2.0 * qscale * top
    return CodeConv(np.dtype(np.float32 if exact else np.float64), divisor, fan_in * divisor)


def lattice_states(w_q, qscale: float) -> np.ndarray:
    """The int16 states round_half_away(w_q * qscale) of quantized weights
    w_q: a lattice value k/qscale gives back k, a clip endpoint +-1 gives
    +-ceil(qscale)."""
    return round_half_away(w_q * qscale).astype(np.int16)


def weight_lattice(states: np.ndarray, qscale: float) -> np.ndarray:
    """The float64 integers 2q * value of weight states, 2q = 2 * qscale:
    clip(2 * states, -2q, 2q)."""
    two_q = 2.0 * qscale
    return np.clip(2.0 * states, -two_q, two_q)


def _float_dtype(z: np.ndarray):
    """The float dtype a surrogate is computed in: z's own, else float64."""
    return z.dtype if np.issubdtype(z.dtype, np.floating) else np.dtype(np.float64)


def weight_surrogate_grad(w_hat, cfg: QuantConfig):
    """Straight-through band: 1 where |s * w_hat| < 1 (strict), else 0; in
    w_hat's float dtype (float64 for non-float input)."""
    w_hat = np.asarray(w_hat)
    return (np.abs(cfg.s * w_hat) < 1.0).astype(_float_dtype(w_hat))


def thresholds(m_a: int) -> np.ndarray:
    """Inputs at which the activation quantizer switches state m -> m+1:
    b_m = (m - 1 + 1/2) / (m_a - 1), m = 1..m_a-1."""
    if m_a < 2:
        raise ValueError(f"m_a must be >= 2, got {m_a}")
    m = np.arange(1, m_a)
    return ((m - 1) + 0.5) / (m_a - 1)


# Elements per block of the activation-surrogate kernel: a thread's scratch
# buffers stay in its core's cache across all thresholds of a block.
_CHUNK = 1 << 16


def activation_surrogate_grad(a_hat, m_a: int, alpha: float,
                              upstream: np.ndarray | None = None,
                              affine: tuple | None = None) -> np.ndarray:
    """Sum over thresholds of d/dz sigma_alpha(z - b_m); strictly positive.
    Times `upstream`, in upstream's dtype, when one is given.

    The result has a_hat's memory layout: every operand is flattened in
    a_hat's memory order (an upstream in another layout is copied).

    With `affine` = (g, b), two per-channel vectors, a_hat is a norm's
    (n, c, ...) x_hat and z = a_hat * g + b over axis 1. In memory order g
    and b repeat with the period of the axes from the channel axis inwards:
    c elements on channels-last memory, c planes on C order. Each block is
    then whole periods, so that one pattern of a block of g and b, built by
    broadcast, serves every block; z is rebuilt in it by the two ufunc calls
    of the normalization's `affine` kernel (multiply by g, add b, in a_hat's
    dtype), so it is bitwise the norm's output; no full-size z is made.

    Each bump is sigma'_alpha(x) = E / (1 + E) / (1 + E) / alpha with
    E = exp((z - b_m) / alpha). The thresholds are 1/(m_a-1) apart, so E is
    geometric in m: one exp per element gives E for the first threshold and
    each further one is a multiply by exp(-1/((m_a-1) alpha)). The work runs
    in blocks of _CHUNK elements, handed out to the pool's threads, each
    thread with four scratch buffers made by the caller, in a_hat's float
    dtype (float64 for non-float input): per threshold a block
    takes five cache-resident passes (the multiply, 1 + E, two divides and
    the accumulate), and the input and output cross main memory once.
    Against an extended-precision reference the relative error is ~1e-15 at
    float64 and ~2e-6 at float32 on z in [-3, 4], alpha = 0.25, tails
    included.

    The anchor exponent is clamped to +-log(max)/2 of the dtype and a chain of
    multiplies spans at most log(max)/4, so E and (1 + E) stay finite and
    dividing E by (1 + E) twice never overflows; a clamp only acts where every
    bump of its chain is below ~exp(-log(max)/4) of the peak. A small alpha
    whose thresholds span more than log(max)/4 takes one exp per chain.
    """
    z = np.asarray(a_hat)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    dtype = _float_dtype(z)
    # each threshold as the sum of two values of the dtype, so that z - b runs
    # in the dtype (a float64 threshold makes numpy run a float32 pass in
    # float64); the low part is 0 at float64 and then skipped
    b = thresholds(m_a)
    b_hi = b.astype(dtype)
    b_lo = (b - b_hi).astype(dtype)
    step = 1.0 / ((m_a - 1) * alpha)  # (z - b_m)/alpha - (z - b_{m+1})/alpha
    half_range = np.log(np.finfo(dtype).max) / 2
    # a chain spans at most all m_a - 1 thresholds; that test comes first,
    # since the quotient overflows for a huge alpha
    chain = m_a - 1 if step * (m_a - 1) <= half_range / 2 else int(half_range / 2 // step) + 1
    ratio = dtype.type(np.exp(-step))
    out_dtype = dtype if upstream is None else upstream.dtype
    # every operand flattened in z's memory order: out is made in it, and a
    # z or upstream that is not contiguous in it is copied
    order = memory_order(z)
    out = empty_in(order, z.shape, out_dtype)
    zf, of = (t.transpose(order).reshape(-1) for t in (z, out))
    uf = None if upstream is None else upstream.transpose(order).reshape(-1)
    block = _CHUNK
    if affine is not None:
        # g and b repeat with the period of the axes from the channel axis
        # inwards in memory order: c elements on channels-last memory, c
        # planes on C-order. A block is whole periods, so each block reads
        # them from one pattern of block elements, made by broadcast
        inner = order[order.index(1):]
        period = max(1, int(np.prod([z.shape[i] for i in inner])))
        block = max(1, _CHUNK // period) * period
        g_el, b_el = (np.broadcast_to(
            v.astype(dtype, copy=False).reshape([-1 if i == 1 else 1 for i in inner]),
            (block // period,) + tuple(z.shape[i] for i in inner)).reshape(-1)
            for v in affine)

    def chunk(lo, bufs):
        e, d, bump, total = bufs
        n = min(block, zf.size - lo)
        ec, dc, bc, tc = e[:n], d[:n], bump[:n], total[:n]
        tc.fill(0)
        for first in range(0, m_a - 1, chain):
            if affine is None:
                np.subtract(zf[lo:lo + n], b_hi[first], out=ec, casting="unsafe")
            else:
                np.multiply(zf[lo:lo + n], g_el[:n], out=ec)
                ec += b_el[:n]
                ec -= b_hi[first]
            if b_lo[first]:
                ec -= b_lo[first]
            ec /= dtype.type(alpha)
            np.clip(ec, -half_range, half_range, out=ec)
            np.exp(ec, out=ec)
            for m in range(first, min(first + chain, m_a - 1)):
                if m > first:
                    ec *= ratio
                np.add(ec, 1.0, out=dc)
                np.divide(ec, dc, out=bc)
                bc /= dc
                tc += bc
        tc /= dtype.type(alpha)
        if uf is None:
            of[lo:lo + n] = tc
        else:
            np.multiply(tc, uf[lo:lo + n], out=of[lo:lo + n], dtype=out_dtype,
                        casting="unsafe")

    # four scratch buffers, made by each pool thread that runs a chunk
    parallel.map_parts(chunk, range(0, zf.size, block),
                       lambda: [np.empty(min(block, zf.size), dtype) for _ in range(4)])
    return out


def quantize_tensor_forward(t: np.ndarray, kind: QuantKind, cfg: QuantConfig,
                            codes=None, affine: tuple | None = None) -> np.ndarray:
    """Elementwise quantization of a tensor, in t's dtype. The surrogate
    backward reads t itself, which the caller keeps. For an activation,
    `codes` and `affine` are those of `quantize_activation`."""
    if kind is QuantKind.WEIGHT:
        q = quantize_weight(t, cfg)
    else:
        q = quantize_activation(t, cfg.m_a, codes=codes, affine=affine)
    return q.astype(t.dtype if codes is None else codes, copy=False)


def quantize_tensor_backward(saved: np.ndarray, upstream: np.ndarray,
                             kind: QuantKind, cfg: QuantConfig,
                             affine: tuple | None = None) -> np.ndarray:
    """upstream * surrogate(saved), elementwise, in upstream's dtype. For an
    activation, `affine` = (g, b) makes the surrogate's input
    saved * g + b per channel (see `activation_surrogate_grad`)."""
    if saved.shape != upstream.shape:
        raise ValueError(f"shape mismatch: saved {saved.shape} vs upstream {upstream.shape}")
    if kind is QuantKind.ACTIVATION:
        return activation_surrogate_grad(saved, cfg.m_a, cfg.alpha, upstream, affine)
    g = weight_surrogate_grad(saved, cfg).astype(upstream.dtype, copy=False)
    g *= upstream
    return g
