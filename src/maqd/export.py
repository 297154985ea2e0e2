"""Quantized model export format and the folded-normalization runtime.

File layout (little-endian throughout):

    magic "MAQD" | u16 version | u8 arch-id length | arch-id bytes
    | u16 class count
    | quant block: u8 present, u16 m_w, u16 m_a, u8 qscale_mode, f64 s, f64 alpha
    | u32 record count | records...

Each record is  u8 opcode | u32 payload length | payload.  Opcodes:

    CONV_Q   u16 out, u16 in, u8 kernel, u8 stride, f64 qscale,
             i16 states[out*in*k*k]   (weight value = clamp(state/qscale, -1, 1))
    CONV_F   u16 out, u16 in, u8 kernel, u8 stride, f64 weights[...]
    AFFINE   u16 channels, f64 scale[c], f64 bias[c]   (folded normalization)
    ACT_Q    u16 m_a
    RELU     -
    AP2      -
    GAP      -
    RES_BEGIN / RES_SEP / RES_END   residual block structure markers

Every conv runs at stride 1, padded by kernel // 2, so that its output keeps
its input's extent; its stride byte is always 1.

Normalization layers are folded into per-channel affine constants from
their running statistics, so the runtime never computes statistics. CONV_F
weights and CONV_Q states come from the trainer's `Conv2d.effective_weight`
run in float64. For every op the runtime runs the kernel of the trainer's
EVAL forward (its `_conv` and its epilogue, `affine`, pooling,
`quantize_activation` and residual `_block_end`), so for a float64 graph
on float64 images its logits are bitwise `graph.forward(images,
Mode.EVAL)`.

`import_model` compiles the records in one walk. It nests each residual
block into its RES_BEGIN op (fields "s" and "f", its branches), tracks the
channels, the downsampling and whether GAP has flattened the activation, and
binds each op's arguments. A ModelFormatError naming its byte rejects an
AFFINE scale or bias or a CONV_F weight that is not finite (the export
refuses to write one), and one naming the record's byte rejects a conv
whose kernel is not 1 or 3, whose stride byte is not 1, or with 0
channels; an ACT_Q with m_a < 2; a conv or AFFINE whose channels are not
its input's; a conv, AFFINE, AP2 or second GAP after GAP; residual
branches that end in different channels, downsampling or flattening; an
unbalanced residual marker; residual blocks nested deeper than 64; and a
stream that does not end in (class_count) logits. The runtime then checks
only the shape of its input.

A CONV_Q that reads an ACT_Q's codes k in 0..m_a-1 (value k/(m_a-1))
through AP2s only computes on integers, as the trainer's EVAL forward does
on the same ActQuant -> AvgPool2* -> quantized Conv2d runs: its weight is
the lattice integer clip(2*state, -2q, 2q) with 2q = 2*qscale (value
lattice/2q), so each sum is an integer, or after p 2x2 pools an integer
multiple of 4**-p, of magnitude at most fan_in * 2q * (m_a-1). While that
bound times 4**p is below 2**24 a float32 GEMM computes every sum exactly,
in any order of accumulation; past it a float64 GEMM does. The import
binds that dtype to the codes and the lattice, and binds the divisor
(m_a-1) * 2q, by which the conv divides its sums in float64; the rule is
`quantizer.code_conv`'s. A CONV_Q that reads values (images, residual
sums) binds its weights clamp(state/qscale, -1, 1), bitwise the float64
effective weight, and divides nothing. An ACT_Q that no CONV_Q reads emits
float64 values.

An ACT_Q runs the AFFINE that it reads directly in its quantizer pass,
`quantize_activation(x, m_a, codes=..., affine=(scale, bias))`, as the
trainer's ActQuant on a chain does; that AFFINE runs no pass of its own.
Where the AFFINE reads a code-reading CONV_Q's sums, the import folds the
conv's divide, the affine and the quantizer into m_a-1 thresholds per
channel on the sums. Each of those steps rounds monotonically, so the code
is the number of thresholds the sum reaches: T_k[c] is the least value of
the sums' dtype whose unfolded code is at least k. A channel with scale < 0
counts the other way, and one with scale 0 has a constant code. The import
finds each T_k by bisection over the ordered bit patterns of the dtype
with |sum| <= fan_in * 2q * (m_a-1), each probe running the unfolded
kernels, so the compares give the unfolded codes bit for bit on every sum
the conv can emit, and code sums are finite by construction. A pair stays
unfolded on float64 sums, when its affine overflows on code sums, or when
it has more than _FOLD_MAX_THRESHOLDS (16) thresholds: there the compares
do not beat the arithmetic they replace. A quantizer input that is NaN,
inf or overflows (only on image-conv sums, residual sums or images) raises
a ValueError naming the ACT_Q record's byte.

A residual block whose two branches each end in a conv and an AFFINE (a
BN or LBN preact block, quantized or float) ends in one pass, as the
trainer's `ResidualBlock` does: the import marks its RES_BEGIN with the
operands of `network._block_end`, those two convs emit their sums (a
CONV_Q on codes divides nothing) and those two AFFINEs run no pass of
their own, and the block's output is s_sums * a_s + f_sums * a_f +
(b_s + b_f) per channel in float64, with a = scale / divisor for a CONV_Q
on codes and a = scale for a conv on values. So quantized preact-mini runs
no AFFINE and no code divide at all: its other AFFINEs run in ACT_Qs'
passes or folds.

Every other AFFINE runs in one pass with the RELU that directly follows it
(`_fuse`), as the trainer's `network._link` binds a BN or LBN norm and its
ReLU: a CONV_F or a CONV_Q on values directly in front of it runs both on
each block of its output (`_conv`'s epilogue), else the AFFINE runs the
RELU in its `affine` pass. Those AFFINEs and RELUs run no pass of their
own, so float cnn9-mini runs no AFFINE and no RELU at all.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import (ActQuant, AvgPool2, Conv2d, GlobalAvgPool, ModelGraph,
                      NormLayer, ReLU, ResidualBlock, _avg_pool2, _block_end, _code_divide,
                      _conv, _end_operands, _global_avg_pool, _im2col, _tap_major)
from .normalization import Mode, _tile, affine, fold_normalization
from .quantizer import (CodeConv, QScaleMode, QuantConfig, code_conv, lattice_states,
                        quantize_activation, weight_lattice)

MAGIC = b"MAQD"
FORMAT_VERSION = 1

OP_CONV_Q = 1
OP_CONV_F = 2
OP_AFFINE = 3
OP_ACT_Q = 4
OP_RELU = 5
OP_AP2 = 6
OP_GAP = 7
OP_RES_BEGIN = 8
OP_RES_SEP = 9
OP_RES_END = 10

_QSCALE_MODE_CODE = {QScaleMode.HALF_MW: 0, QScaleMode.HALF_MW_MINUS_ONE: 1}
_QSCALE_MODE_FROM_CODE = {v: k for k, v in _QSCALE_MODE_CODE.items()}
# Byte offset of each field within the "<BHHBdd" quant block (after "present").
_QUANT_FIELD_AT = {"m_w": 1, "m_a": 3, "qscale_mode": 5, "s": 6, "alpha": 14}


class ModelFormatError(ValueError):
    """Exported model file failed validation."""


def weight_states(conv: Conv2d) -> tuple[np.ndarray, float]:
    """Integer lattice states for a quantized conv, with the qscale used to
    decode them: value = clamp(state / qscale, -1, 1).

    States are `quantizer.lattice_states` of the float64
    `Conv2d.effective_weight` w_q: a lattice value k/qscale gives back k,
    a clip endpoint +-1 gives +-ceil(qscale), which fits in an int16.
    """
    if conv.quant is None:
        raise ValueError("conv layer is not weight-quantized")
    q = conv.quant.weight_qscale
    w_q = conv.effective_weight(np.float64)[0]
    states = lattice_states(w_q, q)
    # decode must reproduce the quantized weights exactly (at 64-bit)
    if not np.array_equal(_decode(states, q), w_q):
        raise AssertionError("state encoding does not reproduce forward weights")
    return states, q


def _decode(states: np.ndarray, q: float) -> np.ndarray:
    """The float64 weights clamp(state / qscale, -1, 1) of CONV_Q states."""
    return np.clip(states.astype(np.float64) / q, -1.0, 1.0)


@dataclass
class RuntimeOp:
    opcode: int
    fields: dict = field(default_factory=dict)
    at: int = 0  # byte offset of the record in its file


@dataclass
class RuntimeModel:
    arch: str
    class_count: int
    quant: QuantConfig | None
    ops: list[RuntimeOp]  # bound ops: residual blocks nest in their RES_BEGIN
    in_ch: int  # channel count of the images the model takes


def _record(opcode: int, payload: bytes = b"") -> bytes:
    return struct.pack("<BI", opcode, len(payload)) + payload


def _finite(name: str, what: str, v: np.ndarray) -> np.ndarray:
    """v; a non-finite element, which the import refuses, is a ValueError."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"cannot export {name}: its {what} is {v.flat[bad[0]]} "
                         f"at index {bad[0]}")
    return v


def _conv_record(conv: Conv2d, name: str) -> bytes:
    head = struct.pack("<HHBB", conv.out_ch, conv.in_ch, conv.kernel, conv.stride)
    if conv.quant is not None:
        states, q = weight_states(conv)
        payload = head + struct.pack("<d", q) + states.astype("<i2").tobytes()
        return _record(OP_CONV_Q, payload)
    w2d = _finite(name, "float weight", conv.effective_weight(np.float64)[0])
    return _record(OP_CONV_F, head + w2d.astype("<f8").tobytes())


_BARE_OPS = {ReLU: OP_RELU, AvgPool2: OP_AP2, GlobalAvgPool: OP_GAP}


def _records(layers, names: dict) -> list[bytes]:
    return [rec for layer in layers for rec in _layer_records(layer, names)]


def _layer_records(layer, names: dict) -> list[bytes]:
    if isinstance(layer, Conv2d):
        return [_conv_record(layer, names[id(layer)])]
    if isinstance(layer, NormLayer):
        scale, bias = (_finite(names[id(layer)], f"folded affine {what}", v)
                       for what, v in zip(("scale", "bias"), fold_normalization(layer.state)))
        payload = struct.pack("<H", scale.size) + scale.astype("<f8").tobytes() \
            + bias.astype("<f8").tobytes()
        return [_record(OP_AFFINE, payload)]
    if isinstance(layer, ActQuant):
        return [_record(OP_ACT_Q, struct.pack("<H", layer.cfg.m_a))]
    if type(layer) in _BARE_OPS:
        return [_record(_BARE_OPS[type(layer)])]
    if isinstance(layer, ResidualBlock):
        return [_record(OP_RES_BEGIN), *_records(layer.s_branch, names), _record(OP_RES_SEP),
                *_records(layer.f_branch, names), _record(OP_RES_END)]
    raise TypeError(f"cannot export layer of type {type(layer).__name__}")


def export(graph: ModelGraph, path) -> None:
    """Serialize a trained graph; import(export(g)) reproduces all runtime
    parameters bitwise. A folded affine or float conv weight that is not
    finite is a ValueError naming its layer, by its place in
    `graph.all_layers()`, and writes no file."""
    names = {id(l): f"layer {i} ({type(l).__name__})" for i, l in enumerate(graph.all_layers())}
    records = _records(graph.layers, names)
    arch_bytes = graph.arch.encode("ascii")
    header = MAGIC + struct.pack("<H", FORMAT_VERSION)
    header += struct.pack("<B", len(arch_bytes)) + arch_bytes
    header += struct.pack("<H", graph.num_classes)
    if graph.quant is not None:
        q = graph.quant
        header += struct.pack("<BHHBdd", 1, q.m_w, q.m_a,
                              _QSCALE_MODE_CODE[q.qscale_mode], q.s, q.alpha)
    else:
        header += struct.pack("<BHHBdd", 0, 3, 2, 0, 1.0 / 3.0, 0.25)
    header += struct.pack("<I", len(records))
    Path(path).write_bytes(header + b"".join(records))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise ModelFormatError(
                f"{self.path}: truncated at byte {self.offset}, needed {n} more")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _take_finite(r: _Reader, n: int, what: str) -> np.ndarray:
    """The next n f64 of r; a non-finite one is a ModelFormatError."""
    at = r.offset
    v = np.frombuffer(r.take(8 * n), dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ModelFormatError(f"{r.path}: {what} {v[bad[0]]} at byte {at + 8 * bad[0]}: "
                               f"must be finite")
    return v


def _parse_op(r: _Reader) -> RuntimeOp:
    at = r.offset
    opcode, length = r.unpack("<BI")
    op = RuntimeOp(opcode, at=at)
    start, f = r.offset, op.fields
    if op.opcode in (OP_CONV_Q, OP_CONV_F):
        out_ch, in_ch, k, stride = r.unpack("<HHBB")
        f.update(out_ch=out_ch, in_ch=in_ch, kernel=k, stride=stride)
        n, shape = out_ch * in_ch * k * k, (out_ch, in_ch * k * k)
        if op.opcode == OP_CONV_Q:
            qscale_at = r.offset
            (qscale,) = r.unpack("<d")
            two_q = 2.0 * qscale
            if not (np.isfinite(two_q) and two_q >= 1 and two_q == int(two_q)):
                raise ModelFormatError(f"{r.path}: CONV_Q qscale {qscale} at byte {qscale_at}: "
                                       f"2*qscale must be a positive integer")
            f.update(qscale=qscale, states=np.frombuffer(r.take(2 * n), "<i2").reshape(shape))
        else:
            f["w"] = _take_finite(r, n, "CONV_F weight").reshape(shape)
    elif op.opcode == OP_AFFINE:
        (c,) = r.unpack("<H")
        f.update(channels=c, scale=_take_finite(r, c, "AFFINE scale"),
                 bias=_take_finite(r, c, "AFFINE bias"))
    elif op.opcode == OP_ACT_Q:
        (f["m_a"],) = r.unpack("<H")
    elif op.opcode not in (OP_RELU, OP_AP2, OP_GAP, OP_RES_BEGIN, OP_RES_SEP, OP_RES_END):
        raise ModelFormatError(f"{r.path}: unknown opcode {op.opcode} at byte {op.at}")
    if r.offset - start != length:
        raise ModelFormatError(
            f"{r.path}: record length mismatch at byte {start} (declared {length}, "
            f"read {r.offset - start})")
    return op


_MAX_NESTING = 64  # residual blocks within residual blocks


def _codes_reader(recs: list[RuntimeOp], i: int):
    """The `quantizer.CodeConv` of the CONV_Q that reads the ACT_Q record i
    through AP2s only, or None when no CONV_Q reads it."""
    j = next((j for j in range(i + 1, len(recs)) if recs[j].opcode != OP_AP2), len(recs))
    if j == len(recs) or recs[j].opcode != OP_CONV_Q:
        return None
    conv = recs[j].fields
    return code_conv(conv["in_ch"] * conv["kernel"] ** 2, conv["qscale"],
                     recs[i].fields["m_a"], j - i - 1)


# An AFFINE -> ACT_Q pair on float32 code sums with at most this many
# thresholds per channel runs as that many compares; one with more runs
# unfolded: the divide, then one fused affine and quantizer pass. On a
# (100, 16, 32, 32) channels-last float32 map of code sums (2 vCPU, medians
# of 60, two runs), 7, 16 and 31 compares with the codes' cast took 3.1-3.6,
# 5.1-6.1 and 8.7-9.8 ms, against 4.7-5.8 ms for the divide and the fused
# pass, which also makes a float64 map. On float64 sums, 7 compares took
# 6.0-6.3 ms against 4.7-5.0 ms, so float64 sums never fold.
_FOLD_MAX_THRESHOLDS = 16


@dataclass
class _Fold:
    """An AFFINE -> ACT_Q pair on a code-reading CONV_Q's sums, with that
    conv's divide, as compares on the sums (see the module docstring)."""

    thresholds: np.ndarray  # (m_a-1, C) in the sums' dtype: code = #{x >= t}
    flip: np.ndarray | None  # (1, C, 1, 1): code = m_a-1 - #{x >= t} where set


def _keys(x: np.ndarray) -> np.ndarray:
    """int64 keys that order as the floats x do; both zeros have key 0."""
    bits = x.view(f"i{x.itemsize}").astype(np.int64)
    mag = bits & ((1 << (8 * x.itemsize - 1)) - 1)
    return np.where(bits < 0, -mag, mag)


def _floats(keys: np.ndarray, dtype) -> np.ndarray:
    """The floats of the given dtype whose `_keys` are keys."""
    dtype = np.dtype(dtype)
    bits = np.abs(keys).astype(f"u{dtype.itemsize}")
    bits[keys < 0] |= np.array(1 << (8 * dtype.itemsize - 1), bits.dtype)
    return bits.view(dtype)


def _first(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise, the least integer t in (lo, hi] where pred(t) holds, for
    a pred that is monotone, false at lo and true at hi. Bisection."""
    while True:
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # floor((lo + hi) / 2), no overflow
        if np.array_equal(mid, lo):
            return hi
        p = pred(mid)
        lo, hi = np.where(p, lo, mid), np.where(p, mid, hi)


def _fold(m_a: int, sums: CodeConv, scale, bias) -> _Fold | None:
    """The fold of the pair on the sums of a code-reading CONV_Q, or None
    where it does not apply: float64 sums, more than _FOLD_MAX_THRESHOLDS
    thresholds, or an affine that overflows on the sums (the import refuses
    a non-finite scale or bias)."""
    top, c = m_a - 1, scale.size
    if sums.dtype != np.float32 or top > _FOLD_MAX_THRESHOLDS:
        return None

    def code(keys):  # the unfolded code of the sums of the given keys, channel in axis 1
        s = _floats(keys, sums.dtype)
        x = _code_divide(s.reshape(-1, c, 1, 1), sums.divisor, np.float64)
        with np.errstate(over="ignore"):  # x * (m_a-1) may reach inf at the ends
            return quantize_activation(x, m_a, codes=np.float32,
                                       affine=(scale, bias)).reshape(keys.shape)

    # |sum| <= bound, and the affine is monotone: finite at both ends, finite on all
    t_lo, t_hi = (np.full((top, c), key) for key in
                  _keys(np.array([-sums.bound, sums.bound], sums.dtype)))
    try:
        code(np.stack([t_lo[0], t_hi[0]]))
    except ValueError:
        return None
    # channel sign d: the code rises with d * key(sum)
    d = np.where(scale < 0, -1, 1)
    k = np.arange(1, top + 1).reshape(-1, 1)
    reached = lambda t: code(d * t) >= k  # code(sum of key d * t) >= k
    # d > 0: code >= k from key t on; d < 0: code < k (flipped) from key 1 - t on
    t = _first(reached, t_lo, t_hi)
    out = _floats(np.where(d > 0, t, 1 - t), sums.dtype)
    never = d * np.inf  # the threshold no sum reaches, flipped where d < 0
    out = np.where(reached(t_lo), -never, np.where(reached(t_hi), out, never)).astype(sums.dtype)
    flip = (d < 0).reshape(1, c, 1, 1)
    return _Fold(out, flip if flip.any() else None)


def _read_affine(ops: list[RuntimeOp], m_a: int):
    """(the (scale, bias) of the AFFINE that ends the bound ops, or None;
    the pair's fold, or None). The ACT_Q that follows the ops runs that
    AFFINE in its quantizer pass; the pair folds where the AFFINE reads a
    code-reading CONV_Q's sums (see `_fold`), and that conv then emits its
    sums."""
    if not ops or ops[-1].opcode != OP_AFFINE:
        return None, None
    aff = ops[-1].fields
    aff["read"] = True
    feed = ops[-2].fields if len(ops) > 1 and ops[-2].opcode == OP_CONV_Q else None
    fold = _fold(m_a, feed["code_conv"], aff["scale"], aff["bias"]) \
        if feed and feed["code_conv"] else None
    if fold is not None:
        feed["divisor"] = None
    return (aff["scale"], aff["bias"]), fold


def _fold_ends(s_ops: list[RuntimeOp], f_ops: list[RuntimeOp]):
    """The `_end_operands` of a residual block whose bound branches both end
    in a conv and an AFFINE, as `network.ResidualBlock` folds a block whose
    branches end in a conv and a BN or LBN norm: those CONV_Qs then emit
    their sums and those AFFINEs run no pass of their own, and the block
    ends in one `_block_end` pass. None for any other block."""
    ends = [ops[-2:] for ops in (s_ops, f_ops)]
    if not all(len(e) == 2 and e[0].opcode in (OP_CONV_Q, OP_CONV_F)
               and e[1].opcode == OP_AFFINE for e in ends):
        return None
    operands = []
    for conv, aff in ends:
        aff.fields["read"] = True
        codes = conv.fields.get("code_conv")
        if conv.opcode == OP_CONV_Q:
            conv.fields["divisor"] = None
        operands.append((aff.fields["scale"], aff.fields["bias"],
                         codes.divisor if codes else None))
    return _end_operands(*operands)


def _fuse(ops: list[RuntimeOp]) -> None:
    """Bind each AFFINE of the bound ops that no ACT_Q or block end reads to
    one pass with the RELU that directly follows it, as `network._link` does
    a BN or LBN norm and its ReLU: a CONV_F or a CONV_Q on values directly
    in front of it runs both on its blocks (the conv's "epilogue"), else the
    AFFINE runs the RELU in its `affine` pass ("relu"). Each AFFINE and RELU
    that a conv or an AFFINE runs is marked "read"."""
    for i, op in enumerate(ops):
        f = op.fields
        if op.opcode != OP_AFFINE or f["read"]:
            continue
        relu = i + 1 < len(ops) and ops[i + 1].opcode == OP_RELU
        if relu:
            ops[i + 1].fields["read"] = True
        conv = ops[i - 1].fields if i and ops[i - 1].opcode in (OP_CONV_Q, OP_CONV_F) else None
        if conv is not None and not conv.get("code_conv"):
            conv["epilogue"], f["read"] = (f["scale"], f["bias"], relu), True
        else:
            f["relu"] = relu


def _error(path, op: RuntimeOp, msg: str) -> ModelFormatError:
    """The error of a bad record of the file at `path`, naming its byte."""
    return ModelFormatError(f"{path}: record at byte {op.at}: {msg}")


def _span(recs: list[RuntimeOp], path, i: int, c: int, down: int, flat: bool,
          depth: int):
    """Bind records from i to the RES_SEP/RES_END ending the span, or the
    end; returns (ops, that index, the activation's end (c, down, flat)).
    A residual block binds each branch by a recursive call. It is a module
    function, not a closure of `_bind`: a closure that calls itself is a
    reference cycle, which would keep the records, and so an imported
    model's weights, alive until the garbage collector found the cycle."""
    ops, codes = [], None
    while i < len(recs) and recs[i].opcode not in (OP_RES_SEP, OP_RES_END):
        op = recs[i]
        code, f = op.opcode, op.fields
        conv = code in (OP_CONV_Q, OP_CONV_F)
        if conv and not (f["kernel"] in (1, 3) and f["stride"] == 1
                         and f["in_ch"] and f["out_ch"]):
            raise _error(path, op, "conv with kernel {kernel}, stride {stride} and "
                         "{in_ch} -> {out_ch} channels".format(**f))
        if code == OP_ACT_Q and f["m_a"] < 2:
            raise _error(path, op, f"ACT_Q with m_a {f['m_a']} (m_a must be >= 2)")
        if flat and code in (OP_CONV_Q, OP_CONV_F, OP_AFFINE, OP_AP2, OP_GAP):
            raise _error(path, op, "follows GAP, which flattened the activation")
        reads = f.get("in_ch", f.get("channels", c))  # what a conv or AFFINE reads
        if reads != c:
            raise _error(path, op, f"reads {reads} channels, its input has {c}")
        if code == OP_CONV_Q:  # on codes, the weight lattice; on values, the weights
            f["w"] = weight_lattice(f["states"], f["qscale"]) if codes \
                else _decode(f["states"], f["qscale"])
            f["code_conv"], f["divisor"] = codes, codes.divisor if codes else None
        if conv:
            f["epilogue"] = None
            c = f["out_ch"]
            dtype = codes.dtype if codes else np.float64
            f["w"] = _tap_major(f["w"], f["in_ch"], f["kernel"]).astype(dtype, copy=False)
            codes = None
        elif code == OP_AFFINE:
            f["read"], f["relu"] = False, False
        elif code == OP_RELU:
            f["read"] = False
        elif code == OP_ACT_Q:
            codes = _codes_reader(recs, i)
            f["codes"] = codes.dtype if codes else None
            f["affine"], f["fold"] = _read_affine(ops, f["m_a"])
        elif code == OP_AP2:
            down *= 2
        elif code == OP_GAP:
            flat = True
        elif code == OP_RES_BEGIN:
            if depth == _MAX_NESTING:
                raise _error(path, op,
                             f"residual blocks nested deeper than {_MAX_NESTING}")
            ends = []
            for name, marker in (("s", OP_RES_SEP), ("f", OP_RES_END)):
                f[name], i, branch_end = _span(recs, path, i + 1, c, down, flat, depth + 1)
                if i == len(recs) or recs[i].opcode != marker:
                    raise _error(path, op,
                                 "malformed residual block: no RES_SEP/RES_END")
                ends.append(branch_end)
            if ends[0] != ends[1]:
                raise _error(path, op, f"residual branches end in (channels, "
                             f"downsampling, flat) {ends[0]} and {ends[1]}")
            c, down, flat = ends[0]
            f["end"] = _fold_ends(f["s"], f["f"])
            _fuse(f["s"])
            _fuse(f["f"])
        ops.append(op)
        i += 1
    return ops, i, (c, down, flat)


def _bind(recs: list[RuntimeOp], class_count: int, path, end: int):
    """The one walk of `import_model` over the parsed records; returns (bound
    ops, input channel count). The input has the channels of the first conv
    or AFFINE record, since no other op changes them."""
    in_ch = next((op.fields.get("in_ch", op.fields.get("channels")) for op in recs
                  if op.opcode in (OP_CONV_Q, OP_CONV_F, OP_AFFINE)), class_count)
    ops, i, (c, _, flat) = _span(recs, path, 0, in_ch, 1, False, 0)
    if i < len(recs):
        raise _error(path, recs[i], "malformed residual block: no RES_BEGIN opens it")
    _fuse(ops)
    if not flat or c != class_count:
        raise ModelFormatError(f"{path}: the stream ends at byte {end} in {c} channels"
                               f"{'' if flat else ' before GAP'}, not {class_count} logits")
    return ops, in_ch


def import_model(path) -> RuntimeModel:
    """Parse an exported model file and compile it into the bound ops that
    `runtime_infer` runs; a defect raises ModelFormatError naming its byte."""
    data = Path(path).read_bytes()
    r = _Reader(data, path)
    if r.take(4) != MAGIC:
        raise ModelFormatError(f"{path}: bad magic at byte 0, expected {MAGIC!r}")
    (version,) = r.unpack("<H")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format version {version}")
    (arch_len,) = r.unpack("<B")
    arch_at = r.offset
    try:
        arch = r.take(arch_len).decode("ascii")
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"{path}: non-ASCII arch name at byte "
                               f"{arch_at + e.start}") from None
    (class_count,) = r.unpack("<H")
    quant_at = r.offset
    present, m_w, m_a, mode_code, s, alpha = r.unpack("<BHHBdd")
    if mode_code not in _QSCALE_MODE_FROM_CODE:
        raise ModelFormatError(f"{path}: unknown qscale mode code {mode_code} at "
                               f"byte {quant_at + _QUANT_FIELD_AT['qscale_mode']}")
    quant = None
    if present:
        try:
            quant = QuantConfig(m_w=m_w, m_a=m_a, s=s, alpha=alpha,
                                qscale_mode=_QSCALE_MODE_FROM_CODE[mode_code])
        except ValueError as e:
            # QuantConfig's messages start with the name of the bad field
            at = quant_at + _QUANT_FIELD_AT.get(str(e).split()[0], 0)
            raise ModelFormatError(f"{path}: invalid quant block at byte {at}: "
                                   f"{e}") from None
    (record_count,) = r.unpack("<I")
    recs = [_parse_op(r) for _ in range(record_count)]
    if r.offset != len(data):
        raise ModelFormatError(f"{path}: {len(data) - r.offset} trailing bytes at "
                               f"byte {r.offset}")
    ops, in_ch = _bind(recs, class_count, path, len(data))
    return RuntimeModel(arch=arch, class_count=class_count, quant=quant, ops=ops,
                        in_ch=in_ch)


def _run_conv(op: RuntimeOp, x: np.ndarray) -> np.ndarray:
    """Cross-correlation of x, in the conv's dtype, with its bound tap-major
    matrix: a code-reading CONV_Q's integer lattice (so the result is in
    units of 1/(2*qscale)), or the weights of another CONV_Q or a CONV_F,
    with its "epilogue" (see `_fuse`) on each block. It is the trainer's
    blocked conv, building each block's patch matrix with this module's
    `_im2col`."""
    f = op.fields
    return _conv(x, f["w"], f["kernel"], _im2col, f["epilogue"])


def runtime_infer(model: RuntimeModel, images: np.ndarray) -> np.ndarray:
    """Forward pass over the bound ops; returns (n, class_count) float64
    logits. Activations are float64 values, or codes from an ACT_Q to the
    CONV_Q that reads them (see the module docstring)."""
    if images.ndim != 4 or images.shape[1] != model.in_ch:
        raise ValueError(f"expected (n, {model.in_ch}, h, w) images with {model.in_ch} "
                         f"channels, got shape {images.shape}")
    return _run_ops(model.ops, images.astype(np.float64))


def _run_act(op: RuntimeOp, x: np.ndarray) -> np.ndarray:
    """An ACT_Q: compares on the code sums of a folded pair, else the
    quantizer, which runs the AFFINE that the ACT_Q reads in its pass. A
    quantizer input that is not finite raises a ValueError naming the
    record's byte."""
    f, fold = op.fields, op.fields["fold"]
    m_a, top = f["m_a"], f["m_a"] - 1
    if fold is not None:
        k = quantize_activation(x, m_a, fold.thresholds)
        if fold.flip is not None:  # top - k there, as k * -1 + top in k's wrapping uints
            k *= _tile(np.where(fold.flip, -1, 1), k)
            k += _tile(np.where(fold.flip, top, 0), k)
        # k / top in float64 is bitwise the quantizer's value
        return k.astype(f["codes"]) if f["codes"] is not None else \
            np.divide(k, top, dtype=np.float64)
    try:
        return quantize_activation(x, m_a, codes=f["codes"], affine=f["affine"])
    except ValueError as e:
        raise ValueError(f"ACT_Q record at byte {op.at}: {e}") from None


def _run_ops(ops: list[RuntimeOp], x: np.ndarray) -> np.ndarray:
    for op in ops:
        code, f = op.opcode, op.fields
        if code == OP_CONV_Q:
            x = _run_conv(op, x)
            if f["divisor"] is not None:  # else values, or sums a fold or block end reads
                x = _code_divide(x, f["divisor"], np.float64)
        elif code == OP_CONV_F:
            x = _run_conv(op, x)
        elif code == OP_AFFINE:
            if not f["read"]:  # else its ACT_Q, its conv or its block's end runs it
                x = affine(x, f["scale"], f["bias"], f["relu"])
        elif code == OP_ACT_Q:
            x = _run_act(op, x)
        elif code == OP_RELU:
            if not f["read"]:  # else its conv or its AFFINE runs it
                x = np.maximum(x, 0.0)
        elif code == OP_AP2:
            x = _avg_pool2(x)
        elif code == OP_GAP:
            x = _global_avg_pool(x)
        else:  # OP_RES_BEGIN
            s, fb = _run_ops(f["s"], x), _run_ops(f["f"], x)
            x = s + fb if f["end"] is None else _block_end(s, fb, f["end"], np.float64)
    return x


@dataclass
class ParityReport:
    max_abs_logit_diff: float
    argmax_agreement: float
    samples: int


def parity_check(graph: ModelGraph, model: RuntimeModel, images: np.ndarray,
                 batch_size: int = 100) -> ParityReport:
    """Compare trainer EVAL logits with runtime logits on the same images;
    no images is a ValueError."""
    n = images.shape[0]
    if n == 0:
        raise ValueError("parity check on no images")
    max_diff = 0.0
    agree = 0
    for start in range(0, n, batch_size):
        xb = images[start:start + batch_size]
        ref = graph.forward(xb, Mode.EVAL).astype(np.float64)
        out = runtime_infer(model, xb)
        max_diff = max(max_diff, float(np.max(np.abs(ref - out))))
        agree += int(np.sum(np.argmax(ref, axis=1) == np.argmax(out, axis=1)))
    return ParityReport(max_abs_logit_diff=max_diff, argmax_agreement=agree / n,
                        samples=n)
