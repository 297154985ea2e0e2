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

Normalization layers are folded into per-channel affine constants from
their running statistics, so the runtime never computes statistics; its
EVAL forward is numerically equivalent to the trainer's.

The runtime computes quantized convs on integers. After an ACT_Q the
activation is its codes k in 0..m_a-1 (value k/(m_a-1)), and a CONV_Q
weight is the lattice integer clip(2*state, -2q, 2q) with 2q = 2*qscale
(value lattice/2q), so each conv sum is an integer, or after p 2x2 pools an
integer multiple of 4**-p. Its magnitude is at most
fan_in * 2q * (m_a-1), so while fan_in * 2q * (m_a-1) * 4**p < 2**24 a
float32 GEMM computes it exactly, in any order of accumulation; past that
bound the same codes go through a float64 GEMM. The sums are then divided by
(m_a-1) * 2q in float64, so the logits differ from the trainer's float64
EVAL forward by float64 rounding alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import (ActQuant, AvgPool2, Conv2d, GlobalAvgPool, ModelGraph,
                      NormLayer, ReLU, ResidualBlock, _avg_pool2, _im2col,
                      _tap_major)
from .normalization import Mode, WSState, fold_normalization, weight_standardize
from .quantizer import (QScaleMode, QuantConfig, quantize_activation,
                        quantize_weight, round_half_away)

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

    States beyond +-qscale all decode to the clip endpoints; they are capped
    at ceil(qscale) so the decode is exact and fits in an int16.
    """
    if conv.quant is None:
        raise ValueError("conv layer is not weight-quantized")
    q = conv.quant.weight_qscale
    w2d = conv.weight.data.reshape(conv.out_ch, -1).astype(np.float64)
    if conv.weight_standardized:
        w2d, _ = weight_standardize(WSState(w2d, eps=conv.ws_eps))
    raw_states = round_half_away(q * conv.quant.s * w2d)
    cap = int(np.ceil(q))
    states = np.clip(raw_states, -cap, cap).astype(np.int16)
    # decode must reproduce the quantized weights exactly (at 64-bit)
    decoded = np.clip(states.astype(np.float64) / q, -1.0, 1.0)
    if not np.array_equal(decoded, quantize_weight(w2d, conv.quant)):
        raise AssertionError("state encoding does not reproduce forward weights")
    return states, q


@dataclass
class RuntimeOp:
    opcode: int
    fields: dict = field(default_factory=dict)


@dataclass
class RuntimeModel:
    arch: str
    class_count: int
    quant: QuantConfig | None
    ops: list[RuntimeOp]


def _record(opcode: int, payload: bytes = b"") -> bytes:
    return struct.pack("<BI", opcode, len(payload)) + payload


def _conv_records(conv: Conv2d) -> bytes:
    head = struct.pack("<HHBB", conv.out_ch, conv.in_ch, conv.kernel, conv.stride)
    if conv.quant is not None:
        states, q = weight_states(conv)
        payload = head + struct.pack("<d", q) + states.astype("<i2").tobytes()
        return _record(OP_CONV_Q, payload)
    w2d = conv.weight.data.reshape(conv.out_ch, -1).astype(np.float64)
    if conv.weight_standardized:
        w2d, _ = weight_standardize(WSState(w2d, eps=conv.ws_eps))
    payload = head + w2d.astype("<f8").tobytes()
    return _record(OP_CONV_F, payload)


def _layer_records(layer) -> bytes:
    if isinstance(layer, Conv2d):
        return _conv_records(layer)
    if isinstance(layer, NormLayer):
        scale, bias = fold_normalization(layer.state)
        payload = struct.pack("<H", scale.size) + scale.astype("<f8").tobytes() \
            + bias.astype("<f8").tobytes()
        return _record(OP_AFFINE, payload)
    if isinstance(layer, ActQuant):
        return _record(OP_ACT_Q, struct.pack("<H", layer.cfg.m_a))
    if isinstance(layer, ReLU):
        return _record(OP_RELU)
    if isinstance(layer, AvgPool2):
        return _record(OP_AP2)
    if isinstance(layer, GlobalAvgPool):
        return _record(OP_GAP)
    if isinstance(layer, ResidualBlock):
        out = _record(OP_RES_BEGIN)
        for l in layer.s_branch:
            out += _layer_records(l)
        out += _record(OP_RES_SEP)
        for l in layer.f_branch:
            out += _layer_records(l)
        out += _record(OP_RES_END)
        return out
    raise TypeError(f"cannot export layer of type {type(layer).__name__}")


def _count_records(blob: bytes) -> int:
    count = 0
    offset = 0
    while offset < len(blob):
        _, length = struct.unpack_from("<BI", blob, offset)
        offset += 5 + length
        count += 1
    return count


def export(graph: ModelGraph, path) -> None:
    """Serialize a trained graph; import(export(g)) reproduces all runtime
    parameters bitwise."""
    body = b"".join(_layer_records(layer) for layer in graph.layers)
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
    header += struct.pack("<I", _count_records(body))
    Path(path).write_bytes(header + body)


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


def _parse_op(r: _Reader) -> RuntimeOp:
    opcode, length = r.unpack("<BI")
    start = r.offset
    if opcode == OP_CONV_Q:
        out_ch, in_ch, k, stride = r.unpack("<HHBB")
        qscale_at = r.offset
        (qscale,) = r.unpack("<d")
        two_q = 2.0 * qscale
        if not (np.isfinite(two_q) and two_q >= 1 and two_q == int(two_q)):
            raise ModelFormatError(f"{r.path}: CONV_Q qscale {qscale} at byte {qscale_at}: "
                                   f"2*qscale must be a positive integer")
        n = out_ch * in_ch * k * k
        states = np.frombuffer(r.take(2 * n), dtype="<i2").reshape(out_ch, in_ch * k * k)
        lattice = np.clip(2.0 * states, -two_q, two_q)  # weight values * 2q, integers
        op = RuntimeOp(opcode, dict(out_ch=out_ch, in_ch=in_ch, kernel=k,
                                    stride=stride, qscale=qscale, states=states,
                                    lattice=_tap_major(lattice, in_ch, k).astype(np.float32)))
    elif opcode == OP_CONV_F:
        out_ch, in_ch, k, stride = r.unpack("<HHBB")
        n = out_ch * in_ch * k * k
        weights = np.frombuffer(r.take(8 * n), dtype="<f8").reshape(out_ch, in_ch * k * k)
        op = RuntimeOp(opcode, dict(out_ch=out_ch, in_ch=in_ch, kernel=k,
                                    stride=stride, weights=weights))
    elif opcode == OP_AFFINE:
        (c,) = r.unpack("<H")
        scale = np.frombuffer(r.take(8 * c), dtype="<f8")
        bias = np.frombuffer(r.take(8 * c), dtype="<f8")
        op = RuntimeOp(opcode, dict(channels=c, scale=scale, bias=bias))
    elif opcode == OP_ACT_Q:
        (m_a,) = r.unpack("<H")
        op = RuntimeOp(opcode, dict(m_a=m_a))
    elif opcode in (OP_RELU, OP_AP2, OP_GAP, OP_RES_BEGIN, OP_RES_SEP, OP_RES_END):
        op = RuntimeOp(opcode)
    else:
        raise ModelFormatError(f"{r.path}: unknown opcode {opcode} at byte {r.offset - 5}")
    if r.offset - start != length:
        raise ModelFormatError(
            f"{r.path}: record length mismatch at byte {start} (declared {length}, "
            f"read {r.offset - start})")
    return op


def import_model(path) -> RuntimeModel:
    """Parse and validate an exported model file."""
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
    ops = []
    for _ in range(record_count):
        ops.append(_parse_op(r))
    if r.offset != len(data):
        raise ModelFormatError(f"{path}: {len(data) - r.offset} trailing bytes at "
                               f"byte {r.offset}")
    return RuntimeModel(arch=arch, class_count=class_count, quant=quant, ops=ops)


def _run_conv(op: RuntimeOp, x: np.ndarray) -> np.ndarray:
    """Cross-correlation of x in x's dtype: with a CONV_Q's integer lattice
    (so the result is in units of 1/(2*qscale)) or with a CONV_F's weights."""
    k, stride = op.fields["kernel"], op.fields["stride"]
    pad = 1 if k == 3 else 0
    if x.shape[1] != op.fields["in_ch"]:
        raise ValueError(f"expected {op.fields['in_ch']} channels, got {x.shape[1]}")
    cols, ho, wo = _im2col(x, k, stride, pad)
    if op.opcode == OP_CONV_Q:
        w = op.fields["lattice"].astype(x.dtype, copy=False)
    else:
        w = _tap_major(op.fields["weights"], op.fields["in_ch"], k)
    y = cols @ w.T
    return np.ascontiguousarray(
        y.reshape(x.shape[0], ho, wo, op.fields["out_ch"]).transpose(0, 3, 1, 2))


_F32_EXACT = 2 ** 24  # float32 holds every integer up to this magnitude


def _value(x: np.ndarray, top) -> np.ndarray:
    """The float64 value of a runtime activation: x itself, or x / top while
    x holds ACT_Q codes."""
    return x if top is None else np.divide(x, top, dtype=np.float64)


def runtime_infer(model: RuntimeModel, images: np.ndarray) -> np.ndarray:
    """Forward pass over the opcode stream; returns (n, class_count) logits.

    Activations are float64 values, except between an ACT_Q and the CONV_Q
    that reads it: there x holds the integer codes 0..m_a-1 in float32 (value
    x / top, top = m_a-1), AP2 pools them as they are, and the CONV_Q
    multiplies them by its integer lattice, in float32 within the bound of
    the module docstring and in float64 otherwise, then divides the sums by
    top * 2*qscale. Any other op first takes the float64 value x / top.
    """

    def run_span(x, i):
        """Execute ops from i until RES_SEP/RES_END/end; returns (x, next i).
        While x holds codes pooled p times, `bound` is (m_a-1) * 4**p."""
        ops = model.ops
        top = bound = None
        while i < len(ops):
            op = ops[i]
            code = op.opcode
            if code not in (OP_CONV_Q, OP_AP2):
                x, top = _value(x, top), None
            if code == OP_CONV_Q:
                two_q = 2.0 * op.fields["qscale"]
                fan_in = op.fields["in_ch"] * op.fields["kernel"] ** 2
                exact32 = top is not None and fan_in * two_q * bound < _F32_EXACT
                y = _run_conv(op, x.astype(np.float32 if exact32 else np.float64, copy=False))
                x, top = np.divide(y, two_q * (top or 1), dtype=np.float64), None
            elif code == OP_CONV_F:
                x = _run_conv(op, x)
            elif code == OP_AFFINE:
                c = op.fields["channels"]
                if x.ndim != 4 or x.shape[1] != c:
                    raise ModelFormatError(f"AFFINE record {i} has {c} channels, its "
                                           f"input has shape {x.shape}")
                x = x * op.fields["scale"].reshape(1, -1, 1, 1)
                x += op.fields["bias"].reshape(1, -1, 1, 1)
            elif code == OP_ACT_Q:
                top = op.fields["m_a"] - 1
                q = quantize_activation(x, op.fields["m_a"])
                q *= top  # float64, so the float32 codes come out exact
                x, bound = q.astype(np.float32), top
            elif code == OP_RELU:
                x = np.maximum(x, 0.0)
            elif code == OP_AP2:
                if top is not None and 4 * bound < _F32_EXACT:
                    bound *= 4  # a 2x2 mean of codes is exact in float32
                else:
                    x, top = _value(x, top), None
                x = _avg_pool2(x)
            elif code == OP_GAP:
                x = np.mean(x, axis=(2, 3))
            elif code == OP_RES_BEGIN:
                ys, i = run_span(x, i + 1)
                if i == len(ops) or ops[i].opcode != OP_RES_SEP:
                    raise ModelFormatError("malformed residual block")
                yf, i = run_span(x, i + 1)
                if i == len(ops) or ops[i].opcode != OP_RES_END:
                    raise ModelFormatError("malformed residual block")
                x = ys + yf
            elif code in (OP_RES_SEP, OP_RES_END):
                return x, i
            else:
                raise ModelFormatError(f"unexpected opcode {code}")
            i += 1
        return _value(x, top), i

    logits, i = run_span(images.astype(np.float64), 0)
    if i != len(model.ops):  # a RES_SEP/RES_END outside any block
        raise ModelFormatError("malformed residual block")
    if logits.shape != (images.shape[0], model.class_count):
        raise ModelFormatError(f"the stream ends in shape {logits.shape}, not "
                               f"({images.shape[0]}, {model.class_count}) logits")
    return logits


@dataclass
class ParityReport:
    max_abs_logit_diff: float
    argmax_agreement: float
    samples: int


def parity_check(graph: ModelGraph, model: RuntimeModel, images: np.ndarray,
                 batch_size: int = 100) -> ParityReport:
    """Compare trainer EVAL logits with runtime logits on the same images."""
    max_diff = 0.0
    agree = 0
    n = images.shape[0]
    for start in range(0, n, batch_size):
        xb = images[start:start + batch_size]
        ref = graph.forward(xb, Mode.EVAL).astype(np.float64)
        out = runtime_infer(model, xb)
        max_diff = max(max_diff, float(np.max(np.abs(ref - out))))
        agree += int(np.sum(np.argmax(ref, axis=1) == np.argmax(out, axis=1)))
    return ParityReport(max_abs_logit_diff=max_diff, argmax_agreement=agree / n,
                        samples=n)


@dataclass
class OpCount:
    layer_index: int
    mults: int
    adds: int
    add_only_mults: int  # multiply count under the {0, 1}-activation convention


def opcount_report(model: RuntimeModel, input_hw: tuple[int, int]) -> list[OpCount]:
    """Per-conv operation counts, skipping zero weight states. When the
    incoming activation lattice is binary (m_a = 2), multiplications
    degenerate and the add-only multiply count is zero."""
    h, w = input_hw
    counts = []
    incoming_m_a = None  # None: real-valued input
    idx = 0
    for op in model.ops:
        if op.opcode in (OP_CONV_Q, OP_CONV_F):
            k, stride = op.fields["kernel"], op.fields["stride"]
            pad = 1 if k == 3 else 0
            ho = (h + 2 * pad - k) // stride + 1
            wo = (w + 2 * pad - k) // stride + 1
            w = op.fields["states" if op.opcode == OP_CONV_Q else "weights"]
            nnz = int(np.count_nonzero(w))
            macs = nnz * ho * wo
            add_only = 0 if incoming_m_a == 2 else macs
            counts.append(OpCount(layer_index=idx, mults=macs, adds=macs,
                                  add_only_mults=add_only))
            h, w = ho, wo
            idx += 1
        elif op.opcode == OP_ACT_Q:
            incoming_m_a = op.fields["m_a"]
        elif op.opcode == OP_RELU:
            incoming_m_a = None
        elif op.opcode == OP_AP2:
            h, w = h // 2, w // 2
        elif op.opcode == OP_GAP:
            h = w = 1
    return counts
