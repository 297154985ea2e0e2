"""Quantized model export format, its import and the folded-normalization runtime.

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
run in float64.

`import_model` checks the records in one walk. It tracks the channels, the
downsampling and whether GAP has flattened the activation. A
ModelFormatError naming its byte rejects an AFFINE scale or bias or a
CONV_F weight that is not finite (the export refuses to write one), and
one naming the record's byte rejects a conv whose kernel is not 1 or 3,
whose stride byte is not 1, or with 0 channels; an ACT_Q with m_a < 2; a
conv or AFFINE whose channels are not its input's; a conv, AFFINE, AP2 or
second GAP after GAP; residual branches that end in different channels,
downsampling or flattening; an unbalanced residual marker; residual blocks
nested deeper than 64; and a stream that does not end in (class_count)
logits. The runtime then checks only the shape of its input; a quantizer
input that is NaN, inf or overflows raises a ValueError naming the ACT_Q
record's byte.

The import builds the trainer's leaves from the records and links them by
`network._link` and `ResidualBlock`, so `runtime_infer` is their EVAL
forward in float64, every EVAL rule that of the `network` module
docstring, and for a float64 graph on float64 images its logits are
bitwise `graph.forward(images, Mode.EVAL)`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import (ActQuant, AvgPool2, Conv2d, GlobalAvgPool, ModelGraph, NormLayer, ReLU,
                      ResidualBlock, _conv, _forward, _im2col, _link, _tap_major, _walk)
from .normalization import Mode, fold_normalization
from .quantizer import (QScaleMode, QuantConfig, lattice_states, quantize_activation,
                        weight_lattice)

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
    layers: list  # the trainer's leaves and residual blocks, linked by `network._link`
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


class _Conv(Conv2d):
    """The conv of a CONV_Q or CONV_F record. It holds, in place of a
    weight, the EVAL operand its record fixes (`bind`), and has no TRAIN
    mode."""

    dtype = np.dtype(np.float64)  # of its values

    def __init__(self, f: dict):
        self.in_ch, self.out_ch, self.kernel = f["in_ch"], f["out_ch"], f["kernel"]
        self.padding = self.kernel // 2
        self.qscale = f.get("qscale")
        self.w = f["w"] if self.qscale is None else f["states"]  # until `bind`

    def bind(self):
        """Turn the record's states or weights into the tap-major operand,
        once `_link` has placed the conv: a CONV_Q's weight lattice in the
        dtype of its CodeConv where it reads codes, else its weights
        clamp(state/qscale, -1, 1), bitwise the float64 effective weight; a
        CONV_F's weights."""
        w, q = self.w, self.qscale
        if q is not None:
            w = _decode(w, q) if self.codes is None else weight_lattice(w, q)
        dtype = self.dtype if self.codes is None else self.codes.dtype
        self.w = _tap_major(w, self.in_ch, self.kernel).astype(dtype, copy=False)

    def _eval_conv(self, x, epilogue):
        return _run_conv(self, x, epilogue)


class _Affine(NormLayer):
    """The norm of an AFFINE record, whose EVAL affine is the record's."""

    foldable = True

    def __init__(self, f: dict):
        self.scale, self.bias = f["scale"], f["bias"]

    def eval_affine(self):
        return self.scale, self.bias


class _ActQ(ActQuant):
    """The activation quantizer of the ACT_Q record at byte `at` of its
    file. Its passes run this module's `quantize_activation`; an input that
    is NaN, inf or overflows is a ValueError naming the record's byte."""

    def __init__(self, m_a: int, at: int):
        super().__init__(QuantConfig(m_a=m_a))  # of which EVAL reads m_a alone
        self.at = at

    def _quantize(self, x, *args, **kwargs):
        try:
            return quantize_activation(x, *args, **kwargs)
        except ValueError as e:
            raise ValueError(f"ACT_Q record at byte {self.at}: {e}") from None


def _error(path, op: RuntimeOp, msg: str) -> ModelFormatError:
    """The error of a bad record of the file at `path`, naming its byte."""
    return ModelFormatError(f"{path}: record at byte {op.at}: {msg}")


def _span(recs: list[RuntimeOp], path, i: int, c: int, down: int, flat: bool,
          depth: int):
    """Check records from i to the RES_SEP/RES_END ending the span, or the
    end, and build their leaves; returns (leaves, that index, the
    activation's end (c, down, flat)). A residual block builds each branch
    by a recursive call. It is a module function, not a closure of `_bind`:
    a closure that calls itself is a reference cycle, which would keep the
    records, and so an imported model's weights, alive until the garbage
    collector found the cycle."""
    layers = []
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
        if conv:
            c, layer = f["out_ch"], _Conv(f)
        elif code == OP_AFFINE:
            layer = _Affine(f)
        elif code == OP_ACT_Q:
            layer = _ActQ(f["m_a"], op.at)
        elif code == OP_RELU:
            layer = ReLU()
        elif code == OP_AP2:
            down, layer = down * 2, AvgPool2()
        elif code == OP_GAP:
            flat, layer = True, GlobalAvgPool()
        else:  # OP_RES_BEGIN
            if depth == _MAX_NESTING:
                raise _error(path, op,
                             f"residual blocks nested deeper than {_MAX_NESTING}")
            branches, ends = [], []
            for marker in (OP_RES_SEP, OP_RES_END):
                branch, i, branch_end = _span(recs, path, i + 1, c, down, flat, depth + 1)
                if i == len(recs) or recs[i].opcode != marker:
                    raise _error(path, op,
                                 "malformed residual block: no RES_SEP/RES_END")
                branches.append(branch)
                ends.append(branch_end)
            if ends[0] != ends[1]:
                raise _error(path, op, f"residual branches end in (channels, "
                             f"downsampling, flat) {ends[0]} and {ends[1]}")
            c, down, flat = ends[0]
            layer = ResidualBlock(*branches)
        layers.append(layer)
        i += 1
    return layers, i, (c, down, flat)


def _bind(recs: list[RuntimeOp], class_count: int, path, end: int):
    """The one walk of `import_model` over the parsed records; returns (the
    linked leaves, input channel count). The input has the channels of the
    first conv or AFFINE record, since no other op changes them. Once
    `_link` has placed each leaf, each conv takes its operand and each
    ActQuant that folds makes its fold, for the model's life."""
    in_ch = next((op.fields.get("in_ch", op.fields.get("channels")) for op in recs
                  if op.opcode in (OP_CONV_Q, OP_CONV_F, OP_AFFINE)), class_count)
    layers, i, (c, _, flat) = _span(recs, path, 0, in_ch, 1, False, 0)
    if i < len(recs):
        raise _error(path, recs[i], "malformed residual block: no RES_BEGIN opens it")
    if not flat or c != class_count:
        raise ModelFormatError(f"{path}: the stream ends at byte {end} in {c} channels"
                               f"{'' if flat else ' before GAP'}, not {class_count} logits")
    _link(layers)
    for leaf in _walk(layers):
        if isinstance(leaf, _Conv):
            leaf.bind()
        elif isinstance(leaf, _ActQ) and leaf.folds is not None:
            leaf._kept_fold(leaf.folds.dtype, leaf.norm.eval_affine())
    return layers, in_ch


def import_model(path) -> RuntimeModel:
    """Parse an exported model file and build the trainer's leaves that
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
    layers, in_ch = _bind(recs, class_count, path, len(data))
    return RuntimeModel(arch=arch, class_count=class_count, quant=quant, layers=layers,
                        in_ch=in_ch)


def _run_conv(conv: _Conv, x: np.ndarray, epilogue=None) -> np.ndarray:
    """An imported conv's EVAL conv: the trainer's blocked `_conv` of x with
    its bound operand and the `epilogue`, building each block's patch
    matrix with this module's `_im2col`."""
    return _conv(x, conv.w, conv.kernel, _im2col, epilogue)


def runtime_infer(model: RuntimeModel, images: np.ndarray) -> np.ndarray:
    """The (n, class_count) float64 logits of the model's leaves' EVAL
    forward on the images in float64, the trainer's walk (see the module
    docstring)."""
    if images.ndim != 4 or images.shape[1] != model.in_ch:
        raise ValueError(f"expected (n, {model.in_ch}, h, w) images with {model.in_ch} "
                         f"channels, got shape {images.shape}")
    return _forward(model.layers, images.astype(np.float64), Mode.EVAL, None)


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
