import re
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maqd.export as export_mod
import maqd.network as network_mod
from maqd.export import (FORMAT_VERSION, MAGIC, OP_ACT_Q, OP_AFFINE, OP_AP2,
                         OP_CONV_F, OP_CONV_Q, OP_GAP, OP_RELU, OP_RES_BEGIN,
                         OP_RES_END, OP_RES_SEP, ModelFormatError, export,
                         fold_normalization, import_model, parity_check,
                         runtime_infer, weight_states)
from maqd.network import (ActQuant, AvgPool2, Conv2d, GlobalAvgPool,
                          ModelGraph, NormLayer, ResidualBlock, _tap_major,
                          build_model)
from maqd.normalization import Mode, NormKind, NormLayerState, \
    norm_forward, weight_standardize
from maqd.quantizer import QScaleMode, QuantConfig, quantize_weight, round_half_away
from maqd.training import compute_r_w

CFG = QuantConfig(m_w=15, m_a=8)


def tiny_graph(quant=CFG, norm_kind=NormKind.LBN, seed=0):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(1, 2, 3, rng=rng, quant=quant),
        NormLayer(norm_kind, 2),
        ActQuant(quant) if quant else GlobalAvgPool(),  # placeholder never hit
        AvgPool2(),
        Conv2d(2, 3, 1, rng=rng, quant=quant),
        GlobalAvgPool(),
    ]
    return ModelGraph(layers, "tiny", 3, quant, norm_kind)


def warm_up(graph, steps=3, n=4, hw=8, in_ch=1, seed=1):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        graph.forward(rng.normal(size=(n, in_ch, hw, hw)), Mode.TRAIN)


def rec(opcode, payload=b""):
    return struct.pack("<BI", opcode, len(payload)) + payload


def conv_f(in_ch, out_ch, kernel=1, stride=1):
    """A CONV_F record with all-ones weights."""
    head = struct.pack("<HHBB", out_ch, in_ch, kernel, stride)
    return rec(OP_CONV_F, head + np.ones(out_ch * in_ch * kernel * kernel).tobytes())


def affine(c):
    return rec(OP_AFFINE, struct.pack("<H", c) + np.ones(c).tobytes() + np.zeros(c).tobytes())


def write_stream(tmp_path, records, class_count=2):
    """A float model file named "x" holding `records`; returns its path and
    the byte offset of each record."""
    blob = MAGIC + struct.pack("<HB", FORMAT_VERSION, 1) + b"x"
    blob += struct.pack("<H", class_count)
    blob += struct.pack("<BHHBdd", 0, 3, 2, 0, 1 / 3, 0.25)
    blob += struct.pack("<I", len(records))
    offsets = []
    for record in records:
        offsets.append(len(blob))
        blob += record
    path = tmp_path / "s.maqd"
    path.write_bytes(blob)
    return path, offsets


class TestFoldNormalization:
    @pytest.mark.parametrize("kind", [NormKind.BN, NormKind.LBN])
    def test_matches_eval_forward(self, kind):
        rng = np.random.default_rng(2)
        st = NormLayerState.create(kind, 3)
        st.g[:] = rng.normal(size=3)
        st.b[:] = rng.normal(size=3)
        for _ in range(5):
            norm_forward(rng.normal(size=(4, 3, 2, 2)), st, Mode.TRAIN)
        x = rng.normal(size=(2, 3, 2, 2))
        y_eval, _ = norm_forward(x, st, Mode.EVAL)
        scale, bias = fold_normalization(st)
        y_fold = x * scale.reshape(1, 3, 1, 1) + bias.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(y_fold, y_eval, atol=1e-12)

    def test_ln_refuses_to_fold(self):
        st = NormLayerState.create(NormKind.LN, 2)
        with pytest.raises(ValueError):
            fold_normalization(st)

    def test_fresh_state_is_identity(self):
        st = NormLayerState.create(NormKind.BN, 2)
        scale, bias = fold_normalization(st)
        np.testing.assert_allclose(scale, 1 / np.sqrt(1 + st.eps), atol=1e-12)
        np.testing.assert_allclose(bias, 0.0, atol=1e-12)


class TestWeightStates:
    def test_states_are_capped_int16(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(2, 4, 3, rng=rng, weight_standardized=False, quant=CFG)
        conv.weight.data *= 100  # force saturation (WS would undo the scaling)
        states, q = weight_states(conv)
        assert states.dtype == np.int16
        assert np.max(np.abs(states)) == int(np.ceil(q))
        assert q == CFG.weight_qscale

    def test_decode_reproduces_quantizer(self):
        rng = np.random.default_rng(4)
        conv = Conv2d(3, 2, 3, rng=rng, quant=CFG)
        states, q = weight_states(conv)
        decoded = np.clip(states.astype(np.float64) / q, -1, 1)
        w2d = conv.weight.data.reshape(2, -1).astype(np.float64)
        w2d, _ = weight_standardize(w2d)
        np.testing.assert_array_equal(decoded, quantize_weight(w2d, CFG))

    def test_lattice_ties_export_with_parity(self, tmp_path):
        # at M_w 15 (qscale q 7.5) and s 1/3, q * (s * 0.6) is just below 1.5
        # and rounds to 1, while (q * s) * 0.6 is 1.5 and rounds away to 2
        # (likewise 3.5 at 1.4): the states must follow the quantizer's
        # product order
        conv = Conv2d(1, 4, 1, rng=np.random.default_rng(6), weight_standardized=False,
                      quant=CFG)
        conv.weight.data[:, 0, 0, 0] = [0.6, -0.6, 1.4, -1.4]
        graph = ModelGraph([conv, GlobalAvgPool()], "ties", 4, CFG, NormKind.LBN)
        export(graph, tmp_path / "ties.maqd")
        model = import_model(tmp_path / "ties.maqd")
        states, q = weight_states(conv)
        decoded = np.clip(states.astype(np.float64) / q, -1, 1)
        np.testing.assert_array_equal(decoded,
                                      quantize_weight(conv.weight.data.reshape(4, 1), CFG))
        np.testing.assert_array_equal(model.ops[0].fields["states"], states)
        images = np.random.default_rng(7).normal(size=(5, 1, 3, 3))
        report = parity_check(graph, model, images, batch_size=5)
        assert report.max_abs_logit_diff < 1e-9 and report.argmax_agreement == 1.0

    def test_rejects_float_conv(self):
        conv = Conv2d(1, 1, 1, rng=np.random.default_rng(5), quant=None)
        with pytest.raises(ValueError):
            weight_states(conv)

    @pytest.mark.parametrize("case", ["saturated-half-mw", "saturated-half-mw-minus-one",
                                      "ties", "ws-float32"])
    def test_states_round_the_float64_effective_weight(self, case):
        rng = np.random.default_rng(8)
        if case == "ties":  # the weights of test_lattice_ties_export_with_parity
            conv = Conv2d(1, 4, 1, rng=rng, weight_standardized=False, quant=CFG)
            conv.weight.data[:, 0, 0, 0] = [0.6, -0.6, 1.4, -1.4]
        else:
            mode = QScaleMode.HALF_MW_MINUS_ONE if case.endswith("minus-one") \
                else QScaleMode.HALF_MW
            saturated = case.startswith("saturated")
            conv = Conv2d(3, 4, 3, rng=rng, weight_standardized=not saturated,
                          quant=QuantConfig(m_w=15, qscale_mode=mode),
                          dtype=np.float64 if saturated else np.float32)
            if saturated:  # s * w past the clip band: WS would undo the scaling
                conv.weight.data *= 100
        w_q = conv.effective_weight(np.float64)[0]
        assert w_q.dtype == np.float64
        states, q = weight_states(conv)
        np.testing.assert_array_equal(states, round_half_away(w_q * q))
        if case == "ties":
            np.testing.assert_array_equal(states[:, 0], [1, -1, 3, -3])
        if case.startswith("saturated"):  # the clip endpoints are hit
            assert np.max(states) == -np.min(states) == np.ceil(q)

    def test_conv_f_holds_the_float64_effective_weight(self, tmp_path):
        conv = Conv2d(2, 3, 3, rng=np.random.default_rng(9), quant=None, dtype=np.float32)
        export(ModelGraph([conv, GlobalAvgPool()], "float", 3, None, NormKind.LBN),
               tmp_path / "f.maqd")
        (op, _) = import_model(tmp_path / "f.maqd").ops
        np.testing.assert_array_equal(
            op.fields["w"], _tap_major(conv.effective_weight(np.float64)[0], 2, 3))


class TestSharedKernels:
    @pytest.mark.parametrize("kind", [NormKind.BN, NormKind.LBN])
    def test_runtime_affine_and_gap_are_the_trainer_kernels(self, tmp_path, monkeypatch,
                                                            kind):
        # the runtime returns only logits, so each kernel's output is read off
        # a spy, as test_avgpool_forward_matches_reshape_mean reads AP2's
        rng = np.random.default_rng(12)
        norm = NormLayer(kind, 3)
        st = norm.state
        st.g[...], st.b[...] = rng.normal(size=(2, 3))
        st.running_mean[...] = rng.normal(size=st.running_mean.shape)
        st.running_var[...] = rng.uniform(0.5, 2.0, size=st.running_var.shape)
        graph = ModelGraph([norm, GlobalAvgPool()], "kernels", 3, None, kind)
        export(graph, tmp_path / "k.maqd")
        seen = {}

        def spy(name):
            kernel = getattr(export_mod, name)

            def call(*args):
                seen[name] = kernel(*args)
                return seen[name]
            return call

        for name in ("affine", "_global_avg_pool"):
            monkeypatch.setattr(export_mod, name, spy(name))
        x = rng.normal(size=(4, 3, 6, 6))
        logits = runtime_infer(import_model(tmp_path / "k.maqd"), x)
        y = norm.forward(x, Mode.EVAL)
        np.testing.assert_array_equal(seen["affine"], y)
        np.testing.assert_array_equal(seen["_global_avg_pool"],
                                      GlobalAvgPool().forward(y, Mode.EVAL))
        np.testing.assert_array_equal(logits, graph.forward(x, Mode.EVAL))


class TestRoundTrip:
    def test_header_fields(self, tmp_path):
        graph = tiny_graph()
        warm_up(graph)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        assert model.arch == "tiny"
        assert model.class_count == 3
        assert model.quant == CFG

    def test_weights_and_affine_bitwise(self, tmp_path):
        graph = tiny_graph()
        warm_up(graph)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        convs = [op for op in model.ops if op.opcode == OP_CONV_Q]
        assert len(convs) == 2
        for op, conv in zip(convs, graph.conv_layers()):
            states, q = weight_states(conv)
            np.testing.assert_array_equal(op.fields["states"], states)
            assert op.fields["qscale"] == q
        (affine,) = [op for op in model.ops if op.opcode == OP_AFFINE]
        scale, bias = fold_normalization(graph.layers[1].state)
        np.testing.assert_array_equal(affine.fields["scale"], scale)
        np.testing.assert_array_equal(affine.fields["bias"], bias)

    def test_export_is_deterministic(self, tmp_path):
        graph = tiny_graph()
        warm_up(graph)
        export(graph, tmp_path / "a.maqd")
        export(graph, tmp_path / "b.maqd")
        assert (tmp_path / "a.maqd").read_bytes() == (tmp_path / "b.maqd").read_bytes()

    def test_file_size_closed_form(self, tmp_path):
        graph = tiny_graph()
        warm_up(graph)
        path = tmp_path / "m.maqd"
        export(graph, path)
        header = 4 + 2 + 1 + len("tiny") + 2 + struct.calcsize("<BHHBdd") + 4
        conv1 = 5 + 6 + 8 + 2 * (2 * 1 * 3 * 3)
        affine = 5 + 2 + 2 * 8 * 2
        act = 5 + 2
        ap2 = 5
        conv2 = 5 + 6 + 8 + 2 * (3 * 2 * 1 * 1)
        gap = 5
        assert path.stat().st_size == header + conv1 + affine + act + ap2 + conv2 + gap

    @pytest.mark.parametrize("bad", ["running_var", "b", "weight"])
    def test_non_finite_parameter_refuses_export(self, tmp_path, bad):
        # a file the import would refuse is never written
        quant = None if bad == "weight" else CFG
        graph = tiny_graph(quant=quant)
        norm, conv = graph.layers[1], graph.layers[4]
        if bad == "weight":
            conv.weight.data[1, 1] = np.nan
            match = r"layer 4 \(Conv2d\): its float weight is nan at index 2"
        else:
            getattr(norm.state, bad)[...] = np.inf if bad == "b" else np.nan
            what = "bias is inf" if bad == "b" else "scale is nan"
            match = rf"layer 1 \(NormLayer\): its folded affine {what} at index 0"
        path = tmp_path / "m.maqd"
        with pytest.raises(ValueError, match=match):
            export(graph, path)
        assert not path.exists()

    def test_ln_graph_refuses_export(self, tmp_path):
        graph = tiny_graph(norm_kind=NormKind.LN)
        warm_up(graph)
        with pytest.raises(ValueError):
            export(graph, tmp_path / "m.maqd")


class TestValidation:
    def _valid_file(self, tmp_path):
        graph = tiny_graph()
        warm_up(graph)
        path = tmp_path / "m.maqd"
        export(graph, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="magic"):
            import_model(path)

    def test_bad_version(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="version"):
            import_model(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(ModelFormatError, match=r"truncated at byte \d+"):
            import_model(path)

    def test_trailing_bytes(self, tmp_path):
        path = self._valid_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelFormatError, match="trailing"):
            import_model(path)

    def test_unknown_opcode(self, tmp_path):
        path, (at,) = write_stream(tmp_path, [rec(99)])
        with pytest.raises(ModelFormatError, match=f"unknown opcode 99 at byte {at}"):
            import_model(path)

    def test_non_ascii_arch_name_names_its_byte(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[7 + 2] = 0xE9  # third byte of the arch name "tiny"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="non-ASCII arch name at byte 9"):
            import_model(path)

    # field, its offset in the "<BHHBdd" quant block, its format, a bad value
    @pytest.mark.parametrize("field,offset,fmt,value", [
        ("m_w", 1, "<H", 4), ("m_w", 1, "<H", 65535), ("alpha", 14, "<d", np.inf),
        ("s", 6, "<d", 1e200)],
        ids=["even-m_w", "m_w-past-int16-states", "infinite-alpha",
             "s-overflowing-float32-weights"])
    def test_invalid_quant_field_names_its_byte(self, tmp_path, field, offset, fmt, value):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        at = 7 + len("tiny") + 2 + offset
        struct.pack_into(fmt, data, at, value)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError,
                           match=rf"quant block at byte {at}: {field} must be .*, "
                                 rf"got {re.escape(str(value))}"):
            import_model(path)

    @pytest.mark.parametrize("qscale", [7.3, 0.0, -7.5, np.nan, np.inf])
    def test_unusable_conv_qscale_names_its_byte(self, tmp_path, qscale):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        first_record = 7 + len("tiny") + 2 + struct.calcsize("<BHHBdd") + 4
        qscale_at = first_record + 5 + struct.calcsize("<HHBB")
        assert struct.unpack_from("<d", data, qscale_at) == (CFG.weight_qscale,)
        struct.pack_into("<d", data, qscale_at, qscale)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match=rf"qscale {qscale} at byte {qscale_at}"):
            import_model(path)

    @pytest.mark.parametrize("field,bad", [("scale", np.nan), ("bias", -np.inf),
                                           ("weight", np.inf)])
    def test_non_finite_f64_names_its_byte(self, tmp_path, field, bad):
        # the first bad value of three channels' scale, bias or 1x1 weights
        values = np.array([0.5, bad, bad])
        if field == "weight":
            record = rec(OP_CONV_F, struct.pack("<HHBB", 3, 1, 1, 1) + values.tobytes())
            head, what = 5 + 6, "CONV_F weight"
        else:
            scale, bias = (values, np.zeros(3)) if field == "scale" else (np.ones(3), values)
            record = rec(OP_AFFINE, struct.pack("<H", 3) + scale.tobytes() + bias.tobytes())
            head, what = 5 + 2 + (24 if field == "bias" else 0), f"AFFINE {field}"
        path, (at,) = write_stream(tmp_path, [record], class_count=3)
        with pytest.raises(ModelFormatError,
                           match=rf"{what} {bad} at byte {at + head + 8}: must be finite"):
            import_model(path)

    def test_record_length_mismatch(self, tmp_path):
        path, _ = write_stream(tmp_path, [rec(OP_RELU, b"\x00")])  # a bogus payload
        with pytest.raises(ModelFormatError, match="length mismatch"):
            import_model(path)


class TestStreamDefects:
    """Each stream below parses, but no runtime could run it to logits: the
    import rejects it, naming the byte of the offending record."""

    @pytest.mark.parametrize("kernel,stride,in_ch,out_ch", [
        (5, 1, 1, 2), (0, 1, 1, 2), (3, 0, 1, 2), (3, 2, 1, 2), (3, 3, 1, 2), (1, 1, 1, 0),
        (1, 1, 0, 2)],
        ids=["kernel-5", "kernel-0", "stride-0", "stride-2", "stride-3", "no-outputs",
             "no-inputs"])
    def test_unrunnable_conv(self, tmp_path, kernel, stride, in_ch, out_ch):
        path, (_, at, _) = write_stream(tmp_path, [
            conv_f(1, 1), conv_f(in_ch, out_ch, kernel, stride), rec(OP_GAP)])
        with pytest.raises(ModelFormatError,
                           match=rf"record at byte {at}: conv with kernel {kernel}, "
                                 rf"stride {stride} and {in_ch} -> {out_ch} channels"):
            import_model(path)

    @pytest.mark.parametrize("m_a", [0, 1])
    def test_act_q_needs_two_states(self, tmp_path, m_a):
        path, (_, at, _) = write_stream(
            tmp_path, [conv_f(2, 2), rec(OP_ACT_Q, struct.pack("<H", m_a)), rec(OP_GAP)])
        with pytest.raises(ModelFormatError,
                           match=rf"record at byte {at}: ACT_Q with m_a {m_a}"):
            import_model(path)

    @pytest.mark.parametrize("reader", [conv_f(3, 2), affine(3)], ids=["conv", "affine"])
    def test_channel_count_must_match_the_previous_op(self, tmp_path, reader):
        path, (_, at, _) = write_stream(tmp_path, [conv_f(1, 2), reader, rec(OP_GAP)])
        with pytest.raises(ModelFormatError,
                           match=rf"record at byte {at}: reads 3 channels, its input has 2"):
            import_model(path)

    @pytest.mark.parametrize("after", [conv_f(2, 2), affine(2), rec(OP_AP2), rec(OP_GAP)],
                             ids=["conv", "affine", "ap2", "second-gap"])
    def test_spatial_op_after_gap(self, tmp_path, after):
        path, (_, _, at) = write_stream(tmp_path, [conv_f(1, 2), rec(OP_GAP), after])
        with pytest.raises(ModelFormatError,
                           match=rf"record at byte {at}: follows GAP, which flattened"):
            import_model(path)

    def test_act_q_and_relu_after_gap_run(self, tmp_path):
        path, _ = write_stream(tmp_path, [
            conv_f(1, 2), rec(OP_GAP), rec(OP_RELU), rec(OP_ACT_Q, struct.pack("<H", 4))])
        logits = runtime_infer(import_model(path), np.full((3, 1, 4, 4), 0.2))
        np.testing.assert_array_equal(logits, np.full((3, 2), 1 / 3))  # 0.2 rounds to 1/3

    @pytest.mark.parametrize("s_branch,f_branch,ends", [
        ([conv_f(2, 4)], [conv_f(2, 1)], r"\(4, 1, False\) and \(1, 1, False\)"),
        ([rec(OP_AP2)], [conv_f(2, 2)], r"\(2, 2, False\) and \(2, 1, False\)"),
        ([rec(OP_AP2)], [rec(OP_AP2), rec(OP_AP2)], r"\(2, 2, False\) and \(2, 4, False\)"),
        ([rec(OP_GAP)], [], r"\(2, 1, True\) and \(2, 1, False\)")],
        ids=["channels", "downsampling", "pool-count", "flattening"])
    def test_residual_branches_must_agree(self, tmp_path, s_branch, f_branch, ends):
        path, offsets = write_stream(tmp_path, [
            conv_f(1, 2), rec(OP_RES_BEGIN), *s_branch, rec(OP_RES_SEP), *f_branch,
            rec(OP_RES_END), rec(OP_GAP)])
        # the downsampling factors start at 1 after the first conv
        with pytest.raises(ModelFormatError, match=rf"record at byte {offsets[1]}: "
                                                   rf"residual branches end in .* {ends}"):
            import_model(path)

    def test_nesting_is_bounded(self, tmp_path):
        depth = 65
        path, offsets = write_stream(tmp_path, [
            *[rec(OP_RES_BEGIN)] * depth, *[rec(OP_RES_SEP), rec(OP_RES_END)] * depth,
            rec(OP_GAP)])
        with pytest.raises(ModelFormatError,
                           match=rf"record at byte {offsets[64]}: residual blocks nested"):
            import_model(path)

    def test_matching_residual_branches_run(self, tmp_path):
        path, _ = write_stream(tmp_path, [
            rec(OP_RES_BEGIN), conv_f(1, 2, 3), rec(OP_AP2), rec(OP_RES_SEP), rec(OP_AP2),
            conv_f(1, 2), rec(OP_RES_END), rec(OP_GAP)])
        model = import_model(path)
        assert model.in_ch == 1
        assert [op.opcode for op in model.ops] == [OP_RES_BEGIN, OP_GAP]
        s_ops, f_ops = model.ops[0].fields["s"], model.ops[0].fields["f"]
        assert [op.opcode for op in s_ops] == [OP_CONV_F, OP_AP2]
        assert [op.opcode for op in f_ops] == [OP_AP2, OP_CONV_F]
        logits = runtime_infer(model, np.ones((2, 1, 6, 6)))
        # the padded 3x3 conv of ones sums the window's in-bounds taps: 2 or
        # 3 per axis, so its 6x6 map averages (16/6)**2 = 64/9, which the
        # pools keep; plus the pooled 1x1 conv, 1.0 everywhere
        np.testing.assert_allclose(logits, np.full((2, 2), 64 / 9 + 1.0), rtol=1e-15)


@pytest.fixture(scope="module")
def residual_file(tmp_path_factory):
    """A small quantized model with a residual block, exported: (its
    directory, its bytes, the offsets of its header fields, of its opcodes
    and of the fields that head each record's payload)."""
    rng = np.random.default_rng(40)
    branch = lambda k: [NormLayer(NormKind.LBN, 2), ActQuant(CFG),
                        Conv2d(2, 2, k, rng=rng, quant=CFG), NormLayer(NormKind.LBN, 2)]
    graph = ModelGraph([Conv2d(1, 2, 3, rng=rng, quant=CFG), NormLayer(NormKind.LBN, 2),
                        ActQuant(CFG), ResidualBlock(branch(3), branch(1)), AvgPool2(),
                        Conv2d(2, 3, 1, rng=rng, quant=CFG), GlobalAvgPool()],
                       "fuzz", 3, CFG, NormKind.LBN)
    warm_up(graph)
    path = tmp_path_factory.mktemp("fuzz") / "m.maqd"
    export(graph, path)
    blob = path.read_bytes()
    at = 4 + 2 + 1 + len("fuzz") + 2 + struct.calcsize("<BHHBdd") + 4
    heads = list(range(at))
    while at < len(blob):  # the opcode and up to a conv's u16/u16/u8/u8 head
        length = struct.unpack_from("<I", blob, at + 1)[0]
        heads += [at, *range(at + 5, at + 5 + min(length, 6))]
        at += 5 + length
    return path.parent, blob, heads


class TestMutatedFiles:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_and_runs_or_fails_typed(self, residual_file, data):
        directory, blob, heads = residual_file
        at = st.one_of(st.sampled_from(heads), st.integers(0, len(blob) - 1))
        value = st.one_of(st.sampled_from([0, 1, 2, 3, 255]), st.integers(0, 255))
        edits = data.draw(st.lists(st.tuples(at, value), min_size=1, max_size=3))
        cut = data.draw(st.sampled_from([None, *range(len(blob))]))
        mutated = bytearray(blob)
        for at, value in edits:
            mutated[at] = value
        path = directory / "mutated.maqd"
        path.write_bytes(bytes(mutated[:cut]))
        try:
            model = import_model(path)
        except ModelFormatError:
            return
        images = np.random.default_rng(41).normal(size=(2, 1, 8, 8))
        try:
            with np.errstate(all="ignore"):
                logits = runtime_infer(model, images)
        except ValueError:
            return
        assert logits.shape == (2, model.class_count)

    def test_unmutated_file_runs(self, residual_file):
        model = import_model(residual_file[0] / "m.maqd")
        assert runtime_infer(model, np.ones((2, 1, 8, 8))).shape == (2, 3)


class TestRuntimeParity:
    @pytest.mark.parametrize("arch", ["vgg-mini", "cnn9-mini"])
    def test_plain_stacks(self, tmp_path, arch):
        graph = build_model(arch, 5, quant=CFG, in_channels=1, seed=6)
        warm_up(graph, hw=8)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        images = np.random.default_rng(7).normal(size=(12, 1, 8, 8))
        report = parity_check(graph, model, images)
        assert report.samples == 12
        assert report.max_abs_logit_diff < 1e-9
        assert report.argmax_agreement == 1.0
        np.testing.assert_array_equal(runtime_infer(model, images),
                                      graph.forward(images, Mode.EVAL))

    @pytest.mark.parametrize("kind", [NormKind.BN, NormKind.LBN])
    @pytest.mark.parametrize("cfg", [CFG, QuantConfig(s=3.0)], ids=["default", "live"])
    def test_residual_stack(self, tmp_path, kind, cfg):
        # the heads of each residual block and the head conv read residual
        # sums; the live lattice moves most weights off state 0
        graph = build_model("preact-mini", 4, quant=cfg, norm_kind=kind, in_channels=1,
                            input_hw=8, seed=8)
        warm_up(graph, hw=8)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        images = np.random.default_rng(9).normal(size=(6, 1, 8, 8))
        report = parity_check(graph, model, images)
        assert report.max_abs_logit_diff < 1e-9
        assert report.argmax_agreement == 1.0
        np.testing.assert_array_equal(runtime_infer(model, images),
                                      graph.forward(images, Mode.EVAL))

    def test_non_quantized_parity(self, tmp_path):
        graph = build_model("vgg-mini", 5, quant=None, in_channels=1, seed=10)
        warm_up(graph, hw=8)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        images = np.random.default_rng(11).normal(size=(6, 1, 8, 8))
        report = parity_check(graph, model, images)
        assert report.max_abs_logit_diff < 1e-9
        np.testing.assert_array_equal(runtime_infer(model, images),
                                      graph.forward(images, Mode.EVAL))

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    def test_thresholds_only_on_code_sums(self, tmp_path, monkeypatch, arch):
        # vgg-mini: the first pair reads image-conv sums, the other 5 code
        # sums; preact-mini: the two heads of each block read residual sums,
        # its 3 mid-branch pairs code sums, and the head conv residual sums
        graph = build_model(arch, 4, quant=CFG, in_channels=1, input_hw=8, seed=12)
        warm_up(graph, hw=8)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        on_sums = {id(act) for *_, act in _code_sum_pairs(model.ops)}
        acts = [act for _, act in _act_ops(model.ops)]
        assert (len(on_sums), len(acts)) == {"vgg-mini": (5, 6), "preact-mini": (3, 9)}[arch]
        assert [act.fields["fold"] is not None for act in acts] == \
            [id(act) in on_sums for act in acts]
        unread, value_convs = [], []
        for ops in _spans(model.ops):
            for i, op in enumerate(ops):
                if op.opcode == OP_AFFINE and not (i + 1 < len(ops)
                                                   and ops[i + 1].opcode == OP_ACT_Q):
                    unread.append(op)
                if op.opcode == OP_CONV_Q and not _reads_codes(ops, i):
                    value_convs.append(op)
        # preact-mini: the AFFINE that ends each branch, which its block's end reads
        assert len(unread) == {"vgg-mini": 0, "preact-mini": 6}[arch]
        # a CONV_Q on values runs on the trainer's float64 weights and divides nothing
        assert len(value_convs) == 1
        for op in value_convs:
            f = op.fields
            assert f["divisor"] is None
            decoded = np.clip(f["states"] / f["qscale"], -1.0, 1.0)
            np.testing.assert_array_equal(f["w"], _tap_major(decoded, f["in_ch"], f["kernel"]))
        # the runtime's `affine` runs none: an ACT_Q or a block's end reads each
        seen = []
        real = export_mod.affine
        monkeypatch.setattr(export_mod, "affine",
                            lambda x, scale, bias: seen.append(id(scale)) or real(x, scale, bias))
        images = np.random.default_rng(13).normal(size=(3, 1, 8, 8))
        np.testing.assert_array_equal(runtime_infer(model, images),
                                      graph.forward(images, Mode.EVAL))
        assert seen == []

    @pytest.mark.parametrize("kind", [NormKind.BN, NormKind.LBN])
    @pytest.mark.parametrize("cfg", [CFG, QuantConfig(s=3.0), None],
                             ids=["default", "live", "float"])
    def test_block_ends_run_in_one_pass(self, tmp_path, monkeypatch, kind, cfg):
        # every branch ends in a conv and an AFFINE: the convs emit their
        # sums, and each block ends in one pass, with no affine or code
        # divide; a float net's other AFFINEs feed a RELU and run as before
        graph = build_model("preact-mini", 4, quant=cfg, norm_kind=kind, in_channels=1,
                            input_hw=8, seed=14)
        warm_up(graph, hw=8)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        blocks = [op for ops in _spans(model.ops) for op in ops if op.opcode == OP_RES_BEGIN]
        assert len(blocks) == 3 and all(op.fields["end"] is not None for op in blocks)
        branch_ends = {id(op.fields[b][-1].fields["scale"]) for op in blocks for b in "sf"}
        calls = {"affine": [], "_code_divide": [], "_block_end": []}
        for name, seen in calls.items():
            monkeypatch.setattr(export_mod, name, lambda *a, seen=seen, real=getattr(
                export_mod, name): seen.append(id(a[1])) or real(*a))
        images = np.random.default_rng(15).normal(size=(5, 1, 8, 8))
        logits = runtime_infer(model, images)
        assert len(calls["_block_end"]) == 3 and calls["_code_divide"] == []
        assert len(calls["affine"]) == (0 if cfg else 9)
        assert not branch_ends & set(calls["affine"])
        np.testing.assert_array_equal(logits, graph.forward(images, Mode.EVAL))

    @pytest.mark.parametrize("codes,bad", [
        ([OP_RES_BEGIN], 0), ([OP_RES_BEGIN, OP_RES_SEP], 0), ([OP_RES_BEGIN, OP_RES_END], 0),
        ([OP_RES_SEP], 0), ([OP_RELU, OP_RES_END], 1)],
        ids=["begin-only", "no-end", "no-sep", "stray-sep", "stray-end"])
    def test_unbalanced_residual_markers_raise(self, tmp_path, codes, bad):
        path, offsets = write_stream(tmp_path, [rec(c) for c in codes] + [rec(OP_GAP)],
                                     class_count=1)
        with pytest.raises(ModelFormatError,
                           match=rf"record at byte {offsets[bad]}: malformed residual block"):
            import_model(path)

    def test_channel_mismatch_raises(self, tmp_path):
        graph = tiny_graph()
        warm_up(graph)
        export(graph, tmp_path / "m.maqd")
        model = import_model(tmp_path / "m.maqd")
        with pytest.raises(ValueError, match="channels"):
            runtime_infer(model, np.zeros((1, 3, 8, 8)))

    def test_parity_check_on_no_images_is_a_value_error(self, tmp_path):
        graph = tiny_graph()
        warm_up(graph)
        export(graph, tmp_path / "m.maqd")
        with pytest.raises(ValueError, match="no images"):
            parity_check(graph, import_model(tmp_path / "m.maqd"), np.zeros((0, 1, 8, 8)))


class TestRuntimeShapeErrors:
    @pytest.mark.parametrize("c", [1, 3], ids=["broadcasting", "mismatched"])
    def test_affine_channel_count_must_match_its_input(self, tmp_path, c):
        path, (_, at, _) = write_stream(tmp_path, [conv_f(1, 2), affine(c), rec(OP_GAP)])
        with pytest.raises(ModelFormatError,
                           match=rf"record at byte {at}: reads {c} channels, its input has 2"):
            import_model(path)

    @pytest.mark.parametrize("last,ends", [
        (OP_GAP, "in 2 channels, not 3 logits"),
        (OP_RELU, "in 2 channels before GAP, not 3 logits")],
        ids=["wrong-width", "not-pooled"])
    def test_logits_must_have_class_count_width(self, tmp_path, last, ends):
        path, _ = write_stream(tmp_path, [conv_f(1, 2), rec(last)], class_count=3)
        end = path.stat().st_size
        with pytest.raises(ModelFormatError, match=f"the stream ends at byte {end} {ends}"):
            import_model(path)

    @pytest.mark.parametrize("shape", [(1, 2, 4, 4), (3, 4, 4), (1, 1, 3, 4, 4)],
                             ids=["channels", "3-d", "5-d"])
    def test_input_must_be_images_of_the_stream_channels(self, tmp_path, shape):
        # a stream with no conv or AFFINE takes class_count channels
        path, _ = write_stream(tmp_path, [rec(OP_AP2), rec(OP_GAP)], class_count=3)
        model = import_model(path)
        assert model.in_ch == 3
        assert runtime_infer(model, np.ones((1, 3, 4, 4))).shape == (1, 3)
        with pytest.raises(ValueError,
                           match=r"expected \(n, 3, h, w\) images with 3 channels"):
            runtime_infer(model, np.zeros(shape))


def _quantized_stack(cfg, in_ch, out_ch, kernel, pooled, seed):
    """ActQuant, optionally AvgPool2, one quantized conv and the global pool,
    with weights spread over the whole state range (clipped ones included)."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(in_ch, out_ch, kernel, rng=rng, weight_standardized=False, quant=cfg)
    conv.weight.data[...] = rng.normal(0.0, 4.0, size=conv.weight.data.shape)
    layers = [ActQuant(cfg)] + ([AvgPool2()] if pooled else []) + [conv, GlobalAvgPool()]
    return ModelGraph(layers, "codes", out_ch, cfg, NormKind.LBN)


def _sum_pool(codes):
    """4x the 2x2 mean of integer codes: an integer array."""
    return (codes[..., 0::2, 0::2] + codes[..., 0::2, 1::2]
            + codes[..., 1::2, 0::2] + codes[..., 1::2, 1::2])


def _int_conv(codes, states, qscale, kernel):
    """int64 cross-correlation of integer inputs with the lattice
    clip(2*states, -2q, 2q), over explicitly padded windows."""
    two_q = int(2 * qscale)
    out_ch = states.shape[0]
    lattice = np.clip(2 * states.astype(np.int64), -two_q, two_q)
    lattice = lattice.reshape(out_ch, codes.shape[1], kernel, kernel)
    pad = kernel // 2
    xp = np.pad(codes, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    return np.einsum("nchwij,ocij->nohw", win, lattice)


class TestIntegerCodeRuntime:
    def _run(self, tmp_path, monkeypatch, graph, codes, m_a):
        """The imported CONV_Q op and the (input, output) of its _run_conv
        call inside runtime_infer, after checking parity on `codes`."""
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        seen = []
        real = export_mod._run_conv

        def spy(op, x):
            y = real(op, x)
            seen.append((x, y))
            return y

        monkeypatch.setattr(export_mod, "_run_conv", spy)
        images = codes / (m_a - 1)
        runtime_infer(model, images)
        report = parity_check(graph, model, images)
        assert report.max_abs_logit_diff < 1e-9
        assert report.argmax_agreement == 1.0
        (op,) = [op for op in model.ops if op.opcode == OP_CONV_Q]
        return op, seen[0]

    @pytest.mark.parametrize("kernel,pooled", [(1, False), (1, True), (3, False), (3, True)])
    def test_codes_conv_is_the_int64_lattice_conv(self, tmp_path, monkeypatch, kernel,
                                                   pooled):
        codes = np.random.default_rng(30).integers(0, CFG.m_a, size=(2, 5, 8, 8))
        graph = _quantized_stack(CFG, 5, 4, kernel, pooled, seed=31)
        op, (x, y) = self._run(tmp_path, monkeypatch, graph, codes, CFG.m_a)
        assert np.any(np.abs(op.fields["states"]) > CFG.weight_qscale)  # clipped states
        ref = _int_conv(_sum_pool(codes) if pooled else codes, op.fields["states"],
                        op.fields["qscale"], kernel)
        assert x.dtype == y.dtype == np.float32
        np.testing.assert_array_equal(y * (4 if pooled else 1), ref.astype(np.float32))

    def test_trainer_and_runtime_share_the_code_divide(self, tmp_path, monkeypatch):
        graph = _quantized_stack(CFG, 5, 4, 3, False, seed=37)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        assert export_mod._code_divide is network_mod._code_divide
        seen = []
        real = network_mod._code_divide

        def spy(sums, divisor, dtype):
            seen.append((sums.dtype, divisor, np.dtype(dtype)))
            return real(sums, divisor, dtype)

        monkeypatch.setattr(network_mod, "_code_divide", spy)
        monkeypatch.setattr(export_mod, "_code_divide", spy)
        images = np.random.default_rng(38).integers(0, CFG.m_a, size=(2, 5, 6, 6)) / (CFG.m_a - 1)
        graph.forward(images, Mode.EVAL)
        assert len(seen) == 1  # the trainer's conv
        runtime_infer(model, images)
        # the runtime's CONV_Q: the same float32 code sums and divisor
        call = (np.float32, graph.conv_layers()[0].codes.divisor, np.float64)
        assert seen == [call, call]

    @pytest.mark.parametrize("in_ch,kernel,pooled,dtype", [
        (32, 3, False, np.float64), (32, 1, False, np.float32),
        (16, 3, True, np.float64), (16, 3, False, np.float32)])
    def test_float64_fallback_past_the_float32_bound(self, tmp_path, monkeypatch,
                                                     in_ch, kernel, pooled, dtype):
        # 2q * (m_a-1) = 255 * 255, so fan_in * 2q * (m_a-1) * 4**p is
        # >= 2**24 for fan_in 288, and for fan_in 144 only after a pool
        cfg = QuantConfig(m_w=255, m_a=256)
        codes = np.random.default_rng(32).integers(0, cfg.m_a, size=(2, in_ch, 6, 6))
        codes[0] = cfg.m_a - 1  # one sample at the largest codes
        graph = _quantized_stack(cfg, in_ch, 3, kernel, pooled, seed=33)
        op, (x, y) = self._run(tmp_path, monkeypatch, graph, codes, cfg.m_a)
        ref = _int_conv(_sum_pool(codes) if pooled else codes, op.fields["states"],
                        op.fields["qscale"], kernel)
        assert x.dtype == y.dtype == dtype
        np.testing.assert_array_equal(y * (4 if pooled else 1), ref.astype(dtype))

    @pytest.mark.parametrize("at_the_end", [False, True], ids=["read-by-affine", "at-the-end"])
    def test_codes_no_conv_reads_are_values(self, tmp_path, at_the_end):
        norm = NormLayer(NormKind.BN, 3)
        norm.state.b[...] = 0.5
        layers = ([GlobalAvgPool(), ActQuant(CFG)] if at_the_end else
                  [ActQuant(CFG), AvgPool2(), norm, GlobalAvgPool()])
        graph = ModelGraph(layers, "codes", 3, CFG, NormKind.BN)
        path = tmp_path / "m.maqd"
        export(graph, path)
        images = np.random.default_rng(34).uniform(-0.2, 1.2, size=(2, 3, 4, 4))
        report = parity_check(graph, import_model(path), images)
        assert report.max_abs_logit_diff < 1e-9


def _unfolded(monkeypatch, path):
    """The model at path imported with no AFFINE -> ACT_Q pair folded: the
    divide, affine and quantizer arithmetic the fold must reproduce."""
    with monkeypatch.context() as m:
        m.setattr(export_mod, "_FOLD_MAX_THRESHOLDS", 0)
        return import_model(path)


def _act_ops(ops):
    """Every bound ACT_Q op with the op before it in its span (or None), in
    order, residual branches included."""
    prev = None
    for op in ops:
        if op.opcode == OP_ACT_Q:
            yield prev, op
        if op.opcode == OP_RES_BEGIN:
            yield from _act_ops(op.fields["s"])
            yield from _act_ops(op.fields["f"])
        prev = op


def _reads_codes(ops, i):
    """Whether the op i of a span reads an ACT_Q's codes through AP2s only."""
    j = i - 1
    while j >= 0 and ops[j].opcode == OP_AP2:
        j -= 1
    return j >= 0 and ops[j].opcode == OP_ACT_Q


def _code_sum_pairs(ops):
    """(CONV_Q, AFFINE, ACT_Q) of each bound ACT_Q that reads an AFFINE that
    reads the sums of a CONV_Q that reads codes, in order, residual
    branches included."""
    for i, op in enumerate(ops):
        if op.opcode == OP_ACT_Q and i >= 2 and ops[i - 1].opcode == OP_AFFINE \
                and ops[i - 2].opcode == OP_CONV_Q and _reads_codes(ops, i - 2):
            yield ops[i - 2], ops[i - 1], op
        if op.opcode == OP_RES_BEGIN:
            yield from _code_sum_pairs(op.fields["s"])
            yield from _code_sum_pairs(op.fields["f"])


def _spans(ops):
    """Each span of bound ops: the top level, then every residual branch."""
    yield ops
    for op in ops:
        if op.opcode == OP_RES_BEGIN:
            yield from _spans(op.fields["s"])
            yield from _spans(op.fields["f"])


def _spread_affines(graph, seed):
    """Give every norm random running statistics and per-channel (g, b),
    with about 15% of g zero and some negative, so that folds compare both
    ways and some channels are constant."""
    rng = np.random.default_rng(seed)
    for layer in graph.all_layers():
        if isinstance(layer, NormLayer):
            st = layer.state
            st.g[...] = rng.normal(size=st.g.shape) * (rng.uniform(size=st.g.shape) > 0.15)
            st.b[...] = rng.normal(0.0, 0.5, size=st.b.shape)
            st.running_mean[...] = rng.normal(size=st.running_mean.shape)
            st.running_var[...] = rng.uniform(0.5, 3.0, size=st.running_var.shape)


class TestThresholdFold:
    """Each AFFINE -> ACT_Q pair on the sums of a CONV_Q that reads codes,
    with at most _FOLD_MAX_THRESHOLDS thresholds, runs as compares on the
    sums; the oracle is the same file imported with the fold off."""

    def _folded_and_oracle(self, tmp_path, monkeypatch, graph):
        path = tmp_path / "m.maqd"
        export(graph, path)
        return import_model(path), _unfolded(monkeypatch, path)

    @pytest.mark.parametrize("kind", [NormKind.LBN, NormKind.BN])
    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    @pytest.mark.parametrize("m_a", [2, 8, "crossover", "past-crossover"])
    @pytest.mark.parametrize("s", [None, 3.0], ids=["default", "live"])
    def test_logits_equal_the_unfolded_runtime(self, tmp_path, monkeypatch, arch, kind, m_a,
                                               s):
        # vgg-mini: code sums (pooled codes included) and raw-image conv
        # sums; preact-mini: both heads of each residual block read float64
        # sums, after a pool in front of its downsampling blocks. Only the
        # pairs on code sums fold. The default s leaves almost every weight
        # at state 0; s = 3 moves most off it
        top = export_mod._FOLD_MAX_THRESHOLDS
        m_a = {"crossover": top + 1, "past-crossover": top + 2}.get(m_a, m_a)
        cfg = QuantConfig(m_a=m_a) if s is None else QuantConfig(m_a=m_a, s=s)
        graph = build_model(arch, 4, quant=cfg, norm_kind=kind, in_channels=1, input_hw=8,
                            seed=m_a)
        if s is not None:
            assert compute_r_w(graph)[0] > 0.5
        _spread_affines(graph, seed=m_a)
        model, oracle = self._folded_and_oracle(tmp_path, monkeypatch, graph)
        folds = [op.fields["fold"] for _, op in _act_ops(model.ops)]
        assert all(op.fields["fold"] is None for _, op in _act_ops(oracle.ops))
        on_sums = {id(act) for *_, act in _code_sum_pairs(model.ops)}
        assert on_sums
        if m_a - 1 > top:
            assert not any(folds)
        else:
            assert [f is not None for f in folds] == \
                [id(op) in on_sums for _, op in _act_ops(model.ops)]
            assert any(f.flip is not None for f in folds if f is not None)
        images = np.random.default_rng(m_a).normal(0.0, 2.0, size=(5, 1, 8, 8))
        np.testing.assert_array_equal(runtime_infer(model, images),
                                      runtime_infer(oracle, images))

    @pytest.mark.parametrize("in_ch,kernel,pooled,dtype", [
        (32, 3, False, np.float64), (32, 1, False, np.float32),
        (16, 3, True, np.float64), (16, 3, False, np.float32)])
    def test_float32_and_float64_code_sums(self, tmp_path, monkeypatch, in_ch, kernel,
                                           pooled, dtype):
        # the codes conv of test_float64_fallback_past_the_float32_bound,
        # then a folded norm and quantizer
        cfg = QuantConfig(m_w=255, m_a=256)
        rng = np.random.default_rng(35)
        conv = Conv2d(in_ch, 3, kernel, rng=rng, weight_standardized=False, quant=cfg)
        conv.weight.data[...] = rng.normal(0.0, 4.0, size=conv.weight.data.shape)
        graph = ModelGraph([ActQuant(cfg), *([AvgPool2()] if pooled else []), conv,
                            NormLayer(NormKind.BN, 3), ActQuant(CFG),
                            Conv2d(3, 2, 1, rng=rng, quant=CFG), GlobalAvgPool()],
                           "codes", 2, cfg, NormKind.BN)
        _spread_affines(graph, seed=36)
        model, oracle = self._folded_and_oracle(tmp_path, monkeypatch, graph)
        (_, first), (_, second) = _act_ops(model.ops)
        assert first.fields["fold"] is None  # no AFFINE in front of it
        # float32 sums fold; on float64 sums the compares are slower than the
        # divide and the fused pass they replace
        fold = second.fields["fold"]
        if dtype == np.float32:
            assert fold.thresholds.dtype == np.float32
        else:
            assert fold is None
        codes = rng.integers(0, cfg.m_a, size=(3, in_ch, 6, 6))
        codes[0] = cfg.m_a - 1
        images = codes / (cfg.m_a - 1)
        np.testing.assert_array_equal(runtime_infer(model, images),
                                      runtime_infer(oracle, images))

    def test_values_when_no_conv_reads_the_codes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(37)
        graph = ModelGraph([Conv2d(1, 3, 3, rng=rng, quant=CFG), NormLayer(NormKind.LBN, 3),
                            ActQuant(CFG), GlobalAvgPool()], "values", 3, CFG, NormKind.LBN)
        _spread_affines(graph, seed=38)
        model, oracle = self._folded_and_oracle(tmp_path, monkeypatch, graph)
        ((_, act),) = _act_ops(model.ops)
        # the pair reads image-conv sums, which no fold takes
        assert act.fields["codes"] is None and act.fields["fold"] is None
        images = rng.normal(0.0, 2.0, size=(4, 1, 6, 6))
        np.testing.assert_array_equal(runtime_infer(model, images),
                                      runtime_infer(oracle, images))

    @pytest.mark.parametrize("arch", ["vgg-mini", "preact-mini"])
    def test_inputs_on_each_threshold_and_one_ulp_away(self, tmp_path, monkeypatch, arch):
        graph = build_model(arch, 4, quant=CFG, in_channels=1, input_hw=8, seed=39)
        _spread_affines(graph, seed=39)
        model, oracle = self._folded_and_oracle(tmp_path, monkeypatch, graph)
        pairs = list(zip(_code_sum_pairs(model.ops), _code_sum_pairs(oracle.ops)))
        assert pairs
        for (_, aff, act), (oracle_conv, oracle_aff, oracle_act) in pairs:
            t = act.fields["fold"].thresholds.T[:, :, None]  # (C, m_a-1, 1)
            t = np.where(np.isfinite(t), t, 0)  # no sum reaches +-inf
            x = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)], 2)
            x = x.reshape(1, x.shape[0], -1, 1)
            # the oracle's CONV_Q divides its sums
            oracle_in = np.divide(x, oracle_conv.fields["divisor"], dtype=np.float64)
            np.testing.assert_array_equal(
                export_mod._run_ops([aff, act], x),
                export_mod._run_ops([oracle_aff, oracle_act], oracle_in))

    def test_thresholds_are_monotone_in_k(self, tmp_path, monkeypatch):
        # rising where the code rises with the input, falling where it
        # falls (a negative scale), so the codes climb one state at a time
        graph = build_model("vgg-mini", 4, quant=CFG, in_channels=1, seed=41)
        _spread_affines(graph, seed=41)
        model, _ = self._folded_and_oracle(tmp_path, monkeypatch, graph)
        for *_, act in _code_sum_pairs(model.ops):
            fold = act.fields["fold"]
            t = fold.thresholds
            if fold.flip is not None:
                t = np.where(fold.flip[0, :, 0, 0], -t, t)
            assert np.all(t[1:] >= t[:-1])


def conv_q(in_ch, out_ch, seed=0):
    """A 1x1 CONV_Q record, qscale 7.5, with random states in [-8, 8]."""
    states = np.random.default_rng(seed).integers(-8, 9, size=out_ch * in_ch)
    return rec(OP_CONV_Q, struct.pack("<HHBBd", out_ch, in_ch, 1, 1, 7.5)
               + states.astype("<i2").tobytes())


def _outcome(model, images):
    """The runtime's logits on images, or the message of its ValueError."""
    try:
        with np.errstate(all="ignore"):
            return runtime_infer(model, images)
    except ValueError as e:
        return str(e)


class TestFoldEdges:
    """Records the fold must leave unfolded or run as the unfolded runtime
    does, and the errors of inputs no quantizer can take."""

    LAYOUTS = {  # records in front of the AFFINE, and the images' channels
        "image-sums": ([conv_q(1, 2)], 1),
        "code-sums": ([rec(OP_ACT_Q, struct.pack("<H", 8)), conv_q(1, 2)], 1),
        "images": ([], 2),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("scale,bias,m_a", [
        (np.nan, 0.5, 8), (np.inf, 0.5, 8), (0.5, -np.inf, 8), (1e300, 0.5, 8),
        (-1e300, 0.5, 8), (0.5, 1e300, 8), (0.5, 0.25, 65535)],
        ids=["nan-scale", "inf-scale", "inf-bias", "huge-scale", "huge-negative-scale",
             "huge-bias", "m_a-65535"])
    def test_damaged_affine_or_act_q_runs_as_unfolded(self, tmp_path, monkeypatch, layout,
                                                      scale, bias, m_a):
        head, in_ch = self.LAYOUTS[layout]
        path, offsets = write_stream(tmp_path, [
            *head, rec(OP_AFFINE, struct.pack("<H", 2) + np.array([scale, 0.75]).tobytes()
                       + np.array([bias, -0.25]).tobytes()),
            rec(OP_ACT_Q, struct.pack("<H", m_a)), conv_q(2, 2, seed=1), rec(OP_GAP)])
        if not (np.isfinite(scale) and np.isfinite(bias)):
            # no runtime runs it: the import names the byte of the bad value
            at = offsets[len(head)] + 7 + (0 if not np.isfinite(scale) else 16)
            with pytest.raises(ModelFormatError, match=f"at byte {at}: must be finite"):
                import_model(path)
            return
        start = time.perf_counter()
        model = import_model(path)
        assert time.perf_counter() - start < 1.0
        (_, act), *_ = reversed(list(_act_ops(model.ops)))
        # only code sums fold
        assert (act.fields["fold"] is not None) == (layout == "code-sums" and m_a == 8)
        oracle = _unfolded(monkeypatch, path)
        rng = np.random.default_rng(43)
        for images in (rng.normal(size=(2, in_ch, 4, 4)), rng.normal(size=(2, in_ch, 4, 4))
                       * 1e12):
            folded, unfolded = _outcome(model, images), _outcome(oracle, images)
            if isinstance(unfolded, str):
                assert folded == unfolded
            else:
                np.testing.assert_array_equal(folded, unfolded)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308], ids=["nan", "inf", "overflow"])
    @pytest.mark.parametrize("folded", [True, False], ids=["folded", "unfolded"])
    def test_non_finite_quantizer_input_names_its_record(self, tmp_path, bad, folded):
        # "folded": the net's pairs on code sums fold; the first ACT_Q reads
        # image-conv sums, which never fold
        cfg = QuantConfig(m_a=8 if folded else export_mod._FOLD_MAX_THRESHOLDS + 2)
        graph = build_model("vgg-mini", 4, quant=cfg, in_channels=1, seed=44, use_ws=False)
        for conv in graph.conv_layers():  # states far from 0, at the clip endpoints
            conv.weight.data *= 10
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        acts = [act for _, act in _act_ops(model.ops)]
        assert acts[0].fields["fold"] is None
        assert any(act.fields["fold"] is not None for act in acts) == folded
        assert runtime_infer(model, np.zeros((0, 1, 8, 8))).shape == (0, 4)
        images = np.random.default_rng(45).normal(size=(2, 1, 8, 8))
        if bad == 1e308:  # weights are at most 1: a whole image of 1e308 overflows the sums
            images[1] = bad
        else:
            images[1, 0, 3, 3] = bad
        message = "quantizer input must be finite"
        with pytest.raises(ValueError, match=message), np.errstate(all="ignore"):
            graph.forward(images, Mode.EVAL)  # as in the trainer
        assert _outcome(model, images) == f"ACT_Q record at byte {acts[0].at}: {message}"
