import struct

import numpy as np
import pytest

import maqd.export as export_mod
from maqd.export import (FORMAT_VERSION, MAGIC, OP_ACT_Q, OP_AFFINE, OP_AP2,
                         OP_CONV_Q, OP_GAP, OP_RELU, OP_RES_BEGIN, OP_RES_END,
                         OP_RES_SEP, ModelFormatError, OpCount,
                         RuntimeModel, RuntimeOp, export, fold_normalization,
                         import_model, opcount_report, parity_check,
                         runtime_infer, weight_states)
from maqd.network import (ActQuant, AvgPool2, Conv2d, GlobalAvgPool,
                          ModelGraph, NormLayer, build_model)
from maqd.normalization import Mode, NormKind, NormLayerState, WSState, \
    norm_forward, weight_standardize
from maqd.quantizer import QuantConfig, quantize_weight

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
        conv = Conv2d(2, 4, 3, rng=rng, quant=CFG)
        conv.weight.data *= 100  # force saturation
        states, q = weight_states(conv)
        assert states.dtype == np.int16
        assert np.max(np.abs(states)) <= int(np.ceil(q))
        assert q == CFG.weight_qscale

    def test_decode_reproduces_quantizer(self):
        rng = np.random.default_rng(4)
        conv = Conv2d(3, 2, 3, rng=rng, quant=CFG)
        states, q = weight_states(conv)
        decoded = np.clip(states.astype(np.float64) / q, -1, 1)
        w2d = conv.weight.data.reshape(2, -1).astype(np.float64)
        w2d, _ = weight_standardize(WSState(w2d, eps=conv.ws_eps))
        np.testing.assert_array_equal(decoded, quantize_weight(w2d, CFG))

    def test_rejects_float_conv(self):
        conv = Conv2d(1, 1, 1, rng=np.random.default_rng(5), quant=None)
        with pytest.raises(ValueError):
            weight_states(conv)


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
        blob = MAGIC + struct.pack("<H", FORMAT_VERSION)
        blob += struct.pack("<B", 1) + b"x"
        blob += struct.pack("<H", 2)
        blob += struct.pack("<BHHBdd", 0, 3, 2, 0, 1 / 3, 0.25)
        blob += struct.pack("<I", 1)
        blob += struct.pack("<BI", 99, 0)
        path = tmp_path / "bad.maqd"
        path.write_bytes(blob)
        with pytest.raises(ModelFormatError, match="unknown opcode 99"):
            import_model(path)

    def test_non_ascii_arch_name_names_its_byte(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[7 + 2] = 0xE9  # third byte of the arch name "tiny"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="non-ASCII arch name at byte 9"):
            import_model(path)

    def test_invalid_quant_field_names_its_byte(self, tmp_path):
        path = self._valid_file(tmp_path)
        data = bytearray(path.read_bytes())
        quant_at = 7 + len("tiny") + 2
        struct.pack_into("<H", data, quant_at + 1, 4)  # even m_w
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError,
                           match=rf"quant block at byte {quant_at + 1}: m_w must be an odd"):
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

    def test_record_length_mismatch(self, tmp_path):
        blob = MAGIC + struct.pack("<H", FORMAT_VERSION)
        blob += struct.pack("<B", 1) + b"x"
        blob += struct.pack("<H", 2)
        blob += struct.pack("<BHHBdd", 0, 3, 2, 0, 1 / 3, 0.25)
        blob += struct.pack("<I", 1)
        blob += struct.pack("<BI", 5, 1) + b"\x00"  # RELU with bogus payload
        path = tmp_path / "bad.maqd"
        path.write_bytes(blob)
        with pytest.raises(ModelFormatError, match="length mismatch"):
            import_model(path)


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

    def test_residual_stack(self, tmp_path):
        graph = build_model("preact-mini", 4, quant=CFG, in_channels=1,
                            input_hw=8, seed=8)
        warm_up(graph, hw=8)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        images = np.random.default_rng(9).normal(size=(6, 1, 8, 8))
        report = parity_check(graph, model, images)
        assert report.max_abs_logit_diff < 1e-9
        assert report.argmax_agreement == 1.0

    def test_non_quantized_parity(self, tmp_path):
        graph = build_model("vgg-mini", 5, quant=None, in_channels=1, seed=10)
        warm_up(graph, hw=8)
        path = tmp_path / "m.maqd"
        export(graph, path)
        model = import_model(path)
        images = np.random.default_rng(11).normal(size=(6, 1, 8, 8))
        report = parity_check(graph, model, images)
        assert report.max_abs_logit_diff < 1e-9

    @pytest.mark.parametrize("codes", [
        [OP_RES_BEGIN], [OP_RES_BEGIN, OP_RES_SEP], [OP_RES_BEGIN, OP_RES_END],
        [OP_RES_SEP], [OP_RELU, OP_RES_END]],
        ids=["begin-only", "no-end", "no-sep", "stray-sep", "stray-end"])
    def test_unbalanced_residual_markers_raise(self, codes):
        model = RuntimeModel("res", 1, None, [RuntimeOp(c) for c in codes])
        with pytest.raises(ModelFormatError, match="malformed residual block"):
            runtime_infer(model, np.zeros((1, 1, 2, 2)))

    def test_channel_mismatch_raises(self, tmp_path):
        graph = tiny_graph()
        warm_up(graph)
        export(graph, tmp_path / "m.maqd")
        model = import_model(tmp_path / "m.maqd")
        with pytest.raises(ValueError, match="channels"):
            runtime_infer(model, np.zeros((1, 3, 8, 8)))


class TestRuntimeShapeErrors:
    def _affine(self, c):
        return RuntimeOp(OP_AFFINE, dict(channels=c, scale=np.ones(c), bias=np.zeros(c)))

    @pytest.mark.parametrize("c", [1, 3], ids=["broadcasting", "mismatched"])
    def test_affine_channel_count_must_match_its_input(self, c):
        model = RuntimeModel("x", 2, None, [self._affine(c), RuntimeOp(OP_GAP)])
        with pytest.raises(ModelFormatError, match=f"AFFINE record 0 has {c} channels"):
            runtime_infer(model, np.zeros((1, 2, 4, 4)))

    @pytest.mark.parametrize("ops", [[RuntimeOp(OP_GAP)], [RuntimeOp(OP_RELU)]],
                             ids=["wrong-width", "not-pooled"])
    def test_logits_must_have_class_count_width(self, ops):
        model = RuntimeModel("x", 3, None, ops)
        with pytest.raises(ModelFormatError, match=r"not \(1, 3\) logits"):
            runtime_infer(model, np.zeros((1, 2, 4, 4)))


def _quantized_stack(cfg, in_ch, out_ch, kernel, stride, pooled, seed):
    """ActQuant, optionally AvgPool2, one quantized conv and the global pool,
    with weights spread over the whole state range (clipped ones included)."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(in_ch, out_ch, kernel, stride, rng=rng, weight_standardized=False,
                  quant=cfg)
    conv.weight.data[...] = rng.normal(0.0, 4.0, size=conv.weight.data.shape)
    layers = [ActQuant(cfg)] + ([AvgPool2()] if pooled else []) + [conv, GlobalAvgPool()]
    return ModelGraph(layers, "codes", out_ch, cfg, NormKind.LBN)


def _sum_pool(codes):
    """4x the 2x2 mean of integer codes: an integer array."""
    return (codes[..., 0::2, 0::2] + codes[..., 0::2, 1::2]
            + codes[..., 1::2, 0::2] + codes[..., 1::2, 1::2])


def _int_conv(codes, states, qscale, kernel, stride):
    """int64 cross-correlation of integer inputs with the lattice
    clip(2*states, -2q, 2q), over explicitly padded windows."""
    two_q = int(2 * qscale)
    out_ch = states.shape[0]
    lattice = np.clip(2 * states.astype(np.int64), -two_q, two_q)
    lattice = lattice.reshape(out_ch, codes.shape[1], kernel, kernel)
    pad = 1 if kernel == 3 else 0
    xp = np.pad(codes, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    return np.einsum("nchwij,ocij->nohw", win[:, :, ::stride, ::stride], lattice)


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

    @pytest.mark.parametrize("kernel,stride,pooled", [
        (1, 1, False), (1, 2, False), (3, 1, False), (3, 2, False), (3, 1, True)])
    def test_codes_conv_is_the_int64_lattice_conv(self, tmp_path, monkeypatch,
                                                   kernel, stride, pooled):
        codes = np.random.default_rng(30).integers(0, CFG.m_a, size=(2, 5, 8, 8))
        graph = _quantized_stack(CFG, 5, 4, kernel, stride, pooled, seed=31)
        op, (x, y) = self._run(tmp_path, monkeypatch, graph, codes, CFG.m_a)
        assert np.any(np.abs(op.fields["states"]) > CFG.weight_qscale)  # clipped states
        ref = _int_conv(_sum_pool(codes) if pooled else codes, op.fields["states"],
                        op.fields["qscale"], kernel, stride)
        assert x.dtype == y.dtype == np.float32
        np.testing.assert_array_equal(y * (4 if pooled else 1), ref.astype(np.float32))

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
        graph = _quantized_stack(cfg, in_ch, 3, kernel, 1, pooled, seed=33)
        op, (x, y) = self._run(tmp_path, monkeypatch, graph, codes, cfg.m_a)
        ref = _int_conv(_sum_pool(codes) if pooled else codes, op.fields["states"],
                        op.fields["qscale"], kernel, 1)
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


def conv_q_op(out_ch, in_ch, kernel, stride, states):
    return RuntimeOp(OP_CONV_Q, dict(out_ch=out_ch, in_ch=in_ch, kernel=kernel,
                                     stride=stride, qscale=7.5,
                                     states=np.asarray(states, dtype=np.int16)))


class TestOpCount:
    def _model(self, ops):
        return RuntimeModel(arch="x", class_count=2, quant=CFG, ops=ops)

    def test_skips_zero_weights(self):
        w = np.zeros((2, 9))
        w[0, 0] = 1.0
        w[1, 3] = -1.0
        model = self._model([conv_q_op(2, 1, 3, 1, w)])
        (count,) = opcount_report(model, (8, 8))
        assert count.mults == 2 * 8 * 8
        assert count.adds == count.mults

    def test_binary_activation_zeroes_multiplies(self):
        w = np.ones((2, 18))
        ops = [RuntimeOp(OP_ACT_Q, dict(m_a=2)), conv_q_op(2, 2, 3, 1, w)]
        (count,) = opcount_report(self._model(ops), (4, 4))
        assert count.add_only_mults == 0
        assert count.mults == 36 * 16

    def test_multilevel_activation_keeps_multiplies(self):
        w = np.ones((2, 18))
        ops = [RuntimeOp(OP_ACT_Q, dict(m_a=4)), conv_q_op(2, 2, 3, 1, w)]
        (count,) = opcount_report(self._model(ops), (4, 4))
        assert count.add_only_mults == count.mults

    def test_pooling_shrinks_spatial_extent(self):
        w = np.ones((1, 9))
        ops = [conv_q_op(1, 1, 3, 1, w),
               RuntimeOp(OP_AP2),
               conv_q_op(1, 1, 3, 1, w)]
        first, second = opcount_report(self._model(ops), (8, 8))
        assert first.mults == 9 * 64
        assert second.mults == 9 * 16

    def test_gap_then_1x1_head(self):
        w = np.ones((3, 2))
        ops = [RuntimeOp(OP_GAP), conv_q_op(3, 2, 1, 1, w)]
        (count,) = opcount_report(self._model(ops), (8, 8))
        assert count.mults == 6
