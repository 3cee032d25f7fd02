"""Tests for the wire-level communication stack (repro.comm).

Covers codec round-trips (exact for the cast codecs, bounded error for the
quantized/sparsified ones), frame edge cases (empty updates, zero-size
tensors, dtype preservation, corruption detection), streaming-vs-buffered
aggregation equivalence on ``tiny_moe``, an end-to-end wire round whose
measured payload bytes cross-check the analytic ``ExchangePlan`` estimate,
and the length-prefixed byte-stream transport (partial reads across frame
boundaries, mid-frame connection loss, close idempotence).
"""

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.comm import (
    MAX_FRAME_BYTES,
    Channel,
    ChannelStats,
    FrameStream,
    PayloadCorruptedError,
    StreamingAggregator,
    TruncatedFrameError,
    available_codecs,
    decode_state_dict,
    decode_update,
    encode_state_dict,
    encode_update,
    frame_codec_name,
    get_codec,
    read_frame,
    write_frame,
)
from repro.comm.stream import LENGTH_PREFIX
from repro.data import make_gsm8k_like, partition_iid
from repro.federated import (
    ExpertUpdate,
    FederatedFineTuner,
    ParameterServer,
    ParticipantRoundResult,
    Participant,
    RunConfig,
)
from repro.federated.communication import ExchangePlan, bytes_per_param_for_bits
from repro.models import MoETransformer, llama_moe_mini
from repro.quantization import pack_int_codes, quantize_array, unpack_int_codes
from repro.runtime import ChannelFaultInjector
from repro.systems import RoundCostBreakdown

from fold_oracles import apply_fedavg


def random_state(rng, dtype="float64", rows=6, cols=9):
    return {
        "w_gate": rng.normal(size=(rows, cols)).astype(dtype),
        "w_up": rng.normal(size=(rows, cols)).astype(dtype),
        "w_down": rng.normal(size=(cols, rows)).astype(dtype),
    }


@pytest.fixture()
def state(rng):
    return random_state(np.random.default_rng(1))


@pytest.fixture()
def update(state):
    return ExpertUpdate(participant_id=3, layer=1, expert=2, state=state, weight=7.5)


class TestPacking:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_roundtrip(self, bits):
        rng = np.random.default_rng(bits)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        codes = rng.integers(lo, hi + 1, size=37).astype(np.int32)
        packed = pack_int_codes(codes, bits)
        assert len(packed) == -(-37 * bits // 8)
        assert np.array_equal(unpack_int_codes(packed, bits, 37), codes)

    def test_rejects_unpackable_width(self):
        with pytest.raises(ValueError):
            pack_int_codes(np.zeros(4, dtype=np.int32), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_int_codes(np.array([99], dtype=np.int32), 4)

    def test_unpack_short_payload(self):
        with pytest.raises(ValueError):
            unpack_int_codes(b"\x00", 8, 5)


class TestCodecRoundTrips:
    def test_registry_lists_expected_codecs(self):
        for name in ("fp64", "fp32", "fp16", "int8", "int4", "topk", "sparse-delta"):
            assert name in available_codecs()
        with pytest.raises(KeyError):
            get_codec("zstd")

    def test_fp64_exact(self, update):
        decoded = decode_update(encode_update(update, get_codec("fp64")))
        for name, value in update.state.items():
            assert np.array_equal(decoded.state[name], value)
            assert decoded.state[name].dtype == value.dtype
        assert (decoded.participant_id, decoded.layer, decoded.expert) == (3, 1, 2)
        assert decoded.weight == 7.5

    def test_fp32_exact_for_float32_source(self, rng):
        state = random_state(np.random.default_rng(2), dtype="float32")
        update = ExpertUpdate(0, 0, 0, state, 1.0)
        decoded = decode_update(encode_update(update, get_codec("fp32")))
        for name, value in state.items():
            assert decoded.state[name].dtype == np.float32
            assert np.array_equal(decoded.state[name], value)

    @pytest.mark.parametrize("name,atol", [("fp32", 1e-6), ("fp16", 2e-3)])
    def test_cast_codecs_bounded_error(self, update, name, atol):
        decoded = decode_update(encode_update(update, get_codec(name)))
        for key, value in update.state.items():
            assert decoded.state[key].dtype == value.dtype  # dtype preserved
            assert np.allclose(decoded.state[key], value, atol=atol)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_int_codecs_bounded_error(self, update, bits):
        decoded = decode_update(encode_update(update, get_codec(f"int{bits}")))
        for key, value in update.state.items():
            # error bounded by half a quantization step per row (float32
            # scales add a relative wobble on top of the float64 reference)
            steps = quantize_array(value, bits).scales
            bound = steps[:, None] * 0.5 * 1.001 + 1e-6
            assert np.all(np.abs(decoded.state[key] - value) <= bound)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_int_codecs_match_quantizer(self, update, bits):
        """Wire decode == quantize->dequantize up to float32-scale rounding."""
        decoded = decode_update(encode_update(update, get_codec(f"int{bits}")))
        for key, value in update.state.items():
            expected = quantize_array(value, bits).dequantize()
            assert np.allclose(decoded.state[key], expected, rtol=1e-6, atol=1e-6)

    def test_topk_full_density_near_exact(self, update, state):
        rng = np.random.default_rng(3)
        reference = {k: v + rng.normal(scale=0.05, size=v.shape) for k, v in state.items()}
        codec = get_codec("topk:1")
        decoded = decode_update(encode_update(update, codec, reference=reference),
                                reference=reference)
        for key, value in state.items():
            assert np.allclose(decoded.state[key], value, atol=1e-12)

    def test_topk_error_bounded_by_dropped_deltas(self, update, state):
        rng = np.random.default_rng(4)
        reference = {k: v + rng.normal(scale=0.05, size=v.shape) for k, v in state.items()}
        codec = get_codec("topk:0.25")
        decoded = decode_update(encode_update(update, codec, reference=reference),
                                reference=reference)
        for key, value in state.items():
            delta = value - reference[key]
            kept = max(1, int(np.ceil(0.25 * delta.size)))
            dropped = np.sort(np.abs(delta).ravel())[:-kept]
            residual = decoded.state[key] - value
            assert np.linalg.norm(residual) <= np.linalg.norm(dropped) + 1e-12
            # the error is exactly the dropped mass: kept entries match
            assert (np.abs(residual).ravel() > 1e-12).sum() <= delta.size - kept

    def test_topk_density_improves_error(self, update, state):
        rng = np.random.default_rng(5)
        reference = {k: v + rng.normal(scale=0.05, size=v.shape) for k, v in state.items()}
        errors = []
        for density in (0.1, 0.5, 1.0):
            codec = get_codec(f"topk:{density}")
            decoded = decode_update(encode_update(update, codec, reference=reference),
                                    reference=reference)
            errors.append(sum(np.linalg.norm(decoded.state[k] - state[k])
                              for k in state))
        assert errors[0] >= errors[1] >= errors[2]

    def test_topk_requires_reference(self, update):
        codec = get_codec("topk")
        with pytest.raises(ValueError):
            encode_update(update, codec)
        reference = {k: np.zeros_like(v) for k, v in update.state.items()}
        payload = encode_update(update, codec, reference=reference)
        with pytest.raises(ValueError):
            decode_update(payload)  # decoding also needs the reference

    def test_topk_reference_shape_mismatch(self, update):
        codec = get_codec("topk")
        reference = {k: np.zeros((2, 2)) for k in update.state}
        with pytest.raises(ValueError):
            encode_update(update, codec, reference=reference)

    def test_malformed_topk_tag(self):
        with pytest.raises(KeyError):
            get_codec("topk:lots")
        with pytest.raises(ValueError):
            get_codec("topk:0")

    def test_wire_bytes_per_param(self):
        assert get_codec("fp64").wire_bytes_per_param() == 8.0
        assert get_codec("fp32").wire_bytes_per_param() == 4.0
        assert get_codec("fp16").wire_bytes_per_param() == 2.0
        assert get_codec("int8").wire_bytes_per_param() == pytest.approx(1.0)
        assert get_codec("int8").wire_bytes_per_param(group_size=16) == pytest.approx(1.25)
        assert get_codec("int4").wire_bytes_per_param(group_size=32) == pytest.approx(0.625)
        assert get_codec("topk:0.5").wire_bytes_per_param() == pytest.approx(6.0)


class TestSparseCodecs:
    """The composed ``topk:<density>:int<bits>`` codec and ``sparse-delta``."""

    def test_composed_tag_grammar(self):
        codec = get_codec("topk:0.25:int4")
        assert codec.name == "topk:0.25:int4"
        assert codec.needs_reference and not codec.exact
        for malformed in ("topk:0.25:intx", "topk:0.25:in4", "topk:lots:int4"):
            with pytest.raises(KeyError):
                get_codec(malformed)
        with pytest.raises(ValueError):
            get_codec("topk:0.25:int3")  # unpackable bit width
        with pytest.raises(ValueError):
            get_codec("topk:0:int4")  # density outside (0, 1]

    def test_composed_full_density_error_bounded_by_quant_step(self, update, state):
        """At density 1 the only error left is the int8 half-step on deltas."""
        rng = np.random.default_rng(6)
        reference = {k: v + rng.normal(scale=0.05, size=v.shape)
                     for k, v in state.items()}
        codec = get_codec("topk:1:int8")
        decoded = decode_update(encode_update(update, codec, reference=reference),
                                reference=reference)
        for key, value in state.items():
            delta = value - reference[key]
            step = np.abs(delta).max() / (2 ** 7 - 1)
            assert np.abs(decoded.state[key] - value).max() <= step / 2 + 1e-9

    def test_composed_frames_smaller_than_raw_topk(self, update, state):
        """Packing the kept values shrinks the frame vs raw <f8 top-k."""
        rng = np.random.default_rng(7)
        reference = {k: v + rng.normal(scale=0.05, size=v.shape)
                     for k, v in state.items()}
        raw = len(encode_update(update, get_codec("topk:0.25"), reference=reference))
        packed = len(encode_update(update, get_codec("topk:0.25:int4"),
                                   reference=reference))
        assert packed < raw

    @pytest.mark.parametrize("name", ["topk:0.5", "topk:0.5:int4"])
    def test_all_zero_delta_ships_empty_sections(self, name):
        """A tensor equal to its reference encodes to empty sections."""
        codec = get_codec(name)
        array = np.arange(12.0).reshape(3, 4)
        sections = codec.encode_array(array, reference=array)
        assert all(section == b"" for section in sections)
        decoded = codec.decode_array(sections, array.shape, array.dtype,
                                     reference=array)
        assert np.array_equal(decoded, array)

    @pytest.mark.parametrize("name", ["topk:0.1", "topk:0.1:int8"])
    def test_one_element_tensor_density_rounding(self, name):
        """k = max(1, ceil(density*size)): a 1-element tensor still ships."""
        codec = get_codec(name)
        array, reference = np.array([2.5]), np.array([1.0])
        sections = codec.encode_array(array, reference=reference)
        assert len(sections[0]) > 0  # one index survived the rounding
        decoded = codec.decode_array(sections, array.shape, array.dtype,
                                     reference=reference)
        assert np.allclose(decoded, array, atol=1e-6)

    def test_adaptive_index_width(self):
        """Small tensors ship <u2 sparse indices, large tensors <u4."""
        small = np.zeros(100)
        small_changed = small.copy()
        small_changed[[3, 97]] = 1.0
        large = np.zeros(70_000)  # > 65535: u2 cannot address it
        large_changed = large.copy()
        large_changed[[5, 69_999]] = 1.0
        codec = get_codec("sparse-delta")
        small_sections = codec.encode_array(small_changed, reference=small)
        large_sections = codec.encode_array(large_changed, reference=large)
        assert len(small_sections[0]) == 2 * 2   # two u2 indices
        assert len(large_sections[0]) == 2 * 4   # two u4 indices
        for sections, ref, want in ((small_sections, small, small_changed),
                                    (large_sections, large, large_changed)):
            decoded = codec.decode_array(sections, want.shape, want.dtype,
                                         reference=ref)
            assert np.array_equal(decoded, want)

    @pytest.mark.parametrize("name", ["topk:0.5", "topk:0.5:int8", "sparse-delta"])
    def test_legacy_wide_index_frames_still_decode(self, name):
        """Frames with u4 indices on small tensors (pre-u2 writers) decode."""
        codec = get_codec(name)
        reference = np.zeros(50)
        array = reference.copy()
        array[[1, 7, 42]] = (1.0, -2.0, 3.0)
        sections = list(codec.encode_array(array, reference=reference))
        narrow = np.frombuffer(sections[0], dtype="<u2")
        sections[0] = narrow.astype("<u4").tobytes()  # re-widen the indices
        decoded = codec.decode_array(sections, array.shape, array.dtype,
                                     reference=reference)
        if codec.exact:
            assert np.array_equal(decoded, array)
        else:
            # int8 adds up to half a quantization step (~0.012 here)
            assert np.allclose(decoded, array, atol=0.05)

    def test_sparse_delta_exact_roundtrip(self, rng):
        for dtype in ("float64", "float32"):
            state = random_state(np.random.default_rng(8), dtype=dtype)
            # perturb a handful of entries per tensor; the rest stay shared
            reference = {}
            for key, value in state.items():
                ref = value.copy()
                ref.reshape(-1)[:3] += np.asarray(0.125, dtype=dtype)
                reference[key] = ref
            codec = get_codec("sparse-delta")
            assert codec.exact and codec.needs_reference
            update = ExpertUpdate(0, 0, 0, state, 1.0)
            decoded = decode_update(encode_update(update, codec, reference=reference),
                                    reference=reference)
            for key, value in state.items():
                assert decoded.state[key].dtype == value.dtype
                assert np.array_equal(decoded.state[key], value)

    def test_sparse_delta_assigns_rather_than_adds(self):
        """Decode must overwrite changed entries, not accumulate onto them."""
        reference = np.array([1.0, 2.0, 3.0])
        array = np.array([1.0, 5.0, 3.0])
        codec = get_codec("sparse-delta")
        sections = codec.encode_array(array, reference=reference)
        decoded = codec.decode_array(sections, array.shape, array.dtype,
                                     reference=reference)
        assert np.array_equal(decoded, array)
        # the value section carries the new value itself, not the delta
        assert np.frombuffer(sections[1], dtype="<f8")[0] == 5.0

    def test_sparse_delta_wire_bytes_per_param(self):
        assert get_codec("sparse-delta").wire_bytes_per_param() == pytest.approx(10.0)

    def test_composed_wire_bytes_per_param(self):
        codec = get_codec("topk:0.25:int4")
        assert codec.wire_bytes_per_param() == pytest.approx(0.25 * (2 + 0.5))
        assert codec.wire_bytes_per_param(group_size=1000) == pytest.approx(
            0.25 * 2.5 + 4 / 1000)
        with pytest.raises(ValueError):
            codec.wire_bytes_per_param(group_size=0)

    def test_corrupt_sparse_sections_detected(self):
        from repro.comm import PayloadCorruptedError

        reference = np.zeros(20)
        array = reference.copy()
        array[[2, 11]] = (1.0, -1.0)
        delta = get_codec("sparse-delta")
        good = delta.encode_array(array, reference=reference)
        with pytest.raises(PayloadCorruptedError):
            delta.decode_array(good + [b""], array.shape, array.dtype,
                               reference=reference)  # wrong section count
        with pytest.raises(PayloadCorruptedError):
            delta.decode_array([good[0], good[1][:-3]], array.shape, array.dtype,
                               reference=reference)  # torn value section
        bad_index = [np.array([2, 99], dtype="<u2").tobytes(), good[1]]
        with pytest.raises(PayloadCorruptedError):
            delta.decode_array(bad_index, array.shape, array.dtype,
                               reference=reference)  # index outside the tensor
        composed = get_codec("topk:0.5:int4")
        frame = composed.encode_array(array, reference=reference)
        with pytest.raises(PayloadCorruptedError):
            composed.decode_array([frame[0][:-1], frame[1], frame[2]],
                                  array.shape, array.dtype,
                                  reference=reference)  # index/code mismatch
        with pytest.raises(PayloadCorruptedError):
            composed.decode_array([frame[0], frame[1], frame[2] * 2],
                                  array.shape, array.dtype,
                                  reference=reference)  # two scales


class TestFraming:
    def test_empty_update_roundtrip(self):
        update = ExpertUpdate(0, 0, 0, {}, weight=1.0)
        decoded = decode_update(encode_update(update, get_codec("fp64")))
        assert decoded.state == {}
        assert decoded.weight == 1.0

    @pytest.mark.parametrize("name", ["fp64", "int4", "topk:1"])
    def test_zero_size_tensor_roundtrip(self, name):
        state = {"w": np.zeros((0, 4))}
        codec = get_codec(name)
        reference = state if codec.needs_reference else None
        decoded = decode_update(
            encode_update(ExpertUpdate(0, 0, 0, state, 1.0), codec, reference=reference),
            reference=reference)
        assert decoded.state["w"].shape == (0, 4)

    def test_scalar_and_1d_tensors(self):
        state = {"bias": np.arange(5, dtype=np.float64), "scale": np.float64(3.25)}
        decoded = decode_update(
            encode_update(ExpertUpdate(0, 0, 0, state, 1.0), get_codec("fp64")))
        assert np.array_equal(decoded.state["bias"], state["bias"])
        assert decoded.state["scale"] == pytest.approx(3.25)

    def test_mixed_dtypes_preserved(self):
        state = {"a": np.ones((2, 2), dtype=np.float32),
                 "b": np.ones((2, 2), dtype=np.float64)}
        decoded = decode_update(
            encode_update(ExpertUpdate(0, 0, 0, state, 1.0), get_codec("int8")))
        assert decoded.state["a"].dtype == np.float32
        assert decoded.state["b"].dtype == np.float64

    def test_corruption_detected_anywhere(self, update):
        payload = encode_update(update, get_codec("fp64"))
        for position in (0, 7, len(payload) // 2, len(payload) - 1):
            corrupted = bytearray(payload)
            corrupted[position] ^= 0xFF
            with pytest.raises(PayloadCorruptedError):
                decode_update(bytes(corrupted))

    def test_inconsistent_geometry_detected_despite_valid_checksum(self):
        """A frame that checksums but declares the wrong shape is corruption,
        not a crash: it must surface as PayloadCorruptedError."""
        import struct
        import zlib

        payload = encode_update(
            ExpertUpdate(0, 0, 0, {"w": np.zeros((2, 3))}, 1.0), get_codec("fp64"))
        body = bytearray(payload[:-4])
        # first shape dim lives right after magic|kind|codec|ids|ntensors|name|dtype|ndim
        offset = 4 + 1 + 1 + 4 + 20 + 2 + 2 + 1 + 1 + 3 + 1
        assert struct.unpack_from("<I", body, offset)[0] == 2  # sanity: dim0
        struct.pack_into("<I", body, offset, 5)  # lie about the shape
        reframed = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(PayloadCorruptedError):
            decode_update(reframed)

    def test_truncated_frame_detected(self, update):
        payload = encode_update(update, get_codec("fp64"))
        with pytest.raises(PayloadCorruptedError):
            decode_update(payload[: len(payload) // 2])
        with pytest.raises(PayloadCorruptedError):
            decode_update(b"")

    def test_update_frame_refused_as_state_dict(self, update, state):
        with pytest.raises(PayloadCorruptedError):
            decode_state_dict(encode_update(update, get_codec("fp64")))
        with pytest.raises(PayloadCorruptedError):
            decode_update(encode_state_dict(state, get_codec("fp64")))

    def test_state_dict_roundtrip(self, tiny_model):
        codec = get_codec("fp64")
        state = tiny_model.state_dict()
        decoded = decode_state_dict(encode_state_dict(state, codec))
        assert set(decoded) == set(state)
        for name, value in state.items():
            assert np.array_equal(decoded[name], np.asarray(value))

    @pytest.mark.parametrize("name", ["fp64", "int4", "topk:0.25:int4"])
    def test_frame_codec_name_sniffs_header_only(self, update, state, name):
        """The declared codec reads straight off the fixed header — no decode,
        no reference needed — for update and state-dict frames alike."""
        codec = get_codec(name)
        reference = state if codec.needs_reference else None
        frame = encode_update(update, codec, reference=reference)
        assert frame_codec_name(frame) == name
        assert frame_codec_name(encode_state_dict(state, get_codec("fp64"))) == "fp64"
        # sniffing is cheap enough to need only the header bytes
        assert frame_codec_name(frame[:6 + len(name)]) == name

    def test_frame_codec_name_rejects_non_frames(self, update):
        with pytest.raises(ValueError, match="magic|truncated"):
            frame_codec_name(b"RWS1\x01junk")  # service envelope, wrong layer
        with pytest.raises(ValueError, match="magic|truncated"):
            frame_codec_name(b"")
        frame = encode_update(update, get_codec("fp64"))
        with pytest.raises(ValueError, match="truncated"):
            frame_codec_name(frame[:6])  # cut inside the codec tag


class TestStreamingAggregation:
    def make_updates(self, model, seed=0, participants=5):
        rng = np.random.default_rng(seed)
        updates = []
        for pid in range(participants):
            for layer, expert in model.iter_expert_ids():
                if rng.random() < 0.4:
                    continue  # partial participation
                state = {k: v + rng.normal(scale=0.1, size=v.shape)
                         for k, v in model.expert_state(layer, expert).items()}
                updates.append(ExpertUpdate(pid, layer, expert, state,
                                            weight=float(rng.integers(1, 40))))
        return updates

    def test_streaming_bit_identical_to_buffered(self, tiny_config):
        buffered = MoETransformer(tiny_config)
        streaming = ParameterServer(MoETransformer(tiny_config))
        updates = self.make_updates(buffered, seed=11)

        contributions_b = apply_fedavg(buffered, list(updates))
        contributions_s = streaming.aggregate(iter(updates))

        assert contributions_b == contributions_s
        state_b, state_s = buffered.state_dict(), streaming.global_state()
        for name in state_b:
            assert np.array_equal(np.asarray(state_b[name]), np.asarray(state_s[name])), name

    def test_payload_streaming_bit_identical_to_buffered(self, tiny_config):
        """Full wire path (fp64 frames) also reproduces buffered FedAvg bits."""
        buffered = MoETransformer(tiny_config)
        wire = ParameterServer(MoETransformer(tiny_config))
        updates = self.make_updates(buffered, seed=13)
        codec = get_codec("fp64")
        payloads = [encode_update(update, codec) for update in updates]

        contributions_b = apply_fedavg(buffered, list(updates))
        aggregator = StreamingAggregator(scratch=wire.fold_scratch)
        aggregator.fold_frames(payloads, reference_lookup=wire.expert_state)
        contributions_w = aggregator.apply(wire.global_model)

        assert contributions_b == contributions_w
        state_b, state_w = buffered.state_dict(), wire.global_state()
        for name in state_b:
            assert np.array_equal(np.asarray(state_b[name]), np.asarray(state_w[name])), name

    def test_streaming_rejects_zero_total_weight(self):
        aggregator = StreamingAggregator()
        aggregator.add(ExpertUpdate(0, 0, 0, {"w": np.ones(3)}, weight=0.0))
        with pytest.raises(ValueError):
            aggregator.finalize()

    def test_streaming_rejects_negative_weight(self):
        aggregator = StreamingAggregator()
        with pytest.raises(ValueError):
            aggregator.add(ExpertUpdate(0, 0, 0, {"w": np.ones(3)}, weight=-1.0))

    def test_streaming_rejects_mismatched_tensor_names(self):
        aggregator = StreamingAggregator()
        aggregator.add(ExpertUpdate(0, 0, 0, {"w": np.ones(3)}, weight=1.0))
        with pytest.raises(ValueError):
            aggregator.add(ExpertUpdate(1, 0, 0, {"v": np.ones(3)}, weight=1.0))

    def test_streaming_consumes_a_generator_lazily(self, tiny_config):
        server = ParameterServer(MoETransformer(tiny_config))
        live = []

        def generate():
            for update in self.make_updates(server.global_model, seed=17):
                live.append(1)
                yield update
                live.pop()  # the server let go before asking for the next one

        server.aggregate(generate())
        assert live == []


class TestChannel:
    def test_metering_and_airtime(self):
        channel = Channel(participant_id=1, latency_s=0.5)
        record = channel.send(b"x" * 1000)
        assert record.nbytes == 1000
        assert record.seconds == pytest.approx(0.5)  # no cost model: latency only
        assert channel.stats.bytes_up == 1000
        assert channel.stats.payloads == 1

    def test_bandwidth_from_cost_model(self, tiny_config):
        from repro.models.presets import ARCHITECTURE_DESCRIPTORS
        from repro.systems import CONSUMER_GPU, CostModel, MemoryModel

        cost = CostModel(CONSUMER_GPU, MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"]))
        channel = Channel(participant_id=0, cost_model=cost, latency_s=0.25)
        nbytes = 10 * 1024 ** 2
        record = channel.send(b"x" * nbytes, direction="down")
        expected = 0.25 + nbytes / CONSUMER_GPU.network_bytes_per_s
        assert record.seconds == pytest.approx(expected)
        assert channel.stats.bytes_down == nbytes

    def test_loss_and_corruption_seeded(self):
        faults = ChannelFaultInjector(loss_prob=0.3, corrupt_prob=0.3, seed=9)
        outcomes = [faults.outcome(seq, 4) for seq in range(64)]
        assert outcomes == [faults.outcome(seq, 4) for seq in range(64)]
        assert any(o.lost for o in outcomes)
        assert any(o.corrupted for o in outcomes)
        corrupted = faults.corrupt(b"hello world", 0, 4)
        assert corrupted != b"hello world" and len(corrupted) == 11

    def test_lost_payload_never_delivered(self):
        faults = ChannelFaultInjector(loss_prob=1.0, seed=0)
        channel = Channel(participant_id=2, faults=faults)
        record = channel.send(b"payload")
        assert record.lost and record.payload is None
        assert channel.stats.lost == 1

    def test_corrupted_payload_fails_decode(self, update):
        faults = ChannelFaultInjector(corrupt_prob=1.0, seed=0)
        channel = Channel(participant_id=2, faults=faults)
        record = channel.send(encode_update(update, get_codec("fp64")))
        assert record.corrupted
        with pytest.raises(PayloadCorruptedError):
            decode_update(record.payload)

    def test_stats_merge(self):
        a, b = ChannelStats(), ChannelStats(payloads=2, bytes_up=10.0, lost=1)
        a.merge(b)
        assert (a.payloads, a.bytes_up, a.lost) == (2, 10.0, 1)
        assert a.total_bytes == 10.0


class StubMethod(FederatedFineTuner):
    """Deterministic no-training method: perturbs every expert slightly."""

    name = "stub"

    def participant_round(self, participant, round_index):
        model = self.server.model_snapshot()
        rng = np.random.default_rng(participant.participant_id * 1000 + round_index)
        updates = []
        for layer, expert in model.iter_expert_ids():
            state = {k: v + rng.normal(scale=0.01, size=v.shape)
                     for k, v in model.expert_state(layer, expert).items()}
            updates.append(ExpertUpdate(participant.participant_id, layer, expert,
                                        state, weight=float(rng.integers(1, 20))))
        return ParticipantRoundResult(updates=updates,
                                      breakdown=RoundCostBreakdown(training=1.0),
                                      train_loss=1.0)


def make_stub(config, vocab, model_config, num_participants=3):
    dataset = make_gsm8k_like(vocab=vocab, num_samples=24, seed=3)
    shards = partition_iid(dataset, num_participants, seed=3)
    participants = [Participant(i, dataset.subset(shard), seed=i)
                    for i, shard in enumerate(shards)]
    server = ParameterServer(MoETransformer(model_config))
    return StubMethod(server, participants, dataset, config=config)


class TestWireRounds:
    def config(self, **overrides):
        defaults = dict(eval_max_samples=4, eval_batch_size=4, seed=0)
        defaults.update(overrides)
        return RunConfig(**defaults)

    def test_wire_fp64_matches_analytic(self, vocab, tiny_config):
        """Lossless wire reproduces the analytic transport bit-for-bit."""
        legacy = make_stub(self.config(), vocab, tiny_config)
        wired = make_stub(self.config(transport="wire", codec="fp64"), vocab, tiny_config)
        result_a = legacy.run(num_rounds=2)
        result_b = wired.run(num_rounds=2)
        state_a = legacy.server.global_state()
        state_b = wired.server.global_state()
        for name in state_a:
            assert np.array_equal(np.asarray(state_a[name]), np.asarray(state_b[name])), name
        assert result_a.tracker.metric_values() == result_b.tracker.metric_values()
        assert result_a.rounds[0].wire_bytes == 0.0
        assert result_b.rounds[0].wire_bytes > 0.0
        assert result_b.tracker.total_comm_bytes() == pytest.approx(
            sum(r.wire_bytes for r in result_b.rounds))

    def test_wire_loss_drops_all_updates(self, vocab, tiny_config):
        tuner = make_stub(self.config(transport="wire", channel_loss_prob=1.0),
                          vocab, tiny_config)
        before = tuner.server.global_state()
        result = tuner.run(num_rounds=1)
        round_result = result.rounds[0]
        assert round_result.payloads_lost > 0
        assert round_result.wire_bytes > 0.0  # lost payloads still burned airtime
        after = tuner.server.global_state()
        for name in before:
            assert np.array_equal(np.asarray(before[name]), np.asarray(after[name]))

    def test_wire_corruption_detected_and_dropped(self, vocab, tiny_config):
        tuner = make_stub(self.config(transport="wire", channel_corrupt_prob=1.0),
                          vocab, tiny_config)
        before = tuner.server.global_state()
        result = tuner.run(num_rounds=1)
        assert result.rounds[0].payloads_corrupted > 0
        after = tuner.server.global_state()
        for name in before:
            assert np.array_equal(np.asarray(before[name]), np.asarray(after[name]))

    def test_wire_composed_codec_corruption_detected(self, vocab, tiny_config):
        """Corrupted composed sparse frames are dropped, never mis-applied."""
        tuner = make_stub(self.config(transport="wire", codec="topk:0.25:int4",
                                      channel_corrupt_prob=1.0),
                          vocab, tiny_config)
        before = tuner.server.global_state()
        result = tuner.run(num_rounds=1)
        assert result.rounds[0].payloads_corrupted > 0
        after = tuner.server.global_state()
        for name in before:
            assert np.array_equal(np.asarray(before[name]), np.asarray(after[name]))

    def test_wire_composed_codec_round_converges(self, vocab, tiny_config):
        tuner = make_stub(self.config(transport="wire", codec="topk:0.25:int4"), vocab, tiny_config)
        before = tuner.server.global_state()
        tuner.run(num_rounds=1)
        after = tuner.server.global_state()
        assert any(not np.array_equal(np.asarray(before[n]), np.asarray(after[n]))
                   for n in before)

    def test_wire_topk_round_converges_toward_updates(self, vocab, tiny_config):
        tuner = make_stub(self.config(transport="wire", codec="topk:0.5"), vocab, tiny_config)
        before = tuner.server.global_state()
        tuner.run(num_rounds=1)
        after = tuner.server.global_state()
        assert any(not np.array_equal(np.asarray(before[n]), np.asarray(after[n]))
                   for n in before)

    def test_unknown_codec_rejected_early(self):
        with pytest.raises(ValueError):
            RunConfig(codec="zstd")
        with pytest.raises(ValueError):
            RunConfig(transport="carrier-pigeon")

    def test_explicit_codec_overrides_method_default(self, vocab, tiny_config):
        """FMQ picks int{bits} only when the user made no codec choice."""
        from repro import FMQFineTuner

        dataset = make_gsm8k_like(vocab=vocab, num_samples=12, seed=3)
        participants = [Participant(0, dataset, seed=0)]

        def make(cfg):
            return FMQFineTuner(ParameterServer(MoETransformer(tiny_config)),
                                participants, dataset, config=cfg, bits=4)

        assert make(RunConfig()).wire_codec_name() == "int4"
        assert make(RunConfig(codec="fp64")).wire_codec_name() == "fp64"
        assert make(RunConfig(codec="topk:0.5")).wire_codec_name() == "topk:0.5"


class TestMeasuredVsAnalytic:
    def test_int4_round_within_5pct_of_exchange_plan(self, vocab):
        """Acceptance: measured int4 payload bytes ~ ExchangePlan.for_bits."""
        config = llama_moe_mini(vocab_size=vocab.size)
        tuner = make_stub(RunConfig(transport="wire", codec="int4",
                                    eval_max_samples=4, eval_batch_size=4),
                          vocab, config, num_participants=2)
        result = tuner.run(num_rounds=1)
        measured = result.rounds[0].wire_bytes
        assert measured > 0

        model = tuner.server.global_model
        expert_state = model.expert_state(0, 0)
        params = sum(np.asarray(v).size for v in expert_state.values())
        scales = sum(np.asarray(v).shape[0] if np.asarray(v).ndim > 1 else 1
                     for v in expert_state.values())
        num_updates = len(list(model.iter_expert_ids())) * len(tuner.participants)

        plan = ExchangePlan.for_bits(download_experts=0, upload_experts=num_updates,
                                     bits=4, group_size=params / scales)
        analytic = plan.payload_bytes(params_per_expert=params)
        assert measured == pytest.approx(analytic, rel=0.05)
        # the plain bits/8 estimate remains a (looser) lower bound
        naive = ExchangePlan.for_bits(0, num_updates, 4).payload_bytes(params)
        assert naive < measured

    def test_composed_topk_round_within_5pct_of_analytic(self, vocab):
        """Acceptance: measured topk:0.25:int4 bytes ~ the codec's analytics."""
        config = llama_moe_mini(vocab_size=vocab.size)
        tuner = make_stub(RunConfig(transport="wire", codec="topk:0.25:int4",
                                    eval_max_samples=4, eval_batch_size=4),
                          vocab, config, num_participants=2)
        result = tuner.run(num_rounds=1)
        measured = result.rounds[0].wire_bytes
        assert measured > 0

        model = tuner.server.global_model
        codec = get_codec("topk:0.25:int4")
        expert_state = model.expert_state(0, 0)
        # one scale per tensor: group_size is the flattened tensor size
        per_update = sum(
            np.asarray(v).size * codec.wire_bytes_per_param(
                group_size=np.asarray(v).size)
            for v in expert_state.values())
        num_updates = len(list(model.iter_expert_ids())) * len(tuner.participants)
        assert measured == pytest.approx(per_update * num_updates, rel=0.05)
        # and the sparse frames are an order of magnitude under raw fp64
        fp64 = sum(np.asarray(v).size * 8.0 for v in expert_state.values())
        assert measured < 0.15 * fp64 * num_updates

    def test_group_aware_bytes_per_param(self):
        assert bytes_per_param_for_bits(4) == pytest.approx(0.5)
        assert bytes_per_param_for_bits(4, group_size=32) == pytest.approx(0.625)
        assert bytes_per_param_for_bits(8, group_size=64) == pytest.approx(1.0625)
        for bad_group in (-1, 0):
            with pytest.raises(ValueError):
                bytes_per_param_for_bits(4, group_size=bad_group)
            with pytest.raises(ValueError):
                get_codec("int4").wire_bytes_per_param(group_size=bad_group)

    def test_for_codec_matches_codec_estimate(self):
        plan = ExchangePlan.for_codec(2, 2, get_codec("fp16"))
        assert plan.bytes_per_param == 2.0
        assert plan.payload_bytes(1000) == pytest.approx(4 * 1000 * 2.0)


class TestStreamTransport:
    """Length-prefixed framing over real sockets (repro.comm.stream)."""

    @staticmethod
    def _pair():
        left, right = socket.socketpair()
        return FrameStream(left), FrameStream(right)

    def test_round_trip_including_empty_frame(self):
        sender, receiver = self._pair()
        for payload in (b"", b"x", b"frame" * 1000):
            sender.send_frame(payload)
            assert receiver.recv_frame() == payload
        assert sender.frames_sent == receiver.frames_received == 3
        # prefix bytes are counted on both ends
        assert sender.bytes_sent == receiver.bytes_received
        sender.close()
        receiver.close()

    def test_partial_reads_across_frame_boundaries(self):
        """Frames reassemble whatever byte boundaries the transport picks."""
        left, right = socket.socketpair()
        receiver = FrameStream(right)
        payloads = [b"alpha", b"", b"b" * 257, b"tail"]
        blob = b"".join(LENGTH_PREFIX.pack(len(p)) + p for p in payloads)
        # Dribble the whole conversation a few bytes at a time from a writer
        # thread, splitting inside prefixes and payloads alike.
        def dribble():
            for start in range(0, len(blob), 3):
                left.sendall(blob[start:start + 3])
                time.sleep(0.0005)
            left.close()

        writer = threading.Thread(target=dribble)
        writer.start()
        try:
            assert [receiver.recv_frame() for _ in payloads] == payloads
            assert receiver.recv_frame() is None  # clean EOF at a boundary
        finally:
            writer.join()
            receiver.close()

    def test_short_write_then_close_is_truncation(self):
        """A peer dying mid-frame surfaces as TruncatedFrameError — which is
        both corrupt payload (dropped, like a CRC failure) and a dead
        connection (caught by retry paths)."""
        left, right = socket.socketpair()
        receiver = FrameStream(right)
        left.sendall(LENGTH_PREFIX.pack(100) + b"only-part-of-it")
        left.close()
        with pytest.raises(TruncatedFrameError) as excinfo:
            receiver.recv_frame()
        assert isinstance(excinfo.value, PayloadCorruptedError)
        assert isinstance(excinfo.value, ConnectionError)
        receiver.close()

    def test_eof_inside_length_prefix_is_truncation(self):
        left, right = socket.socketpair()
        receiver = FrameStream(right)
        left.sendall(b"\x05\x00")  # two of the four prefix bytes
        left.close()
        with pytest.raises(TruncatedFrameError):
            receiver.recv_frame()
        receiver.close()

    def test_close_is_idempotent_and_thread_safe_against_reader(self):
        sender, receiver = self._pair()
        sender.close()
        sender.close()  # double-close: no-op
        assert sender.closed
        with pytest.raises(ConnectionError):
            sender.send_frame(b"late")
        # the peer sees the close as clean EOF, then double-closes too
        assert receiver.recv_frame() is None
        receiver.close()
        receiver.close()
        with pytest.raises(ConnectionError):
            receiver.recv_frame()

    def test_oversized_frames_rejected_both_directions(self):
        sender, receiver = self._pair()
        small = FrameStream(sender._sock, max_frame_bytes=16)
        with pytest.raises(PayloadCorruptedError):
            small.send_frame(b"z" * 17)
        # a lying prefix is refused before any allocation
        sender._sock.sendall(LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(PayloadCorruptedError):
            receiver.recv_frame()
        sender.close()
        receiver.close()

    def test_peer_death_mid_batch_truncates_cleanly(self):
        """A sender dying inside a batched write leaves complete frames
        readable and the torn tail as TruncatedFrameError, like any other
        mid-frame death."""
        left, right = socket.socketpair()
        receiver = FrameStream(right)
        blob = (LENGTH_PREFIX.pack(5) + b"whole"
                + LENGTH_PREFIX.pack(64) + b"torn")
        left.sendall(blob)
        left.close()
        assert receiver.recv_frame() == b"whole"
        with pytest.raises(TruncatedFrameError):
            receiver.recv_frame()
        receiver.close()

    def test_asyncio_twins_interoperate_with_blocking_stream(self):
        """write_frame/read_frame speak the same bytes as FrameStream."""

        async def roundtrip():
            server_side, client_side = socket.socketpair()
            client = FrameStream(client_side)
            reader, writer = await asyncio.open_connection(sock=server_side)
            client.send_frame(b"ping")
            assert await read_frame(reader) == b"ping"
            await write_frame(writer, b"pong")
            assert client.recv_frame() == b"pong"
            # blocking side dies mid-frame -> asyncio side sees truncation
            client._sock.sendall(LENGTH_PREFIX.pack(64) + b"half")
            client.close()
            with pytest.raises(TruncatedFrameError):
                await read_frame(reader)
            writer.close()

        asyncio.run(roundtrip())
