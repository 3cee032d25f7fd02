"""The participant-batched uplink equals the per-tensor one, byte for byte.

Three layers, each held to the code it replaced (kept verbatim in
``uplink_oracles.py``):

* kernel — ``Codec.encode_arrays`` vs the mapped per-tensor ``encode_array``;
* frames — ``encode_updates`` vs the mapped per-update ``encode_update``;
* uplink — ``frame_upload`` at the client's finish plus the send-only,
  verify-only ``transmit_updates`` (lazy ``ExpertUpdate.state``, one shared
  read-only reference per expert and server version) vs the
  encode-send-decode-per-expert body, on single uploads and on whole runs.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import tracemalloc

import numpy as np
import pytest

import repro.federated.aggregation as aggregation_module
from repro.baselines import FMDFineTuner
from repro.comm import (
    PayloadCorruptedError,
    decode_update,
    encode_update,
    encode_updates,
    get_codec,
    verify_frame,
)
from repro.federated import ExpertUpdate, FederatedFineTuner
from repro.models import MoETransformer
from repro.quantization import pack_int_code_rows
from repro.runtime import latest_checkpoint
from repro.runtime.scheduler import run_participants

from test_decode_fastpath import ALL_CODECS
from test_run_checkpoint import assert_models_equal, assert_run_results_equal
from test_runtime import ConstantMethod, build_federation
from uplink_oracles import (
    oracle_encode_array,
    oracle_encode_update,
    oracle_transmit_updates,
    oracle_uplink,
    pack_int_codes,
)

#: the 11 registered variants plus the corners of the top-k family:
#: density 1, and densities whose k is odd on the small shapes below
CODECS = ALL_CODECS + ["topk:1", "topk:1:int4", "topk:0.3:int2", "topk:0.3:int4",
                       "topk:0.3:int8"]
TOPK_CODECS = [name for name in CODECS if name.startswith("topk")]
SHAPES = [(16, 16), (7,), (5, 7, 2), (1, 1), (), (3, 3)]
DTYPES = [np.float64, np.float32]


# ------------------------------------------------------------------ helpers
def _changed(rng, reference, mode):
    """``reference`` moved the way one kind of local training moves an expert."""
    dtype = reference.dtype.type
    if mode == "dense":
        return reference + (0.01 * rng.normal(size=reference.shape)).astype(dtype)
    if mode == "unchanged":
        return reference.copy()
    if mode == "sparse":        # fewer nonzero deltas than k: zeros get selected
        changed = reference.copy().reshape(-1)
        if changed.size:
            touched = rng.integers(0, changed.size, size=max(1, changed.size // 10))
            changed[touched] += dtype(1e-3)
        return changed.reshape(reference.shape)
    if mode == "sign_ties":     # SGD on sign gradients: every |delta| equal
        return reference + np.sign(rng.normal(size=reference.shape)).astype(dtype) * dtype(0.01)
    if mode == "lattice_ties":  # few distinct magnitudes, zeros among them
        return reference + (0.25 * rng.integers(-2, 3, size=reference.shape)).astype(dtype)
    if mode == "near_ties":     # Adam's first step: |delta| = lr up to rounding
        grad = rng.normal(size=reference.shape)
        step = 0.01 * grad / (np.abs(grad) + 1e-8)
        return (reference - step).astype(dtype)
    raise AssertionError(mode)


MODES = ["dense", "unchanged", "sparse", "sign_ties", "lattice_ties", "near_ties"]


def _rows(rng, shape, dtype, count, mode="dense"):
    references = [rng.normal(size=shape).astype(dtype) for _ in range(count)]
    return [_changed(rng, reference, mode) for reference in references], references


def _mapped_oracle(codec, arrays, references):
    return [oracle_encode_array(codec, array, reference if codec.needs_reference else None)
            for array, reference in zip(arrays, references)]


def _assert_kernel_equals_oracle(codec, arrays, references):
    expected = _mapped_oracle(codec, arrays, references)
    passed = references if codec.needs_reference else None
    assert list(codec.encode_arrays(arrays, passed)) == expected
    assert [codec.encode_array(array, reference=reference if codec.needs_reference else None)
            for array, reference in zip(arrays, references)] == expected


# ------------------------------------------------------------------- kernel
class TestEncodeArraysEqualsMappedOracle:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["f8", "f4"])
    @pytest.mark.parametrize("name", CODECS)
    def test_every_codec_shape_and_row_count(self, name, dtype):
        codec = get_codec(name)
        rng = np.random.default_rng(3)
        for shape in SHAPES:
            for count in (1, 2, 9):
                _assert_kernel_equals_oracle(codec, *_rows(rng, shape, dtype, count))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", TOPK_CODECS)
    def test_zero_rows_and_magnitude_ties(self, name, mode):
        """All-zero and partly-zero rows; exact and near ties at the k-th boundary."""
        codec = get_codec(name)
        rng = np.random.default_rng(5)
        for dtype in DTYPES:
            for shape in ((64, 32), (7,), (5, 7, 2)):
                _assert_kernel_equals_oracle(codec, *_rows(rng, shape, dtype, 6, mode))

    @pytest.mark.parametrize("name", TOPK_CODECS)
    def test_rows_of_every_kind_in_one_call(self, name):
        codec = get_codec(name)
        rng = np.random.default_rng(7)
        arrays, references = [], []
        for mode in MODES * 2:
            changed, reference = _rows(rng, (32, 16), np.float64, 1, mode)
            arrays += changed
            references += reference
        _assert_kernel_equals_oracle(codec, arrays, references)

    @pytest.mark.parametrize("name", TOPK_CODECS + ["sparse-delta"])
    def test_wide_indices_past_65535_elements(self, name):
        codec = get_codec(name)
        rng = np.random.default_rng(11)
        arrays, references = _rows(rng, (70000,), np.float64, 2)
        arrays[1][:60000] = references[1][:60000]       # zeros inside the selection
        _assert_kernel_equals_oracle(codec, arrays, references)
        if name != "sparse-delta":
            index_section = list(codec.encode_arrays(arrays, references))[0][0]
            assert len(index_section) % 4 == 0          # u4 indices

    @pytest.mark.parametrize("name", CODECS)
    def test_empty_tensors_and_empty_calls(self, name):
        codec = get_codec(name)
        arrays = [np.zeros((0, 4)), np.zeros((0,), dtype=np.float32)]
        _assert_kernel_equals_oracle(codec, arrays, [a.copy() for a in arrays])
        assert list(codec.encode_arrays([], [])) == []
        assert list(codec.encode_arrays([])) == []

    @pytest.mark.parametrize("name", CODECS)
    def test_mixed_shapes_and_dtypes_in_one_call(self, name):
        codec = get_codec(name)
        rng = np.random.default_rng(13)
        arrays, references = [], []
        for shape, dtype in [((8, 4), np.float64), ((5,), np.float32), ((8, 4), np.float32),
                             ((), np.float64), ((4, 8), np.float64), ((5,), np.float64),
                             ((0, 3), np.float64), ((8, 4), np.float64)]:
            changed, reference = _rows(rng, shape, dtype, 1)
            arrays += changed
            references += reference
        _assert_kernel_equals_oracle(codec, arrays, references)

    @pytest.mark.parametrize("name", TOPK_CODECS)
    def test_mixed_precision_pairs_and_strided_inputs(self, name):
        """float32 tensor vs float64 reference (and back), non-contiguous views."""
        codec = get_codec(name)
        rng = np.random.default_rng(17)
        wide = rng.normal(size=(12, 10))
        arrays = [wide.astype(np.float32), wide + 0.01, wide.T[:, ::2], wide[::2, ::-1]]
        references = [wide, wide.astype(np.float32), (wide * 1.01).T[:, ::2],
                      np.zeros((6, 10), dtype=np.float32)]
        _assert_kernel_equals_oracle(codec, arrays, references)

    @pytest.mark.parametrize("name", ["topk:0.3:int2", "topk:0.3:int4"])
    def test_odd_k_pads_every_row_alone(self, name):
        codec = get_codec(name)
        rng = np.random.default_rng(19)
        arrays, references = _rows(rng, (7,), np.float64, 5)    # k = 3
        sections = list(codec.encode_arrays(arrays, references))
        assert sections == _mapped_oracle(codec, arrays, references)
        assert all(len(index) == 3 * 2 for index, _codes, _scale in sections)

    @pytest.mark.parametrize("name", TOPK_CODECS + ["sparse-delta"])
    def test_reference_errors_are_the_oracles(self, name):
        codec = get_codec(name)
        good = np.ones((4, 4))
        for references in ([None, good], [good, np.ones((2, 8))]):
            with pytest.raises(ValueError) as batched:
                list(codec.encode_arrays([good, good], references))
            with pytest.raises(ValueError) as mapped:
                _mapped_oracle(codec, [good, good], references)
            assert str(batched.value) == str(mapped.value)
        with pytest.raises(ValueError):
            list(codec.encode_arrays([good, good]))         # no references at all
        with pytest.raises(ValueError):
            list(codec.encode_arrays([good, good], [good]))  # one short

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_pack_rows_is_the_per_row_pack(self, bits):
        rng = np.random.default_rng(23)
        low, high = -(1 << (bits - 1)), (1 << (bits - 1))
        for cols in (1, 3, 4, 5, 8, 13):
            codes = rng.integers(low, high, size=(6, cols)).astype(np.int32)
            packed = pack_int_code_rows(codes, bits)
            assert [row.tobytes() for row in packed] == [
                pack_int_codes(row, bits) for row in codes]
        with pytest.raises(ValueError):
            pack_int_code_rows(np.full((2, 2), high), bits)


# ------------------------------------------------------------------- frames
def _expert_updates(rng, count, dtype=np.float64, mode="dense"):
    """``count`` experts of one participant plus their references."""
    shapes = {"w_gate": (16, 8), "w_up": (16, 8), "w_down": (8, 16)}
    updates, references = [], []
    for expert in range(count):
        reference = {name: rng.normal(size=shape).astype(dtype)
                     for name, shape in shapes.items()}
        state = {name: _changed(rng, value, mode) for name, value in reference.items()}
        updates.append(ExpertUpdate(participant_id=4, layer=expert // 4, expert=expert % 4,
                                    state=state, weight=3.0 + expert))
        references.append(reference)
    return updates, references


def _mapped_frames(updates, codec, references):
    return [oracle_encode_update(update, codec,
                                 reference if codec.needs_reference else None)
            for update, reference in zip(updates, references)]


class TestEncodeUpdatesEqualsMappedOracle:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["f8", "f4"])
    @pytest.mark.parametrize("name", CODECS)
    def test_frames_and_their_decodes(self, name, dtype):
        codec = get_codec(name)
        rng = np.random.default_rng(29)
        updates, references = _expert_updates(rng, 8, dtype)
        expected = _mapped_frames(updates, codec, references)
        passed = references if codec.needs_reference else None
        frames = encode_updates(updates, codec, passed)
        assert frames == expected
        assert [encode_update(update, codec, reference=reference if passed else None)
                for update, reference in zip(updates, references)] == expected
        for frame, update, reference in zip(frames, updates, references):
            decoded = decode_update(frame, reference=reference)
            assert (decoded.participant_id, decoded.key, decoded.weight) == (
                update.participant_id, update.key, update.weight)
            assert list(decoded.state) == list(update.state)
            for tensor, value in decoded.state.items():
                assert value.dtype == update.state[tensor].dtype
                assert value.shape == update.state[tensor].shape
                if codec.exact:
                    assert np.array_equal(value, update.state[tensor])

    @pytest.mark.parametrize("name", ["fp64", "int4", "topk:0.25:int4", "sparse-delta"])
    def test_updates_that_share_nothing(self, name):
        """Different names, dtypes, shapes, tensor counts and orders per update."""
        codec = get_codec(name)
        rng = np.random.default_rng(31)
        states = [
            {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=(3,)).astype(np.float32)},
            {},
            {"b": rng.normal(size=(3,)), "a": rng.normal(size=(4, 4))},
            {"a": rng.normal(size=(2, 8)), "scale": np.float64(3.25)},
            {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=(3,)).astype(np.float32)},
        ]
        updates = [ExpertUpdate(-(1000 + i), i, 2 * i, state, weight=0.5 * i)
                   for i, state in enumerate(states)]
        references = [{name: np.zeros_like(value) for name, value in state.items()}
                      for state in states]
        assert encode_updates(updates, codec, references if codec.needs_reference else None) \
            == _mapped_frames(updates, codec, references)

    def test_generators_and_empty_input(self):
        codec = get_codec("fp64")
        updates, _ = _expert_updates(np.random.default_rng(37), 3)
        assert encode_updates(iter(updates), codec) == _mapped_frames(
            updates, codec, [None] * 3)
        assert encode_updates([], codec) == []

    def test_missing_reference_is_the_oracles_error(self):
        codec = get_codec("topk:0.25:int4")
        updates, references = _expert_updates(np.random.default_rng(41), 2)
        del references[1]["w_up"]
        with pytest.raises(ValueError) as batched:
            encode_updates(updates, codec, references)
        with pytest.raises(ValueError) as mapped:
            _mapped_frames(updates, codec, references)
        assert str(batched.value) == str(mapped.value)
        with pytest.raises(ValueError):
            encode_updates(updates, codec)
        with pytest.raises(ValueError):
            encode_updates(updates, codec, references[:1])

    def test_verify_frame_checks_without_decoding(self):
        updates, references = _expert_updates(np.random.default_rng(43), 1)
        frame = encode_update(updates[0], get_codec("topk:0.25:int4"),
                              reference=references[0])
        verify_frame(frame)                     # no reference needed: nothing decodes
        verify_frame(memoryview(bytearray(frame)))
        for position in (0, 7, len(frame) // 2, len(frame) - 1):
            damaged = bytearray(frame)
            damaged[position] ^= 0xFF
            with pytest.raises(PayloadCorruptedError):
                verify_frame(bytes(damaged))
        with pytest.raises(PayloadCorruptedError):
            verify_frame(frame[:6])


# ------------------------------------------------------------------- uplink
WIRE = dict(transport="wire", codec="topk:0.25:int4", participants_per_round=3)


def _fmd(vocab, tiny_config, **knobs):
    server, participants, test, config = build_federation(
        vocab, tiny_config, num_clients=3, **dict(WIRE, **knobs))
    return FMDFineTuner(server, participants, test, config=config)


def _trained_updates(tuner, participant_id=0):
    participant = tuner.participant_by_id(participant_id)
    return participant, tuner.participant_round(participant, 0).updates


@pytest.fixture()
def decode_calls(monkeypatch):
    """How often a delivered update's ``state`` was decoded."""
    calls = []

    def counted(data, **kwargs):
        calls.append(len(data))
        return decode_update(data, **kwargs)

    monkeypatch.setattr(aggregation_module, "decode_update", counted)
    return calls


class TestDeliveredStateIsDecodedWhenRead:
    def test_not_until_read_then_once(self, vocab, tiny_config, decode_calls):
        tuner = _fmd(vocab, tiny_config)
        participant, updates = _trained_updates(tuner)
        delivered, stats = tuner.transmit_updates(participant, updates)
        assert len(delivered) == len(updates) == stats.payloads
        assert decode_calls == []
        first = delivered[0].state
        assert len(decode_calls) == 1
        assert delivered[0].state is first
        assert len(decode_calls) == 1

    def test_equals_the_eager_decode(self, vocab, tiny_config):
        eager_tuner, lazy_tuner = _fmd(vocab, tiny_config), _fmd(vocab, tiny_config)
        participant, updates = _trained_updates(eager_tuner)
        eager, eager_stats = oracle_transmit_updates(eager_tuner, participant, updates)
        lazy, lazy_stats = lazy_tuner.transmit_updates(
            lazy_tuner.participant_by_id(0), updates)
        assert lazy_stats == eager_stats
        assert len(lazy) == len(eager) > 1
        for got, want in zip(lazy, eager):
            assert (got.participant_id, got.layer, got.expert) == (
                want.participant_id, want.layer, want.expert)
            assert got.weight == want.weight and type(got.weight) is type(want.weight)
            assert (got.wire_frame, got.wire_codec) == (want.wire_frame, want.wire_codec)
            assert list(got.state) == list(want.state)
            for name in want.state:
                assert got.state[name].dtype == want.state[name].dtype
                assert got.state[name].tobytes() == want.state[name].tobytes()
                assert got.wire_reference[name].tobytes() == want.wire_reference[name].tobytes()

    def test_survives_replace_equality_and_pickle(self, vocab, tiny_config, decode_calls):
        tuner = _fmd(vocab, tiny_config)
        delivered, _ = tuner.transmit_updates(*_trained_updates(tuner))
        update = delivered[0]
        expected = decode_update(update.wire_frame, reference=update.wire_reference).state

        shipped = pickle.loads(pickle.dumps(update))
        assert decode_calls == []                       # pickled undecoded
        assert set(vars(shipped)) == set(vars(ExpertUpdate(0, 0, 0, {})))
        for name, value in shipped.state.items():
            assert value.tobytes() == expected[name].tobytes()

        heavier = dataclasses.replace(update, weight=2.0 * update.weight)
        assert heavier.weight == 2.0 * update.weight
        assert heavier.wire_frame == update.wire_frame
        for name, value in heavier.state.items():
            assert value.tobytes() == expected[name].tobytes()

        assert update == update
        assert update != dataclasses.replace(update, expert=update.expert + 1)
        assert "state={" in repr(update)

    def test_in_memory_updates_are_untouched(self, decode_calls):
        state = {"w": np.ones((2, 2))}
        update = ExpertUpdate(1, 0, 0, state, 2.0)
        assert update.state is state
        update.state = None                             # no frame: nothing to decode
        assert update.state is None and decode_calls == []


class TestUplinkUnderFaults:
    KNOBS = dict(channel_corrupt_prob=0.2, channel_loss_prob=0.1)

    def test_one_upload_matches_the_oracle_uplink(self, vocab, tiny_config):
        oracle_tuner = _fmd(vocab, tiny_config, **self.KNOBS)
        tuner = _fmd(vocab, tiny_config, **self.KNOBS)
        lost = corrupted = failures = 0
        for participant_id in range(3):
            participant, updates = _trained_updates(oracle_tuner, participant_id)
            want, want_stats = oracle_transmit_updates(oracle_tuner, participant, updates)
            got, got_stats = tuner.transmit_updates(
                tuner.participant_by_id(participant_id), updates)
            assert got_stats == want_stats
            assert [u.key for u in got] == [u.key for u in want]
            assert [u.wire_frame for u in got] == [u.wire_frame for u in want]
            for a, b in zip(got, want):
                assert all(a.state[n].tobytes() == b.state[n].tobytes() for n in b.state)
            lost += got_stats.lost
            corrupted += got_stats.corrupted
            failures += got_stats.decode_failures
        assert lost and corrupted and failures == corrupted

    def test_a_frame_that_fails_never_reaches_aggregation(self, vocab, tiny_config):
        tuner = _fmd(vocab, tiny_config, channel_corrupt_prob=1.0)
        delivered, stats = tuner.transmit_updates(*_trained_updates(tuner))
        assert delivered == []
        assert stats.corrupted == stats.decode_failures == stats.payloads > 0


class TestSharedReference:
    def test_fetched_once_per_expert_and_version_and_read_only(self, vocab, tiny_config,
                                                               monkeypatch):
        tuner = _fmd(vocab, tiny_config)
        fetched = []
        original = tuner.server.expert_state
        monkeypatch.setattr(tuner.server, "expert_state",
                            lambda layer, expert: fetched.append((layer, expert))
                            or original(layer, expert))
        participant, updates = _trained_updates(tuner)
        first, _ = tuner.transmit_updates(participant, updates)
        second, _ = tuner.transmit_updates(tuner.participant_by_id(1), updates)
        assert sorted(fetched) == sorted(update.key for update in updates)
        assert all(a.wire_reference is b.wire_reference for a, b in zip(first, second))
        with pytest.raises(ValueError, match="read-only"):
            first[0].wire_reference["w_up"][0, 0] = 1.0

        tuner.server.aggregate(first)                   # a new server version
        third, _ = tuner.transmit_updates(participant, updates)
        assert len(fetched) == 2 * len(updates)
        assert third[0].wire_reference is not first[0].wire_reference
        for name, value in tuner.server.expert_state(*third[0].key).items():
            assert np.array_equal(third[0].wire_reference[name], value)

    def test_dropped_on_resume(self, vocab, tiny_config):
        tuner = _fmd(vocab, tiny_config)
        tuner.transmit_updates(*_trained_updates(tuner))
        assert tuner._uplink_references is not None
        tuner.import_run_state(tuner.export_run_state())
        assert tuner._uplink_references is None

    def test_async_run_equals_the_uncached_run(self, vocab, tiny_config, monkeypatch):
        """The server advances between the uploads of one async "round"."""
        knobs = dict(scheduler="async", buffer_size=2, async_concurrency=2,
                     participants_per_round=2)
        cached = _fmd(vocab, tiny_config, **knobs)
        cached_result = cached.run(num_rounds=4)

        def uncached(self, layer, expert):
            return self.server.expert_state(layer, expert)

        monkeypatch.setattr(FederatedFineTuner, "uplink_reference", uncached)
        fresh = _fmd(vocab, tiny_config, **knobs)
        assert_run_results_equal(fresh.run(num_rounds=4), cached_result)
        assert_models_equal(fresh.server.global_model, cached.server.global_model)


# ---------------------------------------------------------- client framing
def _oracle_frames(tuner, updates):
    codec = get_codec(tuner.wire_codec_name())
    return [oracle_encode_update(update, codec, tuner.server.expert_state(*update.key))
            for update in updates]


def _identity(update):
    """Everything a byte-holding update is, but the reference it decodes against."""
    return (update.participant_id, update.key, update.weight,
            update.wire_frame, update.wire_codec, update.wire_raw_bytes)


class TestUploadIsFramedWhenTheClientFinishes:
    def test_participant_loop_hands_back_bytes_not_tensors(self, vocab, tiny_config):
        tuner, dense_tuner = _fmd(vocab, tiny_config), _fmd(vocab, tiny_config)
        results = run_participants(tuner, tuner.participants, 0)
        assert list(results) == [p.participant_id for p in tuner.participants]
        for participant_id, result in results.items():
            _, dense = _trained_updates(dense_tuner, participant_id)
            assert [u.wire_frame for u in result.updates] == _oracle_frames(dense_tuner, dense)
            for update, trained in zip(result.updates, dense):
                assert vars(update)["state"] is None and update.framed
                assert (update.participant_id, update.key, update.weight) == (
                    trained.participant_id, trained.key, trained.weight)
                assert update.wire_codec == WIRE["codec"]
                assert update.wire_reference is tuner.uplink_reference(*update.key)
                assert update.wire_raw_bytes == sum(v.nbytes for v in trained.state.values())

    def test_a_round_in_flight_costs_its_wire_bytes(self, vocab, tiny_config):
        # experts wide enough that frame headers and object overhead are small
        tuner = _fmd(vocab, dataclasses.replace(tiny_config, d_ff=64))
        run_participants(tuner, tuner.participants, 0)    # caches, references
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            results = run_participants(tuner, tuner.participants, 0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        updates = [update for result in results.values() for update in result.updates]
        wire = sum(len(update.wire_frame) for update in updates)
        dense = sum(update.wire_raw_bytes for update in updates)
        assert dense > 10 * wire                # what holding the tensors would cost
        assert retained <= 3 * wire + 16_384

    def test_analytic_transport_returns_what_it_got(self, vocab, tiny_config, monkeypatch):
        tuner = _fmd(vocab, tiny_config, transport="analytic", codec=None)
        trained = {}
        participant_round = FMDFineTuner.participant_round

        def recorded(self, participant, round_index):
            trained[participant.participant_id] = participant_round(
                self, participant, round_index)
            return trained[participant.participant_id]

        monkeypatch.setattr(FMDFineTuner, "participant_round", recorded)
        results = run_participants(tuner, tuner.participants, 0)
        assert all(results[pid] is result for pid, result in trained.items())
        assert all(update.state is not None and not update.framed
                   for result in results.values() for update in result.updates)

    def test_framing_twice_is_framing_once(self, vocab, tiny_config):
        tuner = _fmd(vocab, tiny_config)
        result = tuner.participant_round(tuner.participant_by_id(0), 0)
        once = tuner.frame_upload(result)
        assert once is not result and once.breakdown is result.breakdown
        assert tuner.frame_upload(once) is once
        assert [u.wire_frame for u in once.updates] == _oracle_frames(tuner, result.updates)

    def test_sending_framed_updates_is_sending_the_trained_ones(self, vocab, tiny_config):
        knobs = dict(channel_corrupt_prob=0.2, channel_loss_prob=0.1)
        early, late = _fmd(vocab, tiny_config, **knobs), _fmd(vocab, tiny_config, **knobs)
        for participant_id in range(3):
            participant, updates = _trained_updates(late, participant_id)
            want, want_stats = late.transmit_updates(participant, updates)
            framed = early.frame_upload(
                early.participant_round(early.participant_by_id(participant_id), 0))
            got, got_stats = early.transmit_updates(
                early.participant_by_id(participant_id), framed.updates)
            assert got_stats == want_stats
            assert [_identity(u) for u in got] == [_identity(u) for u in want]
            for a, b in zip(got, want):
                assert all(a.state[n].tobytes() == b.state[n].tobytes() for n in b.state)
            assert all(update.framed for update in framed.updates)  # copies were decoded

    def test_a_straggler_past_the_deadline_is_framed_and_never_sent(self, vocab, tiny_config,
                                                                    monkeypatch):
        """Semisync: its frames are built when it finishes, and dropped with it."""
        def build():
            server, participants, test, config = build_federation(
                vocab, tiny_config, scheduler="semisync", deadline_quantile=0.5,
                transport="wire", codec=WIRE["codec"], channel_loss_prob=0.1)
            return ConstantMethod(server, participants, test, config=config)

        with oracle_uplink(monkeypatch):
            oracle_tuner = build()
            expected = oracle_tuner.run(num_rounds=2)

        framed = []
        frame_upload = FederatedFineTuner.frame_upload
        monkeypatch.setattr(
            FederatedFineTuner, "frame_upload",
            lambda self, result: framed.append(frame_upload(self, result)) or framed[-1])
        tuner = build()
        result = tuner.run(num_rounds=2)
        assert_run_results_equal(result, expected)
        assert_models_equal(tuner.server.global_model, oracle_tuner.server.global_model)
        assert all(r.num_stragglers > 0 for r in result.rounds)
        assert len(framed) == sum(r.num_aggregated + r.num_stragglers for r in result.rounds)
        assert all(update.framed for upload in framed for update in upload.updates)
        assert tuner.export_channel_states() == oracle_tuner.export_channel_states()
        assert sum(channel.stats.payloads for channel in tuner._channels.values()) == sum(
            r.num_aggregated for r in result.rounds)    # ConstantMethod: one update each


# ---------------------------------------------------------------- run level
RUN_CONFIGS = {
    "flat_serial": {},
    "flat_faults": dict(channel_corrupt_prob=0.2, channel_loss_prob=0.1),
    "sharded_tree_serial": dict(num_shards=2, edge_tiers=(2, 2),
                                channel_corrupt_prob=0.2, channel_loss_prob=0.1),
    "service_one_tier": dict(num_shards=2, edge_tiers=(2,), aggregation_executor="service",
                             service_transport="socketpair", aggregation_workers=2),
    "service_two_tiers": dict(num_shards=2, edge_tiers=(2, 2),
                              aggregation_executor="service", service_transport="socketpair",
                              aggregation_workers=2),
    "service_sharded_faults": dict(num_shards=2, aggregation_executor="service",
                                   service_transport="socketpair", aggregation_workers=2,
                                   channel_corrupt_prob=0.2, channel_loss_prob=0.1),
    "trimmed_mean": dict(aggregation="trimmed_mean", trim_ratio=0.2),
    "median_fp32_codec": dict(aggregation="median", codec="fp32"),
    "async": dict(scheduler="async", buffer_size=2, async_concurrency=2,
                  participants_per_round=2),
}


class TestRunsEqualTheOracleUplinkRuns:
    """Whole runs on the batched, verify-only uplink equal the runs on its oracle."""

    ROUNDS = 2

    def _oracle_run(self, monkeypatch, vocab, tiny_config, rounds, **knobs):
        with oracle_uplink(monkeypatch):
            tuner = _fmd(vocab, tiny_config, **knobs)
            return tuner, tuner.run(num_rounds=rounds)

    @pytest.mark.parametrize("config", sorted(RUN_CONFIGS))
    def test_two_rounds(self, vocab, tiny_config, monkeypatch, config):
        knobs = RUN_CONFIGS[config]
        oracle_tuner, expected = self._oracle_run(
            monkeypatch, vocab, tiny_config, self.ROUNDS, **knobs)
        tuner = _fmd(vocab, tiny_config, **knobs)
        assert_run_results_equal(tuner.run(num_rounds=self.ROUNDS), expected)
        assert_models_equal(tuner.server.global_model, oracle_tuner.server.global_model)
        if "channel_loss_prob" in knobs:
            assert sum(r.payloads_lost for r in expected.rounds) > 0
            assert sum(r.payloads_corrupted for r in expected.rounds) > 0

    def test_kill_and_resume(self, vocab, tiny_config, monkeypatch, tmp_path):
        knobs = dict(channel_loss_prob=0.1)
        oracle_tuner, expected = self._oracle_run(monkeypatch, vocab, tiny_config, 3, **knobs)
        durable = dict(knobs, checkpoint_every=1, checkpoint_dir=str(tmp_path))
        _fmd(vocab, tiny_config, **durable).run(num_rounds=2)
        resumed = _fmd(vocab, tiny_config, **durable)
        result = resumed.run(num_rounds=3, resume_from=latest_checkpoint(str(tmp_path)))
        assert_run_results_equal(result, expected)
        assert_models_equal(resumed.server.global_model, oracle_tuner.server.global_model)

    def test_resume_on_a_used_tuner_drops_its_references(self, vocab, tiny_config,
                                                         monkeypatch, tmp_path):
        """Same round index, other weights: PR 13's quantized-model cache rule."""
        oracle_tuner, expected = self._oracle_run(monkeypatch, vocab, tiny_config, 2)
        tuner = _fmd(vocab, tiny_config, checkpoint_every=1, checkpoint_dir=str(tmp_path))
        tuner.run(num_rounds=2)
        first_snapshot = sorted(p for p in tmp_path.iterdir() if p.is_dir())[0]
        # Same object, rewound to round 1: references keyed on a round index
        # the restored server reaches again must not survive the import.
        stranger = MoETransformer(dataclasses.replace(tiny_config, seed=tiny_config.seed + 1))
        tuner._uplink_references = (1, {key: stranger.expert_state(*key)
                                        for key in stranger.iter_expert_ids()})
        result = tuner.run(num_rounds=2, resume_from=str(first_snapshot))
        assert_run_results_equal(result, expected)
        assert_models_equal(tuner.server.global_model, oracle_tuner.server.global_model)
