"""The group fold equals the frame-at-a-time fold, byte for byte.

Three layers, each held to the code it replaced (kept verbatim in
``fold_oracles.py``):

* kernel — ``Codec.decode_arrays`` vs the per-tensor decoders;
* fold jobs — ``prefold_node_frames`` / ``fold_shard_frames`` over
  ``StreamingAggregator.fold_frames`` (a sender's frames decoded and folded as
  one group) vs the per-frame walk, decode and per-key accumulators: every
  partial frame and every shard aggregate, for every codec and weighting, on
  regular and ragged jobs, and the same exception on a bad frame;
* runs — a service run on a 2-tier, 2-shard tree whose every fold job is
  compared with the oracle while it runs, against the serial run.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service.server as service_server
from repro.baselines import FMDFineTuner
from repro.comm import (
    FrameStream,
    PayloadCorruptedError,
    ScratchPool,
    StreamingAggregator,
    decode_update,
    encode_state_dict,
    encode_updates,
    get_codec,
)
from repro.comm.aggregator import MAX_GROUP_FRAMES
from repro.comm.serialization import parse_update
from repro.federated import ExpertUpdate
from repro.service.fold import fold_shard_frames, prefold_node_frames

from conftest import async_weight
from fold_oracles import (
    oracle_decode_update_parts,
    oracle_fold_frames,
    oracle_fold_shard_frames,
    oracle_prefold_node_frames,
)
from test_run_checkpoint import assert_models_equal
from test_runtime import build_federation

CODECS = ["fp64", "fp32", "int4", "topk:0.1:int8", "topk:0.25:int4", "sparse-delta"]
SHAPES = {"w_gate": (6, 4), "w_up": (6, 4), "w_down": (4, 6), "bias": (5,)}
PSEUDO_ID = -3
#: :func:`_job`'s default weights as an async aggregation ships them, the
#: four participants 0, 2, 1 and 5 versions stale
ASYNC_WEIGHTS = [async_weight(float(pid % 3 + 1), staleness)
                 for pid, staleness in enumerate([0, 2, 1, 5])]
#: a four-participant job's weights: :func:`_job`'s default, the unweighted
#: mean, and four orders of magnitude apart
WEIGHTINGS = {"graded": None, "equal": [1.0] * 4, "spread": [0.01, 100.0, 1.0, 0.1]}


def _job(codec_name, participants=4, keys=((0, 0), (0, 1), (1, 0)), seed=0,
         shapes=SHAPES, dtype=np.float64, weights=None, movement=0.05):
    """``(framed, references)`` of a fold job: every participant uploads every key."""
    rng = np.random.default_rng(seed)
    codec = get_codec(codec_name)
    base = {key: {name: rng.normal(size=shape).astype(dtype)
                  for name, shape in shapes.items()} for key in keys}
    framed = []
    for pid in range(participants):
        updates = [ExpertUpdate(
            pid, layer, expert,
            {name: (value + movement * rng.normal(size=value.shape)).astype(dtype)
             for name, value in base[(layer, expert)].items()},
            weight=(float(pid % 3 + 1) if weights is None else weights[pid]))
            for layer, expert in keys]
        references = ([base[update.key] for update in updates]
                      if codec.needs_reference else None)
        framed.extend(encode_updates(updates, codec, references))
    references = ({key: encode_state_dict(state, get_codec("fp64"))
                   for key, state in base.items()} if codec.needs_reference else {})
    return framed, references


def _mixed_codec_job(weights=None):
    """A job whose senders' frames interleave a sparse, a dense and a narrow codec."""
    sparse, references = _job("topk:0.25:int4", seed=1, weights=weights)
    dense, _ = _job("fp64", seed=2, weights=weights)
    narrow, _ = _job("fp32", seed=3, dtype=np.float32, weights=weights)
    return [frame for trio in zip(sparse, dense, narrow) for frame in trio], references


def _assert_jobs_equal(framed, references, scratch=None):
    want_partials = oracle_prefold_node_frames(PSEUDO_ID, framed, references)
    want_shard = oracle_fold_shard_frames(framed, references)
    for pool in (scratch, None):
        assert prefold_node_frames(PSEUDO_ID, framed, references,
                                   scratch=pool) == want_partials
        assert fold_shard_frames(framed, references, scratch=pool) == want_shard
    return want_partials


# ------------------------------------------------------------------- kernels
class TestDecodeArraysEqualsDecodeArray:
    @pytest.mark.parametrize("codec_name", CODECS + ["topk:1:int4", "topk:0.3:int2",
                                                     "topk:0.3:int8", "int8"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(6, 4), (7,), (5, 3, 2), (1, 1), ()])
    def test_rows_are_the_per_tensor_decodes(self, codec_name, dtype, shape):
        rng = np.random.default_rng(zlib.crc32(repr((codec_name, shape)).encode()))
        codec = get_codec(codec_name)
        references = [rng.normal(size=shape).astype(dtype) for _ in range(5)]
        arrays = [(reference + 0.1 * rng.normal(size=shape)).astype(dtype)
                  for reference in references]
        arrays[2] = references[2].copy()        # nothing moved: empty sections
        sections = list(codec.encode_arrays(
            arrays, references if codec.needs_reference else None))
        refs = references if codec.needs_reference else None
        wire_dtype = np.dtype(dtype)
        want = [oracle_row(codec, row, shape, wire_dtype, reference)
                for row, reference in zip(sections, references)]
        for out in (None, np.full((5, *shape), np.nan, dtype=dtype)):
            got = codec.decode_arrays(sections, shape, wire_dtype, references=refs, out=out)
            assert got.shape == (5, *shape) and got.dtype == wire_dtype
            assert out is None or got is out
            for row, expected in zip(got, want):
                assert row.tobytes() == expected.tobytes()
        for row, reference, expected in zip(sections, references, want):
            (one,) = codec.decode_arrays(
                [row], shape, wire_dtype,
                references=[reference] if codec.needs_reference else None)
            assert one.tobytes() == expected.tobytes()

    def test_legacy_wide_indices_and_mixed_lengths_in_one_call(self):
        """u4 indices on a small tensor, an odd k and an empty row, together."""
        rng = np.random.default_rng(5)
        codec = get_codec("topk:0.3:int4")
        shape = (10,)                           # k = 3: a padded nibble per row
        references = [rng.normal(size=shape) for _ in range(4)]
        arrays = [reference + rng.normal(size=shape) for reference in references]
        arrays[1] = references[1].copy()
        arrays[3][np.argsort(np.abs(arrays[3] - references[3]))[-2:]] = \
            references[3][np.argsort(np.abs(arrays[3] - references[3]))[-2:]]
        sections = [list(row) for row in codec.encode_arrays(arrays, references)]
        narrow = np.frombuffer(sections[0][0], dtype="<u2")
        sections[0][0] = narrow.astype("<u4").tobytes()
        assert len({tuple(map(len, row)) for row in sections}) >= 3
        got = codec.decode_arrays(sections, shape, np.dtype("<f8"), references)
        for row, row_sections, reference in zip(got, sections, references):
            assert row.tobytes() == oracle_row(
                codec, row_sections, shape, np.dtype("<f8"), reference).tobytes()


def oracle_row(codec, sections, shape, dtype, reference):
    from fold_oracles import oracle_decode_array

    return oracle_decode_array(codec, sections, shape, dtype,
                               reference if codec.needs_reference else None)


# ----------------------------------------------------------------- fold jobs
class TestFoldJobsEqualTheFrameAtATimeFold:
    @pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
    @pytest.mark.parametrize("codec_name", CODECS)
    def test_every_codec_and_weighting(self, codec_name, weighting):
        dtype = np.float32 if codec_name in ("fp32", "int4") else np.float64
        framed, references = _job(codec_name, dtype=dtype, weights=WEIGHTINGS[weighting],
                                  seed=zlib.crc32(codec_name.encode()))
        partials = _assert_jobs_equal(framed, references, ScratchPool())
        assert len(partials) == 3

    @pytest.mark.parametrize("codec_name", ["topk:0.25:int4", "sparse-delta"])
    def test_all_zero_deltas_and_partly_moved_experts(self, codec_name):
        """Experts nobody routed to ship empty sections; some ship fewer entries."""
        framed, references = _job(codec_name, movement=0.0)
        moved, _ = _job(codec_name, seed=0)
        framed[1], framed[5] = moved[1], moved[5]
        assert any(all(len(section) == 0 for section in sections)
                   for sections in parse_update(framed[0]).sections)
        _assert_jobs_equal(framed, references, ScratchPool())

    @pytest.mark.parametrize("codec_name", ["topk:0.3:int4", "topk:0.3:int8", "topk:0.3:int2"])
    def test_odd_entry_counts(self, codec_name):
        framed, references = _job(codec_name, shapes={"w": (5, 2), "v": (11,)})
        _assert_jobs_equal(framed, references, ScratchPool())

    def test_wide_indices(self):
        framed, references = _job("topk:0.01:int4", participants=2, keys=((0, 0), (0, 1)),
                                  shapes={"w": (1, 66_000)})
        index_section = parse_update(framed[0]).sections[0][0]
        assert len(index_section) == 4 * 660
        _assert_jobs_equal(framed, references, ScratchPool())

    @pytest.mark.parametrize("codec_name", ["topk:0.25:int4", "fp64"])
    def test_a_key_twice_within_one_sender(self, codec_name):
        framed, references = _job(codec_name, participants=3)
        framed = framed[:3] + [framed[1], framed[1]] + framed[3:]   # (0, 1) three times
        _assert_jobs_equal(framed, references, ScratchPool())

    @pytest.mark.parametrize("codec_name", ["topk:0.1:int8", "fp64"])
    def test_one_frame_groups(self, codec_name):
        framed, references = _job(codec_name, participants=5, keys=((2, 3),))
        _assert_jobs_equal(framed, references, ScratchPool())

    def test_more_keys_than_one_group_holds(self):
        keys = tuple((layer, expert) for layer in range(2)
                     for expert in range(MAX_GROUP_FRAMES // 2 + 3))
        framed, references = _job("topk:0.25:int4", participants=2, keys=keys,
                                  shapes={"w": (4, 3)})
        assert len(keys) > MAX_GROUP_FRAMES
        _assert_jobs_equal(framed, references, ScratchPool())

    @pytest.mark.parametrize("codec_name", CODECS)
    def test_async_weights(self, codec_name):
        """Staleness-discounted weights, as async ships them, fold as given."""
        dtype = np.float32 if codec_name in ("fp32", "int4") else np.float64
        framed, references = _job(codec_name, dtype=dtype, weights=ASYNC_WEIGHTS,
                                  seed=zlib.crc32(codec_name.encode()))
        partials = _assert_jobs_equal(framed, references, ScratchPool())
        assert len(partials) == 3

    @pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
    def test_mixed_codecs_in_one_job(self, weighting):
        _assert_jobs_equal(*_mixed_codec_job(WEIGHTINGS[weighting]), ScratchPool())

    def test_mixed_codecs_in_one_job_with_async_weights(self):
        _assert_jobs_equal(*_mixed_codec_job(weights=ASYNC_WEIGHTS), ScratchPool())

    def test_senders_with_different_experts(self):
        """Rows that are neither consecutive nor all of an age."""
        first, references = _job("topk:0.25:int4", keys=((0, 0), (0, 1), (0, 2), (0, 3)))
        framed = ([first[i] for i in (0, 1, 2)] + [first[i] for i in (7, 4)]
                  + [first[i] for i in (9, 11, 8, 10)] + [first[14]])
        _assert_jobs_equal(framed, references, ScratchPool())

    def test_zero_weights(self):
        framed, references = _job("topk:0.25:int4", weights=[0.0, 2.0, 0.0, 1.0])
        _assert_jobs_equal(framed, references, ScratchPool())
        # a key with zero-weight contributions only: dropped upward, refused at a shard
        framed, references = _job("fp64", participants=2, weights=[0.0, 0.0])
        assert prefold_node_frames(PSEUDO_ID, framed, references) == []
        assert oracle_prefold_node_frames(PSEUDO_ID, framed, references) == []
        for fold in (fold_shard_frames, oracle_fold_shard_frames):
            with pytest.raises(ValueError, match="non-positive total weight"):
                fold(framed, references)

    @pytest.mark.parametrize("codec_name", ["fp64", "topk:0.25:int4"])
    def test_negative_weight_is_the_same_error(self, codec_name):
        framed, references = _job(codec_name, weights=[1.0, -2.0, 1.0, 1.0])
        errors = []
        for fold in (fold_shard_frames, oracle_fold_shard_frames):
            with pytest.raises(ValueError) as caught:
                fold(framed, references)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "aggregation weights must be non-negative"

    def test_mismatched_tensor_names_are_the_same_error(self):
        framed, references = _job("fp64", participants=2)
        other, _ = _job("fp64", participants=1, shapes={"w_gate": (6, 4), "extra": (2,)})
        errors = []
        for fold in (fold_shard_frames, oracle_fold_shard_frames):
            with pytest.raises(ValueError) as caught:
                fold(framed + other, references)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "cannot fold states with mismatched tensor names"


def _flip_payload_bit(frame: bytes) -> bytes:
    damaged = bytearray(frame)
    damaged[len(damaged) // 2] ^= 0x10
    return bytes(damaged)


def _reseal(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "little")


def _index_out_of_range(frame: bytes) -> bytes:
    """A checksummed frame whose first sparse index points past the tensor."""
    first_index_section = parse_update(frame).sections[0][0]
    offset = frame.index(bytes(first_index_section))
    body = bytearray(frame[:-4])
    body[offset:offset + 2] = (60_000).to_bytes(2, "little")
    return _reseal(bytes(body))


class TestABadFrameInTheMiddleOfAGroup:
    @pytest.mark.parametrize("damage", [
        _flip_payload_bit,
        lambda frame: frame[:len(frame) // 2],
        lambda frame: _reseal(frame[:len(frame) // 2]),
        _index_out_of_range,
        lambda frame: b"",
    ], ids=["bit-flip", "truncated", "truncated-resealed", "index-out-of-range", "empty"])
    @pytest.mark.parametrize("codec_name", ["topk:0.25:int4", "topk:0.1:int8"])
    def test_same_exception_and_nothing_of_it_folded(self, damage, codec_name):
        framed, references = _job(codec_name, participants=3)
        bad = 4                                   # second sender, key (0, 1)
        framed[bad] = damage(framed[bad])
        with pytest.raises(PayloadCorruptedError) as oracle_error:
            oracle_fold_frames(framed, references)
        from repro.comm import decode_state_dict

        states = {key: decode_state_dict(frame) for key, frame in references.items()}
        aggregator = StreamingAggregator(scratch=ScratchPool())
        with pytest.raises(PayloadCorruptedError) as error:
            aggregator.fold_frames(framed, reference_lookup=lambda layer, expert:
                                   states[(layer, expert)])
        assert type(error.value) is type(oracle_error.value)
        assert str(error.value) == str(oracle_error.value)
        # the first sender's group is folded; of the bad frame's group, nothing
        assert aggregator.contributions() == {(0, 0): 1, (0, 1): 1, (1, 0): 1}

    def test_missing_reference_is_the_same_error(self):
        framed, references = _job("topk:0.25:int4", participants=2)
        del references[(0, 1)]
        errors = []
        for fold in (fold_shard_frames, oracle_fold_shard_frames):
            with pytest.raises(ValueError) as caught:
                fold(framed, references)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert "needs a reference" in errors[0]


# ------------------------------------------------------------------ property
@st.composite
def _jobs(draw):
    codec_names = draw(st.lists(st.sampled_from(CODECS), min_size=1, max_size=3))
    num_keys = draw(st.integers(1, 5))
    keys = tuple((index % 2, index // 2) for index in range(num_keys))
    seed = draw(st.integers(0, 2 ** 16))
    framed, references = [], {}
    for codec_name in codec_names:
        participants = draw(st.integers(1, 4))
        dtype = draw(st.sampled_from([np.float64, np.float32]))
        weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                min_size=participants, max_size=participants))
        part, refs = _job(codec_name, participants=participants, keys=keys, seed=seed,
                          dtype=dtype, weights=weights,
                          movement=draw(st.sampled_from([0.0, 0.05])),
                          shapes={"w": (3, 5), "v": (7,)})
        framed.extend(part)
        references.update(refs)     # one seed: every codec deltas the same base
    order = draw(st.permutations(range(len(framed))))
    keep = draw(st.integers(1, len(framed)))
    return [framed[index] for index in order[:keep]], references


class TestRandomJobs:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(job=_jobs())
    def test_any_job_folds_like_the_oracle(self, job):
        framed, references = job
        outcomes = []
        for node, shard in ((oracle_prefold_node_frames, oracle_fold_shard_frames),
                            (prefold_node_frames, fold_shard_frames)):
            try:
                outcomes.append((node(PSEUDO_ID, framed, references),
                                 shard(framed, references)))
            except ValueError as error:     # a key left with zero total weight
                outcomes.append(("error", str(error)))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------- runs
class TestWholeRuns:
    KNOBS = dict(transport="wire", codec="topk:0.25:int4", edge_tiers=(2, 2),
                 num_shards=2, participants_per_round=4)

    def _run(self, vocab, tiny_config, **knobs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=4, **dict(self.KNOBS, **knobs))
        tuner = FMDFineTuner(server, participants, test, config=config)
        return tuner.run(2), tuner

    def test_serial_equals_service_and_every_job_equals_the_oracle(
            self, vocab, tiny_config, monkeypatch):
        checked = {"node": 0, "shard": 0}

        def checked_prefold(pseudo_id, framed, references=None, scratch=None):
            result = prefold_node_frames(pseudo_id, framed, references, scratch=scratch)
            assert result == oracle_prefold_node_frames(pseudo_id, framed, references)
            checked["node"] += 1
            return result

        def checked_shard(framed, references=None, scratch=None):
            result = fold_shard_frames(framed, references, scratch=scratch)
            assert result == oracle_fold_shard_frames(framed, references)
            checked["shard"] += 1
            return result

        monkeypatch.setattr(service_server, "prefold_node_frames", checked_prefold)
        monkeypatch.setattr(service_server, "fold_shard_frames", checked_shard)
        serial_result, serial_tuner = self._run(vocab, tiny_config)
        service_result, service_tuner = self._run(
            vocab, tiny_config, aggregation_executor="service",
            aggregation_workers=2, service_transport="socketpair")
        assert checked == {"node": 2 * (2 + 2), "shard": 2 * 2}
        for a, b in zip(serial_result.rounds, service_result.rounds):
            assert (a.train_loss, a.metric_value, a.simulated_time, a.tier_bytes) == \
                (b.train_loss, b.metric_value, b.simulated_time, b.tier_bytes)
        assert_models_equal(serial_tuner.server.global_model,
                            service_tuner.server.global_model)

    def test_tier0_partials_travel_as_bytes(self, vocab, tiny_config, monkeypatch):
        """Only the partials the root reads are decoded on the way up."""
        import repro.federated.topology as topology

        decoded = []
        decode_update = topology.decode_update
        monkeypatch.setattr(topology, "decode_update",
                            lambda frame, **kw: decoded.append(1) or decode_update(frame, **kw))
        _, tuner = self._run(vocab, tiny_config, aggregation_executor="service",
                             aggregation_workers=2, service_transport="socketpair")
        experts = sum(tiny_config.experts_per_layer())
        assert len(decoded) == 2 * 2 * experts    # rounds x last-tier nodes x keys

    def test_a_serial_round_decodes_in_the_fold_and_keeps_bytes(
            self, vocab, tiny_config, monkeypatch):
        """The local fold decodes each frame once, by group, and leaves no dense state.

        Nothing reads a framed update's lazy ``state``: every delivered update
        still holds bytes only after the round, and the per-frame
        ``decode_update`` (what that read calls) never ran.
        """
        import repro.comm
        import repro.comm.serialization as serialization
        import repro.federated.aggregation as aggregation
        import repro.federated.topology as topology

        per_frame = []
        for module in (repro.comm, serialization, aggregation, topology):
            monkeypatch.setattr(module, "decode_update",
                                lambda *args, **kw: per_frame.append(args) or 1 / 0)
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=4, aggregation_executor="serial", **self.KNOBS)
        tuner = FMDFineTuner(server, participants, test, config=config)
        delivered = []
        transmit = tuner.transmit_updates

        def recording(participant, updates):
            arrived, stats = transmit(participant, updates)
            delivered.extend(arrived)
            return arrived, stats

        tuner.transmit_updates = recording
        before = tuner.server.global_model.expert_state(0, 0)
        tuner.run(1)
        experts = sum(tiny_config.experts_per_layer())
        assert len(delivered) == 4 * experts and not per_frame
        assert all(update.framed for update in delivered)
        after = tuner.server.global_model.expert_state(0, 0)
        assert any(not np.array_equal(before[name], after[name]) for name in before)


# ------------------------------------------------------------ volatile views
class TestPoisonOnRecycle:
    """The suite-wide ``poison_on_recycle`` fixture does what it says."""

    def test_recycled_scratch_arrays_read_nan(self):
        pool = ScratchPool()
        kept = pool.take_rows(3, (2, 2), np.dtype("<f8"))
        kept[...] = 1.0
        codes = pool.take((4,), np.dtype("<i4"))
        codes[...] = 7
        pool.recycle()
        assert np.isnan(kept).all() and (codes == -1).all()

    def test_a_view_kept_past_the_fold_is_garbage(self):
        framed, _ = _job("int4", participants=1, dtype=np.float32)
        pool = ScratchPool()
        peek = decode_update(framed[0], scratch=pool)    # decoded into scratch
        pool.recycle()                                      # ... as a fold does when done
        assert all(np.isnan(value).all() for value in peek.state.values())

    def test_released_and_reused_receive_buffers_read_ff(self):
        import socket

        left, right = socket.socketpair()
        sender, receiver = FrameStream(left), FrameStream(right)
        try:
            sender.send_frame(b"a" * 100_000)
            view = receiver.recv_frame_view()
            assert bytes(view[:3]) == b"aaa"
            receiver.release_recv_buffer()
            assert bytes(view[:3]) == b"\xff\xff\xff"
            sender.send_frame(b"b" * 10)
            small = receiver.recv_frame_view()
            sender.send_frame(b"c")
            receiver.recv_frame_view()              # prefix and payload land in [:5]
            assert bytes(small[4:]) == b"\xff" * 6
        finally:
            sender.close()
            receiver.close()


def test_the_oracle_decodes_what_decode_update_decodes():
    """The oracle walk is held to today's single-frame decode, for what that is worth."""
    from repro.comm import decode_state_dict, decode_update

    for codec_name in CODECS:
        framed, references = _job(codec_name, participants=1)
        states = {key: decode_state_dict(frame) for key, frame in references.items()}
        for frame in framed:
            _, layer, expert, weight, state = oracle_decode_update_parts(
                frame, lambda layer, expert: states.get((layer, expert)))
            update = decode_update(frame, reference=states.get((layer, expert)))
            assert (update.layer, update.expert, update.weight) == (layer, expert, weight)
            assert all(update.state[name].tobytes() == state[name].tobytes()
                       for name in state)
