"""Tests for the zero-copy decode-and-fold fast path.

Pins the three invariants the hot path rests on: scratch decode is
*bit-identical* to fresh-allocation decode for every registered codec (the
fold must not change a single bit when the scratch pool engages), corrupted
or truncated frames surface as :class:`PayloadCorruptedError` from the
memoryview reader (never an over-read or a silent partial decode), and the
:class:`ScratchPool` itself recycles instead of allocating in steady state.
"""

import pickle
import socket
import struct
import zlib

import numpy as np
import pytest

from repro.comm import (
    FrameStream,
    PayloadCorruptedError,
    ScratchPool,
    StreamingAggregator,
    decode_state_dict,
    decode_update,
    encode_state_dict,
    encode_update,
    get_codec,
)
from repro.comm.serialization import MAGIC
from repro.federated import ExpertUpdate

#: every registered codec family, parameterised variants included
ALL_CODECS = [
    "fp64", "fp32", "fp16",
    "int8", "int4", "int2",
    "topk", "topk:0.25", "topk:0.25:int4", "topk:0.5:int2",
    "sparse-delta",
]

SHAPES = [(16, 16), (3,), (5, 7, 2), (1, 1)]


def _make_state(rng, shapes, dtype):
    return {f"t{i}": rng.normal(size=shape).astype(dtype)
            for i, shape in enumerate(shapes)}


def _roundtrip_pair(codec_name, dtype, shapes, seed=0):
    """(frame, reference) for one encoded state under ``codec_name``."""
    rng = np.random.default_rng(seed)
    codec = get_codec(codec_name)
    state = _make_state(rng, shapes, dtype)
    reference = None
    if codec.needs_reference:
        reference = {name: value + rng.normal(size=value.shape).astype(dtype)
                     for name, value in state.items()}
    return encode_state_dict(state, codec, reference=reference), reference


# ------------------------------------------------------------- scratch pool
class TestScratchPool:
    def test_take_recycle_reuses_storage(self):
        pool = ScratchPool()
        first = pool.take((4, 4), np.dtype("<f8"))
        assert pool.allocations == 1
        pool.recycle()
        second = pool.take((4, 4), np.dtype("<f8"))
        assert second is first
        assert pool.allocations == 1

    def test_distinct_keys_allocate_separately(self):
        pool = ScratchPool()
        a = pool.take((4, 4), np.dtype("<f8"))
        b = pool.take((4, 4), np.dtype("<f4"))
        c = pool.take((2, 8), np.dtype("<f8"))
        assert len({id(a), id(b), id(c)}) == 3
        assert pool.allocations == 3

    def test_outstanding_takes_do_not_alias(self):
        pool = ScratchPool()
        a = pool.take((3,), np.dtype("<f8"))
        b = pool.take((3,), np.dtype("<f8"))
        assert a is not b

    def test_term_is_persistent_and_separate_from_take(self):
        pool = ScratchPool()
        term = pool.term((4, 4))
        taken = pool.take((4, 4), np.dtype("<f8"))
        assert term is not taken
        assert pool.term((4, 4)) is term
        pool.recycle()
        assert pool.term((4, 4)) is term

    def test_pickle_ships_an_empty_pool(self):
        pool = ScratchPool()
        pool.take((8, 8), np.dtype("<f8"))
        pool.term((8, 8))
        clone = pickle.loads(pickle.dumps(pool))
        assert clone.allocations == 0
        assert clone._free == {} and clone._terms == {} and clone._taken == []


# ----------------------------------------------------- decode bit-identity
@pytest.mark.parametrize("codec_name", ALL_CODECS)
@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
def test_scratch_decode_bit_identical(codec_name, dtype):
    frame, reference = _roundtrip_pair(codec_name, dtype, SHAPES)
    fresh = decode_state_dict(frame, reference=reference)
    pool = ScratchPool()
    scratched = decode_state_dict(frame, reference=reference, scratch=pool)
    assert fresh.keys() == scratched.keys()
    for name in fresh:
        assert fresh[name].dtype == scratched[name].dtype
        assert fresh[name].shape == scratched[name].shape
        np.testing.assert_array_equal(fresh[name], scratched[name])
    pool.recycle()


@pytest.mark.parametrize("codec_name", ["topk:0.25:int4", "sparse-delta"])
def test_scratch_decode_bit_identical_large_tensor(codec_name):
    # > 65535 elements exercises the wide (u32) index width of the sparse
    # codecs' integer sections
    frame, reference = _roundtrip_pair(codec_name, "<f8", [(66000,)])
    fresh = decode_state_dict(frame, reference=reference)
    scratched = decode_state_dict(frame, reference=reference,
                                  scratch=ScratchPool())
    for name in fresh:
        np.testing.assert_array_equal(fresh[name], scratched[name])


def test_steady_state_decode_is_allocation_free():
    frame, _ = _roundtrip_pair("int8", "<f8", SHAPES)
    pool = ScratchPool()
    decode_state_dict(frame, scratch=pool)
    pool.recycle()
    warm = pool.allocations
    for _ in range(5):
        decode_state_dict(frame, scratch=pool)
        pool.recycle()
    assert pool.allocations == warm


def test_same_dtype_cast_decode_is_frame_backed():
    # fp64 wire of float64 tensors: under scratch the decoded arrays are
    # read-only views straight into the frame — no pool checkout at all
    frame, _ = _roundtrip_pair("fp64", "<f8", SHAPES)
    pool = ScratchPool()
    state = decode_state_dict(frame, scratch=pool)
    assert pool.allocations == 0
    for value in state.values():
        assert not value.flags.writeable
    fresh = decode_state_dict(frame)
    for name in fresh:
        np.testing.assert_array_equal(fresh[name], state[name])
        # fresh decode still hands out owned, writable arrays
        assert fresh[name].flags.writeable


def test_update_scratch_decode_matches(monkeypatch):
    rng = np.random.default_rng(3)
    update = ExpertUpdate(participant_id=7, layer=1, expert=2,
                          state=_make_state(rng, SHAPES, "<f8"), weight=2.5)
    frame = encode_update(update, get_codec("fp32"))
    fresh = decode_update(frame)
    scratched = decode_update(frame, scratch=ScratchPool())
    assert (fresh.participant_id, fresh.layer, fresh.expert, fresh.weight) == \
        (scratched.participant_id, scratched.layer, scratched.expert,
         scratched.weight) == (7, 1, 2, 2.5)
    for name in fresh.state:
        np.testing.assert_array_equal(fresh.state[name], scratched.state[name])


def test_memoryview_input_decodes_like_bytes():
    frame, _ = _roundtrip_pair("fp32", "<f8", SHAPES)
    from_bytes = decode_state_dict(frame)
    from_view = decode_state_dict(memoryview(frame))
    from_bytearray = decode_state_dict(bytearray(frame))
    for name in from_bytes:
        np.testing.assert_array_equal(from_bytes[name], from_view[name])
        np.testing.assert_array_equal(from_bytes[name], from_bytearray[name])


# ------------------------------------------------------------- fuzz: safety
@pytest.mark.parametrize("codec_name", ["fp64", "fp16", "int4", "topk:0.5:int2"])
def test_truncated_frames_always_raise(codec_name):
    frame, reference = _roundtrip_pair(codec_name, "<f8", [(16, 16), (5,)])
    # cut at every length across the header and a stride through the payload
    cuts = list(range(0, min(len(frame), 64))) + \
        list(range(64, len(frame), 97)) + [len(frame) - 1]
    for cut in cuts:
        with pytest.raises(PayloadCorruptedError):
            decode_state_dict(frame[:cut], reference=reference)
        with pytest.raises(PayloadCorruptedError):
            decode_state_dict(frame[:cut], reference=reference,
                              scratch=ScratchPool())


@pytest.mark.parametrize("codec_name", ["fp64", "int8", "sparse-delta"])
def test_bit_flips_always_raise(codec_name):
    frame, reference = _roundtrip_pair(codec_name, "<f8", [(8, 8)])
    rng = np.random.default_rng(11)
    for _ in range(60):
        corrupt = bytearray(frame)
        pos = int(rng.integers(len(corrupt)))
        corrupt[pos] ^= 1 << int(rng.integers(8))
        with pytest.raises(PayloadCorruptedError):
            decode_state_dict(bytes(corrupt), reference=reference,
                              scratch=ScratchPool())


def _reseal(body: bytearray) -> bytes:
    """Append a fresh CRC so only the *inner* lie survives the checksum."""
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


def test_crc_valid_but_lying_lengths_raise():
    frame, _ = _roundtrip_pair("fp64", "<f8", [(4, 4)])
    body = bytearray(frame[:-4])
    # ntensors follows magic(4) + kind(1) + codec_len(1) + codec
    ntensors_at = 6 + frame[5]
    name_len_at = ntensors_at + 2

    lying_count = bytearray(body)
    struct.pack_into("<H", lying_count, ntensors_at, 400)
    with pytest.raises(PayloadCorruptedError):
        decode_state_dict(_reseal(lying_count))

    lying_name = bytearray(body)
    struct.pack_into("<H", lying_name, name_len_at, 60000)
    with pytest.raises(PayloadCorruptedError):
        decode_state_dict(_reseal(lying_name))


def test_wrong_kind_and_bad_magic_raise():
    rng = np.random.default_rng(5)
    update = ExpertUpdate(participant_id=1, layer=0, expert=0,
                          state=_make_state(rng, [(4,)], "<f8"), weight=1.0)
    frame = encode_update(update, get_codec("fp64"))
    with pytest.raises(PayloadCorruptedError):
        decode_state_dict(frame)  # update frame through the state-dict door
    with pytest.raises(PayloadCorruptedError):
        decode_update(_reseal(bytearray(b"XXXX" + frame[4:-4])))
    assert frame[:4] == MAGIC


# --------------------------------------------------------- fold bit-identity
@pytest.mark.parametrize("strategy", ["fedavg", "staleness_fedavg"])
def test_scratch_fold_bit_identical(strategy):
    rng = np.random.default_rng(21)
    codec = get_codec("fp64")
    frames = []
    for pid in range(6):
        update = ExpertUpdate(participant_id=pid, layer=0, expert=1,
                              state=_make_state(rng, SHAPES, "<f8"),
                              weight=float(pid % 3) + 0.5)
        frames.append(encode_update(update, codec))

    plain = StreamingAggregator(strategy)
    pool = ScratchPool()
    one_by_one = StreamingAggregator(strategy, scratch=pool)
    folded = StreamingAggregator(strategy, scratch=ScratchPool())
    for frame in frames:
        plain.add(decode_update(frame))
        one_by_one.fold_frames([frame])
    assert pool.allocations > 0             # the fold did decode into the pool
    folded.fold_frames(frames)

    want = plain.finalize()
    for other in (one_by_one.finalize(), folded.finalize()):
        assert want.keys() == other.keys()
        for key in want:
            for name in want[key]:
                got = other[key][name]
                assert got.dtype == want[key][name].dtype
                np.testing.assert_array_equal(want[key][name], got)


@pytest.mark.parametrize("strategy", ["trimmed_mean", "median"])
def test_buffering_strategies_refuse_scratch(strategy):
    pool = ScratchPool()
    aggregator = StreamingAggregator(strategy, scratch=pool)
    # the fold works (decoding without scratch: the accumulators keep the
    # decoded states, a recycled array under them would be corruption) and
    # matches plain
    rng = np.random.default_rng(9)
    codec = get_codec("fp64")
    plain = StreamingAggregator(strategy)
    for pid in range(5):
        update = ExpertUpdate(participant_id=pid, layer=0, expert=0,
                              state=_make_state(rng, [(6, 6)], "<f8"),
                              weight=1.0)
        frame = encode_update(update, codec)
        aggregator.fold_frames([frame])
        plain.add(decode_update(frame))
    assert pool.allocations == 0
    want, got = plain.finalize(), aggregator.finalize()
    for key in want:
        for name in want[key]:
            np.testing.assert_array_equal(want[key][name], got[key][name])


# ------------------------------------------------------ stream view receive
def test_recv_frame_view_roundtrip_and_eof():
    left, right = socket.socketpair()
    try:
        frames = [b"alpha", b"", b"x" * 3000]
        sender = FrameStream(left)
        for frame in frames:
            sender.send_frame(frame)
        sender.close()
        stream = FrameStream(right)
        seen = []
        while True:
            view = stream.recv_frame_view()
            if view is None:
                break
            assert isinstance(view, memoryview)
            seen.append(bytes(view))  # copy: the view dies on the next recv
        assert seen == frames
    finally:
        right.close()


def test_recv_frame_view_buffer_is_reused():
    left, right = socket.socketpair()
    try:
        FrameStream(left).send_frame(b"first")
        FrameStream(left).send_frame(b"burst")
        stream = FrameStream(right)
        first = stream.recv_frame_view()
        assert bytes(first) == b"first"
        second = stream.recv_frame_view()
        assert bytes(second) == b"burst"
        # same storage, new contents: the first view is volatile by contract
        assert bytes(first) == b"burst"
    finally:
        left.close()
        right.close()


def test_recv_frame_view_decodes_in_place():
    frame, _ = _roundtrip_pair("fp64", "<f8", SHAPES)
    left, right = socket.socketpair()
    try:
        FrameStream(left).send_frame(frame)
        stream = FrameStream(right)
        view = stream.recv_frame_view()
        pool = ScratchPool()
        state = decode_state_dict(view, scratch=pool)
        fresh = decode_state_dict(frame)
        for name in fresh:
            np.testing.assert_array_equal(fresh[name], state[name])
    finally:
        left.close()
        right.close()
