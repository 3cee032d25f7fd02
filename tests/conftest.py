"""Shared fixtures for the test suite.

Everything is deliberately tiny (16-dim model, <100-token vocabulary, a few
dozen samples) so the whole suite runs in seconds while still exercising the
real code paths: genuine backprop, routing, merging and federated rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import FrameStream, ScratchPool
from repro.data import Vocabulary, make_batches, make_gsm8k_like, partition_dirichlet
from repro.federated import ExpertUpdate, Participant, ParticipantResources, RunConfig
from repro.federated.server import _TrainingReplica
from repro.models import MoEModelConfig, MoETransformer, tiny_moe
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.runtime import AsyncScheduler
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel


@pytest.fixture(autouse=True)
def poison_on_recycle(monkeypatch):
    """Every volatile buffer is overwritten the moment its lease ends.

    The zero-copy paths hand out storage that is only valid for a while: a
    :class:`ScratchPool` array until ``recycle()``, a ``recv_frame_view`` until
    the stream's next receive (or ``release_recv_buffer``), the training
    replica's expert values — and the compact expert lists and merged spare
    experts mounted on it — until its ``with`` block ends.  Under this
    fixture — the whole suite — recycled arrays are filled with NaN, the
    handed-out part of a receive buffer (every byte before its read cursor)
    with ``0xFF`` before it is reused or released, and the replica's
    experts, spares included, and its resident optimizer state with NaN when
    it is taken back (a list that was mounted holds only those modules) and
    again before they are refreshed, so
    anything that kept reading a view past its lease computes garbage and a
    test fails, instead of the stale bytes happening to be right.
    """
    recycle = ScratchPool.recycle
    recv_frame_view = FrameStream.recv_frame_view
    release_recv_buffer = FrameStream.release_recv_buffer
    hand_out = _TrainingReplica.hand_out
    take_back = _TrainingReplica.take_back

    def poisoned_recycle(pool):
        for _, array in pool._taken:
            array.fill(np.nan if array.dtype.kind in "fc" else -1)
        recycle(pool)

    def poison_recv_buffer(stream):
        # everything before the read cursor has been handed out; the bytes
        # after it were read ahead and are frames still to come
        handed_out = stream._recv_cursor
        stream._recv_buffer[:handed_out] = b"\xff" * handed_out

    def poisoned_recv_frame_view(stream):
        poison_recv_buffer(stream)
        return recv_frame_view(stream)

    def poisoned_release_recv_buffer(stream):
        poison_recv_buffer(stream)
        release_recv_buffer(stream)

    def poison_replica_experts(replica):
        for target, _ in replica.experts:
            target.data.fill(np.nan)
        for layer in replica.model.moe_layers():
            for spare in layer._spare_experts:
                for param in spare.parameters():
                    param.data.fill(np.nan)
        for array in replica.training.buffers._arrays.values():
            array.fill(np.nan)

    def poisoned_hand_out(replica):
        poison_replica_experts(replica)
        return hand_out(replica)

    def poisoned_take_back(replica):
        take_back(replica)
        poison_replica_experts(replica)

    monkeypatch.setattr(ScratchPool, "recycle", poisoned_recycle)
    monkeypatch.setattr(FrameStream, "recv_frame_view", poisoned_recv_frame_view)
    monkeypatch.setattr(FrameStream, "release_recv_buffer", poisoned_release_recv_buffer)
    monkeypatch.setattr(_TrainingReplica, "hand_out", poisoned_hand_out)
    monkeypatch.setattr(_TrainingReplica, "take_back", poisoned_take_back)


def async_weight(weight, staleness):
    """``weight`` as an async aggregation ships it: ``weight · (1 + staleness) ** -0.5``."""
    return weight * AsyncScheduler().staleness_discount(staleness)


#: how :func:`_updates` weighs a round's participants and which experts each touches
UPDATE_PROFILES = ("graded", "equal", "spread", "partial")


def _profile_weight(profile, pid):
    if profile == "equal":
        return 1.0
    if profile == "spread":
        return 10.0 ** (pid % 5 - 2)
    return float(pid % 3 + 1)


def _updates(model, num_participants=6, seed=7, stale=False, profile="graded"):
    """One update per (participant, expert): noisy copies of ``model``'s experts.

    ``profile`` is one of :data:`UPDATE_PROFILES`: ``graded`` weighs
    participant ``pid`` ``pid % 3 + 1``; ``equal`` weighs everyone 1 (the
    unweighted mean); ``spread`` weighs across four orders of magnitude
    (0.01 … 100); ``partial`` is graded, but each participant skips every
    third expert, so an expert's group differs in size from its neighbours'.
    ``stale`` weights participant ``pid``'s updates as an async aggregation
    does when they are ``pid % 4`` versions stale.
    """
    if profile not in UPDATE_PROFILES:
        raise ValueError(f"unknown update profile {profile!r}")
    rng = np.random.default_rng(seed)
    updates = []
    for pid in range(num_participants):
        weight = _profile_weight(profile, pid)
        if stale:
            weight = async_weight(weight, pid % 4)
        for layer, expert in model.iter_expert_ids():
            state = {name: value + 0.01 * rng.normal(size=value.shape)
                     for name, value in model.expert_state(layer, expert).items()}
            if profile == "partial" and (layer + expert + pid) % 3 == 0:
                continue
            updates.append(ExpertUpdate(pid, layer, expert, state, weight=weight))
    return updates


def _assert_models_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


@pytest.fixture(scope="session")
def vocab() -> Vocabulary:
    return Vocabulary(size=96, num_topics=4)


@pytest.fixture(scope="session")
def tiny_config(vocab) -> MoEModelConfig:
    return tiny_moe(vocab_size=vocab.size)


@pytest.fixture()
def tiny_model(tiny_config) -> MoETransformer:
    return MoETransformer(tiny_config)


@pytest.fixture(scope="session")
def gsm_dataset(vocab):
    return make_gsm8k_like(vocab=vocab, num_samples=80, seed=7)


@pytest.fixture(scope="session")
def gsm_split(gsm_dataset):
    return gsm_dataset.split(seed=7)


@pytest.fixture()
def gsm_batches(gsm_dataset, vocab, tiny_config):
    return make_batches(gsm_dataset.samples[:24], batch_size=8, vocab=vocab,
                        shuffle=False, max_seq_len=tiny_config.max_seq_len)


@pytest.fixture(scope="session")
def build_federation(vocab):
    """Factory of a small ready-to-run federation; every call builds fresh
    participants, so two runs compared with each other start from equal state."""
    def build():
        dataset = make_gsm8k_like(vocab=vocab, num_samples=90, seed=11)
        train, test = dataset.split(seed=11)
        shards = partition_dirichlet(train, 3, alpha=0.5, seed=2)
        participants = [
            Participant(i, train.subset(shard),
                        resources=ParticipantResources(max_experts=6, max_tuning_experts=3),
                        seed=i)
            for i, shard in enumerate(shards)
        ]
        memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
        cost_models = {p.participant_id: CostModel(CONSUMER_GPU, memory) for p in participants}
        config = RunConfig(batch_size=8, max_local_batches=2, learning_rate=5e-3,
                           eval_max_samples=16, seed=0)
        return participants, test, cost_models, config
    return build


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
