"""Tests for the synthetic data substrate: vocab, generators, datasets, loading."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DATASET_SPECS,
    Batch,
    IGNORE_INDEX,
    SyntheticTaskGenerator,
    TaskType,
    Vocabulary,
    collate,
    iter_batches,
    make_batches,
    make_dataset,
    make_dolly_like,
    make_gsm8k_like,
    make_mmlu_like,
)


class TestVocabulary:
    def test_regions_do_not_overlap(self):
        vocab = Vocabulary(size=128, num_topics=8)
        choice = set(vocab.choice_tokens())
        digits = set(vocab.digit_tokens())
        topics = set()
        for topic in range(vocab.num_topics):
            topics |= set(vocab.topic_block(topic))
        assert not (choice & digits)
        assert not (choice & topics)
        assert not (digits & topics)
        assert vocab.PAD not in choice | digits | topics

    def test_choice_token_roundtrip(self):
        vocab = Vocabulary()
        for c in range(vocab.num_choices):
            assert vocab.choice_tokens()[c] == vocab.choice_token(c)
        assert len(set(vocab.choice_tokens())) == vocab.num_choices
        with pytest.raises(ValueError):
            vocab.choice_token(99)

    def test_digit_token_roundtrip(self):
        vocab = Vocabulary()
        for d in range(10):
            assert vocab.digit_tokens()[d] == vocab.digit_token(d)

    def test_topic_blocks_tile_the_content_tokens(self):
        vocab = Vocabulary(size=128, num_topics=4)
        blocks = [vocab.topic_block(topic) for topic in range(4)]
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert blocks[-1].stop <= vocab.size
        assert vocab.PAD not in blocks[0]

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(size=20, num_topics=8)

    def test_topic_out_of_range(self):
        with pytest.raises(ValueError):
            Vocabulary().topic_block(99)


class TestSyntheticTaskGenerator:
    @pytest.fixture()
    def vocab(self):
        return Vocabulary(size=96, num_topics=4)

    def test_generation_sample_structure(self, vocab):
        generator = SyntheticTaskGenerator(vocab, TaskType.GENERATION, seed=0)
        sample = generator.sample(sample_id=5)
        assert sample.sample_id == 5
        assert sample.input_ids[0] == vocab.BOS
        assert sample.input_ids[sample.prompt_length] == vocab.ANSWER
        assert sample.input_ids[-1] == vocab.EOS
        assert sample.task_type is TaskType.GENERATION

    def test_generation_answer_rule_is_deterministic(self, vocab):
        generator = SyntheticTaskGenerator(vocab, TaskType.GENERATION, answer_length=4, seed=1)
        sample = generator.sample()
        content = sample.input_ids[2: sample.prompt_length - 1]
        expected = np.sort(content[:4])
        assert np.array_equal(sample.answer_ids[1:-1], expected)

    def test_math_sample_answer_follows_topic_rule(self, vocab):
        generator = SyntheticTaskGenerator(vocab, TaskType.MATH, seed=2)
        for _ in range(10):
            sample = generator.sample()
            prompt = sample.input_ids[: sample.prompt_length]
            digits = [vocab.digit_tokens().index(t) for t in prompt if t in vocab.digit_tokens()]
            assert len(digits) == 2  # two operand digits embedded in the prompt
            assert sample.label == (3 * sample.topic + 7) % 10
            assert sample.answer_ids[1] == vocab.digit_token(sample.label)

    def test_choice_sample_label_rule(self, vocab):
        generator = SyntheticTaskGenerator(vocab, TaskType.MULTIPLE_CHOICE, seed=3)
        for _ in range(10):
            sample = generator.sample()
            first_content = int(sample.input_ids[2])
            expected = (sample.topic + first_content) % vocab.num_choices
            assert sample.label == expected

    def test_forced_topic(self, vocab):
        generator = SyntheticTaskGenerator(vocab, TaskType.GENERATION, seed=4)
        sample = generator.sample(topic=2)
        assert sample.topic == 2
        block = vocab.topic_block(2)
        content = sample.input_ids[2: sample.prompt_length - 1]
        assert all(t in block for t in content)

    def test_generate_assigns_consecutive_ids(self, vocab):
        generator = SyntheticTaskGenerator(vocab, TaskType.MATH, seed=5)
        samples = generator.generate(5, start_id=10)
        assert [s.sample_id for s in samples] == list(range(10, 15))

    def test_topic_skew_produces_imbalance(self, vocab):
        generator = SyntheticTaskGenerator(vocab, TaskType.GENERATION, topic_skew=1.5, seed=6)
        topics = [generator.sample().topic for _ in range(200)]
        counts = np.bincount(topics, minlength=vocab.num_topics)
        assert counts.max() > 2 * counts.min()

    def test_min_prompt_length_validation(self, vocab):
        with pytest.raises(ValueError):
            SyntheticTaskGenerator(vocab, TaskType.MATH, mean_prompt_length=2)


class TestDatasets:
    def test_all_four_datasets(self):
        for factory in (make_dolly_like, make_gsm8k_like, make_mmlu_like):
            assert len(factory(num_samples=20, seed=0)) == 20
        assert len(make_dataset("piqa", num_samples=20, seed=0)) == 20

    def test_specs_metric_types(self):
        assert DATASET_SPECS["dolly"].metric == "rouge_l"
        assert DATASET_SPECS["gsm8k"].metric == "accuracy"
        assert DATASET_SPECS["mmlu"].task_type is TaskType.MULTIPLE_CHOICE

    def test_paper_targets_recorded(self):
        assert DATASET_SPECS["dolly"].paper_target == pytest.approx(0.5)
        assert DATASET_SPECS["gsm8k"].paper_target == pytest.approx(0.62)
        assert DATASET_SPECS["mmlu"].paper_target == pytest.approx(0.75)
        assert DATASET_SPECS["piqa"].paper_target == pytest.approx(0.8)

    def test_dolly_sequences_longer_than_gsm8k(self):
        dolly = make_dolly_like(num_samples=50, seed=1)
        gsm = make_gsm8k_like(num_samples=50, seed=1)
        assert (np.mean([s.length for s in dolly.samples])
                > np.mean([s.length for s in gsm.samples]))

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            make_dataset("imagenet")

    def test_split_is_disjoint_and_complete(self):
        dataset = make_mmlu_like(num_samples=40, seed=2)
        train, test = dataset.split(train_fraction=0.8, seed=0)
        assert len(train) == 32 and len(test) == 8
        train_ids = {s.sample_id for s in train.samples}
        test_ids = {s.sample_id for s in test.samples}
        assert not (train_ids & test_ids)

    def test_split_invalid_fraction(self):
        with pytest.raises(ValueError):
            make_mmlu_like(num_samples=10).split(train_fraction=1.5)

    def test_subset_preserves_spec(self):
        dataset = make_dataset("piqa", num_samples=30, seed=3)
        subset = dataset.subset([0, 2, 4])
        assert len(subset) == 3
        assert subset.spec is dataset.spec
        assert subset.samples[0] is dataset.samples[0]


class TestCollateAndBatches:
    @pytest.fixture()
    def dataset(self):
        return make_gsm8k_like(num_samples=20, seed=4)

    def test_collate_pads_to_longest(self, dataset):
        batch = collate(dataset.samples[:4], pad_id=dataset.vocab.PAD)
        lengths = [s.length for s in dataset.samples[:4]]
        assert batch.seq_len == max(lengths)
        assert batch.batch_size == 4
        assert batch.num_tokens == sum(lengths)

    def test_labels_only_on_answer_region(self, dataset):
        batch = collate(dataset.samples[:4], pad_id=dataset.vocab.PAD)
        for row, sample in enumerate(batch.samples):
            supervised = np.flatnonzero(batch.labels[row] != IGNORE_INDEX)
            # supervision starts one position before the answer (predicting the
            # ANSWER marker) and covers every answer token
            assert len(supervised) == len(sample.answer_ids)
            assert supervised[0] == sample.prompt_length - 1

    def test_collate_empty_rejected(self, dataset):
        with pytest.raises(ValueError):
            collate([], pad_id=0)

    def test_max_seq_len_truncation(self, dataset):
        batch = collate(dataset.samples[:4], pad_id=0, max_seq_len=8)
        assert batch.seq_len == 8

    def test_iter_batches_covers_all_samples(self, dataset):
        batches = list(iter_batches(dataset.samples, batch_size=6, pad_id=0, shuffle=False))
        assert sum(b.batch_size for b in batches) == len(dataset)

    def test_iter_batches_drop_last(self, dataset):
        batches = list(iter_batches(dataset.samples, batch_size=6, pad_id=0, drop_last=True))
        assert all(b.batch_size == 6 for b in batches)

    def test_make_batches_shuffle_determinism(self, dataset):
        a = make_batches(dataset.samples, 5, dataset.vocab, seed=3)
        b = make_batches(dataset.samples, 5, dataset.vocab, seed=3)
        assert np.array_equal(a[0].sample_ids, b[0].sample_ids)

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            list(iter_batches(dataset.samples, batch_size=0, pad_id=0))

    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    @pytest.mark.parametrize("max_seq_len", [None, 12])
    @pytest.mark.parametrize("max_batches", [1, 3, 1000])
    def test_kept_batches_equal_the_collate_all_then_slice_path(self, name, max_seq_len,
                                                                  max_batches):
        dataset = make_dataset(name, num_samples=40, seed=2)
        kept = make_batches(dataset.samples, 6, dataset.vocab, seed=5,
                            max_seq_len=max_seq_len, max_batches=max_batches)
        order = np.arange(len(dataset))
        np.random.default_rng(5).shuffle(order)
        chunks = [order[start:start + 6] for start in range(0, len(order), 6)]
        want = [collate_oracle([dataset.samples[i] for i in chunk], dataset.vocab.PAD,
                               max_seq_len) for chunk in chunks][:max_batches]
        assert len(kept) == len(want)
        for got, expected in zip(kept, want):
            for field in ("input_ids", "attention_mask", "labels", "sample_ids"):
                mine, theirs = getattr(got, field), getattr(expected, field)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), field
            assert got.samples == expected.samples


def collate_oracle(samples, pad_id, max_seq_len):
    """``collate`` with the answer labels written token by token."""
    seq_len = max(s.length for s in samples)
    if max_seq_len is not None:
        seq_len = min(seq_len, max_seq_len)
    input_ids = np.full((len(samples), seq_len), pad_id, dtype=np.int64)
    attention_mask = np.zeros((len(samples), seq_len), dtype=bool)
    labels = np.full((len(samples), seq_len), IGNORE_INDEX, dtype=np.int64)
    sample_ids = np.zeros(len(samples), dtype=np.int64)
    for row, sample in enumerate(samples):
        ids = sample.input_ids[:seq_len]
        length = len(ids)
        input_ids[row, :length] = ids
        attention_mask[row, :length] = True
        for t in range(max(min(sample.prompt_length, length) - 1, 0), length - 1):
            labels[row, t] = ids[t + 1]
        sample_ids[row] = sample.sample_id
    return Batch(input_ids=input_ids, attention_mask=attention_mask, labels=labels,
                 sample_ids=sample_ids, samples=list(samples))


#: SHA-256 of every sample of each preset dataset (default size), written by
#: the per-draw ``Generator.choice(p=)`` generator the cached CDFs replaced
DATASET_DIGESTS = Path(__file__).parent / "data" / "dataset_sha256.json"


def dataset_digest(name: str, seed: int) -> str:
    digest = hashlib.sha256()
    for sample in make_dataset(name, seed=seed).samples:
        digest.update(np.ascontiguousarray(sample.input_ids, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(sample.answer_ids, dtype=np.int64).tobytes())
        digest.update(repr((sample.prompt_length, sample.topic, sample.task_type.value,
                            sample.label, sample.sample_id)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(json.loads(DATASET_DIGESTS.read_text())))
def test_datasets_equal_the_recorded_samples(key):
    name, seed = key.split("/")
    assert dataset_digest(name, int(seed)) == json.loads(DATASET_DIGESTS.read_text())[key]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=8))
def test_collate_shapes_property(num_samples, batch_size):
    dataset = make_gsm8k_like(num_samples=max(num_samples, 1), seed=0)
    batches = make_batches(dataset.samples, batch_size, dataset.vocab, shuffle=False)
    assert sum(b.batch_size for b in batches) == len(dataset)
    for batch in batches:
        assert batch.input_ids.shape == batch.labels.shape == batch.attention_mask.shape
