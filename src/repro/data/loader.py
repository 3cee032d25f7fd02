"""Batching and padding of synthetic samples for model consumption."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .synthetic import Sample
from .vocab import Vocabulary

IGNORE_INDEX = -100


@dataclass
class Batch:
    """A padded batch of samples ready for the MoE transformer.

    ``labels`` contain ``IGNORE_INDEX`` for the prompt region and padding, so
    the LM loss only supervises answer tokens — the standard instruction-tuning
    recipe, and the reason the mini models learn the answer rules quickly.
    """

    input_ids: np.ndarray       # (batch, seq)
    attention_mask: np.ndarray  # (batch, seq) bool
    labels: np.ndarray          # (batch, seq) int with IGNORE_INDEX
    sample_ids: np.ndarray      # (batch,)
    samples: List[Sample]

    @property
    def batch_size(self) -> int:
        return int(self.input_ids.shape[0])

    @property
    def seq_len(self) -> int:
        return int(self.input_ids.shape[1])

    @property
    def num_tokens(self) -> int:
        return int(self.attention_mask.sum())


def collate(samples: Sequence[Sample], pad_id: int, max_seq_len: Optional[int] = None) -> Batch:
    """Pad a list of samples into one :class:`Batch`."""
    if not samples:
        raise ValueError("cannot collate an empty sample list")
    lengths = [s.length for s in samples]
    seq_len = max(lengths)
    if max_seq_len is not None:
        seq_len = min(seq_len, max_seq_len)
    batch = len(samples)

    input_ids = np.full((batch, seq_len), pad_id, dtype=np.int64)
    attention_mask = np.zeros((batch, seq_len), dtype=bool)
    labels = np.full((batch, seq_len), IGNORE_INDEX, dtype=np.int64)
    sample_ids = np.zeros(batch, dtype=np.int64)

    for row, sample in enumerate(samples):
        ids = sample.input_ids[:seq_len]
        length = len(ids)
        input_ids[row, :length] = ids
        attention_mask[row, :length] = True
        # Supervise only the answer region: labels[t] = input_ids[t + 1] for
        # positions t whose *next* token belongs to the answer.
        start = max(min(sample.prompt_length, length) - 1, 0)
        labels[row, start:length - 1] = ids[start + 1:length]
        sample_ids[row] = sample.sample_id

    return Batch(input_ids=input_ids, attention_mask=attention_mask, labels=labels,
                 sample_ids=sample_ids, samples=list(samples))


def iter_batches(samples: Sequence[Sample], batch_size: int, pad_id: int,
                 shuffle: bool = True, seed: int = 0, drop_last: bool = False,
                 max_seq_len: Optional[int] = None,
                 max_batches: Optional[int] = None) -> Iterator[Batch]:
    """Yield padded batches over ``samples``.

    ``max_batches`` stops after that many: the shuffle is the same, and the
    batches yielded are the first ones of the whole pass.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = np.arange(len(samples))
    if shuffle:
        np.random.default_rng(seed).shuffle(order)
    stop = len(order) if max_batches is None else min(len(order), max_batches * batch_size)
    for start in range(0, stop, batch_size):
        chunk = order[start:start + batch_size]
        if drop_last and len(chunk) < batch_size:
            break
        yield collate([samples[i] for i in chunk], pad_id=pad_id, max_seq_len=max_seq_len)


def make_batches(samples: Sequence[Sample], batch_size: int, vocab: Vocabulary,
                 shuffle: bool = True, seed: int = 0,
                 max_seq_len: Optional[int] = None,
                 max_batches: Optional[int] = None) -> List[Batch]:
    """Materialise the batches produced by :func:`iter_batches`."""
    return list(iter_batches(samples, batch_size, pad_id=vocab.PAD, shuffle=shuffle,
                             seed=seed, max_seq_len=max_seq_len, max_batches=max_batches))
