"""Benchmark-dataset substitutes (Dolly / GSM8K / MMLU / PIQA analogues).

Each dataset is a list of :class:`~repro.data.synthetic.Sample` plus a
:class:`DatasetSpec` capturing the statistics that matter for the experiments:
the task type (which fixes the evaluation metric), the typical sequence length
(which drives per-round compute in the cost model), topic skew, and the
relative-accuracy target used by time-to-accuracy measurements.

The paper's absolute targets (0.5 ROUGE-L on Dolly, 0.62/0.75/0.8 accuracy on
GSM8K/MMLU/PIQA) refer to multi-billion-parameter models; the substitutes keep
the same *relative-accuracy* protocol with targets recalibrated for the mini
models (recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .synthetic import Sample, SyntheticTaskGenerator, TaskType
from .vocab import Vocabulary


@dataclass
class DatasetSpec:
    """Static description of one benchmark dataset substitute."""

    name: str
    task_type: TaskType
    metric: str                     # "rouge_l" or "accuracy"
    paper_target: float             # target value used in the paper
    mini_target: float              # recalibrated target for the mini models
    mean_prompt_length: int
    answer_length: int
    num_samples: int
    topic_skew: float


@dataclass
class SyntheticDataset:
    """A materialised dataset: samples plus its spec and vocabulary."""

    spec: DatasetSpec
    vocab: Vocabulary
    samples: List[Sample]

    def __len__(self) -> int:
        return len(self.samples)

    def subset(self, indices) -> "SyntheticDataset":
        """A view-like dataset restricted to ``indices`` (samples are shared)."""
        picked = [self.samples[int(i)] for i in indices]
        return SyntheticDataset(spec=self.spec, vocab=self.vocab, samples=picked)

    def split(self, train_fraction: float = 0.8, seed: int = 0):
        """Shuffle-split into (train, test) datasets."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.samples))
        cut = int(round(train_fraction * len(self.samples)))
        return self.subset(order[:cut]), self.subset(order[cut:])

    def topics(self) -> np.ndarray:
        return np.asarray([s.topic for s in self.samples], dtype=np.int64)


#: Specs for the four benchmark-dataset substitutes.  ``mean_prompt_length``
#: ordering mirrors the paper's observation that Dolly has the longest
#: sequences and GSM8K the shortest.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "dolly": DatasetSpec(
        name="dolly", task_type=TaskType.GENERATION, metric="rouge_l",
        paper_target=0.5, mini_target=0.55,
        mean_prompt_length=24, answer_length=6, num_samples=600, topic_skew=1.3,
    ),
    "gsm8k": DatasetSpec(
        name="gsm8k", task_type=TaskType.MATH, metric="accuracy",
        paper_target=0.62, mini_target=0.60,
        mean_prompt_length=12, answer_length=1, num_samples=600, topic_skew=1.5,
    ),
    "mmlu": DatasetSpec(
        name="mmlu", task_type=TaskType.MULTIPLE_CHOICE, metric="accuracy",
        paper_target=0.75, mini_target=0.70,
        mean_prompt_length=18, answer_length=1, num_samples=600, topic_skew=1.1,
    ),
    "piqa": DatasetSpec(
        name="piqa", task_type=TaskType.MULTIPLE_CHOICE, metric="accuracy",
        paper_target=0.8, mini_target=0.75,
        mean_prompt_length=14, answer_length=1, num_samples=600, topic_skew=1.2,
    ),
}


def make_dataset(name: str, vocab: Optional[Vocabulary] = None,
                 num_samples: Optional[int] = None, seed: int = 0) -> SyntheticDataset:
    """Build one of the benchmark-dataset substitutes by name."""
    key = name.lower()
    if key not in DATASET_SPECS:
        raise KeyError(f"unknown dataset '{name}'; available: {sorted(DATASET_SPECS)}")
    spec = DATASET_SPECS[key]
    vocab = vocab or Vocabulary()
    count = num_samples if num_samples is not None else spec.num_samples
    generator = SyntheticTaskGenerator(
        vocab=vocab,
        task_type=spec.task_type,
        mean_prompt_length=spec.mean_prompt_length,
        answer_length=spec.answer_length,
        topic_skew=spec.topic_skew,
        seed=seed,
    )
    samples = generator.generate(count)
    return SyntheticDataset(spec=spec, vocab=vocab, samples=samples)


def make_dolly_like(**kwargs) -> SyntheticDataset:
    """Dolly substitute: open-ended generation, longest sequences."""
    return make_dataset("dolly", **kwargs)


def make_gsm8k_like(**kwargs) -> SyntheticDataset:
    """GSM8K substitute: short math problems with exact-match answers."""
    return make_dataset("gsm8k", **kwargs)


def make_mmlu_like(**kwargs) -> SyntheticDataset:
    """MMLU substitute: 4-way multiple choice over many topics."""
    return make_dataset("mmlu", **kwargs)
