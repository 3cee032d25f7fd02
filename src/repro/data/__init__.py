"""Synthetic data substrate: vocab, task generators, datasets, non-IID partitioning."""

from .datasets import (
    DATASET_SPECS,
    DatasetSpec,
    SyntheticDataset,
    make_dataset,
    make_dolly_like,
    make_gsm8k_like,
    make_mmlu_like,
)
from .loader import IGNORE_INDEX, Batch, collate, iter_batches, make_batches
from .partition import partition_dirichlet
from .synthetic import Sample, SyntheticTaskGenerator, TaskType
from .vocab import Vocabulary

__all__ = [
    "Vocabulary",
    "Sample",
    "SyntheticTaskGenerator",
    "TaskType",
    "DatasetSpec",
    "SyntheticDataset",
    "DATASET_SPECS",
    "make_dataset",
    "make_dolly_like",
    "make_gsm8k_like",
    "make_mmlu_like",
    "partition_dirichlet",
    "Batch",
    "collate",
    "iter_batches",
    "make_batches",
    "IGNORE_INDEX",
]
