"""Non-IID data partitioning across federated participants.

Implements the FedNLP-style Dirichlet label/topic-skew partition used in the
paper: for every topic a Dirichlet(alpha) draw decides how that topic's samples
are shared among participants.  Small ``alpha`` yields highly skewed (non-IID)
partitions; large ``alpha`` approaches IID.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .datasets import SyntheticDataset


def partition_dirichlet(dataset: SyntheticDataset, num_clients: int, alpha: float = 0.5,
                        seed: int = 0, min_samples: int = 2) -> List[List[int]]:
    """Split sample indices across ``num_clients`` with Dirichlet topic skew.

    Parameters
    ----------
    dataset:
        Dataset whose per-sample ``topic`` drives the skew.
    num_clients:
        Number of participants.
    alpha:
        Dirichlet concentration; smaller is more non-IID.
    min_samples:
        Every client is guaranteed at least this many samples (re-balancing
        moves samples from the largest clients if necessary).

    Returns
    -------
    A list of ``num_clients`` index lists (disjoint, covering the dataset).
    """
    if num_clients < 1:
        raise ValueError("num_clients must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(dataset) < num_clients * min_samples:
        raise ValueError("dataset too small for the requested number of clients")

    rng = np.random.default_rng(seed)
    topics = dataset.topics()
    assignments: List[List[int]] = [[] for _ in range(num_clients)]

    for topic in np.unique(topics):
        topic_indices = np.flatnonzero(topics == topic)
        rng.shuffle(topic_indices)
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        counts = np.floor(proportions * len(topic_indices)).astype(int)
        # Distribute the remainder to the clients with the largest fractional parts.
        remainder = len(topic_indices) - counts.sum()
        if remainder > 0:
            fractional = proportions * len(topic_indices) - counts
            for client in np.argsort(-fractional)[:remainder]:
                counts[client] += 1
        start = 0
        for client, count in enumerate(counts):
            assignments[client].extend(topic_indices[start:start + count].tolist())
            start += count

    _rebalance(assignments, min_samples, rng)
    return assignments


def _rebalance(assignments: List[List[int]], min_samples: int, rng: np.random.Generator) -> None:
    """Move samples from the largest clients to any client below ``min_samples``."""
    for client, indices in enumerate(assignments):
        while len(indices) < min_samples:
            donor = max(range(len(assignments)), key=lambda c: len(assignments[c]))
            if donor == client or len(assignments[donor]) <= min_samples:
                break
            indices.append(assignments[donor].pop())
