"""Model evaluation on the synthetic benchmark datasets.

Evaluation is teacher-forced: a single forward pass per batch yields the
model's predictions at every answer position, from which the dataset-specific
metric is computed —

* generation datasets: ROUGE-L between predicted and reference answer tokens;
* math datasets: exact match of the predicted answer digit;
* multiple-choice datasets: accuracy of the highest-scoring choice token.

Teacher forcing keeps evaluation to one forward per batch (instead of one per
generated token), which is what makes the convergence benchmarks affordable
while still measuring genuine task quality.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import no_grad
from ..data import Batch, SyntheticDataset, TaskType, make_batches
from ..models import MoETransformer
from .rouge import corpus_rouge_l


def evaluate_model(model: MoETransformer, dataset: SyntheticDataset,
                   batch_size: int = 16, max_samples: Optional[int] = None,
                   seed: int = 0) -> float:
    """Return the dataset's metric (ROUGE-L or accuracy) for ``model``.

    The model leaves in the train/eval mode it came in.
    """
    samples = dataset.samples
    if max_samples is not None and len(samples) > max_samples:
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(samples), size=max_samples, replace=False)
        samples = [samples[int(i)] for i in picked]
    if not samples:
        raise ValueError("cannot evaluate on an empty dataset")

    batches = make_batches(samples, batch_size=batch_size, vocab=dataset.vocab,
                           shuffle=False, max_seq_len=model.config.max_seq_len)
    task = dataset.spec.task_type
    was_training = model.training
    model.eval()
    try:
        if task is TaskType.GENERATION:
            return _evaluate_generation(model, batches)
        return _evaluate_classification(model, batches, dataset)
    finally:
        model.train(was_training)


def _predictions(model: MoETransformer, batch: Batch, read: np.ndarray) -> np.ndarray:
    """Logits ``(len(read), vocab)`` of the flat positions ``read`` of ``batch``."""
    with no_grad():
        logits = model.forward(batch.input_ids, attention_mask=batch.attention_mask, read=read)
    return logits.data


def _evaluate_generation(model: MoETransformer, batches) -> float:
    candidates = []
    references = []
    for batch in batches:
        answers = batch.labels >= 0
        read = np.flatnonzero(answers)
        if not read.size:
            continue
        predicted = np.argmax(_predictions(model, batch, read), axis=-1)
        # ``read`` is row-major, so each sample's answer is one run of it
        bounds = np.cumsum(answers.sum(axis=1))[:-1]
        for reference, candidate in zip(np.split(batch.labels.reshape(-1)[read], bounds),
                                        np.split(predicted, bounds)):
            if reference.size:
                candidates.append(candidate.tolist())
                references.append(reference.tolist())
    return corpus_rouge_l(candidates, references)


def _evaluate_classification(model: MoETransformer, batches, dataset: SyntheticDataset) -> float:
    vocab = dataset.vocab
    task = dataset.spec.task_type
    if task is TaskType.MATH:
        answer_tokens = np.asarray(vocab.digit_tokens())
    else:
        answer_tokens = np.asarray(vocab.choice_tokens())

    correct = 0
    total = 0
    for batch in batches:
        # The supervised answer token (digit or choice) directly follows the
        # ANSWER marker; its label position is the first non-ignored label
        # whose value lies in the answer-token set.  That position is the one
        # a sample's forward pass reads.
        is_answer = np.isin(batch.labels, answer_tokens)
        rows = np.flatnonzero(is_answer.any(axis=1))
        if not rows.size:
            continue
        read = rows * batch.labels.shape[1] + np.argmax(is_answer[rows], axis=1)
        true_tokens = batch.labels.reshape(-1)[read]
        scores = _predictions(model, batch, read)[:, answer_tokens]
        predicted_tokens = answer_tokens[np.argmax(scores, axis=1)]
        correct += int((predicted_tokens == true_tokens).sum())
        total += rows.size
    if total == 0:
        return 0.0
    return correct / total


def relative_accuracy(metric_value: float, target: float) -> float:
    """The paper's relative accuracy: obtained metric divided by its target."""
    if target <= 0:
        raise ValueError("target must be positive")
    return metric_value / target
