"""Synthetic task sample generation.

Each sample is a prompt/answer pair expressed as token ids.  Three task types
cover the shapes of the paper's four benchmark datasets:

* ``GENERATION`` (Dolly-like): the answer is a deterministic, topic-specific
  token pattern derived from the prompt — evaluated with ROUGE-L.
* ``MATH`` (GSM8K-like): the prompt embeds two small numbers and topic-specific
  "working"; the answer is a single digit determined by the problem's topic —
  evaluated with exact-match accuracy.  (A topic-determined answer keeps the
  task learnable by the mini models while preserving GSM8K's shape: short
  prompts, one exact-match digit answer.)
* ``MULTIPLE_CHOICE`` (MMLU/PIQA-like): the answer is one of ``num_choices``
  choice tokens determined by a topic-dependent rule — evaluated by comparing
  the model's scores of the choice tokens.

The deterministic answer rules make the tasks *learnable* by the mini MoE
models, so federated fine-tuning exhibits genuine convergence, while the
topic-block token structure yields skewed, non-IID expert activation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .vocab import Vocabulary


class TaskType(enum.Enum):
    """Kinds of synthetic tasks, matching the benchmark datasets' shapes."""

    GENERATION = "generation"
    MATH = "math"
    MULTIPLE_CHOICE = "multiple_choice"


@dataclass
class Sample:
    """One prompt/answer training or evaluation example."""

    input_ids: np.ndarray          # prompt + answer tokens (training form)
    prompt_length: int             # number of prompt tokens at the front
    answer_ids: np.ndarray         # the answer tokens alone
    topic: int                     # topic that generated the sample
    task_type: TaskType
    label: Optional[int] = None    # choice index for multiple-choice tasks
    sample_id: int = -1

    @property
    def length(self) -> int:
        return int(self.input_ids.shape[0])


def _zipf_weights(n: int, exponent: float = 1.1) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _cdf(probs: np.ndarray) -> np.ndarray:
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


class SyntheticTaskGenerator:
    """Draws :class:`Sample` objects for one task type over a shared vocabulary."""

    def __init__(
        self,
        vocab: Vocabulary,
        task_type: TaskType,
        mean_prompt_length: int = 16,
        answer_length: int = 6,
        topic_skew: float = 1.2,
        seed: int = 0,
    ) -> None:
        if mean_prompt_length < 4:
            raise ValueError("mean_prompt_length must be at least 4")
        self.vocab = vocab
        self.task_type = task_type
        self.mean_prompt_length = mean_prompt_length
        self.answer_length = answer_length
        self.topic_skew = topic_skew
        self._rng = np.random.default_rng(seed)
        #: per-topic probabilities; a mild Zipf skew so some topics (and hence
        #: the experts specialised on them) dominate, mirroring Figure 2.
        self.topic_probs = _zipf_weights(vocab.num_topics, exponent=topic_skew)
        # Draws invert these CDFs exactly as ``Generator.choice(p=)`` does
        # (normalised cumulative sum, ``searchsorted(random(), side="right")``),
        # so the samples are the ones ``choice`` gives, without rebuilding and
        # re-validating the weights on every draw.
        self._topic_cdf = _cdf(self.topic_probs)
        self._token_ids = [np.arange(block.start, block.stop)
                           for block in map(vocab.topic_block, range(vocab.num_topics))]
        self._token_cdfs = [_cdf(_zipf_weights(len(ids))) for ids in self._token_ids]

    # ------------------------------------------------------------ primitives
    def _draw_topic(self) -> int:
        return int(self._topic_cdf.searchsorted(self._rng.random(), side="right"))

    def _topic_tokens(self, topic: int, count: int) -> np.ndarray:
        picks = self._token_cdfs[topic].searchsorted(self._rng.random(count), side="right")
        return self._token_ids[topic][picks]

    def _prompt_length(self) -> int:
        length = int(self._rng.normal(self.mean_prompt_length, self.mean_prompt_length * 0.2))
        return min(max(length, 6), 2 * self.mean_prompt_length)

    # --------------------------------------------------------------- samples
    def sample(self, sample_id: int = -1, topic: Optional[int] = None) -> Sample:
        """Draw one sample (optionally forcing its topic)."""
        if topic is None:
            topic = self._draw_topic()
        else:
            topic = int(topic)
            self.vocab.topic_block(topic)      # rejects a topic out of range
        if self.task_type is TaskType.GENERATION:
            return self._generation_sample(topic, sample_id)
        if self.task_type is TaskType.MATH:
            return self._math_sample(topic, sample_id)
        return self._choice_sample(topic, sample_id)

    def generate(self, count: int, start_id: int = 0) -> List[Sample]:
        """Draw ``count`` samples with consecutive sample ids."""
        return [self.sample(sample_id=start_id + i) for i in range(count)]

    # ------------------------------------------------------------- task rules
    def _generation_sample(self, topic: int, sample_id: int) -> Sample:
        vocab = self.vocab
        prompt_len = self._prompt_length()
        content = self._topic_tokens(topic, prompt_len - 3)
        prompt = np.concatenate((
            [vocab.BOS, vocab.QUERY],
            content,
            [vocab.SEP],
        )).astype(np.int64)
        # The answer echoes the first answer_length content tokens in sorted
        # order — a deterministic pattern a small LM can learn, giving the
        # ROUGE-L metric real signal.
        echoed = np.sort(content[: self.answer_length])
        answer = np.concatenate(([vocab.ANSWER], echoed, [vocab.EOS])).astype(np.int64)
        input_ids = np.concatenate((prompt, answer))
        return Sample(input_ids=input_ids, prompt_length=len(prompt), answer_ids=answer,
                      topic=topic, task_type=self.task_type, sample_id=sample_id)

    def _math_sample(self, topic: int, sample_id: int) -> Sample:
        vocab = self.vocab
        a = int(self._rng.integers(0, 10))
        b = int(self._rng.integers(0, 10))
        filler = self._topic_tokens(topic, max(self._prompt_length() - 7, 1))
        prompt = np.concatenate((
            [vocab.BOS, vocab.QUERY],
            filler,
            [vocab.digit_token(a), vocab.SEP, vocab.digit_token(b), vocab.SEP],
        )).astype(np.int64)
        # The answer digit is a deterministic function of the topic so the task
        # is reliably learnable at mini-model scale (see module docstring).
        result = (3 * topic + 7) % 10
        answer = np.asarray([vocab.ANSWER, vocab.digit_token(result), vocab.EOS], dtype=np.int64)
        input_ids = np.concatenate((prompt, answer))
        return Sample(input_ids=input_ids, prompt_length=len(prompt), answer_ids=answer,
                      topic=topic, task_type=self.task_type, label=result, sample_id=sample_id)

    def _choice_sample(self, topic: int, sample_id: int) -> Sample:
        vocab = self.vocab
        prompt_len = self._prompt_length()
        content = self._topic_tokens(topic, prompt_len - 3)
        prompt = np.concatenate((
            [vocab.BOS, vocab.QUERY],
            content,
            [vocab.SEP],
        )).astype(np.int64)
        # The correct choice is a deterministic function of the topic and the
        # first content token, so the mapping is learnable but not trivial.
        label = int((topic + int(content[0])) % vocab.num_choices)
        answer = np.asarray([vocab.ANSWER, vocab.choice_token(label), vocab.EOS], dtype=np.int64)
        input_ids = np.concatenate((prompt, answer))
        return Sample(input_ids=input_ids, prompt_length=len(prompt), answer_ids=answer,
                      topic=topic, task_type=self.task_type, label=label, sample_id=sample_id)
