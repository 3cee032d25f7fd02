"""Structured token vocabulary for the synthetic dataset substrate.

The vocabulary is partitioned into functional regions (special tokens, answer
choice tokens, digit tokens and per-topic content blocks).  Giving each topic
its own content-token block is what produces the *skewed, topic-dependent
expert activation* that the paper observes on real datasets (Figure 2) and
that Flux's profiling/merging modules rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class Vocabulary:
    """Token-id layout shared by all synthetic datasets.

    Layout (in id order): ``PAD, BOS, EOS, SEP, QUERY, ANSWER,`` choice tokens,
    digit tokens, then ``num_topics`` equal blocks of content tokens.
    """

    size: int = 256
    num_topics: int = 8
    num_choices: int = 4
    num_digits: int = 10

    PAD: int = 0
    BOS: int = 1
    EOS: int = 2
    SEP: int = 3
    QUERY: int = 4
    ANSWER: int = 5

    def __post_init__(self) -> None:
        reserved = 6 + self.num_choices + self.num_digits
        if self.size <= reserved + self.num_topics:
            raise ValueError(
                f"vocabulary of size {self.size} is too small for {self.num_topics} topics"
            )
        self._choice_start = 6
        self._digit_start = self._choice_start + self.num_choices
        self._content_start = self._digit_start + self.num_digits

    # --------------------------------------------------------------- regions

    @property
    def num_content_tokens(self) -> int:
        return self.size - self._content_start

    def choice_token(self, choice: int) -> int:
        """Token id of answer choice ``choice`` (0 = 'A', 1 = 'B', ...)."""
        if not 0 <= choice < self.num_choices:
            raise ValueError(f"choice {choice} out of range [0, {self.num_choices})")
        return self._choice_start + choice

    def choice_tokens(self) -> List[int]:
        return [self.choice_token(c) for c in range(self.num_choices)]

    def digit_token(self, digit: int) -> int:
        """Token id of decimal digit ``digit``."""
        if not 0 <= digit < self.num_digits:
            raise ValueError(f"digit {digit} out of range")
        return self._digit_start + digit

    def digit_tokens(self) -> List[int]:
        return [self.digit_token(d) for d in range(self.num_digits)]

    def topic_block(self, topic: int) -> range:
        """Content-token id range owned by ``topic``."""
        if not 0 <= topic < self.num_topics:
            raise ValueError(f"topic {topic} out of range [0, {self.num_topics})")
        block = self.num_content_tokens // self.num_topics
        start = self._content_start + topic * block
        end = start + block
        return range(start, end)
