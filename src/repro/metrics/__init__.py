"""Evaluation metrics and time-to-accuracy tracking."""

from .evaluation import evaluate_model
from .rouge import corpus_rouge_l, rouge_l
from .tracker import PerformanceTracker

__all__ = [
    "rouge_l",
    "corpus_rouge_l",
    "evaluate_model",
    "PerformanceTracker",
]
