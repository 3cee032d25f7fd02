"""Quantization-based local profiling with stale-profiling overlap (paper §4).

Running the full-precision model just to measure expert activation is exactly
the cost Flux wants to avoid on constrained participants.  The profiler instead
quantizes the model to a low bit-width, runs forward-only passes over (a subset
of) the local data, and reads the per-expert activation frequencies, attention
scores and relevant-sample sets off the routing records.

Stale profiling decouples *when the profile is measured* from *when it is
used*: the merge/assignment decisions of round ``r`` consume the profile
measured on the model of round ``r-1`` while the fresh profile is computed
concurrently with server aggregation, hiding its latency (Figure 7(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis import ActivationProfile, estimation_error, profile_activation
from ..data import Batch
from ..models import MoETransformer
from ..quantization import quantize_model
from ..systems import CostModel


#: precision of the profiling copy: low-bit codes times a row scale need no
#: more, and the forward-only passes over it run that much faster
PROFILING_DTYPE = "float32"


@dataclass
class ProfilingOutcome:
    """A profile plus the bookkeeping needed for cost accounting."""

    profile: ActivationProfile
    bits: int
    num_tokens: int
    stale: bool
    quantization_seconds: float = 0.0
    profiling_seconds: float = 0.0


class QuantizedProfiler:
    """Profiles expert activation with a low-bit copy of the model."""

    def __init__(self, bits: int = 4, max_batches: Optional[int] = None) -> None:
        if bits not in (2, 3, 4, 8):
            raise ValueError("profiling bit-width must be one of 2, 3, 4, 8")
        self.bits = bits
        self.max_batches = max_batches

    def profile(self, model: MoETransformer, batches: Sequence[Batch],
                cost_model: Optional[CostModel] = None,
                quantized: Optional[MoETransformer] = None,
                measured: Optional[ActivationProfile] = None) -> ProfilingOutcome:
        """Quantize ``model`` and measure expert activation on ``batches``.

        ``quantized`` is ``quantize_model(model, self.bits,
        dtype=PROFILING_DTYPE)`` when the caller already holds it (every
        participant of a round profiles the same global model); profiling
        leaves it as it found it.  ``measured`` is that copy's profile of
        ``batches`` when the caller already measured it
        (:func:`~repro.analysis.profile_round` profiles a round's
        participants together); the outcome then only charges its cost.
        """
        if not batches:
            raise ValueError("profiling requires at least one batch")
        used = list(batches[: self.max_batches] if self.max_batches else batches)
        if measured is None:
            if quantized is None:
                quantized = quantize_model(model, self.bits, dtype=PROFILING_DTYPE)
            measured = profile_activation(quantized, used)
        num_tokens = sum(batch.num_tokens for batch in used)
        num_samples = sum(batch.batch_size for batch in used)

        quantization_seconds = 0.0
        profiling_seconds = 0.0
        if cost_model is not None:
            total_experts = sum(model.experts_per_layer())
            quantization_seconds = cost_model.quantization_time(total_experts)
            profiling_seconds = cost_model.profiling_time(
                cost_model.scaled_tokens(num_samples), self.bits)
        return ProfilingOutcome(
            profile=measured,
            bits=self.bits,
            num_tokens=num_tokens,
            stale=False,
            quantization_seconds=quantization_seconds,
            profiling_seconds=profiling_seconds,
        )


class StaleProfiler:
    """Round-pipelined profiling: use last round's profile, refresh in parallel.

    Usage per round::

        profile = stale.profile_for_round(model, batches, cost_model)
        # ... merge, assign, fine-tune using `profile` ...
        # the outcome's profiling/quantization seconds are charged as
        # overlap-able (hidden behind aggregation) by the orchestrator.

    When stale profiling is disabled the profiler simply measures fresh every
    round and its cost is charged on the critical path.
    """

    def __init__(self, bits: int = 4, enabled: bool = True,
                 max_batches: Optional[int] = None) -> None:
        self.enabled = enabled
        self._profiler = QuantizedProfiler(bits=bits, max_batches=max_batches)
        self._previous: Optional[ActivationProfile] = None

    def profile_for_round(self, model: MoETransformer, batches: Sequence[Batch],
                          cost_model: Optional[CostModel] = None,
                          quantized: Optional[MoETransformer] = None,
                          measured: Optional[ActivationProfile] = None) -> ProfilingOutcome:
        """Return the profile to use this round and refresh the cached one.

        With stale profiling enabled the returned profile is the one measured
        last round (when available) and the freshly measured profile replaces
        the cache; the measurement cost is reported on the outcome so the
        caller can overlap it with aggregation.  Without stale profiling the
        fresh measurement is used directly.  ``quantized`` and ``measured``
        are passed through to :meth:`QuantizedProfiler.profile`.
        """
        fresh = self._profiler.profile(model, batches, cost_model=cost_model,
                                       quantized=quantized, measured=measured)
        if not self.enabled or self._previous is None:
            self._previous = fresh.profile
            return fresh
        outcome = ProfilingOutcome(
            profile=self._previous,
            bits=fresh.bits,
            num_tokens=fresh.num_tokens,
            stale=True,
            quantization_seconds=fresh.quantization_seconds,
            profiling_seconds=fresh.profiling_seconds,
        )
        self._previous = fresh.profile
        return outcome

    def staleness_error(self, model: MoETransformer, batches: Sequence[Batch]) -> float:
        """Estimation error (%) of the cached profile vs a fresh measurement."""
        if self._previous is None:
            return 0.0
        fresh = self._profiler.profile(model, batches)
        return estimation_error(fresh.profile, self._previous)
