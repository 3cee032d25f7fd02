"""Shared configuration and helpers for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure of the paper.  The
helpers here build the standard federation (mini MoE models, synthetic
benchmark datasets, non-IID shards, per-participant cost models of the paper's
full-scale architectures) and provide uniform result printing so each benchmark
emits the rows/series the paper reports.

Set ``REPRO_BENCH_FAST=1`` to shrink the workloads (fewer rounds/participants)
for a quick smoke run of the whole suite.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


from repro import (
    FMDFineTuner,
    FMESFineTuner,
    FMQFineTuner,
    FluxConfig,
    FluxFineTuner,
    MoETransformer,
    ParameterServer,
    Participant,
    ParticipantResources,
    RunConfig,
    RunResult,
    Vocabulary,
    deepseek_moe_mini,
    llama_moe_mini,
    make_dataset,
    partition_dirichlet,
)
from repro.core import EpsilonSchedule
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel

FAST = os.environ.get("REPRO_BENCH_FAST", "0") not in ("0", "", "false", "False")

DATASETS = ["dolly", "gsm8k", "mmlu", "piqa"]
METHODS = ["fmd", "fmq", "fmes", "flux"]

METHOD_CLASSES = {
    "fmd": FMDFineTuner,
    "fmq": FMQFineTuner,
    "fmes": FMESFineTuner,
    "flux": FluxFineTuner,
}

#: full-scale architecture backing each mini model's cost accounting
DESCRIPTOR_FOR_MODEL = {
    "llama": "llama-moe",
    "deepseek": "deepseek-moe",
}


def make_vocab() -> Vocabulary:
    return Vocabulary(size=256, num_topics=8)


def model_config(model: str = "llama", vocab_size: int = 256):
    """Mini model config for 'llama' (LLaMA-MoE-like) or 'deepseek' (DeepSeek-MoE-like)."""
    if model == "llama":
        return llama_moe_mini(vocab_size=vocab_size)
    if model == "deepseek":
        return deepseek_moe_mini(vocab_size=vocab_size, n_layers=3)
    raise KeyError(f"unknown model '{model}'")


def participant_budgets(model: str) -> Tuple[int, int]:
    """(max_experts, max_tuning_experts) per participant for each mini model."""
    if model == "llama":
        return 12, 6
    return 18, 9


def default_run_config(**overrides) -> RunConfig:
    config = RunConfig(
        batch_size=16,
        max_local_batches=2 if FAST else 3,
        learning_rate=1e-2,
        eval_max_samples=40 if FAST else 60,
        seed=0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def default_flux_config(**overrides) -> FluxConfig:
    config = FluxConfig(
        epsilon=EpsilonSchedule(initial=0.5, final=0.95, warmup_rounds=5),
        seed=0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def default_rounds(requested: int) -> int:
    return max(2, requested // 2) if FAST else requested


# ------------------------------------------------------------ multi-seed verdicts
#: federations a multi-seed verdict runs: its base seed and the next four
VERDICT_SEEDS = 5
#: dataset size of a multi-seed verdict's federations: a 160-sample test split,
#: so one step of an accuracy metric is 0.00625 (0.025 with the fast 40-sample
#: evaluation), below every asserted margin but the ones that sit at zero
VERDICT_SAMPLES = 800
#: evaluation samples per round of a multi-seed verdict (the whole test split)
VERDICT_EVAL_SAMPLES = 160


def verdict_seeds(base: int) -> List[int]:
    return list(range(base, base + VERDICT_SEEDS))


def verdict_run_config() -> RunConfig:
    return default_run_config(eval_max_samples=VERDICT_EVAL_SAMPLES)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of per-seed values, read as ``benchmarks/e2e/run.py`` reads runs."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def check_median(label: str, margins: Sequence[float], spread: float) -> Optional[str]:
    """One multi-seed verdict on a claim ``margin >= 0``, one margin per seed.

    A margin is the metric of the claim minus its threshold (``flux - 0.7 *
    fmd``).  The verdict follows ``benchmarks/e2e/compare.py``'s quartile
    protocol: within the stated ``spread`` (the quartile distance the claim
    expects of its seeds) the median decides; when the seeds scatter wider,
    only quartiles on one side of 0 decide, and a quartile range across 0 is
    ``unresolved``.  Prints one ``verdict`` line; returns the failure text of
    a ``fails`` or ``unresolved`` verdict, or None for ``holds``.
    """
    stats = quartiles(margins)
    width = stats["q3"] - stats["q1"]
    if width <= spread:
        verdict = "holds" if stats["median"] >= 0 else "fails"
    elif stats["q1"] >= 0:
        verdict = "holds"
    else:
        verdict = "fails" if stats["q3"] < 0 else "unresolved"
    print(f"  verdict {label}: {verdict}: median margin {stats['median']:+.4f} "
          f"[q1 {stats['q1']:+.4f}, q3 {stats['q3']:+.4f}] spread {width:.4f} "
          f"(stated {spread}) over {len(margins)} seeds: {[round(m, 4) for m in margins]}")
    if verdict == "holds":
        return None
    return (f"{label}: {verdict} (median margin {stats['median']:+.4f}, "
            f"quartiles [{stats['q1']:+.4f}, {stats['q3']:+.4f}])")


def build_federation(dataset_name: str, num_clients: int, model: str = "llama",
                     seed: int = 0, num_samples: Optional[int] = None,
                     vocab: Optional[Vocabulary] = None):
    """Build (config, participants, test set, cost models) for one experiment."""
    vocab = vocab or make_vocab()
    config = model_config(model, vocab_size=vocab.size)
    samples = num_samples if num_samples is not None else (240 if FAST else 400)
    dataset = make_dataset(dataset_name, vocab=vocab, num_samples=samples, seed=seed)
    train, test = dataset.split(seed=seed)
    shards = partition_dirichlet(train, num_clients, alpha=0.5, seed=seed)
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS[DESCRIPTOR_FOR_MODEL[model]])
    max_experts, max_tuning = participant_budgets(model)
    participants, cost_models = [], {}
    for i, shard in enumerate(shards):
        participants.append(Participant(
            i, train.subset(shard),
            resources=ParticipantResources(max_experts=max_experts, max_tuning_experts=max_tuning),
            seed=seed + i,
        ))
        cost_models[i] = CostModel(CONSUMER_GPU, memory)
    return config, participants, test, cost_models


def run_method(method: str, config, participants, test, cost_models,
               num_rounds: int, run_config: Optional[RunConfig] = None,
               flux_config: Optional[FluxConfig] = None) -> RunResult:
    """Run one federated fine-tuning method from a fresh global model."""
    run_config = run_config or default_run_config()
    server = ParameterServer(MoETransformer(config))
    cls = METHOD_CLASSES[method]
    if method == "flux":
        tuner = cls(server, participants, test, cost_models=cost_models,
                    config=run_config, flux_config=flux_config or default_flux_config())
    else:
        tuner = cls(server, participants, test, cost_models=cost_models, config=run_config)
    return tuner.run(num_rounds=num_rounds)


def run_all_methods(dataset_name: str, num_clients: int, num_rounds: int,
                    model: str = "llama", seed: int = 0,
                    run_config: Optional[RunConfig] = None,
                    methods: Sequence[str] = METHODS,
                    num_samples: Optional[int] = None) -> Dict[str, RunResult]:
    """Run every requested method on a common federation (fresh model each)."""
    config, participants, test, cost_models = build_federation(
        dataset_name, num_clients, model=model, seed=seed, num_samples=num_samples)
    results = {}
    for method in methods:
        results[method] = run_method(method, config, participants, test, cost_models,
                                     num_rounds=num_rounds, run_config=run_config)
    return results


def time_to_common_target(results: Dict[str, RunResult], fraction: float = 0.9,
                          reference: str = "fmd") -> Dict[str, Optional[float]]:
    """Simulated seconds each method needs to reach ``fraction`` x reference best metric.

    The reference method (FMD = full fine-tuning) defines the quality target,
    mirroring the paper's fixed per-dataset targets.  Methods that never reach
    it report ``None``.
    """
    reference_best = results[reference].tracker.best_metric() if reference in results else \
        max(r.tracker.best_metric() for r in results.values())
    target = reference_best * fraction
    return {name: result.tracker.time_to_target(target) for name, result in results.items()}


# --------------------------------------------------------------------- output
def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_table(headers: Sequence[str], rows: Sequence[Sequence], width: int = 12) -> None:
    fmt = "".join(f"{{:>{width}}}" for _ in headers)
    print(fmt.format(*[str(h) for h in headers]))
    print("-" * (width * len(headers)))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(f"{cell:.3f}")
            elif cell is None:
                cells.append("n/a")
            else:
                cells.append(str(cell))
        print(fmt.format(*cells))


def print_series(label: str, times: Sequence[float], values: Sequence[float]) -> None:
    pairs = ", ".join(f"({t:.1f}s, {v:.3f})" for t, v in zip(times, values))
    print(f"  {label:>6s}: {pairs}")
