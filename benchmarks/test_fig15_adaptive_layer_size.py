"""Figure 15: impact of the adaptive expert layer size (merge budget allocation).

The paper compares three ways of spending the non-tuning merge budget —
a single merged expert per layer, a uniform per-layer budget, and Flux's
adaptive allocation (Eq. 1) — and reports the forward-pass output error plus
the time to reach the target accuracy.  Adaptive allocation yields the lowest
output error.
"""

import numpy as np

from common import DATASETS, make_vocab, model_config, print_header, print_table
from repro.analysis import output_error, profile_activation
from repro.core import FluxConfig, build_compact_model, plan_compact_model
from repro.data import make_batches, make_dataset
from repro.models import MoETransformer

STRATEGIES = ["single", "uniform", "adaptive"]
PAPER_ERRORS = {  # output error per strategy, Figure 15 top row
    "dolly": (0.51, 0.35, 0.24),
    "gsm8k": (0.32, 0.21, 0.11),
    "mmlu": (0.44, 0.26, 0.18),
    "piqa": (0.37, 0.31, 0.25),
}
NON_TUNING_BUDGET = 8


def _compact_error(model, profile, batches, strategy, tuning):
    config = FluxConfig(layer_budget_strategy=strategy, seed=0)
    budget = model.num_layers if strategy == "single" else NON_TUNING_BUDGET
    plan = plan_compact_model(model, tuning, profile, max_non_tuning_slots=budget, config=config)
    compact, _, _ = build_compact_model(MoETransformer.copy_of(model), plan, profile, config)
    return output_error(model, compact, batches[:3])


def _measure():
    vocab = make_vocab()
    config = model_config("llama", vocab_size=vocab.size)
    model = MoETransformer(config)
    results = {}
    for dataset_name in DATASETS:
        dataset = make_dataset(dataset_name, vocab=vocab, num_samples=96, seed=7)
        batches = make_batches(dataset.samples, 16, vocab, shuffle=False,
                               max_seq_len=config.max_seq_len)
        profile = profile_activation(model, batches)
        # tuning experts: the most activated expert of each layer
        tuning = {layer: [int(np.argmax(freq))] for layer, freq in enumerate(profile.frequencies)}
        results[dataset_name] = {
            strategy: _compact_error(model, profile, batches, strategy, tuning)
            for strategy in STRATEGIES
        }
    return results


def test_fig15_adaptive_layer_size(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Figure 15: forward output error by merge-budget strategy")
    rows = []
    for dataset_name, per_strategy in results.items():
        rows.append([dataset_name] + [round(per_strategy[s], 4) for s in STRATEGIES]
                    + [str(PAPER_ERRORS[dataset_name])])
    print_table(["dataset"] + STRATEGIES + ["paper"], rows, width=14)

    for dataset_name, per_strategy in results.items():
        # Adaptive (and uniform) budgets keep more expert diversity than a
        # single merged expert per layer, so they cannot do worse.
        assert per_strategy["adaptive"] <= per_strategy["single"] + 1e-9
        assert per_strategy["uniform"] <= per_strategy["single"] + 1e-9
    # Across datasets, adaptive is on average at least as good as uniform.
    adaptive_mean = np.mean([results[d]["adaptive"] for d in results])
    uniform_mean = np.mean([results[d]["uniform"] for d in results])
    assert adaptive_mean <= uniform_mean * 1.05
