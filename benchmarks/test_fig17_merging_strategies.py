"""Figure 17: efficiency of the importance-based merging strategy.

The paper merges non-tuning experts with three weighting schemes — plain
averaging, activation-frequency weighting, and Flux's frequency x attention
weighting — and reports forward output error (plus time-to-accuracy).  The
frequency+attention weighting yields the lowest output error.
"""

import numpy as np

from common import DATASETS, make_vocab, model_config, print_header, print_table
from repro.analysis import output_error, profile_activation
from repro.core import FluxConfig, build_compact_model, plan_compact_model
from repro.data import make_batches, make_dataset
from repro.models import MoETransformer

STRATEGIES = ["average", "frequency", "attention_frequency"]
PAPER_ERRORS = {  # Figure 17 top row (avg, weighted freq, weighted att+freq)
    "dolly": (0.32, 0.26, 0.21),
    "gsm8k": (0.25, 0.19, 0.13),
    "mmlu": (0.31, 0.23, 0.20),
    "piqa": (0.28, 0.26, 0.23),
}
NON_TUNING_BUDGET = 6


def _error_for_strategy(model, profile, batches, tuning, strategy):
    config = FluxConfig(merging_strategy=strategy, seed=0)
    plan = plan_compact_model(model, tuning, profile, max_non_tuning_slots=NON_TUNING_BUDGET,
                              config=config)
    compact, _, _ = build_compact_model(MoETransformer.copy_of(model), plan, profile, config)
    return output_error(model, compact, batches[:3])


def _measure():
    vocab = make_vocab()
    config = model_config("llama", vocab_size=vocab.size)
    model = MoETransformer(config)
    results = {}
    for dataset_name in DATASETS:
        dataset = make_dataset(dataset_name, vocab=vocab, num_samples=96, seed=8)
        batches = make_batches(dataset.samples, 16, vocab, shuffle=False,
                               max_seq_len=config.max_seq_len)
        profile = profile_activation(model, batches)
        tuning = {layer: [int(np.argmax(freq))] for layer, freq in enumerate(profile.frequencies)}
        results[dataset_name] = {
            strategy: _error_for_strategy(model, profile, batches, tuning, strategy)
            for strategy in STRATEGIES
        }
    return results


def test_fig17_merging_strategies(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Figure 17: forward output error by merging strategy")
    rows = []
    for dataset_name, per_strategy in results.items():
        rows.append([dataset_name] + [round(per_strategy[s], 4) for s in STRATEGIES]
                    + [str(PAPER_ERRORS[dataset_name])])
    print_table(["dataset"] + STRATEGIES + ["paper"], rows, width=20)

    average_means = np.mean([results[d]["average"] for d in results])
    weighted_means = np.mean([results[d]["attention_frequency"] for d in results])
    # Importance-weighted merging is at least as good as plain averaging overall.
    assert weighted_means <= average_means * 1.05
    for per_strategy in results.values():
        for strategy in STRATEGIES:
            assert per_strategy[strategy] >= 0.0
