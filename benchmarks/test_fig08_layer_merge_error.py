"""Figure 8: output error when merging experts at different layers.

The paper merges experts at a single layer and measures the cosine-distance
output error of the final token embeddings against the full model; merging in
*earlier* layers produces larger errors because the error propagates and
amplifies through the remaining depth.  This benchmark merges every expert of
one layer at a time (Dolly-like and GSM8K-like data) and reports the error per
merge depth.
"""


from common import make_vocab, model_config, print_header, print_table
from repro.analysis import output_error, profile_activation
from repro.core import FluxConfig, build_compact_model, plan_compact_model
from repro.data import make_batches, make_dataset
from repro.models import MoETransformer

PAPER_ERRORS = {
    "dolly": {0: 0.67, 1: 0.51, 2: 0.44, 3: 0.31},   # paper layer indices 2/4/8/16/32 -> early..late
    "gsm8k": {0: 0.43, 1: 0.36, 2: 0.30, 3: 0.23},
}


def _merge_single_layer(model, profile, layer, config):
    """Compact model where only `layer` is merged (all its experts -> 1)."""
    tuning = {l: list(range(model.experts_per_layer()[l]))
              for l in range(model.num_layers) if l != layer}
    flux_config = FluxConfig(layer_budget_strategy="single", seed=0)
    plan = plan_compact_model(model, tuning, profile,
                              max_non_tuning_slots=model.num_layers, config=flux_config)
    compact, _, _ = build_compact_model(MoETransformer.copy_of(model), plan, profile, flux_config)
    return compact


def _measure():
    vocab = make_vocab()
    config = model_config("llama", vocab_size=vocab.size)
    model = MoETransformer(config)
    results = {}
    for dataset_name in ("dolly", "gsm8k"):
        dataset = make_dataset(dataset_name, vocab=vocab, num_samples=96, seed=3)
        batches = make_batches(dataset.samples, 16, vocab, shuffle=False,
                               max_seq_len=config.max_seq_len)
        profile = profile_activation(model, batches)
        per_layer = {}
        for layer in range(model.num_layers):
            merged = _merge_single_layer(model, profile, layer, config)
            per_layer[layer] = output_error(model, merged, batches[:3])
        results[dataset_name] = per_layer
    return results


def test_fig08_merging_earlier_layers_hurts_more(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    for dataset_name, per_layer in results.items():
        print_header(f"Figure 8 ({dataset_name}): output error vs merge layer")
        print_table(["layer", "output_error", "paper_trend"],
                    [[layer, per_layer[layer], PAPER_ERRORS[dataset_name].get(layer, "-")]
                     for layer in sorted(per_layer)])

        errors = [per_layer[layer] for layer in sorted(per_layer)]
        assert all(e >= 0 for e in errors)
        # Shape check: merging the first layer hurts at least as much as the last.
        assert errors[0] >= errors[-1] * 0.8
