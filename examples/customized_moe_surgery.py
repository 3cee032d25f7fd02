"""Model surgery with the customized-MoE and merging APIs.

Demonstrates the lower-level building blocks Flux is made of, mirroring the
paper's implementation section (§7):

* ``customized_moe`` — rebuild a model with a different number of experts per
  layer (the ``Flux.moe.customized_moe`` API);
* ``save_checkpoint`` / ``load_model`` — load pre-trained parameters into a
  customized architecture (the ``Flux.moe.load_model`` API);
* quantized profiling, adaptive merge planning and gate re-routing — build the
  compact model a Flux participant actually fine-tunes, and measure how close
  its outputs stay to the full model.

Run with:  python examples/customized_moe_surgery.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro import (
    FluxConfig,
    MoETransformer,
    Vocabulary,
    customized_moe,
    llama_moe_mini,
    load_model,
    make_dolly_like,
    save_checkpoint,
)
from repro.analysis import output_error
from repro.core import QuantizedProfiler, build_compact_model, plan_compact_model
from repro.data import make_batches


def main() -> None:
    vocab = Vocabulary(size=256, num_topics=8)
    config = llama_moe_mini(vocab_size=vocab.size)
    model = MoETransformer(config)
    print(f"original model: {model.local_experts_per_layer()} experts per layer, "
          f"{model.num_parameters():,} parameters")

    # --- customized_moe: different expert scale per layer ------------------
    custom = customized_moe(model, [8, 6, 4, 2])
    print(f"customized model: {custom.local_experts_per_layer()} experts per layer, "
          f"{custom.num_parameters():,} parameters")

    # --- checkpointing into a customized architecture ----------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "llama_moe_mini.npz")
        save_checkpoint(model, path)
        reloaded = load_model(path, exps_config={0: 4, 1: 4})
        print(f"checkpoint reloaded with per-layer override: "
              f"{reloaded.local_experts_per_layer()} experts per layer")

    # --- quantized profiling + adaptive merging + gate re-routing ----------
    dataset = make_dolly_like(vocab=vocab, num_samples=160, seed=2)
    batches = make_batches(dataset.samples, 16, vocab, shuffle=False,
                           max_seq_len=config.max_seq_len)
    outcome = QuantizedProfiler(bits=4).profile(model, batches)
    profile = outcome.profile
    print("\nper-layer activation variance:",
          [round(float(v), 5) for v in profile.layer_variance()])

    # keep the two most active experts of each layer as tuning experts
    tuning = {layer: list(np.argsort(-freq)[:2].astype(int))
              for layer, freq in enumerate(profile.frequencies)}
    flux_config = FluxConfig(layer_budget_strategy="adaptive",
                             merging_strategy="attention_frequency")
    plan = plan_compact_model(model, tuning, profile, max_non_tuning_slots=8,
                              config=flux_config)
    # build_compact_model works in place: hand it a copy to keep the full model
    compact, tuning_slots, _ = build_compact_model(MoETransformer.copy_of(model), plan, profile,
                                                   flux_config)

    print("\ncompact model plan:")
    for layer in range(model.num_layers):
        print(f"  layer {layer}: tuning={plan.tuning_experts[layer]} "
              f"merged clusters={plan.clusters[layer]} "
              f"(budget {plan.layer_budgets[layer]})")
    print(f"compact model holds {sum(compact.local_experts_per_layer())} experts "
          f"instead of {sum(model.local_experts_per_layer())}")

    error = output_error(model, compact, batches[:3])
    print(f"forward output error of the compact model vs the full model: {error:.4f}")
    print(f"trainable expert slots: {sorted(tuning_slots.keys())}")


if __name__ == "__main__":
    main()
