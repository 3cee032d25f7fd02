"""Table 2: final ROUGE-L / accuracy achieved by each method.

The paper reports the final quality after fine-tuning for both models and all
four datasets.  Expected ordering per cell: FMD (full fine-tuning) is the
quality ceiling, Flux lands within a small gap of FMD, FMES loses quality by
discarding experts, and FMQ loses the most to quantization error.
"""

import numpy as np
import pytest

from common import (
    DATASETS,
    FAST,
    METHODS,
    default_rounds,
    print_header,
    print_table,
    run_all_methods,
)

PAPER_TABLE2 = {
    ("llama", "dolly"): {"fmd": 0.528, "fmq": 0.504, "fmes": 0.518, "flux": 0.527},
    ("llama", "gsm8k"): {"fmd": 0.665, "fmq": 0.614, "fmes": 0.622, "flux": 0.663},
    ("llama", "mmlu"): {"fmd": 0.795, "fmq": 0.759, "fmes": 0.774, "flux": 0.793},
    ("llama", "piqa"): {"fmd": 0.849, "fmq": 0.802, "fmes": 0.826, "flux": 0.848},
    ("deepseek", "dolly"): {"fmd": 0.529, "fmq": 0.507, "fmes": 0.519, "flux": 0.529},
    ("deepseek", "gsm8k"): {"fmd": 0.669, "fmq": 0.618, "fmes": 0.625, "flux": 0.665},
    ("deepseek", "mmlu"): {"fmd": 0.801, "fmq": 0.765, "fmes": 0.775, "flux": 0.798},
    ("deepseek", "piqa"): {"fmd": 0.853, "fmq": 0.805, "fmes": 0.830, "flux": 0.851},
}

ROUNDS = 6
NUM_CLIENTS = 6


def _measure():
    table = {}
    for model in ("llama", "deepseek"):
        for dataset_name in DATASETS:
            results = run_all_methods(dataset_name, num_clients=NUM_CLIENTS,
                                      num_rounds=default_rounds(ROUNDS), model=model,
                                      seed=20)
            table[(model, dataset_name)] = {
                method: results[method].tracker.best_metric() for method in METHODS
            }
    return table


@pytest.mark.xfail(
    FAST, strict=True, raises=AssertionError,
    reason="fast mode, llama/dolly: Flux 0.109 < 0.65 x FMD 0.275 (measured on c482e88; "
           "ROADMAP's reproduction-gate item has the bisection plan). "
           "Strict: the nightly lane goes red the day this starts passing.")
def test_table2_final_accuracy(benchmark):
    table = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Table 2: best achieved metric per model / dataset / method")
    rows = []
    for (model, dataset_name), per_method in table.items():
        rows.append([model, dataset_name] + [round(per_method[m], 3) for m in METHODS]
                    + [str({m: PAPER_TABLE2[(model, dataset_name)][m] for m in METHODS})])
    print_table(["model", "dataset"] + METHODS + ["paper"], rows, width=14)

    flux_vs_fmd_gaps = []
    for key, per_method in table.items():
        fmd, flux, fmes, fmq = (per_method["fmd"], per_method["flux"],
                                per_method["fmes"], per_method["fmq"])
        if fmd > 0:
            flux_vs_fmd_gaps.append(flux / fmd)
        # Flux preserves quality: no collapse relative to full fine-tuning.
        assert flux >= 0.65 * fmd, f"flux quality collapsed for {key}"

    # On average Flux closes most of the gap to FMD (paper: near-identical).
    assert np.mean(flux_vs_fmd_gaps) > 0.8
