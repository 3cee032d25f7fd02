"""Table 2: final ROUGE-L / accuracy achieved by each method.

The paper reports the final quality after fine-tuning for both models and all
four datasets.  Expected ordering per cell: FMD (full fine-tuning) is the
quality ceiling, Flux lands within a small gap of FMD, FMES loses quality by
discarding experts, and FMQ loses the most to quantization error.  The claims
are multi-seed verdicts (``common.check_median``).
"""

import numpy as np

from common import (
    DATASETS,
    METHODS,
    VERDICT_SAMPLES,
    check_median,
    default_rounds,
    print_header,
    print_table,
    run_all_methods,
    verdict_run_config,
    verdict_seeds,
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
SEEDS = verdict_seeds(20)
#: stated quartile distance of the per-seed margins (metric units, ratio units)
SPREAD = 0.15


def _measure():
    table = {}
    for seed in SEEDS:
        for model in ("llama", "deepseek"):
            for dataset_name in DATASETS:
                results = run_all_methods(dataset_name, num_clients=NUM_CLIENTS,
                                          num_rounds=default_rounds(ROUNDS), model=model,
                                          seed=seed, run_config=verdict_run_config(),
                                          num_samples=VERDICT_SAMPLES)
                table[seed, model, dataset_name] = {
                    method: results[method].tracker.best_metric() for method in METHODS
                }
    return table


def test_table2_final_accuracy(benchmark):
    table = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Table 2: best achieved metric per seed / model / dataset / method")
    rows = []
    for (seed, model, dataset_name), per_method in table.items():
        rows.append([seed, model, dataset_name] + [round(per_method[m], 3) for m in METHODS]
                    + [str({m: PAPER_TABLE2[(model, dataset_name)][m] for m in METHODS})])
    print_table(["seed", "model", "dataset"] + METHODS + ["paper"], rows, width=14)

    print_header("Table 2 verdicts over seeds " + str(SEEDS))
    failures = []
    for key in PAPER_TABLE2:
        cells = [table[(seed,) + key] for seed in SEEDS]
        # Flux preserves quality: no collapse relative to full fine-tuning.
        failures.append(check_median(f"{key[0]}/{key[1]} flux >= 0.65 x fmd",
                                     [c["flux"] - 0.65 * c["fmd"] for c in cells], SPREAD))
    # On average Flux closes most of the gap to FMD (paper: near-identical).
    mean_ratios = [np.mean([table[(seed,) + key]["flux"] / table[(seed,) + key]["fmd"]
                            for key in PAPER_TABLE2 if table[(seed,) + key]["fmd"] > 0])
                   for seed in SEEDS]
    failures.append(check_median("mean flux / fmd >= 0.8",
                                 [float(r) - 0.8 for r in mean_ratios], SPREAD))
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)
