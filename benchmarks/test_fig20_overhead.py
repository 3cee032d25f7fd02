"""Figure 20: additional overhead introduced by Flux.

The paper breaks one round into profiling / merging / assignment /
fine-tuning time and shows that Flux's extra machinery stays a small fraction
of the round (roughly 5%, with profiling the largest overhead component but
hidden behind aggregation).  This benchmark reports the same breakdown from the
simulated per-phase accounting of a Flux run on each dataset.
"""


from common import (
    DATASETS,
    build_federation,
    default_flux_config,
    default_rounds,
    default_run_config,
    print_header,
    print_table,
)
from repro.core import FluxFineTuner
from repro.federated import ParameterServer
from repro.models import MoETransformer

PAPER_SHARES = {  # % of the profiled categories (profiling, merging, assignment, fine-tuning)
    "dolly": (2.15, 0.92, 1.66, 95.27),
    "gsm8k": (2.24, 1.32, 2.33, 94.11),
    "mmlu": (2.08, 0.75, 1.35, 95.81),
    "piqa": (2.18, 1.12, 1.97, 94.72),
}
CATEGORIES = ["profiling", "merging", "assignment", "fine-tuning"]


def _measure():
    results = {}
    for dataset_name in DATASETS:
        config, participants, test, cost_models = build_federation(dataset_name, num_clients=5,
                                                                   seed=60)
        tuner = FluxFineTuner(ParameterServer(MoETransformer(config)), participants, test,
                              cost_models=cost_models, config=default_run_config(),
                              flux_config=default_flux_config())
        run = tuner.run(num_rounds=default_rounds(3))
        totals = run.phase_totals()
        profiling = totals.get("profiling", 0.0) + totals.get("quantization", 0.0)
        merging = totals.get("merging", 0.0)
        assignment = totals.get("assignment", 0.0)
        fine_tuning = totals.get("training", 0.0)
        overall = profiling + merging + assignment + fine_tuning
        results[dataset_name] = {
            "profiling": profiling / overall * 100,
            "merging": merging / overall * 100,
            "assignment": assignment / overall * 100,
            "fine-tuning": fine_tuning / overall * 100,
        }
    return results


def test_fig20_flux_overhead(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Figure 20: share (%) of profiling / merging / assignment / fine-tuning")
    rows = []
    for dataset_name, shares in results.items():
        rows.append([dataset_name] + [round(shares[c], 2) for c in CATEGORIES]
                    + [str(PAPER_SHARES[dataset_name])])
    print_table(["dataset"] + CATEGORIES + ["paper"], rows, width=14)

    for dataset_name, shares in results.items():
        # Fine-tuning dominates the round; Flux's own machinery stays a minority.
        overhead = shares["profiling"] + shares["merging"] + shares["assignment"]
        assert shares["fine-tuning"] > overhead
        # Merging and assignment individually remain small (paper: ~1-2% each).
        assert shares["merging"] < 25.0
        assert shares["assignment"] < 35.0
