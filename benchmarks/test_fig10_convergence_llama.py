"""Figure 10: convergence vs wall-clock time on the LLaMA-MoE(-like) model.

The paper plots relative accuracy against elapsed time for FMD / FMQ / FMES /
Flux on Dolly, GSM8K, MMLU and PIQA with 10 participants.  The expected shape:
FMQ is unstable and plateaus lowest, FMD converges to the best quality but
spends far more time per round (offloading), FMES is cheap but plateaus below
Flux, and Flux reaches high accuracy in the least time.

The quality claims are multi-seed verdicts (``common.check_median``): one
margin per seed, the median must clear it and the seeds must not scatter
wider than the stated spread.
"""

import statistics

from common import (
    DATASETS,
    METHODS,
    VERDICT_SAMPLES,
    check_median,
    default_rounds,
    print_header,
    print_series,
    run_all_methods,
    time_to_common_target,
    verdict_run_config,
    verdict_seeds,
)

NUM_CLIENTS = 10
ROUNDS = 10
SEEDS = verdict_seeds(10)
#: stated quartile distance of the per-seed margins (metric units)
SPREAD = 0.15


def _measure():
    return {seed: {dataset_name: run_all_methods(
                dataset_name, num_clients=NUM_CLIENTS, num_rounds=default_rounds(ROUNDS),
                model="llama", seed=seed, run_config=verdict_run_config(),
                num_samples=VERDICT_SAMPLES)
            for dataset_name in DATASETS}
            for seed in SEEDS}


def test_fig10_convergence_llama_moe(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    failures = []
    speedups = {}
    for seed, per_dataset in results.items():
        seed_speedups = []
        for dataset_name, method_results in per_dataset.items():
            print_header(f"Figure 10 ({dataset_name}, LLaMA-MoE-like, seed {seed}): "
                         "metric vs simulated time")
            for method in METHODS:
                tracker = method_results[method].tracker
                print_series(method, tracker.times(), tracker.metric_values())
            print(f"  time to 90% of FMD best: {time_to_common_target(method_results, 0.9)}")

            flux, fmd, fmes = (method_results[m] for m in ("flux", "fmd", "fmes"))
            # FMD pays the most simulated time for the same number of rounds.
            assert fmd.total_time > flux.total_time
            assert fmd.total_time > fmes.total_time

            targets = time_to_common_target(method_results, fraction=0.85)
            if targets.get("flux") and targets.get("fmd"):
                seed_speedups.append(targets["fmd"] / targets["flux"])
        speedups[seed] = max(seed_speedups, default=0.0)

    print_header("Figure 10 verdicts over seeds " + str(SEEDS))
    for dataset_name in DATASETS:
        best = {method: [results[seed][dataset_name][method].tracker.best_metric()
                         for seed in SEEDS] for method in METHODS}
        # Flux's final quality approaches FMD's and is not below FMQ's.
        failures.append(check_median(
            f"{dataset_name} flux >= 0.7 x fmd",
            [f - 0.7 * d for f, d in zip(best["flux"], best["fmd"])], SPREAD))
        failures.append(check_median(
            f"{dataset_name} flux >= 0.85 x fmq",
            [f - 0.85 * q for f, q in zip(best["flux"], best["fmq"])], SPREAD))

    # Time-to-accuracy: on its best dataset Flux reaches 85% of FMD's best sooner.
    print(f"  Flux vs FMD best time-to-accuracy speedup per seed: "
          f"{ {s: round(v, 2) for s, v in speedups.items()} }")
    if statistics.median(speedups.values()) <= 1.0:
        failures.append(f"median best speedup {statistics.median(speedups.values()):.2f} <= 1")
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)
