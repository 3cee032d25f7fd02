"""Figure 19: fixed vs dynamic exploration/exploitation balance (ε).

The paper compares ε=0.3 (exploration-heavy), ε=0.7 (exploitation-heavy) and
Flux's dynamic schedule.  The dynamic schedule converges at least as fast as
the best fixed setting because it explores early (when utility estimates are
poor) and exploits late.  The claim is a multi-seed verdict
(``common.check_median``).
"""

from common import (
    VERDICT_SAMPLES,
    build_federation,
    check_median,
    default_flux_config,
    default_rounds,
    print_header,
    print_series,
    verdict_run_config,
    verdict_seeds,
)
from repro.core import EpsilonSchedule, FluxFineTuner
from repro.federated import ParameterServer
from repro.models import MoETransformer

ROUNDS = 8
SEEDS = verdict_seeds(50)
#: stated quartile distance of the per-seed margins (metric units)
SPREAD = 0.15
SETTINGS = {
    "eps=0.3": EpsilonSchedule.fixed(0.3),
    "eps=0.7": EpsilonSchedule.fixed(0.7),
    "dynamic": EpsilonSchedule(initial=0.5, final=0.95, warmup_rounds=5),
}


def _measure():
    results = {}
    for seed in SEEDS:
        for dataset_name in ("gsm8k", "dolly"):
            config, participants, test, cost_models = build_federation(
                dataset_name, num_clients=6, seed=seed, num_samples=VERDICT_SAMPLES)
            per_setting = {}
            for label, schedule in SETTINGS.items():
                flux_config = default_flux_config(epsilon=schedule)
                tuner = FluxFineTuner(ParameterServer(MoETransformer(config)), participants, test,
                                      cost_models=cost_models, config=verdict_run_config(),
                                      flux_config=flux_config)
                per_setting[label] = tuner.run(num_rounds=default_rounds(ROUNDS))
            results[seed, dataset_name] = per_setting
    return results


def test_fig19_dynamic_epsilon(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    margins = {"gsm8k": [], "dolly": []}
    for (seed, dataset_name), per_setting in results.items():
        print_header(f"Figure 19 ({dataset_name}, seed {seed}): "
                     "relative accuracy vs time by epsilon strategy")
        for label, result in per_setting.items():
            print_series(label, result.tracker.times(), result.tracker.metric_values())

        best_fixed = max(per_setting["eps=0.3"].tracker.best_metric(),
                         per_setting["eps=0.7"].tracker.best_metric())
        dynamic_best = per_setting["dynamic"].tracker.best_metric()
        print(f"  best fixed: {best_fixed:.3f}  dynamic: {dynamic_best:.3f}")
        margins[dataset_name].append(dynamic_best - 0.75 * best_fixed)

    print_header("Figure 19 verdicts over seeds " + str(SEEDS))
    # The dynamic schedule should be competitive with the best fixed epsilon.
    failures = [check_median(f"{dataset_name} dynamic >= 0.75 x best fixed", values, SPREAD)
                for dataset_name, values in margins.items()]
    failures = [f for f in failures if f]
    assert not failures, "; ".join(failures)
