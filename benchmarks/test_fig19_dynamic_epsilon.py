"""Figure 19: fixed vs dynamic exploration/exploitation balance (ε).

The paper compares ε=0.3 (exploration-heavy), ε=0.7 (exploitation-heavy) and
Flux's dynamic schedule.  The dynamic schedule converges at least as fast as
the best fixed setting because it explores early (when utility estimates are
poor) and exploits late.
"""

import pytest

from common import (
    FAST,
    build_federation,
    default_flux_config,
    default_rounds,
    default_run_config,
    print_header,
    print_series,
)
from repro.core import EpsilonSchedule, FluxFineTuner
from repro.federated import ParameterServer
from repro.models import MoETransformer

ROUNDS = 8
SETTINGS = {
    "eps=0.3": EpsilonSchedule.fixed(0.3),
    "eps=0.7": EpsilonSchedule.fixed(0.7),
    "dynamic": EpsilonSchedule(initial=0.5, final=0.95, warmup_rounds=5),
}


def _measure():
    results = {}
    for dataset_name in ("gsm8k", "dolly"):
        config, participants, test, cost_models = build_federation(dataset_name, num_clients=6,
                                                                   seed=50)
        per_setting = {}
        for label, schedule in SETTINGS.items():
            flux_config = default_flux_config(epsilon=schedule)
            tuner = FluxFineTuner(ParameterServer(MoETransformer(config)), participants, test,
                                  cost_models=cost_models, config=default_run_config(),
                                  flux_config=flux_config)
            per_setting[label] = tuner.run(num_rounds=default_rounds(ROUNDS))
        results[dataset_name] = per_setting
    return results


@pytest.mark.xfail(
    FAST, strict=True, raises=AssertionError,
    reason="fast mode: dynamic eps 0.300 < 0.75 x best fixed 0.450 (measured on c482e88; "
           "single-seed maxima of a 40-sample metric — ROADMAP's reproduction-gate item). "
           "Strict: the nightly lane goes red the day this starts passing.")
def test_fig19_dynamic_epsilon(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    for dataset_name, per_setting in results.items():
        print_header(f"Figure 19 ({dataset_name}): relative accuracy vs time by epsilon strategy")
        for label, result in per_setting.items():
            print_series(label, result.tracker.times(), result.tracker.metric_values())

        best_fixed = max(per_setting["eps=0.3"].tracker.best_metric(),
                         per_setting["eps=0.7"].tracker.best_metric())
        dynamic_best = per_setting["dynamic"].tracker.best_metric()
        print(f"  best fixed: {best_fixed:.3f}  dynamic: {dynamic_best:.3f}")
        # The dynamic schedule should be competitive with the best fixed epsilon.
        assert dynamic_best >= 0.75 * best_fixed
