"""Figure 6: expert activation frequencies drift slowly across rounds.

The paper tracks activation frequencies over fine-tuning rounds and observes
that (a) they do change as parameters are updated, but (b) the change between
consecutive rounds is small (the CDF of per-round changes concentrates near
zero), which is what makes stale profiling viable.
"""

import numpy as np

from common import (
    build_federation,
    default_flux_config,
    default_rounds,
    default_run_config,
    print_header,
    print_table,
)
from repro.analysis import frequency_drift, profile_activation
from repro.core import FluxFineTuner
from repro.data import make_batches
from repro.federated import ParameterServer
from repro.models import MoETransformer
from repro.runtime import make_scheduler


def _measure():
    rounds = default_rounds(8)
    config, participants, test, cost_models = build_federation("gsm8k", num_clients=6, seed=6)
    run_config = default_run_config()
    vocab = participants[0].dataset.vocab
    probe_batches = make_batches(test.samples[:64], 16, vocab, shuffle=False,
                                 max_seq_len=config.max_seq_len)

    server = ParameterServer(MoETransformer(config))
    tuner = FluxFineTuner(server, participants, test, cost_models=cost_models,
                          config=run_config, flux_config=default_flux_config())
    profiles = [profile_activation(server.global_model, probe_batches)]
    for _ in make_scheduler(run_config).round_results(tuner, rounds):
        profiles.append(profile_activation(server.global_model, probe_batches))
    drifts = [frequency_drift(a, b) for a, b in zip(profiles, profiles[1:])]
    return profiles, drifts


def test_fig06_activation_frequency_drift(benchmark):
    profiles, drifts = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Figure 6(a): tracked activation frequency (%) of 4 experts over rounds")
    tracked = [(0, e) for e in range(4)]
    rows = []
    for r, profile in enumerate(profiles):
        rows.append([r] + [round(float(profile.frequencies[l][e]) * 100, 2) for l, e in tracked])
    print_table(["round"] + [f"expert-{e + 1}" for _, e in tracked], rows)

    all_drift = np.concatenate(drifts)
    print_header("Figure 6(b): CDF of per-round activation frequency change (pp)")
    quantiles = [0.5, 0.75, 0.9, 0.99]
    print_table(["quantile", "change_pp"],
                [[q, float(np.quantile(all_drift, q))] for q in quantiles])

    # Frequencies do change over training ...
    total_change = frequency_drift(profiles[0], profiles[-1])
    assert total_change.max() > 0.0
    # ... but consecutive-round changes are small (90th percentile under 10pp),
    # the property stale profiling relies on.
    assert float(np.quantile(all_drift, 0.9)) < 10.0
