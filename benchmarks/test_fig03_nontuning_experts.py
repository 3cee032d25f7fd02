"""Figure 3: keeping vs discarding non-tuning experts.

The paper fine-tunes only the most frequently activated experts and compares
two treatments of the remaining (non-tuning) experts: keeping them (frozen) vs
discarding them entirely.  Discarding degrades fine-tuning quality.  Here the
same comparison runs on the GSM8K-like dataset: "keep" preserves non-tuning
experts frozen in place, "discard" drops them (FMES-style skip).
"""


from common import (
    build_federation,
    default_rounds,
    default_run_config,
    print_header,
    print_table,
)
from repro.analysis import profile_activation
from repro.baselines import FMESFineTuner, select_top_activated
from repro.federated import FederatedFineTuner, ParameterServer, ParticipantRoundResult
from repro.federated.aggregation import ExpertUpdate
from repro.models import MoETransformer
from repro.systems import RoundCostBreakdown


class KeepNonTuningFineTuner(FederatedFineTuner):
    """Fine-tune the top-activated experts while keeping all others frozen."""

    name = "keep-non-tuning"

    def participant_round(self, participant, round_index):
        model = self.server.model_snapshot()
        profile_batches = participant.local_batches(self.config.batch_size, max_batches=2,
                                                    max_seq_len=model.config.max_seq_len)
        profile = profile_activation(model, profile_batches)
        selected = set(select_top_activated(profile, participant.resources.max_tuning_experts))
        batches = participant.local_batches(self.config.batch_size,
                                            max_batches=self.config.max_local_batches,
                                            max_seq_len=model.config.max_seq_len)
        result = participant.local_finetune(model, batches,
                                            learning_rate=self.config.learning_rate,
                                            trainable_experts=selected)
        updates = [
            ExpertUpdate(participant.participant_id, layer, expert,
                         model.expert_state(layer, expert),
                         float(max(result.expert_token_counts.get((layer, expert), 1), 1)))
            for layer, expert in selected
        ]
        return ParticipantRoundResult(updates=updates, breakdown=RoundCostBreakdown(training=1.0),
                                      train_loss=result.mean_loss)


def _measure():
    rounds = default_rounds(8)
    config, participants, test, cost_models = build_federation("gsm8k", num_clients=6, seed=4)
    run_config = default_run_config(eval_max_samples=60)

    keep = KeepNonTuningFineTuner(ParameterServer(MoETransformer(config)), participants, test,
                                  cost_models=cost_models, config=run_config)
    keep_result = keep.run(num_rounds=rounds)

    discard = FMESFineTuner(ParameterServer(MoETransformer(config)), participants, test,
                            cost_models=cost_models, config=run_config)
    discard_result = discard.run(num_rounds=rounds)
    return keep_result, discard_result


def test_fig03_discarding_non_tuning_experts_hurts(benchmark):
    keep_result, discard_result = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_header("Figure 3(a): fine-tuning quality, keep vs discard non-tuning experts")
    rows = []
    for r, (keep_m, drop_m) in enumerate(zip(keep_result.tracker.metric_values(),
                                             discard_result.tracker.metric_values())):
        rows.append([r, keep_m, drop_m])
    print_table(["round", "keep_non_tuning", "discard_non_tuning"], rows, width=20)

    # Keeping non-tuning experts should reach at least the quality of discarding
    # them (the paper shows a clear gap in favour of keeping).
    assert keep_result.tracker.best_metric() >= discard_result.tracker.best_metric() * 0.9
