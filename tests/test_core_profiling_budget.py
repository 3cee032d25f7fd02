"""Tests for quantized/stale profiling and adaptive layer budgets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.finetuner as finetuner_module
import repro.core.profiling as profiling_module
from repro.core.profiling import PROFILING_DTYPE
from repro.autograd import Adam
from repro.core import (
    FluxConfig,
    FluxFineTuner,
    QuantizedProfiler,
    StaleProfiler,
    adaptive_layer_budgets,
    layer_budgets,
    single_expert_budgets,
    uniform_layer_budgets,
)
from repro.analysis import profile_activation
from repro.data import Vocabulary, make_batches, make_gsm8k_like
from repro.models import MoETransformer, tiny_moe
from repro.models.presets import ARCHITECTURE_DESCRIPTORS, PRESETS, get_preset
from repro.quantization import quantize_model
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel

from plan_oracles import state_dict_quantize_model
from test_run_checkpoint import assert_models_equal, assert_run_results_equal
from test_runtime import build_federation


class TestFluxConfigValidation:
    def test_defaults_valid(self):
        config = FluxConfig()
        assert config.profiling_bits == 4
        assert config.stale_profiling

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            FluxConfig(layer_budget_strategy="random")
        with pytest.raises(ValueError):
            FluxConfig(merging_strategy="sum")
        with pytest.raises(ValueError):
            FluxConfig(clustering_mode="global")
        with pytest.raises(ValueError):
            FluxConfig(profiling_bits=7)
        with pytest.raises(ValueError):
            FluxConfig(utility_smoothing=2.0)
        with pytest.raises(ValueError):
            FluxConfig(exploration_perturbations=0)

    def test_epsilon_schedule_validation(self):
        from repro.core import EpsilonSchedule
        with pytest.raises(ValueError):
            EpsilonSchedule(initial=1.5)
        with pytest.raises(ValueError):
            EpsilonSchedule(warmup_rounds=0)

    def test_epsilon_schedule_dynamic_growth(self):
        from repro.core import EpsilonSchedule
        schedule = EpsilonSchedule(initial=0.3, final=0.9, warmup_rounds=10)
        assert schedule.value(0) == pytest.approx(0.3)
        assert schedule.value(5) == pytest.approx(0.6)
        assert schedule.value(50) == pytest.approx(0.9)

    def test_epsilon_schedule_fixed(self):
        from repro.core import EpsilonSchedule
        schedule = EpsilonSchedule.fixed(0.7)
        assert schedule.value(0) == schedule.value(100) == pytest.approx(0.7)


class TestQuantizedProfiler:
    def test_bit_validation(self):
        with pytest.raises(ValueError):
            QuantizedProfiler(bits=6)

    def test_profile_matches_reference_layer_count(self, tiny_model, gsm_batches):
        profiler = QuantizedProfiler(bits=4)
        outcome = profiler.profile(tiny_model, gsm_batches)
        assert outcome.profile.num_layers == tiny_model.num_layers
        assert not outcome.stale
        assert outcome.num_tokens > 0

    def test_cost_accounting_attached(self, tiny_model, gsm_batches):
        cost = CostModel(CONSUMER_GPU, MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"]))
        outcome = QuantizedProfiler(bits=2).profile(tiny_model, gsm_batches, cost_model=cost)
        assert outcome.profiling_seconds > 0
        assert outcome.quantization_seconds > 0

    def test_max_batches_respected(self, tiny_model, gsm_batches):
        profiler = QuantizedProfiler(bits=4, max_batches=1)
        outcome = profiler.profile(tiny_model, gsm_batches)
        assert outcome.num_tokens == gsm_batches[0].num_tokens

    def test_requires_batches(self, tiny_model):
        with pytest.raises(ValueError):
            QuantizedProfiler(bits=4).profile(tiny_model, [])

    def test_higher_precision_closer_to_reference(self, tiny_model, gsm_batches):
        from repro.analysis import estimation_error, profile_activation
        reference = profile_activation(tiny_model, gsm_batches)   # full precision
        low = QuantizedProfiler(bits=2).profile(tiny_model, gsm_batches).profile
        high = QuantizedProfiler(bits=8).profile(tiny_model, gsm_batches).profile
        assert estimation_error(reference, high) <= estimation_error(reference, low) + 1e-9


class TestStaleProfiler:
    def test_first_round_returns_fresh(self, tiny_model, gsm_batches):
        profiler = StaleProfiler(bits=4, enabled=True)
        outcome = profiler.profile_for_round(tiny_model, gsm_batches)
        assert not outcome.stale

    def test_second_round_returns_previous_profile(self, tiny_model, gsm_batches):
        profiler = StaleProfiler(bits=4, enabled=True)
        first = profiler.profile_for_round(tiny_model, gsm_batches)
        # perturb the model so a fresh profile would differ
        optimizer = Adam(list(tiny_model.parameters()), lr=5e-2)
        loss = tiny_model.compute_loss(gsm_batches[0].input_ids,
                                       labels=gsm_batches[0].labels,
                                       attention_mask=gsm_batches[0].attention_mask)
        loss.backward()
        optimizer.step()
        second = profiler.profile_for_round(tiny_model, gsm_batches)
        assert second.stale
        for fa, fb in zip(first.profile.frequencies, second.profile.frequencies):
            assert np.allclose(fa, fb)

    def test_disabled_stale_profiling_always_fresh(self, tiny_model, gsm_batches):
        profiler = StaleProfiler(bits=4, enabled=False)
        profiler.profile_for_round(tiny_model, gsm_batches)
        second = profiler.profile_for_round(tiny_model, gsm_batches)
        assert not second.stale

    def test_staleness_error_is_finite(self, tiny_model, gsm_batches):
        profiler = StaleProfiler(bits=4, enabled=True)
        assert profiler.staleness_error(tiny_model, gsm_batches) == 0.0
        profiler.profile_for_round(tiny_model, gsm_batches)
        error = profiler.staleness_error(tiny_model, gsm_batches)
        assert np.isfinite(error)


def profiles_equal(a, b) -> bool:
    return (all(np.array_equal(x, y) for x, y in zip(a.frequencies, b.frequencies))
            and all(np.array_equal(x, y) for x, y in zip(a.attention_scores, b.attention_scores))
            and all(np.array_equal(x, y) for x, y in zip(a.token_counts, b.token_counts))
            and a.sample_sets == b.sample_sets and a.total_tokens == b.total_tokens)


class TestProfilingPrecision:
    """The profiling copy is float32: low-bit codes times a row scale need no more."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_copy_routes_like_the_float64_copy(self, preset, seed):
        vocab = Vocabulary(size=96, num_topics=4)
        model = MoETransformer(get_preset(preset, vocab_size=vocab.size, seed=seed))
        dataset = make_gsm8k_like(vocab=vocab, num_samples=48, seed=seed)
        batches = make_batches(dataset.samples, 16, vocab, shuffle=False,
                               max_seq_len=model.config.max_seq_len)
        single = quantize_model(model, 4, dtype=PROFILING_DTYPE)
        assert {param.data.dtype for param in single.parameters()} == {np.dtype("float32")}
        got = profile_activation(single, batches)
        want = profile_activation(quantize_model(model, 4), batches)
        assert got.total_tokens == want.total_tokens
        assert got.sample_sets == want.sample_sets
        for mine, theirs in zip(got.token_counts, want.token_counts):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(got.frequencies, want.frequencies):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(got.attention_scores, want.attention_scores):
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_without_dtype_byte_equal_to_the_state_dict_path(self, vocab, bits, dtype):
        """FMQ's model (and every caller that asks for no dtype) is what it was."""
        model = MoETransformer(tiny_moe(vocab_size=vocab.size, dtype=dtype))
        got, want = quantize_model(model, bits), state_dict_quantize_model(model, bits)
        assert got.config == want.config == model.config
        for (name, mine), (_, theirs) in zip(got.named_parameters(), want.named_parameters(),
                                             strict=True):
            assert mine.data.dtype == theirs.data.dtype, name
            assert mine.data.tobytes() == theirs.data.tobytes(), name

    def test_values_are_the_float64_quantization_rounded_once(self, tiny_model):
        single = quantize_model(tiny_model, 4, dtype="float32")
        double = quantize_model(tiny_model, 4)
        for mine, theirs in zip(single.parameters(), double.parameters(), strict=True):
            assert np.array_equal(mine.data, theirs.data.astype(np.float32))


class TestSharedQuantizedCopy:
    """One low-bit copy of the global model per server version, shared by its participants."""

    CLIENTS = 3

    def _tuner(self, vocab, tiny_config, **config_kwargs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=self.CLIENTS,
            **{"participants_per_round": self.CLIENTS, **config_kwargs})
        return FluxFineTuner(server, participants, test, config=config,
                             flux_config=FluxConfig(seed=0))

    @pytest.fixture()
    def quantizations(self, monkeypatch):
        """Every ``quantize_model`` call of a run: who asked, and on which weights."""
        calls = []

        def recording(caller):
            def quantize(model, bits, dtype):
                calls.append((caller, bits, model.state_dict()))
                return quantize_model(model, bits, dtype=dtype)
            return quantize

        monkeypatch.setattr(finetuner_module, "quantize_model", recording("tuner"))
        monkeypatch.setattr(profiling_module, "quantize_model", recording("profiler"))
        return calls

    def test_quantized_once_per_server_version_on_the_aggregated_weights(
            self, vocab, tiny_config, quantizations):
        tuner = self._tuner(vocab, tiny_config)
        tuner.run(num_rounds=3)
        assert [caller for caller, _, _ in quantizations] == ["tuner"] * 3
        assert {bits for _, bits, _ in quantizations} == {tuner.flux_config.profiling_bits}
        states = [state for _, _, state in quantizations]
        for older, newer in zip(states, states[1:]):
            assert any(not np.array_equal(older[name], newer[name]) for name in older), \
                "each round must quantize the freshly aggregated model"
        # the one copy still held is the last round's, of the weights that round started from
        (version, bits), held = tuner._quantized
        assert version == 2 and tuner.server.round_index == 3
        last_round_model = MoETransformer(tiny_config)
        last_round_model.load_state_dict(states[-1])
        assert_models_equal(held, quantize_model(last_round_model, bits, dtype=PROFILING_DTYPE))

    @pytest.mark.parametrize("knobs", [
        {},
        {"scheduler": "semisync", "deadline_quantile": 0.7},
        {"scheduler": "async", "buffer_size": 2, "participants_per_round": 2},
    ], ids=["sync", "semisync", "async"])
    def test_run_identical_to_per_participant_quantization(self, vocab, tiny_config,
                                                           monkeypatch, quantizations, knobs):
        shared = self._tuner(vocab, tiny_config, **knobs)
        shared_result = shared.run(num_rounds=3)
        shared_calls = len(quantizations)
        assert all(caller == "tuner" for caller, _, _ in quantizations)

        # every call quantizes afresh: the round's shared pass on one copy,
        # each participant on its own otherwise (async)
        monkeypatch.setattr(FluxFineTuner, "quantized_global_model",
                            lambda self: profiling_module.quantize_model(
                                self.server.global_model, self.flux_config.profiling_bits,
                                dtype=PROFILING_DTYPE))
        private = self._tuner(vocab, tiny_config, **knobs)
        private_result = private.run(num_rounds=3)
        private_calls = len(quantizations) - shared_calls
        assert all(caller == "profiler" for caller, _, _ in quantizations[shared_calls:])
        assert shared_calls < private_calls

        assert_run_results_equal(shared_result, private_result)
        assert_models_equal(shared.server.global_model, private.server.global_model)
        for pid, state in shared.states.items():
            other = private.states[pid]
            assert (state.latest_profile is None) == (other.latest_profile is None)
            if state.latest_profile is not None:
                assert profiles_equal(state.latest_profile, other.latest_profile)
                assert profiles_equal(state.profiler._previous, other.profiler._previous)
            assert state.utilities.as_dict() == other.utilities.as_dict()

    def test_async_dispatches_quantize_once_per_version_they_see(self, vocab, tiny_config,
                                                                 quantizations):
        tuner = self._tuner(vocab, tiny_config, scheduler="async", buffer_size=2,
                            participants_per_round=2)
        result = tuner.run(num_rounds=3)
        participant_rounds = sum(r.num_aggregated for r in result.rounds)
        # versions 0..round_index can each be dispatched on, and none is quantized twice
        assert 1 <= len(quantizations) <= tuner.server.round_index + 1
        assert len(quantizations) < participant_rounds
        states = [state for _, _, state in quantizations]
        for older, newer in zip(states, states[1:]):
            assert any(not np.array_equal(older[name], newer[name]) for name in older)

    def test_profiler_uses_and_preserves_a_supplied_copy(self, tiny_model, gsm_batches,
                                                         quantizations):
        profiler = QuantizedProfiler(bits=4)
        own = profiler.profile(tiny_model, gsm_batches)
        assert len(quantizations) == 1
        copy = quantize_model(tiny_model, 4, dtype=PROFILING_DTYPE)
        before = copy.state_dict()
        for _ in range(2):      # a second participant profiles on the same copy
            given_copy = profiler.profile(tiny_model, gsm_batches, quantized=copy)
            assert profiles_equal(given_copy.profile, own.profile)
        assert len(quantizations) == 1
        assert_models_equal_state(copy, before)
        assert copy.training and copy.blocks[0].moe.routing_groups is None

    def test_staleness_error_and_reference_paths_quantize_for_themselves(
            self, tiny_model, gsm_batches, quantizations):
        stale = StaleProfiler(bits=4, enabled=True)
        stale.profile_for_round(tiny_model, gsm_batches)
        stale.staleness_error(tiny_model, gsm_batches)
        assert [caller for caller, _, _ in quantizations] == ["profiler", "profiler"]


def assert_models_equal_state(model, state) -> None:
    current = model.state_dict()
    assert all(np.array_equal(current[name], state[name]) for name in state)


class TestLayerBudgets:
    def _frequencies(self, skew_first=True):
        skewed = np.array([0.7, 0.1, 0.1, 0.1])
        balanced = np.array([0.25, 0.25, 0.25, 0.25])
        return [skewed if skew_first else balanced, balanced]

    def test_adaptive_budget_sums_to_total(self):
        budgets = adaptive_layer_budgets(6, self._frequencies())
        assert sum(budgets) == 6
        assert all(b >= 1 for b in budgets)

    def test_adaptive_budget_capped_by_capacity_and_redistributed(self):
        # two layers with 4 experts each can absorb at most 8 merged slots
        budgets = adaptive_layer_budgets(10, self._frequencies())
        assert sum(budgets) == 8
        assert all(1 <= b <= 4 for b in budgets)

    def test_adaptive_prefers_early_layers(self):
        balanced = [np.full(4, 0.25) for _ in range(4)]
        budgets = adaptive_layer_budgets(12, balanced)
        assert budgets[0] >= budgets[-1]

    def test_adaptive_prefers_balanced_layers(self):
        frequencies = self._frequencies(skew_first=True)
        budgets = adaptive_layer_budgets(10, frequencies)
        # layer 1 (balanced, later) can still beat layer 0 (skewed, earlier)
        # when skew dominates the depth weight; at minimum the skewed layer
        # should not receive the whole budget
        assert budgets[0] < 10

    def test_uniform_budget_even_split(self):
        budgets = uniform_layer_budgets(8, 4)
        assert budgets == [2, 2, 2, 2]

    def test_single_budget(self):
        assert single_expert_budgets(3) == [1, 1, 1]
        with pytest.raises(ValueError):
            single_expert_budgets(0)

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError):
            adaptive_layer_budgets(1, self._frequencies())

    def test_budget_capped_by_layer_expert_count(self):
        frequencies = [np.full(2, 0.5), np.full(8, 0.125)]
        budgets = adaptive_layer_budgets(12, frequencies)
        assert budgets[0] <= 2

    def test_dispatch_by_strategy(self):
        frequencies = self._frequencies()
        assert sum(layer_budgets("adaptive", 5, frequencies)) == 5
        assert layer_budgets("uniform", 6, frequencies) == [3, 3]
        assert layer_budgets("single", 6, frequencies) == [1, 1]
        with pytest.raises(ValueError):
            layer_budgets("other", 6, frequencies)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10_000),
)
def test_adaptive_budget_properties(num_layers, extra_budget, seed):
    """Adaptive budgets always sum to the requested total and respect floors."""
    rng = np.random.default_rng(seed)
    frequencies = []
    for _ in range(num_layers):
        raw = rng.random(6) + 1e-3
        frequencies.append(raw / raw.sum())
    total = num_layers + extra_budget
    budgets = adaptive_layer_budgets(total, frequencies)
    assert sum(budgets) <= total
    assert all(1 <= b <= 6 for b in budgets)
