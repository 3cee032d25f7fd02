"""Tests for the device, memory, cost-model and timeline substrate."""

import pytest

from repro.federated import RoundResult, RunResult
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.systems import (
    CONSUMER_GPU,
    L20_SERVER,
    SMALL_GPU,
    CostModel,
    DeviceProfile,
    MemoryModel,
    RoundCostBreakdown,
    RoundTimeline,
    SimulatedClock,
    heterogeneous_fleet,
)


class TestDeviceProfile:
    def test_presets_are_consistent(self):
        assert SMALL_GPU.gpu_memory_gb < CONSUMER_GPU.gpu_memory_gb < L20_SERVER.gpu_memory_gb
        assert L20_SERVER.effective_flops > CONSUMER_GPU.effective_flops

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", gpu_memory_gb=0, compute_tflops=1, pcie_bandwidth_gbps=1,
                          network_mbps=1)
        with pytest.raises(ValueError):
            DeviceProfile("bad", gpu_memory_gb=1, compute_tflops=1, pcie_bandwidth_gbps=1,
                          network_mbps=1, compute_efficiency=0.0)

    def test_scaled_device(self):
        faster = CONSUMER_GPU.scaled(2.0)
        assert faster.compute_tflops == pytest.approx(CONSUMER_GPU.compute_tflops * 2)
        assert faster.gpu_memory_gb == CONSUMER_GPU.gpu_memory_gb

    def test_heterogeneous_fleet(self):
        fleet = heterogeneous_fleet(8, seed=0, spread=0.5)
        assert len(fleet) == 8
        tflops = [d.compute_tflops for d in fleet]
        assert max(tflops) > min(tflops)

    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            heterogeneous_fleet(0)
        with pytest.raises(ValueError):
            heterogeneous_fleet(2, spread=1.5)


class TestMemoryModel:
    @pytest.fixture()
    def memory(self):
        return MemoryModel(ARCHITECTURE_DESCRIPTORS["deepseek-moe"])

    def test_totals_consistent(self, memory):
        assert memory.total_bytes == pytest.approx(
            memory.expert_bytes_total + memory.dense_bytes)
        assert memory.num_experts_total == 28 * 64

    def test_more_memory_loads_more_experts(self, memory):
        assert memory.max_loadable_experts(L20_SERVER) >= memory.max_loadable_experts(SMALL_GPU)

    def test_loadable_experts_bounded_by_total(self, memory):
        assert memory.max_loadable_experts(L20_SERVER) <= memory.num_experts_total

    def test_tiny_device_cannot_load_anything(self, memory):
        tiny = DeviceProfile("tiny", gpu_memory_gb=1.0, compute_tflops=1.0,
                             pcie_bandwidth_gbps=1.0, network_mbps=1.0)
        assert memory.max_loadable_experts(tiny) == 0

    def test_tuning_budget_scales_with_round_time(self, memory):
        short = memory.max_tuning_experts(CONSUMER_GPU, round_time_budget_s=10, tokens_per_round=4096)
        long = memory.max_tuning_experts(CONSUMER_GPU, round_time_budget_s=1000, tokens_per_round=4096)
        assert long >= short

    def test_tuning_budget_validation(self, memory):
        with pytest.raises(ValueError):
            memory.max_tuning_experts(CONSUMER_GPU, round_time_budget_s=0, tokens_per_round=10)


class TestCostModel:
    @pytest.fixture()
    def cost(self):
        return CostModel(CONSUMER_GPU, MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"]))

    def test_training_time_monotonic_in_tokens(self, cost):
        assert cost.training_time(2048, 8, 8) < cost.training_time(8192, 8, 8)

    def test_training_time_monotonic_in_tuning_experts(self, cost):
        fewer = cost.training_time(4096, tuning_experts=4, frozen_experts=12)
        more = cost.training_time(4096, tuning_experts=12, frozen_experts=4)
        assert more > fewer

    def test_quantized_training_faster(self, cost):
        assert cost.training_time(4096, 8, 0, quantized=True) < cost.training_time(4096, 8, 0)

    def test_profiling_cheaper_than_training(self, cost):
        assert cost.profiling_time(4096, bits=4) < cost.training_time(4096, 16, 0)

    def test_lower_bits_profile_faster(self, cost):
        assert cost.profiling_time(4096, bits=2) <= cost.profiling_time(4096, bits=8)

    def test_offload_time_linear(self, cost):
        assert cost.offload_time(20) == pytest.approx(2 * cost.offload_time(10))

    def test_communication_slower_than_pcie(self, cost):
        experts = 16
        assert cost.upload_time(experts) > cost.offload_time(experts)

    def test_forward_time_cheaper_than_training(self, cost):
        assert cost.forward_time(4096) < cost.training_time(4096, 16, 0)

    def test_merging_and_assignment_small(self, cost):
        assert cost.merging_time(100) < 1.0
        assert cost.assignment_time(512) < 1.0


class TestRoundCostBreakdown:
    def test_total_without_overlap(self):
        breakdown = RoundCostBreakdown(profiling=2.0, training=5.0, communication=1.0)
        assert breakdown.total() == pytest.approx(8.0)

    def test_overlap_hides_profiling_behind_communication(self):
        breakdown = RoundCostBreakdown(profiling=2.0, training=5.0, communication=3.0)
        assert breakdown.total(overlap_profiling=True) == pytest.approx(8.0)

    def test_overlap_charges_excess_profiling(self):
        breakdown = RoundCostBreakdown(profiling=10.0, training=5.0, communication=3.0)
        assert breakdown.total(overlap_profiling=True) == pytest.approx(5.0 + 3.0 + 7.0)

    def test_as_dict_keys(self):
        keys = set(RoundCostBreakdown().as_dict())
        assert {"profiling", "merging", "assignment", "training",
                "offloading", "quantization", "communication"} == keys


class TestTimeline:
    def test_clock_advances(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        clock.advance(5.0)
        assert clock.now() == 5.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_round_duration_is_slowest_participant_plus_server(self):
        timeline = RoundTimeline(round_index=0)
        timeline.record_participant(0, RoundCostBreakdown(training=3.0))
        timeline.record_participant(1, RoundCostBreakdown(training=7.0))
        timeline.server_time = 1.0
        assert timeline.round_duration() == pytest.approx(8.0)

    def test_phase_totals_sum_participants(self):
        timeline = RoundTimeline(round_index=0)
        timeline.record_participant(0, RoundCostBreakdown(training=3.0, profiling=1.0))
        timeline.record_participant(1, RoundCostBreakdown(training=2.0))
        totals = timeline.phase_totals()
        assert totals["training"] == pytest.approx(5.0)
        assert totals["profiling"] == pytest.approx(1.0)

    def test_run_result_totals_read_the_rounds(self):
        rounds = []
        for r in range(2):
            timeline = RoundTimeline(round_index=r)
            timeline.record_participant(0, RoundCostBreakdown(training=2.0))
            rounds.append(RoundResult(round_index=r, train_loss=1.0, metric_value=0.1,
                                      simulated_time=2.0 * (r + 1),
                                      round_duration=timeline.round_duration(),
                                      timeline=timeline))
        run = RunResult(method="test", target=1.0, rounds=rounds)
        assert run.total_time == pytest.approx(4.0)
        assert run.phase_totals()["training"] == pytest.approx(4.0)

    def test_empty_run_totals(self):
        run = RunResult(method="test", target=1.0, rounds=[])
        assert run.phase_totals() == {}
        assert run.total_time == 0
