"""Aggregation strategies, the sharded server, and the hierarchical topology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import Channel, StreamingAggregator
from repro.federated import (
    AggregationTree,
    CostAwareGrouping,
    ExpertUpdate,
    ParameterServer,
    RoundRobinGrouping,
    RunConfig,
    ShardedParameterServer,
    make_server,
    make_topology,
)
from repro.federated.strategies import (
    AggregationStrategy,
    FedAvgStrategy,
    MedianStrategy,
    StalenessFedAvgStrategy,
    TrimmedMeanStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
    staleness_discount,
    strategy_from_config,
)
from repro.models import MoETransformer
from repro.runtime import AsyncScheduler

from fold_oracles import fedavg_states
from test_runtime import ConstantMethod, build_federation


def _states(rng, n, shapes=((3, 4), (4,))):
    return [
        {f"w{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        for _ in range(n)
    ]


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert {"fedavg", "trimmed_mean", "median", "staleness_fedavg"} <= set(
            available_strategies())

    def test_get_strategy_by_name_and_instance(self):
        median = get_strategy("median")
        assert isinstance(median, MedianStrategy)
        assert get_strategy(median) is median

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="unknown aggregation strategy"):
            get_strategy("krum")

    def test_custom_strategy_registration(self):
        class FirstWins(AggregationStrategy):
            name = "first_wins"

            def make_accumulator(self):
                strategy = self

                class Acc:
                    def __init__(self):
                        self.count = 0
                        self.total_weight = 0.0
                        self.state = None

                    def add(self, state, weight, staleness=0):
                        if self.state is None:
                            self.state = state
                        self.count += 1
                        self.total_weight += weight

                    def finalize(self):
                        return self.state

                del strategy
                return Acc()

        register_strategy("first_wins", FirstWins)
        try:
            rng = np.random.default_rng(0)
            states = _states(rng, 3)
            result = get_strategy("first_wins").aggregate(states, [1.0, 1.0, 1.0])
            assert result["w0"] is states[0]["w0"]
        finally:
            # Keep the global registry clean for other tests.
            import repro.federated.strategies as mod

            del mod._REGISTRY["first_wins"]

    def test_strategy_from_config_default_is_none(self):
        assert strategy_from_config(RunConfig()) is None

    def test_strategy_from_config_threads_parameters(self):
        trimmed = strategy_from_config(RunConfig(aggregation="trimmed_mean",
                                                 trim_ratio=0.25))
        assert isinstance(trimmed, TrimmedMeanStrategy)
        assert trimmed.trim_ratio == 0.25
        stale = strategy_from_config(RunConfig(aggregation="staleness_fedavg",
                                               staleness_exponent=1.5))
        assert isinstance(stale, StalenessFedAvgStrategy)
        assert stale.exponent == 1.5

    def test_run_config_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown aggregation strategy"):
            RunConfig(aggregation="krum")

    def test_async_rejects_double_staleness_discount(self):
        # The async scheduler already discounts weights by the FedBuff factor.
        with pytest.raises(ValueError, match="twice"):
            RunConfig(scheduler="async", aggregation="staleness_fedavg")
        # Round-based schedulers may use the strategy directly.
        RunConfig(scheduler="sync", aggregation="staleness_fedavg")

    def test_run_config_validates_topology_knobs(self):
        with pytest.raises(ValueError):
            RunConfig(trim_ratio=0.5)
        with pytest.raises(ValueError):
            RunConfig(num_shards=0)
        with pytest.raises(ValueError):
            RunConfig(edge_tiers=(-1,))
        with pytest.raises(ValueError):
            RunConfig(edge_latency_s=-1.0)
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            RunConfig(checkpoint_every=2)


# ---------------------------------------------------------------- strategies
class TestStrategyMath:
    def test_fedavg_strategy_bit_identical_to_fedavg_states(self):
        rng = np.random.default_rng(1)
        states = _states(rng, 5)
        weights = [1.0, 2.5, 0.5, 4.0, 1.25]
        via_strategy = FedAvgStrategy().aggregate(states, weights)
        via_legacy = fedavg_states(states, weights)
        for name in via_legacy:
            assert np.array_equal(via_strategy[name], via_legacy[name])

    def test_streaming_aggregator_explicit_fedavg_matches_default(self):
        rng = np.random.default_rng(2)
        states = _states(rng, 4)
        default, explicit = StreamingAggregator(), StreamingAggregator("fedavg")
        for i, state in enumerate(states):
            default.add_state((0, 0), state, float(i + 1))
            explicit.add_state((0, 0), state, float(i + 1))
        a, b = default.finalize()[(0, 0)], explicit.finalize()[(0, 0)]
        for name in a:
            assert np.array_equal(a[name], b[name])
        assert default.total_weight((0, 0)) == explicit.total_weight((0, 0))

    def test_trimmed_mean_discards_outlier(self):
        rng = np.random.default_rng(3)
        honest = _states(rng, 4)
        poisoned = {name: np.full_like(value, 1e9)
                    for name, value in honest[0].items()}
        result = TrimmedMeanStrategy(trim_ratio=0.25).aggregate(
            honest + [poisoned], [1.0] * 5)
        for name, value in result.items():
            # The surviving coordinates are a mean over 3 of the 4 honest
            # contributions — far from the 1e9 outlier.
            assert np.all(np.abs(value) < 1e3), name

    def test_trimmed_mean_zero_trim_is_unweighted_mean(self):
        rng = np.random.default_rng(4)
        states = _states(rng, 3)
        result = TrimmedMeanStrategy(trim_ratio=0.0).aggregate(states, [1.0] * 3)
        for name in states[0]:
            expected = np.mean([s[name] for s in states], axis=0)
            assert np.allclose(result[name], expected)

    def test_trimmed_mean_never_trims_everything(self):
        rng = np.random.default_rng(5)
        states = _states(rng, 2)
        # ratio 0.49 with n=2 would trim 0 each side: k = min(0, 0) = 0.
        result = TrimmedMeanStrategy(trim_ratio=0.49).aggregate(states, [1.0, 1.0])
        for name in states[0]:
            assert np.allclose(result[name],
                               np.mean([s[name] for s in states], axis=0))

    def test_trim_ratio_validation(self):
        with pytest.raises(ValueError):
            TrimmedMeanStrategy(trim_ratio=0.5)
        with pytest.raises(ValueError):
            TrimmedMeanStrategy(trim_ratio=-0.1)

    def test_median_is_coordinatewise(self):
        states = [{"w": np.array([0.0, 10.0])},
                  {"w": np.array([1.0, -10.0])},
                  {"w": np.array([100.0, 0.0])}]
        result = MedianStrategy().aggregate(states, [1.0] * 3)
        assert np.array_equal(result["w"], np.array([1.0, 0.0]))

    def test_staleness_fedavg_matches_manual_discounting(self):
        rng = np.random.default_rng(6)
        states = _states(rng, 3)
        weights = [2.0, 1.0, 3.0]
        stalenesses = [0, 2, 5]
        result = StalenessFedAvgStrategy(exponent=0.5).aggregate(
            states, weights, stalenesses=stalenesses)
        discounted = [w * staleness_discount(s, 0.5)
                      for w, s in zip(weights, stalenesses)]
        expected = fedavg_states(states, discounted)
        for name in expected:
            assert np.array_equal(result[name], expected[name])

    def test_async_scheduler_delegates_to_shared_discount(self):
        scheduler = AsyncScheduler(staleness_exponent=0.7)
        for staleness in (0, 1, 3, 10):
            assert scheduler.staleness_discount(staleness) == \
                staleness_discount(staleness, 0.7)

    def test_staleness_travels_on_expert_updates(self):
        update = ExpertUpdate(0, 0, 0, {"w": np.zeros(2)}, weight=1.0, staleness=3)
        agg = StreamingAggregator("staleness_fedavg")
        agg.add(update)
        assert agg.total_weight((0, 0)) == staleness_discount(3, 0.5)

    def test_buffering_rejects_mismatched_tensor_names(self):
        acc = MedianStrategy().make_accumulator()
        acc.add({"a": np.zeros(2)}, 1.0)
        with pytest.raises(ValueError, match="mismatched tensor names"):
            acc.add({"b": np.zeros(2)}, 1.0)


# ------------------------------------------------------------ sharded server
class TestShardedParameterServer:
    def _updates(self, model, num_participants=3, jitter=0.01):
        rng = np.random.default_rng(7)
        updates = []
        for pid in range(num_participants):
            for layer, expert in model.iter_expert_ids():
                state = {name: value + jitter * rng.normal(size=value.shape)
                         for name, value in model.expert_state(layer, expert).items()}
                updates.append(ExpertUpdate(pid, layer, expert, state,
                                            weight=float(pid + 1)))
        return updates

    def test_shard_partition_is_total_and_balanced(self, tiny_config):
        server = ShardedParameterServer(MoETransformer(tiny_config), num_shards=3)
        keys = list(server.global_model.iter_expert_ids())
        owners = [server.shard_of(key) for key in keys]
        assert set(owners) <= set(range(3))
        counts = [owners.count(shard) for shard in range(3)]
        assert max(counts) - min(counts) <= 1
        collected = [key for shard in range(3) for key in server.shard_keys(shard)]
        assert sorted(collected) == sorted(keys)

    def test_unknown_key_and_bad_shard_raise(self, tiny_config):
        server = ShardedParameterServer(MoETransformer(tiny_config), num_shards=2)
        with pytest.raises(KeyError):
            server.shard_of((99, 99))
        with pytest.raises(ValueError):
            server.shard_keys(5)

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_fedavg_bit_identical_to_flat(self, tiny_config, num_shards):
        flat_model = MoETransformer(tiny_config)
        sharded_model = MoETransformer(tiny_config)
        sharded_model.load_state_dict(flat_model.state_dict())

        flat = ParameterServer(flat_model)
        sharded = ShardedParameterServer(sharded_model, num_shards=num_shards)
        updates = self._updates(flat_model)

        flat_contrib = flat.aggregate(list(updates))
        sharded_contrib = sharded.aggregate(list(updates))
        assert flat_contrib == sharded_contrib
        flat_state, sharded_state = flat_model.state_dict(), sharded_model.state_dict()
        for name in flat_state:
            assert np.array_equal(flat_state[name], sharded_state[name]), name
        assert sum(sharded.last_shard_contributions) == sum(flat_contrib.values())

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_all_zero_weights_raise_on_any_shard_count(self, tiny_config, num_shards):
        """A key whose contributions all weigh zero cannot be averaged: the
        fold raises and the model is left as it was."""
        model = MoETransformer(tiny_config)
        before = {name: value.copy() for name, value in model.expert_state(0, 0).items()}
        rng = np.random.default_rng(9)
        updates = [ExpertUpdate(pid, 0, 0,
                                {name: value + rng.normal(size=value.shape)
                                 for name, value in before.items()},
                                weight=0.0)
                   for pid in range(3)]
        with pytest.raises(ValueError, match="non-positive total weight"):
            make_server(model, RunConfig(num_shards=num_shards)).aggregate(updates)
        for name, value in model.expert_state(0, 0).items():
            assert np.array_equal(value, before[name])

    def test_sharded_server_consumes_generator(self, tiny_config):
        model = MoETransformer(tiny_config)
        server = ShardedParameterServer(model, num_shards=2)
        contributions = server.aggregate(iter(self._updates(model)))
        assert sum(contributions.values()) > 0

    def test_strategy_override_applies_per_shard(self, tiny_config):
        model = MoETransformer(tiny_config)
        baseline = model.expert_state(0, 0)
        server = ShardedParameterServer(model, num_shards=2,
                                        strategy=TrimmedMeanStrategy(0.25))
        honest = [ExpertUpdate(pid, 0, 0, dict(baseline), weight=1.0)
                  for pid in range(4)]
        poisoned = ExpertUpdate(9, 0, 0,
                                {name: np.full_like(value, 1e9)
                                 for name, value in baseline.items()}, weight=1.0)
        server.aggregate(honest + [poisoned])
        for name, value in model.expert_state(0, 0).items():
            assert np.allclose(value, baseline[name]), name

    def test_from_server_preserves_bookkeeping(self, tiny_config):
        flat = ParameterServer(MoETransformer(tiny_config))
        flat.round_index = 3
        flat.contribution_counts = {(0, 0): 5}
        sharded = ShardedParameterServer.from_server(flat, num_shards=2)
        assert sharded.global_model is flat.global_model
        assert sharded.round_index == 3
        assert sharded.contribution_counts == {(0, 0): 5}

    def test_state_export_import_guards_shard_count(self, tiny_config):
        sharded = ShardedParameterServer(MoETransformer(tiny_config), num_shards=2)
        flat = ParameterServer(MoETransformer(tiny_config))
        with pytest.raises(ValueError, match="shard"):
            flat.import_state(sharded.export_state())

    def test_make_server_selects_flavour(self, tiny_config):
        model = MoETransformer(tiny_config)
        assert isinstance(make_server(model), ParameterServer)
        sharded = make_server(model, RunConfig(num_shards=3))
        assert isinstance(sharded, ShardedParameterServer)
        assert sharded.num_shards == 3

    def test_tuner_auto_shards_plain_server(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_shards=2)
        tuner = ConstantMethod(server, participants, test, config=config)
        assert isinstance(tuner.server, ShardedParameterServer)
        assert tuner.server.num_shards == 2
        assert tuner.server.global_model is server.global_model


# ------------------------------------------------------------------ topology
class TestSingleTierTopology:
    def _partial_updates(self, model, num_participants=6):
        rng = np.random.default_rng(8)
        updates = []
        for pid in range(num_participants):
            for layer, expert in list(model.iter_expert_ids())[:4]:
                state = {name: value + 0.01 * rng.normal(size=value.shape)
                         for name, value in model.expert_state(layer, expert).items()}
                updates.append(ExpertUpdate(pid, layer, expert, state,
                                            weight=float(pid % 3 + 1)))
        return updates

    def test_edge_assignment_round_robin_and_custom(self):
        topo = AggregationTree((3,))
        assert [topo.edge_of(pid) for pid in range(6)] == [0, 1, 2, 0, 1, 2]
        custom = AggregationTree((2,), grouping=lambda pid: pid // 10)
        assert custom.edge_of(5) == 0 and custom.edge_of(15) == 1
        with pytest.raises(ValueError, match="outside"):
            AggregationTree((2,), grouping=lambda pid: 7).edge_of(0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AggregationTree((0,))
        with pytest.raises(ValueError, match="one upward channel"):
            AggregationTree((2,), channels=[[Channel()]])

    def test_hierarchical_fedavg_matches_flat_numerically(self, tiny_config):
        flat_model = MoETransformer(tiny_config)
        hier_model = MoETransformer(tiny_config)
        hier_model.load_state_dict(flat_model.state_dict())
        updates = self._partial_updates(flat_model)

        ParameterServer(flat_model).aggregate(list(updates))
        topo = AggregationTree((3,))
        contributions, stats = topo.aggregate(ParameterServer(hier_model),
                                              iter(updates))

        flat_state, hier_state = flat_model.state_dict(), hier_model.state_dict()
        for name in flat_state:
            assert np.allclose(flat_state[name], hier_state[name],
                               rtol=1e-12, atol=1e-12), name
        # The root received one partial per (edge, key): 3 edges x 4 keys.
        assert sum(contributions.values()) == 12
        assert stats.payloads == 12
        assert stats.total_bytes > 0
        assert sum(topo.last_edge_counts) == len(updates)

    def test_corrupted_edge_frames_are_dropped(self, tiny_config):
        from repro.runtime.faults import ChannelFaultInjector

        model = MoETransformer(tiny_config)
        before = model.state_dict()
        updates = self._partial_updates(model)
        faults = ChannelFaultInjector(corrupt_prob=1.0, seed=0)
        channels = [Channel(participant_id=edge, faults=faults)
                    for edge in range(2)]
        topo = AggregationTree((2,), channels=[channels])
        contributions, stats = topo.aggregate(ParameterServer(model), iter(updates))
        # Every partial was corrupted in flight: nothing may reach the root.
        assert contributions == {}
        assert stats.corrupted == stats.payloads > 0
        assert stats.decode_failures == stats.payloads
        after = model.state_dict()
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_lost_edge_frames_never_fold(self, tiny_config):
        from repro.runtime.faults import ChannelFaultInjector

        model = MoETransformer(tiny_config)
        updates = self._partial_updates(model)
        faults = ChannelFaultInjector(loss_prob=1.0, seed=0)
        channels = [Channel(participant_id=edge, faults=faults)
                    for edge in range(2)]
        topo = AggregationTree((2,), channels=[channels])
        contributions, stats = topo.aggregate(ParameterServer(model), iter(updates))
        assert contributions == {}
        assert stats.lost == stats.payloads > 0

    def test_edge_latency_meters_seconds(self, tiny_config):
        model = MoETransformer(tiny_config)
        updates = self._partial_updates(model)
        topo = AggregationTree((2,), latency_s=0.25)
        _, stats = topo.aggregate(ParameterServer(model), iter(updates))
        assert stats.seconds == pytest.approx(0.25 * stats.payloads)

    def test_topology_composes_with_sharding_and_trimming(self, tiny_config):
        model = MoETransformer(tiny_config)
        baseline = {key: model.expert_state(*key)
                    for key in list(model.iter_expert_ids())[:2]}
        server = ShardedParameterServer(model, num_shards=2)
        updates = []
        for pid in range(6):
            for key, state in baseline.items():
                updates.append(ExpertUpdate(pid, key[0], key[1], dict(state),
                                            weight=1.0))
        topo = AggregationTree((2,))
        contributions, _ = topo.aggregate(server, iter(updates),
                                          strategy=TrimmedMeanStrategy(0.25))
        assert set(contributions) == set(baseline)
        for key, state in baseline.items():
            for name, value in server.expert_state(*key).items():
                assert np.allclose(value, state[name])

    def test_zero_weight_groups_contribute_nothing(self, tiny_config):
        """FedAvg edges drop all-zero-weight keys instead of crashing."""
        model = MoETransformer(tiny_config)
        untouched = {name: value.copy()
                     for name, value in model.expert_state(0, 0).items()}
        zero = [ExpertUpdate(pid, 0, 0,
                             {name: value + 99.0 for name, value in untouched.items()},
                             weight=0.0)
                for pid in range(4)]
        real = [ExpertUpdate(pid, 1, 0,
                             {name: value + 1.0
                              for name, value in model.expert_state(1, 0).items()},
                             weight=1.0)
                for pid in range(4)]
        topo = AggregationTree((2,))
        contributions, _ = topo.aggregate(ParameterServer(model), iter(zero + real))
        assert (0, 0) not in contributions  # zero-weight group dropped
        assert (1, 0) in contributions      # weighted group aggregated
        for name, value in model.expert_state(0, 0).items():
            assert np.array_equal(value, untouched[name]), name

    def test_zero_weight_groups_still_fold_under_median(self, tiny_config):
        """Weight-agnostic strategies are unaffected by zero weights."""
        model = MoETransformer(tiny_config)
        target = {name: np.full_like(value, 2.0)
                  for name, value in model.expert_state(0, 0).items()}
        updates = [ExpertUpdate(pid, 0, 0, dict(target), weight=0.0)
                   for pid in range(3)]
        topo = AggregationTree((1,))
        contributions, _ = topo.aggregate(ParameterServer(model), iter(updates),
                                          strategy=MedianStrategy())
        assert (0, 0) in contributions
        for name, value in model.expert_state(0, 0).items():
            assert np.array_equal(value, target[name])

    def test_make_topology_from_config(self):
        assert make_topology(RunConfig()) is None
        topo = make_topology(RunConfig(edge_tiers=(4,), edge_latency_s=0.5))
        assert topo.num_edges == 4
        assert topo.channels[0].latency_s == 0.5

    def test_describe_reports_shape(self):
        topo = AggregationTree((2,))
        shape = topo.describe()
        assert shape["tiers"] == 2 and shape["num_edges"] == 2

    def test_empty_round_resets_edge_counts_and_metering(self, tiny_config):
        """Stale per-round counts/stats must not survive a zero-update round."""
        model = MoETransformer(tiny_config)
        topo = AggregationTree((2,), latency_s=0.1)
        contributions, stats = topo.aggregate(ParameterServer(model),
                                              iter(self._partial_updates(model)))
        assert sum(topo.last_edge_counts) > 0
        assert stats.payloads > 0
        contributions, stats = topo.aggregate(ParameterServer(model), iter([]))
        assert contributions == {}
        assert topo.last_edge_counts == [0, 0]
        assert all(s.payloads == 0 and s.seconds == 0.0 and s.total_bytes == 0
                   for s in topo.last_tier_stats)

    def test_mid_stream_failure_does_not_leave_stale_counts(self, tiny_config):
        """A fold that dies mid-round leaves zeroed, not stale, counts."""
        model = MoETransformer(tiny_config)
        topo = AggregationTree((2,))
        topo.aggregate(ParameterServer(model), iter(self._partial_updates(model)))

        def poisoned():
            # Both land on edge 0, so the second add dies inside the tier-0
            # fold — before the per-edge counts were ever filled in.
            yield ExpertUpdate(0, 0, 0, {"w": np.zeros(2)}, weight=1.0)
            yield ExpertUpdate(2, 0, 0, {"mismatched": np.zeros(2)}, weight=1.0)

        with pytest.raises(ValueError, match="mismatched tensor names"):
            topo.aggregate(ParameterServer(model), poisoned())
        assert sum(topo.last_edge_counts) == 0


# ----------------------------------------------------------- aggregation tree
class TestAggregationTree:
    def _updates(self, model, num_participants=8, keys=4, seed=8):
        rng = np.random.default_rng(seed)
        updates = []
        for pid in range(num_participants):
            for layer, expert in list(model.iter_expert_ids())[:keys]:
                state = {name: value + 0.01 * rng.normal(size=value.shape)
                         for name, value in model.expert_state(layer, expert).items()}
                updates.append(ExpertUpdate(pid, layer, expert, state,
                                            weight=float(pid % 3 + 1)))
        return updates

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="at least one tier"):
            AggregationTree(())
        with pytest.raises(ValueError, match="at least one tier"):
            AggregationTree((3, 0))
        with pytest.raises(ValueError, match="one upward channel"):
            AggregationTree((2, 2), channels=[[Channel(), Channel()], [Channel()]])
        with pytest.raises(TypeError, match="GroupingPolicy or callable"):
            AggregationTree((2,), grouping=42)

    def test_shape_accessors(self):
        tree = AggregationTree((6, 2))
        assert tree.depth == 2 and tree.num_edges == 6
        assert [len(tier) for tier in tree.tier_channels] == [6, 2]
        assert tree.channels is tree.tier_channels[0]
        assert tree.parent_of(0, 5) == 1
        with pytest.raises(ValueError, match="feeds the root"):
            tree.parent_of(1, 0)
        assert tree.pseudo_id(0, 3) == -4       # the historical -(edge + 1)
        assert tree.pseudo_id(1, 0) == -1001    # deeper tiers keep ids distinct
        assert tree.describe()["tiers"] == 3

    @pytest.mark.parametrize("tiers", [(3,), (3, 2), (2, 2, 2)])
    def test_tree_fedavg_matches_flat_numerically(self, tiny_config, tiers):
        flat_model = MoETransformer(tiny_config)
        tree_model = MoETransformer(tiny_config)
        tree_model.load_state_dict(flat_model.state_dict())
        updates = self._updates(flat_model)

        ParameterServer(flat_model).aggregate(list(updates))
        tree = AggregationTree(tiers)
        contributions, stats = tree.aggregate(ParameterServer(tree_model),
                                              iter(updates))
        flat_state, tree_state = flat_model.state_dict(), tree_model.state_dict()
        for name in flat_state:
            assert np.allclose(flat_state[name], tree_state[name],
                               rtol=1e-12, atol=1e-12), name
        # The root receives one partial per (last-tier node, key).
        assert sum(contributions.values()) == tiers[-1] * 4
        assert stats.payloads == sum(tree.last_tier_stats[k].payloads
                                     for k in range(tree.depth))

    def test_per_tier_metering_and_counts(self, tiny_config):
        model = MoETransformer(tiny_config)
        tree = AggregationTree((4, 2), latency_s=0.5)
        updates = self._updates(model)
        _, stats = tree.aggregate(ParameterServer(model), iter(updates))
        # Tier 0 folded every participant update; tier 1 folded tier-0 partials.
        assert sum(tree.last_tier_counts[0]) == len(updates)
        assert sum(tree.last_tier_counts[1]) == tree.last_tier_stats[0].payloads
        assert tree.last_tier_stats[0].payloads == 4 * 4   # 4 nodes x 4 keys
        assert tree.last_tier_stats[1].payloads == 2 * 4   # 2 nodes x 4 keys
        for tier_stats in tree.last_tier_stats:
            assert tier_stats.seconds == pytest.approx(0.5 * tier_stats.payloads)
        assert stats.total_bytes == sum(s.total_bytes for s in tree.last_tier_stats)

    def test_depth_two_composes_with_sharding_and_strategy(self, tiny_config):
        model = MoETransformer(tiny_config)
        server = ShardedParameterServer(model, num_shards=2)
        baseline = {key: model.expert_state(*key)
                    for key in list(model.iter_expert_ids())[:2]}
        updates = [ExpertUpdate(pid, key[0], key[1], dict(state), weight=1.0)
                   for pid in range(8) for key, state in baseline.items()]
        tree = AggregationTree((4, 2))
        contributions, _ = tree.aggregate(server, iter(updates),
                                          strategy=TrimmedMeanStrategy(0.25))
        assert set(contributions) == set(baseline)
        for key, state in baseline.items():
            for name, value in server.expert_state(*key).items():
                assert np.allclose(value, state[name])

    def test_export_import_state_roundtrip_and_shape_guard(self):
        tree = AggregationTree((3, 2), latency_s=0.1)
        tree.channels[1].send(b"payload", direction="up")
        state = tree.export_state()
        assert state["tiers"] == [3, 2]
        clone = AggregationTree((3, 2), latency_s=0.1)
        clone.import_state(state)
        assert clone.channels[1]._sequence == 1
        with pytest.raises(ValueError, match="tiers"):
            AggregationTree((2, 2)).import_state(state)

    def test_import_state_rejects_drifted_grouping(self):
        """Same config can resolve to different effective groupings (cost
        models appearing/disappearing) — the snapshot must catch that."""
        costs = {0: 2.0, 1: 1.0}
        snapshot = AggregationTree((2,), grouping=CostAwareGrouping(costs)).export_state()
        assert snapshot["grouping"] == "cost_aware"
        assert snapshot["grouping_costs"] == costs
        with pytest.raises(ValueError, match="edge grouping"):
            AggregationTree((2,)).import_state(snapshot)  # now round-robin
        with pytest.raises(ValueError, match="upload costs"):
            AggregationTree((2,), grouping=CostAwareGrouping({0: 9.0, 1: 1.0})
                            ).import_state(snapshot)
        same = AggregationTree((2,), grouping=CostAwareGrouping(dict(costs)))
        same.import_state(snapshot)  # identical costs resume cleanly


# ------------------------------------------------------------------- grouping
class TestGrouping:
    def test_round_robin_is_the_legacy_assignment(self):
        policy = RoundRobinGrouping()
        assert [policy.group_of(pid, 3) for pid in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_cost_aware_balances_makespan_not_count(self):
        # pid % 2 would put both heavy uploaders (0, 2) on distinct edges only
        # by luck; LPT guarantees the heaviest two land apart.
        costs = {0: 10.0, 1: 1.0, 2: 9.0, 3: 2.0, 4: 8.0, 5: 3.0}
        policy = CostAwareGrouping(costs)
        assignment = {pid: policy.group_of(pid, 2) for pid in costs}
        assert assignment[0] != assignment[2]
        loads = policy.group_loads(2)
        assert max(loads) - min(loads) <= min(costs.values())

    def test_cost_aware_is_deterministic_and_tie_stable(self):
        costs = {pid: 1.0 for pid in range(8)}
        a = CostAwareGrouping(costs)
        b = CostAwareGrouping(dict(reversed(list(costs.items()))))
        for pid in costs:
            assert a.group_of(pid, 3) == b.group_of(pid, 3)

    def test_cost_aware_falls_back_to_round_robin(self):
        empty = CostAwareGrouping({})
        assert [empty.group_of(pid, 2) for pid in range(4)] == [0, 1, 0, 1]
        partial = CostAwareGrouping({0: 5.0})
        assert partial.group_of(99, 2) == 99 % 2   # unknown pid: stable fallback

    def test_make_topology_uses_costs_by_default(self):
        costs = {0: 10.0, 1: 1.0, 2: 9.0, 3: 2.0}
        topo = make_topology(RunConfig(edge_tiers=(2,)),
                             participant_costs=costs)
        assert isinstance(topo.grouping, CostAwareGrouping)
        assert topo.edge_of(0) != topo.edge_of(2)
        plain = make_topology(RunConfig(edge_tiers=(2,)))
        assert isinstance(plain.grouping, RoundRobinGrouping)
        forced = make_topology(
            RunConfig(edge_tiers=(2,), edge_grouping="round_robin"),
            participant_costs=costs)
        assert isinstance(forced.grouping, RoundRobinGrouping)

    def test_run_config_edge_tier_validation(self):
        assert RunConfig().edge_tiers is None
        assert RunConfig(edge_tiers=[4, 2]).edge_tiers == (4, 2)
        with pytest.raises(ValueError, match="positive widths"):
            RunConfig(edge_tiers=())
        with pytest.raises(ValueError, match="positive widths"):
            RunConfig(edge_tiers=(3, 0))
        with pytest.raises(ValueError, match="edge grouping"):
            RunConfig(edge_grouping="random")
        with pytest.raises(ValueError, match="aggregation executor"):
            RunConfig(aggregation_executor="threads")
        with pytest.raises(ValueError, match="aggregation_workers"):
            RunConfig(aggregation_workers=0)
        with pytest.raises(ValueError, match="checkpoint_keep_last"):
            RunConfig(checkpoint_keep_last=-1)


# ------------------------------------------------------------- run-level wiring
class TestRunLevelTopology:
    def test_edge_metrics_surface_in_round_results(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, edge_tiers=(2,), edge_latency_s=0.1)
        result = ConstantMethod(server, participants, test, config=config).run(2)
        for round_result in result.rounds:
            assert round_result.edge_payloads > 0
            assert round_result.edge_bytes > 0
            assert round_result.edge_seconds > 0

    def test_flat_run_reports_zero_edge_traffic(self, vocab, tiny_config):
        server, participants, test, config = build_federation(vocab, tiny_config)
        result = ConstantMethod(server, participants, test, config=config).run(2)
        assert all(r.edge_bytes == 0 and r.edge_payloads == 0 for r in result.rounds)
        assert all(r.tier_bytes == [] and r.tier_payloads == [] for r in result.rounds)

    def test_three_tier_run_reports_per_tier_metrics(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, edge_tiers=(3, 2), edge_latency_s=0.1)
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(2)
        assert tuner.topology.depth == 2
        for round_result in result.rounds:
            assert len(round_result.tier_bytes) == 2
            assert sum(round_result.tier_bytes) == round_result.edge_bytes
            assert sum(round_result.tier_seconds) == pytest.approx(
                round_result.edge_seconds)
            assert sum(round_result.tier_payloads) == round_result.edge_payloads
            assert all(b > 0 for b in round_result.tier_bytes)

    def _run_states(self, vocab, tiny_config, **config_kwargs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, **config_kwargs)
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(2)
        return result, tuner.server.global_model.state_dict()

    def test_flat_explicit_fedavg_bit_identical_to_default(self, vocab, tiny_config):
        """aggregation='fedavg', 1 shard, 0 edges == the pre-refactor default."""
        base_result, base_state = self._run_states(vocab, tiny_config)
        expl_result, expl_state = self._run_states(
            vocab, tiny_config, aggregation="fedavg", num_shards=1,
            edge_tiers=None)
        for a, b in zip(base_result.rounds, expl_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
            assert a.simulated_time == b.simulated_time
        for name in base_state:
            assert np.array_equal(base_state[name], expl_state[name]), name

    def test_sharded_run_bit_identical_to_flat(self, vocab, tiny_config):
        base_result, base_state = self._run_states(vocab, tiny_config)
        shard_result, shard_state = self._run_states(vocab, tiny_config, num_shards=4)
        for a, b in zip(base_result.rounds, shard_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
        for name in base_state:
            assert np.array_equal(base_state[name], shard_state[name]), name

    def test_trimmed_mean_run_under_each_scheduler(self, vocab, tiny_config):
        for scheduler in ("sync", "semisync", "async"):
            server, participants, test, config = build_federation(
                vocab, tiny_config, aggregation="trimmed_mean", trim_ratio=0.2,
                scheduler=scheduler, participants_per_round=3)
            result = ConstantMethod(server, participants, test, config=config).run(2)
            assert len(result.rounds) == 2
