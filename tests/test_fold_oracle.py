"""The streaming fold equals the buffered FedAvg oracle, bit for bit.

``fold_oracles.py`` keeps the group-then-average FedAvg the servers ran by
default before :class:`repro.comm.StreamingAggregator` became the only fold.
Here the production fold — the flat server, the sharded server, and the
service's fold-job functions over framed updates — is held to it on random
rounds: positive weights, and mixed zero/positive weights (a zero-weight
contribution still adds a signed-zero term, so ``-0.0 + 0.0`` depends on the
fold order both sides must share).  Equality is on bytes, so the sign of a
zero counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import ScratchPool, decode_state_dict
from repro.federated import ExpertUpdate, RunConfig, make_server
from repro.models import MoETransformer
from repro.service.fold import fold_shard_frames, frame_update

from fold_oracles import apply_fedavg, fedavg_states, group_updates

#: values a drawn state mixes into its normals: both zeros, and magnitudes
#: whose weighted sums round
SPECIAL_VALUES = np.array([-0.0, 0.0, -1.0, 1.0, 0.1, -2.25, 1e-300, 3.0e7])

update_specs = st.lists(
    st.tuples(st.integers(0, 5),                 # participant id
              st.integers(0, 3),                 # index into the round's keys
              st.integers(0, 2 ** 31 - 1)),      # seed of the state's values
    min_size=1, max_size=12)
positive_weights = st.floats(min_value=0.01, max_value=40.0)
mixed_weights = st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0])


def _state(model, key, seed):
    rng = np.random.default_rng(seed)
    state = {}
    for name, value in model.expert_state(*key).items():
        drawn = rng.normal(size=value.shape)
        special = rng.random(value.shape) < 0.5
        drawn[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
        state[name] = drawn
    return state


def _round(model, specs, weights):
    """The drawn updates, plus one positive-weight update for every key whose
    drawn weights sum to zero (the oracle would fall back to a uniform mean
    there and the streaming fold would raise: not a case a run can reach)."""
    keys = list(model.iter_expert_ids())[:4]
    updates = [ExpertUpdate(pid, *keys[index], _state(model, keys[index], seed), weight)
               for (pid, index, seed), weight in zip(specs, weights)]
    totals = {}
    for update in updates:
        totals[update.key] = totals.get(update.key, 0.0) + update.weight
    updates += [ExpertUpdate(9, *key, _state(model, key, 1234), 1.5)
                for key, total in totals.items() if total == 0.0]
    return updates


def _assert_same_bits(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    for name in state_a:
        assert state_a[name].tobytes() == state_b[name].tobytes(), name


def _check_against_oracle(tiny_config, updates, num_shards):
    oracle_model = MoETransformer(tiny_config)
    expected = apply_fedavg(oracle_model, list(updates))

    server = make_server(MoETransformer(tiny_config), RunConfig(num_shards=num_shards))
    assert server.aggregate(iter(updates)) == expected
    _assert_same_bits(server.global_model, oracle_model)

    # the service's fold jobs, without the sockets: one job per shard, all on
    # one scratch pool as on an aggregator server
    scratch = ScratchPool()
    jobs = {}
    for update in updates:
        jobs.setdefault(server.shard_of(update.key), []).append(frame_update(update, {}))
    job_model = MoETransformer(tiny_config)
    counts = {}
    for framed in jobs.values():
        for key, state_frame, count in fold_shard_frames(None, framed, scratch=scratch):
            job_model.load_expert_state(*key, decode_state_dict(state_frame))
            counts[key] = count
    assert counts == expected
    _assert_same_bits(job_model, oracle_model)


@settings(max_examples=30, deadline=None)
@given(specs=update_specs, num_shards=st.sampled_from([1, 2, 4]), data=st.data())
def test_positive_weights(tiny_config, specs, num_shards, data):
    weights = data.draw(st.lists(positive_weights, min_size=len(specs),
                                 max_size=len(specs)))
    updates = _round(MoETransformer(tiny_config), specs, weights)
    _check_against_oracle(tiny_config, updates, num_shards)


@settings(max_examples=30, deadline=None)
@given(specs=update_specs, num_shards=st.sampled_from([1, 2, 4]), data=st.data())
def test_mixed_zero_and_positive_weights(tiny_config, specs, num_shards, data):
    weights = data.draw(st.lists(mixed_weights, min_size=len(specs),
                                 max_size=len(specs)))
    updates = _round(MoETransformer(tiny_config), specs, weights)
    _check_against_oracle(tiny_config, updates, num_shards)


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_signed_zero_terms_fold_in_the_oracles_order(tiny_config, num_shards):
    """A zero-weight contribution of negative values leaves ``-0.0`` in the
    running sum; what follows decides the sign of the average."""
    model = MoETransformer(tiny_config)
    shapes = {name: value.shape for name, value in model.expert_state(0, 0).items()}
    negative = {name: np.full(shape, -1.0) for name, shape in shapes.items()}
    minus_zero = {name: np.full(shape, -0.0) for name, shape in shapes.items()}
    plus_zero = {name: np.zeros(shape) for name, shape in shapes.items()}
    stays_negative = [ExpertUpdate(0, 0, 0, negative, 0.0),
                      ExpertUpdate(1, 0, 0, minus_zero, 2.0)]
    turns_positive = [ExpertUpdate(0, 0, 1, negative, 0.0),
                      ExpertUpdate(1, 0, 1, plus_zero, 2.0)]
    _check_against_oracle(tiny_config, stays_negative + turns_positive, num_shards)

    server = make_server(model, RunConfig(num_shards=num_shards))
    server.aggregate(stays_negative + turns_positive)
    assert all(np.signbit(value).all() for value in server.expert_state(0, 0).values())
    assert not any(np.signbit(value).any() for value in server.expert_state(0, 1).values())


class TestTheOracleItself:
    def test_zero_weights_fall_back_to_uniform(self):
        """The one behaviour the streaming fold does not share (it raises)."""
        states = [{"w": np.zeros(2)}, {"w": np.ones(2) * 2}]
        averaged = fedavg_states(states, [0.0, 0.0])
        assert np.allclose(averaged["w"], 1.0)

    def test_group_updates(self):
        updates = [
            ExpertUpdate(0, 0, 1, {"w": np.zeros(2)}, 1.0),
            ExpertUpdate(1, 0, 1, {"w": np.ones(2)}, 1.0),
            ExpertUpdate(0, 1, 0, {"w": np.ones(2)}, 1.0),
        ]
        grouped = group_updates(updates)
        assert set(grouped) == {(0, 1), (1, 0)}
        assert len(grouped[(0, 1)]) == 2
