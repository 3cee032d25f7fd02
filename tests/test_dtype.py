"""Float32 is the training dtype: nothing on a round's path widens to float64.

One round of Flux, FMD, FMQ and FMES on a float32 ``tiny_moe``, with every
``Tensor`` the round creates (forward, backward, profiling, evaluation), every
gradient contribution, every Adam buffer and every decoded update recorded.
All of them, and every parameter of the global model and of the training
replica (its resident spare experts included), must be float32.  Float64 is
left only where it is kept on purpose: the fold accumulators and the tier
partials (``repro.comm.aggregator``, ``repro.federated.topology.EDGE_CODEC``),
which write back into the model rounded once.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.autograd import Tensor, default_dtype
from repro.autograd.optim import AdamBuffers
from repro.baselines import FMDFineTuner, FMESFineTuner, FMQFineTuner
from repro.core import EpsilonSchedule, FluxConfig, FluxFineTuner
from repro.federated.orchestrator import FederatedFineTuner
from repro.models import ExpertFFN, ExpertRemap, MoETransformer

from test_runtime import build_federation

FLOAT32 = np.dtype(np.float32)


def _tuner(method, vocab, tiny_config):
    # the wire transport, so uploads are framed by the default codec and decoded
    server, participants, test, config = build_federation(
        vocab, tiny_config, num_clients=3, participants_per_round=3, transport="wire")
    if method == "flux":
        return FluxFineTuner(server, participants, test, config=config,
                             flux_config=FluxConfig(seed=0, epsilon=EpsilonSchedule.fixed(0.5)))
    cls = {"fmd": FMDFineTuner, "fmq": FMQFineTuner, "fmes": FMESFineTuner}[method]
    return cls(server, participants, test, config=config)


@pytest.fixture()
def recorded(monkeypatch):
    """Dtype counts of created tensors, gradient contributions, Adam buffers, updates."""
    seen = {name: Counter() for name in ("tensors", "grads", "adam", "updates")}
    init, accumulate, array = Tensor.__init__, Tensor._accumulate, AdamBuffers.array
    aggregate = FederatedFineTuner.aggregate_round_updates

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen["tensors"][self.data.dtype] += 1

    def recording_accumulate(self, grad, *args, **kwargs):
        if self.requires_grad:
            seen["grads"][np.asarray(grad).dtype] += 1
        accumulate(self, grad, *args, **kwargs)

    def recording_array(self, name, dtype, size):
        seen["adam"][np.dtype(dtype)] += 1
        return array(self, name, dtype, size)

    def recording_aggregate(self, updates):
        for update in updates:
            for value in update.state.values():
                seen["updates"][value.dtype] += 1
        return aggregate(self, updates)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    monkeypatch.setattr(Tensor, "_accumulate", recording_accumulate)
    monkeypatch.setattr(AdamBuffers, "array", recording_array)
    monkeypatch.setattr(FederatedFineTuner, "aggregate_round_updates", recording_aggregate)
    return seen


def _dtypes(model):
    return {param.data.dtype for param in model.parameters()}


@pytest.mark.parametrize("method", ["flux", "fmd", "fmq", "fmes"])
def test_one_round_stays_float32(vocab, tiny_config, recorded, method):
    assert tiny_config.dtype == "float32"
    tuner = _tuner(method, vocab, tiny_config)
    try:
        tuner.run(num_rounds=1)
        with tuner.server.training_replica() as replica:
            assert _dtypes(replica) == {FLOAT32}
            spares = [param.data.dtype for layer in replica.moe_layers()
                      for expert in layer._spare_experts for param in expert.parameters()]
            assert set(spares) <= {FLOAT32}
            if method in ("flux", "fmes"):
                assert spares, "the compact builds write their experts into spares"
    finally:
        tuner.close()
    assert _dtypes(tuner.server.global_model) == {FLOAT32}
    for name in ("tensors", "grads", "adam", "updates"):
        assert recorded[name], f"no {name} recorded"
        assert set(recorded[name]) == {FLOAT32}, (name, dict(recorded[name]))


def test_a_model_refuses_an_expert_of_another_dtype(tiny_config):
    model = MoETransformer(tiny_config)
    layer = model.blocks[0].moe
    experts = list(layer.experts)
    stray = ExpertFFN(tiny_config.d_model, tiny_config.d_ff, rng=np.random.default_rng(5))
    assert stray.w_gate.weight.data.dtype == np.float64     # the engine's default dtype
    identity = ExpertRemap.identity(layer.num_original_experts)
    with pytest.raises(ValueError, match="dtype"):
        layer.set_compact_experts(experts[:1] + [stray] + experts[2:], identity)
    with default_dtype(tiny_config.dtype):
        fitting = ExpertFFN(tiny_config.d_model, tiny_config.d_ff, rng=np.random.default_rng(5))
    layer.set_compact_experts(experts[:1] + [fitting] + experts[2:], identity)
    assert model.get_expert(0, 1) is fitting
