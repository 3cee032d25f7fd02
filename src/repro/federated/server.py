"""The central parameter server(s) of the federated system.

Two server flavours share one interface:

:class:`ParameterServer`
    The flat server — holds the global MoE model and aggregates every expert
    key itself.

:class:`ShardedParameterServer`
    Partitions the ``ExpertKey`` space round-robin across ``num_shards``
    shards; each shard folds its own
    :class:`~repro.comm.StreamingAggregator`, so per-shard fold state (and,
    in a real deployment, fold *work*) is independent.  Per-key aggregation is
    already independent across keys, so any shard count produces bit-identical
    global parameters — sharding changes *where* state lives, not the math.

Both aggregate by weighted FedAvg, the only reduction.  There is one fold and
one way to reach it:
:meth:`ParameterServer.aggregate` buckets a round's updates by shard and hands
the buckets, one job a shard, to :func:`repro.service.fold.fold_shards`
together with :attr:`ParameterServer.fold_pool`.  Whether a job folds on this
thread or on an aggregator server is decided there and nowhere in this module;
the result is bit for bit the same.  The buffered group-then-average FedAvg
the streaming fold replaced is the reference in ``tests/fold_oracles.py``.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..comm import ScratchPool
from ..autograd import Module, Parameter
from ..models import MoETransformer
from .aggregation import ExpertKey, ExpertUpdate
from .client import ExpertTraining


class _TrainingReplica:
    """The model behind :meth:`ParameterServer.training_replica` and what it mirrors."""

    def __init__(self, global_model: MoETransformer) -> None:
        self.model = MoETransformer.allocate(global_model.config)
        self.noise_state = self.model.noise_rng.bit_generator.state
        #: what local fine-tuning resolves on the model (frozen parameters,
        #: module tree, optimizer storage), resolved here once
        self.training = ExpertTraining.of(self.model)
        #: the replica's parameters, flat (walking the tree costs more than
        #: everything else a hand-out does)
        self.params: List[Parameter] = list(self.model.parameters())
        #: every module of the global model's tree with its registry version:
        #: the structure this replica was built for
        self.registries: List[Tuple[Module, int]] = [
            (module, module.registry_version) for module in global_model.modules()]
        frozen = {id(param) for param in self.training.frozen}
        #: ``(replica parameter, global parameter)`` of what training writes
        self.experts: List[Tuple[Parameter, Parameter]] = []
        #: ``(global parameter, its array)`` of what training only reads: the
        #: replica's array is a read-only view of that one
        self.shared: List[Tuple[Parameter, np.ndarray]] = []
        for target, source in zip(self.params, global_model.parameters(), strict=True):
            if id(target) not in frozen:
                self.experts.append((target, source))
            else:
                view = source.data.view()
                view.flags.writeable = False
                target.data = view
                self.shared.append((source, source.data))

    def mirrors(self, global_model: MoETransformer) -> bool:
        """Whether ``global_model`` still has the parameters this replica aliases."""
        return (self.registries[0][0] is global_model
                and all(module.registry_version == version
                        for module, version in self.registries)
                and all(source.data is array for source, array in self.shared))

    def hand_out(self) -> MoETransformer:
        """The model as a fresh copy of the global model would be."""
        for param in self.params:
            param.requires_grad = True
        self.training.train_mode()
        # the last participant's optimizer, if anyone kept it, can no longer step
        self.training.buffers.release()
        self.model.noise_rng.bit_generator.state = self.noise_state
        for target, source in self.experts:
            np.copyto(target.data, source.data)
        return self.model

    def take_back(self) -> None:
        """Drop what a training pass left on the model; parameter values stay."""
        for param in self.params:
            param.grad = None
        for block in self.model.blocks:
            block.attn.last_token_attention = None
            block.moe.drop_pass_state()
            block.moe.restore_full_experts()


class ParameterServer:
    """Holds the global MoE model and aggregates expert updates.

    The server never sees raw data: participants upload expert parameter
    states (plus scalar statistics such as utilities), and download refreshed
    expert parameters at the start of the next round.  Aggregation folds each
    update into a per-expert weighted sum (FedAvg), so the fold's own state
    is the running sums — O(1) in the number of clients.
    """

    #: flat servers own the whole key space
    num_shards: int = 1

    def __init__(self, global_model: MoETransformer) -> None:
        from ..obs import NULL_TRACER

        self.global_model = global_model
        self.round_index = 0
        #: number of contributions each expert received over the whole run
        self.contribution_counts: Dict[ExpertKey, int] = {}
        #: optional :class:`~repro.service.ServiceAggregationPool`, passed to
        #: the fold dispatcher with every round's shard jobs
        self.fold_pool = None
        #: span tracer for per-shard fold spans; the fine-tuner shares its
        #: run telemetry tracer here, the no-op default costs nothing
        self.tracer = NULL_TRACER
        #: persistent decode/fold scratch of the folds that run on this thread:
        #: reused across rounds, so their steady state is allocation-free
        self.fold_scratch = ScratchPool()
        #: the resident model of :meth:`training_replica`, built on first use
        self._replica: Optional[_TrainingReplica] = None

    # ------------------------------------------------------------ distribution
    def model_snapshot(self) -> MoETransformer:
        """A fresh model instance loaded with the current global parameters.

        :meth:`MoETransformer.copy_of` the global model (nothing is drawn;
        same caveat: bit-identical to a drawn-then-loaded model whenever
        ``dropout == 0 and gate_noise_std == 0``).
        """
        return MoETransformer.copy_of(self.global_model)

    @contextlib.contextmanager
    def training_replica(self) -> Iterator[MoETransformer]:
        """The global model's current values in the server's one training model.

        For a participant that trains experts only (``local_finetune`` freezes
        everything else), in place of a :meth:`model_snapshot` per participant:
        the model is built once per server; its expert parameters are
        refreshed from the global model (``np.copyto``) on every entry, and
        its other parameters *are* the global model's arrays, as read-only
        views — writing to one raises.  What it computes is bit for bit what a
        fresh snapshot computes, noise streams included.

        The contract: the model is the caller's for the ``with`` block only.
        On entry every parameter is trainable, the model is in train mode and
        holds no gradient, routing record or attention cache; on exit those
        are dropped again, so between participants it holds parameters and
        the optimizer storage of its :class:`~repro.federated.client.ExpertTraining`
        (moments nobody reads before a step writes them; every entry ends
        the last optimizer's lease on them).  The next entry overwrites the
        expert values, so a handle kept past its block reads another
        participant's model.  It is rebuilt when the global model's
        parameters are no longer the ones it aliases (a replaced model,
        module or array: a module's ``registry_version`` moved), and
        checkpoints never see it.  Everyone who needs an independent copy
        calls :meth:`model_snapshot`.
        """
        replica = self._replica
        if replica is None or not replica.mirrors(self.global_model):
            replica = self._replica = _TrainingReplica(self.global_model)
        try:
            yield replica.hand_out()
        finally:
            replica.take_back()

    def expert_state(self, layer: int, expert: int) -> Dict[str, np.ndarray]:
        return self.global_model.expert_state(layer, expert)

    # ------------------------------------------------------------- aggregation
    def shard_of(self, key: ExpertKey) -> int:
        """The shard responsible for ``key`` (always 0 on a flat server)."""
        return 0

    def aggregate(self, updates: Iterable[ExpertUpdate]) -> Dict[ExpertKey, int]:
        """Aggregate the received expert updates into the global model.

        The updates are bucketed by shard in arrival order and each non-empty
        bucket folds as one job (:func:`repro.service.fold.fold_shards`: on
        this thread, or on :attr:`fold_pool`'s servers); the folded experts
        are then written into the global model.  A key whose contributions all weigh zero cannot be averaged and raises before
        anything is written.
        """
        from ..service.fold import fold_shards  # late: repro.service imports this package

        buckets: List[List[ExpertUpdate]] = [[] for _ in range(self.num_shards)]
        for update in updates:
            buckets[self.shard_of(update.key)].append(update)
        jobs = [(shard, bucket) for shard, bucket in enumerate(buckets) if bucket]
        contributions: Dict[ExpertKey, int] = {}
        for _, folded in fold_shards(jobs, self.fold_pool, scratch=self.fold_scratch,
                                     tracer=self.tracer):
            for key, state, count in folded:
                self.global_model.load_expert_state(*key, state)
                contributions[key] = count
                self.contribution_counts[key] = self.contribution_counts.get(key, 0) + count
        self.round_index += 1
        return contributions

    # ------------------------------------------------------------- durability
    def export_state(self) -> Dict:
        """Picklable snapshot of the server's run state (model excluded).

        The model itself is persisted separately via
        :func:`repro.models.checkpoint.save_checkpoint`; this covers the
        bookkeeping a resumed run must continue from.
        """
        return {
            "round_index": self.round_index,
            "contribution_counts": dict(self.contribution_counts),
            "num_shards": self.num_shards,
        }

    def import_state(self, state: Dict) -> None:
        """Restore an :meth:`export_state` snapshot."""
        if state.get("num_shards", 1) != self.num_shards:
            raise ValueError(
                f"checkpoint was written by a {state.get('num_shards', 1)}-shard "
                f"server; this server has {self.num_shards} shards")
        self.round_index = int(state["round_index"])
        self.contribution_counts = dict(state["contribution_counts"])


class ShardedParameterServer(ParameterServer):
    """Expert-sharded parameter server.

    Expert keys are assigned round-robin over their flattened
    ``(layer, expert)`` index, so shards stay balanced for any layer shape.
    Aggregation routes every update to its key's shard aggregator.
    :attr:`last_shard_contributions` records how many updates each shard
    received in the most recent aggregation (the per-shard load signal a
    deployment would use for re-balancing).
    """

    def __init__(self, global_model: MoETransformer, num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        super().__init__(global_model)
        self.num_shards = int(num_shards)
        counts = global_model.experts_per_layer()
        offsets = np.concatenate([[0], np.cumsum(counts)])
        self._flat_index = {
            (layer, expert): int(offsets[layer]) + expert
            for layer in range(len(counts)) for expert in range(counts[layer])
        }
        #: updates folded per shard in the most recent aggregation
        self.last_shard_contributions: List[int] = [0] * self.num_shards

    @classmethod
    def from_server(cls, server: ParameterServer,
                    num_shards: int) -> "ShardedParameterServer":
        """Re-home an existing flat server's model (and counts) onto shards."""
        sharded = cls(server.global_model, num_shards=num_shards)
        sharded.round_index = server.round_index
        sharded.contribution_counts = dict(server.contribution_counts)
        return sharded

    def shard_of(self, key: ExpertKey) -> int:
        try:
            return self._flat_index[key] % self.num_shards
        except KeyError:
            raise KeyError(f"unknown expert key {key!r}") from None


    def aggregate(self, updates: Iterable[ExpertUpdate]) -> Dict[ExpertKey, int]:
        contributions = super().aggregate(updates)
        shard_counts = [0] * self.num_shards
        for key, count in contributions.items():
            shard_counts[self.shard_of(key)] += count
        self.last_shard_contributions = shard_counts
        return contributions


def make_aggregation_pool(config):
    """The fold executor a :class:`~repro.federated.RunConfig` selects.

    ``None`` for ``"serial"`` (the dispatcher folds every job on the calling
    thread), a :class:`~repro.service.ServiceAggregationPool` for ``"service"``.
    """
    if config.aggregation_executor == "serial":
        return None
    from ..service import ServiceAggregationPool  # local: repro.service imports repro.federated

    return ServiceAggregationPool(
        config.aggregation_workers,
        transport=config.service_transport,
        retry_attempts=config.service_retry_attempts,
        retry_delay_s=config.service_retry_delay_s,
        timeout_s=config.service_timeout_s,
        log_dir=config.service_log_dir)
