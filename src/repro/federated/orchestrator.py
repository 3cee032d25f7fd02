"""The federated fine-tuning orchestration shared by Flux and all baselines.

:class:`FederatedFineTuner` owns everything common to every method: the hooks
one participant round implements, FedAvg aggregation, simulated-time accounting
and per-round evaluation.  Concrete methods (Flux, FMD, FMQ, FMES) implement a
single hook — :meth:`FederatedFineTuner.participant_round` — that runs one
participant's local work and returns its expert updates plus a cost breakdown.

*When* and *on what* participant work runs is delegated to the
:mod:`repro.runtime` subsystem: :meth:`FederatedFineTuner.run` hands the loop
to the scheduler selected by :attr:`RunConfig.scheduler` (synchronous FedAvg by
default, reproducing the legacy loop exactly; deadline-based semi-synchronous
and FedBuff-style asynchronous aggregation otherwise), which also applies
participant selection and fault injection.
"""

from __future__ import annotations

import abc
from dataclasses import InitVar, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data import SyntheticDataset
from ..metrics import PerformanceTracker, evaluate_model
from ..systems import CostModel, RoundCostBreakdown, RoundTimeline, SimulatedClock
from .aggregation import ExpertUpdate
from .client import Participant
from .server import ParameterServer, ShardedParameterServer, make_aggregation_pool

#: default wire codec: lossless for float32 models (the training dtype), so
#: enabling ``transport="wire"`` alone does not change learning dynamics.
#: ``RunConfig.codec`` keeps ``None`` as "no explicit choice" so methods with
#: a natural wire format (FMQ ships its quantization bits) can override the
#: default without clobbering an explicit user selection.
DEFAULT_WIRE_CODEC = "fp32"


@dataclass
class RunConfig:
    """Hyper-parameters of one federated fine-tuning run.

    Mirrors the paper's §8.1 settings (mini-batch 16, one local iteration per
    round — one pass of :meth:`~repro.federated.client.Participant.local_finetune`
    — 20 participants per round) with a learning rate recalibrated for the
    mini models.  The runtime block selects the :mod:`repro.runtime` scheduling
    policy; the defaults reproduce the legacy synchronous loop exactly.
    """

    batch_size: int = 16
    learning_rate: float = 5e-3
    max_local_batches: Optional[int] = 2
    participants_per_round: Optional[int] = None   # None = all participants
    eval_batch_size: int = 16
    eval_max_samples: Optional[int] = 64
    target_relative_accuracy: float = 1.0
    seed: int = 0

    # --- runtime: aggregation policy (repro.runtime.scheduler)
    scheduler: str = "sync"                  # "sync" | "semisync" | "async"
    deadline_quantile: float = 0.8           # semisync: round deadline = this duration quantile
    buffer_size: int = 4                     # async: updates per aggregation

    # --- runtime: fault injection (repro.runtime.faults)
    dropout_prob: float = 0.0
    straggler_prob: float = 0.0

    # --- comm: wire transport (repro.comm)
    transport: str = "analytic"              # "analytic" | "wire"
    codec: Optional[str] = None              # wire codec tag; None = method default
    channel_loss_prob: float = 0.0           # wire: per-payload loss probability
    channel_corrupt_prob: float = 0.0        # wire: per-payload corruption probability

    # --- aggregation topology (repro.federated.{server,topology})
    num_shards: int = 1                      # expert shards at the root server
    #: aggregator-tier widths, participant-facing first: ``(6, 2)`` is
    #: participants → 6 edges → 2 super-edges → root; ``None`` is the flat,
    #: single-tier path.
    edge_tiers: Optional[Sequence[int]] = None
    edge_latency_s: float = 0.0              # per-frame inter-tier link latency

    # --- aggregation executor
    #: "serial" folds on the server thread; "service" folds expert shards and
    #: tree nodes through long-lived socket-backed aggregator servers
    #: (:class:`repro.service.ServiceAggregationPool`), bit-identical to
    #: serial (test-enforced).
    aggregation_executor: str = "serial"
    aggregation_workers: Optional[int] = None

    # --- aggregation service (aggregation_executor="service", repro.service)
    #: "tcp" spawns one aggregator server child process per shard/subtree on
    #: ephemeral localhost ports; "socketpair" runs them on in-process
    #: background-thread accept loops (same protocol, zero network setup)
    service_transport: str = "tcp"
    #: per-round connect/replay attempts before ServiceUnavailableError
    service_retry_attempts: int = 3
    service_retry_delay_s: float = 0.05      # linear backoff between attempts
    service_timeout_s: float = 30.0          # per-request socket timeout
    #: write one append-mode log file per spawned TCP server under this
    #: directory (``scripts/service_smoke.py`` uploads it on CI failure)
    service_log_dir: Optional[str] = None

    # --- durability (repro.runtime.checkpoint)
    checkpoint_every: int = 0                # snapshot run state every K rounds (0 = off)
    checkpoint_dir: Optional[str] = None     # where snapshots land (required if every > 0)
    checkpoint_keep_last: int = 0            # prune all but the K newest snapshots (0 = keep all)
    #: up to K consecutive sparse-delta model snapshots between full ones
    #: (0 = every snapshot full); resume is bit-identical either way
    checkpoint_delta_every: int = 0

    # --- observability (repro.obs)
    #: span tracing + metrics + exporters for the run; the default no-op
    #: telemetry costs nothing on the hot path (gated by
    #: ``perf_harness.py --suite telemetry``)
    telemetry: bool = False
    telemetry_dir: Optional[str] = None      # trace/metrics output dir (required if on)

    # --- retired keywords.  The frozen ``benchmarks/e2e/workloads.py`` still
    # passes these two with the values that name today's only behaviour, so
    # they are accepted (and dropped: not fields, not in ``asdict``) until a
    # ``[benchmark]`` PR removes them from the workloads; then they go.
    streaming_aggregation: InitVar[Optional[bool]] = None
    service_codec: InitVar[Optional[str]] = None

    def __post_init__(self, streaming_aggregation: Optional[bool],
                      service_codec: Optional[str]) -> None:
        if streaming_aggregation not in (None, True):
            raise ValueError(
                f"streaming_aggregation={streaming_aggregation!r} was retired: "
                "the streaming fold is the only fold (it produces the buffered "
                "FedAvg's bits); drop the keyword")
        if service_codec not in (None, "wire"):
            raise ValueError(
                f"service_codec={service_codec!r} was retired: the service "
                "always forwards the frame an update arrived as (what 'wire' "
                "named) and fp64-encodes only updates without one; drop the "
                "keyword")
        if self.scheduler not in ("sync", "semisync", "async"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.transport not in ("analytic", "wire"):
            raise ValueError(f"unknown transport {self.transport!r}")
        for name in ("dropout_prob", "straggler_prob",
                     "channel_loss_prob", "channel_corrupt_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be positive")
        if self.codec is not None:
            from ..comm import get_codec

            try:
                get_codec(self.codec)  # fail fast on unknown codec tags
            except KeyError as exc:
                raise ValueError(str(exc)) from exc
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if self.edge_tiers is not None:
            tiers = tuple(int(width) for width in self.edge_tiers)
            if not tiers or any(width < 1 for width in tiers):
                raise ValueError(
                    "edge_tiers must be a non-empty sequence of positive widths")
            self.edge_tiers = tiers
        if self.edge_latency_s < 0.0:
            raise ValueError("edge_latency_s must be non-negative")
        if self.aggregation_executor not in ("serial", "service"):
            raise ValueError(
                f"unknown aggregation executor {self.aggregation_executor!r} "
                "(expected 'serial' or 'service'; the 'process' pool was "
                "removed — 'service' with service_transport='socketpair' is "
                "its in-host replacement)")
        if self.aggregation_workers is not None and self.aggregation_workers < 1:
            raise ValueError("aggregation_workers must be positive")
        if self.service_transport not in ("tcp", "socketpair"):
            raise ValueError(
                f"unknown service transport {self.service_transport!r}")
        if self.service_retry_attempts < 1:
            raise ValueError("service_retry_attempts must be positive")
        if self.service_retry_delay_s < 0.0:
            raise ValueError("service_retry_delay_s must be non-negative")
        if self.service_timeout_s <= 0.0:
            raise ValueError("service_timeout_s must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError("checkpoint_every > 0 requires checkpoint_dir")
        if self.checkpoint_keep_last < 0:
            raise ValueError("checkpoint_keep_last must be non-negative")
        if self.checkpoint_delta_every < 0:
            raise ValueError("checkpoint_delta_every must be non-negative")
        if self.telemetry and not self.telemetry_dir:
            raise ValueError("telemetry=True requires telemetry_dir")


@dataclass
class ParticipantRoundResult:
    """What one participant returns to the server at the end of a round."""

    updates: List[ExpertUpdate]
    breakdown: RoundCostBreakdown
    train_loss: float
    overlap_profiling: bool = False
    #: optional scalar report (e.g. expert utilities) consumed by the method
    report: Dict = field(default_factory=dict)


@dataclass
class RoundResult:
    """Aggregate outcome of one federated round (= one server aggregation)."""

    round_index: int
    train_loss: float
    metric_value: float
    simulated_time: float
    round_duration: float
    timeline: RoundTimeline
    #: scheduler bookkeeping (0 defaults keep legacy constructors working)
    num_selected: int = 0
    num_aggregated: int = 0
    num_dropped: int = 0
    num_stragglers: int = 0
    mean_staleness: float = 0.0
    #: measured wire traffic (all zero under the analytic transport)
    wire_bytes: float = 0.0
    wire_seconds: float = 0.0
    payloads_lost: int = 0
    payloads_corrupted: int = 0
    #: measured aggregator-tier backhaul, participant-facing tier first
    #: (empty on a flat, single-tier run)
    tier_bytes: List[float] = field(default_factory=list)
    tier_seconds: List[float] = field(default_factory=list)
    tier_payloads: List[int] = field(default_factory=list)

    # The tiers only send up, so these sums are the merged per-tier totals.
    @property
    def edge_bytes(self) -> float:
        """Backhaul bytes summed over every tier (0 on a flat run)."""
        return sum(self.tier_bytes, 0.0)

    @property
    def edge_seconds(self) -> float:
        return sum(self.tier_seconds, 0.0)

    @property
    def edge_payloads(self) -> int:
        return sum(self.tier_payloads)


@dataclass
class RunResult:
    """Full outcome of a federated fine-tuning run.

    ``rounds`` is the run's only per-round record; the tracker, the total
    simulated time and the phase totals are read from it.
    """

    method: str
    target: float
    rounds: List[RoundResult]

    @property
    def tracker(self) -> PerformanceTracker:
        return PerformanceTracker(self.target, self.rounds)

    @property
    def total_time(self) -> float:
        return sum(r.round_duration for r in self.rounds)

    def phase_totals(self) -> Dict[str, float]:
        """Per-phase simulated seconds summed over every round (Figure 20)."""
        totals: Dict[str, float] = {}
        for r in self.rounds:
            for phase, value in r.timeline.phase_totals().items():
                totals[phase] = totals.get(phase, 0.0) + value
        return totals

    def final_metric(self) -> float:
        return self.tracker.final_metric()


class FederatedFineTuner(abc.ABC):
    """Base class for federated MoE fine-tuning methods.

    The aggregation loop itself lives in :mod:`repro.runtime`; this class
    carries the federation state (server, participants, cost models, clock)
    and the method-specific hooks.
    """

    #: human-readable method name used in benchmark reports
    name: str = "base"

    def __init__(
        self,
        server: ParameterServer,
        participants: Sequence[Participant],
        test_dataset: SyntheticDataset,
        cost_models: Optional[Dict[int, CostModel]] = None,
        config: Optional[RunConfig] = None,
    ) -> None:
        if not participants:
            raise ValueError("at least one participant is required")
        self.server = server
        self.participants = list(participants)
        self.test_dataset = test_dataset
        self.cost_models = cost_models or {}
        self.config = config or RunConfig()
        self.clock = SimulatedClock()
        self._rng = np.random.default_rng(self.config.seed)
        self._participants_by_id = {p.participant_id: p for p in self.participants}
        self._channels: Dict[int, object] = {}
        #: ``(server.round_index, {expert key: state})``: the delta-codec
        #: references of the current server version, see :meth:`uplink_reference`
        self._uplink_references: Optional[Tuple[int, Dict]] = None
        # --- aggregation topology: expert shards, edge tier.
        # With the defaults (1 shard / 0 edges) every hook below is a
        # pass-through and the behaviour is bit-identical to the flat legacy
        # path.
        from .topology import make_topology

        if self.config.num_shards > 1 and server.num_shards != self.config.num_shards:
            self.server = ShardedParameterServer.from_server(
                server, self.config.num_shards)
        self.topology = make_topology(self.config,
                                      participant_costs=self._participant_upload_costs())
        self._aggregation_pool = self.server.fold_pool = make_aggregation_pool(self.config)
        # --- observability: a RunTelemetry when config.telemetry is on, else
        # the shared no-op NullTelemetry; the server shares the tracer so its
        # per-shard folds appear in the same trace.
        from ..obs import make_telemetry

        self.telemetry = make_telemetry(self.config)
        self.server.tracer = self.telemetry.tracer
        if self.config.aggregation_executor == "service":
            # repro_service_* byte/connection counters land in the run's
            # metrics registry (no-op registry when telemetry is off)
            self._aggregation_pool.bind_telemetry(self.telemetry)

    # ------------------------------------------------------------------ hooks
    @abc.abstractmethod
    def participant_round(self, participant: Participant, round_index: int) -> ParticipantRoundResult:
        """Run one participant's local work for this round."""

    def before_round(self, round_index: int, selected: Sequence[Participant]) -> None:
        """Hook invoked before local work starts (e.g. Flux's role assignment)."""

    def prepare_round(self, round_index: int, participants: Sequence[Participant]) -> None:
        """Hook invoked with the participants about to train, after faults dropped clients.

        Work that every participant of the round does alike can be done here
        once for all of them (Flux profiles them in shared passes).
        """

    def after_aggregation(self, round_index: int,
                          results: Dict[int, ParticipantRoundResult]) -> None:
        """Hook invoked after the server aggregated this round's updates."""

    # ------------------------------------------------------- participant state
    def participant_by_id(self, participant_id: int) -> Participant:
        return self._participants_by_id[participant_id]

    def export_participant_state(self, participant_id: int) -> Dict:
        """Picklable snapshot of everything ``participant_round`` mutated.

        The run checkpoint's per-participant hook: a snapshot stores one export
        per participant and a resumed run replays them via
        :meth:`import_participant_state`, so the continuation draws what the
        uninterrupted run would have.  Subclasses that keep extra per-client
        state (e.g. Flux) must extend both methods.
        """
        participant = self.participant_by_id(participant_id)
        return {"round_seed": participant._round_seed}

    def import_participant_state(self, participant_id: int, state: Dict) -> None:
        """Apply an :meth:`export_participant_state` snapshot."""
        participant = self.participant_by_id(participant_id)
        participant._round_seed = state["round_seed"]

    # ------------------------------------------------------------------- loop
    def select_participants(self, round_index: int,
                            candidates: Optional[Sequence[Participant]] = None,
                            num: Optional[int] = None) -> List[Participant]:
        """Draw ``num`` of ``candidates`` uniformly, without replacement.

        The run's one selection policy (§8.1: a fixed number of participants
        per round).  ``candidates`` defaults to every participant and ``num``
        to :attr:`RunConfig.participants_per_round`; a pool no larger than
        ``num`` (or ``num=None`` with no per-round count) is taken whole,
        without a draw.  Draws only from the seeded run RNG, so identical
        configs select identically.
        """
        pool = self.participants if candidates is None else list(candidates)
        if num is None:
            num = self.config.participants_per_round
        if num is None or num >= len(pool):
            return list(pool)
        picked = self._rng.choice(len(pool), size=num, replace=False)
        return [pool[int(i)] for i in picked]

    def cost_model_for(self, participant: Participant) -> Optional[CostModel]:
        return self.cost_models.get(participant.participant_id, participant.cost_model)

    def _participant_upload_costs(self) -> Optional[Dict[int, float]]:
        """Upload-seconds per participant — the cost-aware grouping signal.

        ``None`` when no participant has a cost model, which makes the
        cost-aware grouping degrade to the round-robin assignment
        (bit-identical to the pre-tree behaviour).
        """
        from ..systems.cost_model import upload_costs

        models = {p.participant_id: self.cost_model_for(p) for p in self.participants}
        models = {pid: model for pid, model in models.items() if model is not None}
        return upload_costs(models) if models else None

    # ------------------------------------------------------------ wire transport
    def wire_codec_name(self) -> str:
        """Codec tag used for wire-transported updates.

        An explicit :attr:`RunConfig.codec` always wins; with the ``None``
        default, methods may override this hook to pick their natural wire
        format (the base default is the lossless :data:`DEFAULT_WIRE_CODEC`).
        """
        return self.config.codec or DEFAULT_WIRE_CODEC

    def channel_for(self, participant: Participant):
        """The participant's metered channel (built lazily, cached per client)."""
        channel = self._channels.get(participant.participant_id)
        if channel is None:
            from ..runtime.faults import ChannelFaultInjector

            channel = participant.make_channel(
                cost_model=self.cost_model_for(participant),
                faults=ChannelFaultInjector.from_config(self.config))
            self._channels[participant.participant_id] = channel
        return channel

    def uplink_reference(self, layer: int, expert: int) -> Dict[str, np.ndarray]:
        """The state both ends of the uplink delta one expert against.

        It is the server's *current* expert state, so the round trip is
        always consistent.  Under the sync/semisync schedulers this is also
        the state the client downloaded; under async it may have advanced
        past the client's stale download, making the top-k selection
        delta-vs-latest rather than delta-vs-downloaded.

        Fetched once per expert per server version and shared, read-only, by
        every update of that version (frames carry it as ``wire_reference``
        until they are decoded).  Keyed on ``server.round_index`` — every
        aggregation bumps the index, so a copy of older weights is never
        handed out — and dropped on resume, when a restored model may share
        its index with the one the cache was filled from.
        """
        version = self.server.round_index
        if self._uplink_references is None or self._uplink_references[0] != version:
            self._uplink_references = (version, {})
        references = self._uplink_references[1]
        reference = references.get((layer, expert))
        if reference is None:
            reference = references[(layer, expert)] = self.server.expert_state(layer, expert)
            for value in reference.values():
                value.setflags(write=False)
        return reference

    def frame_upload(self, result: ParticipantRoundResult) -> ParticipantRoundResult:
        """Turn a finished participant's upload into the bytes it sends.

        Under ``transport="wire"`` the whole upload is encoded with the run's
        codec in one pass (:func:`repro.comm.encode_updates` against
        :meth:`uplink_reference`: one framed byte payload per expert) and the
        returned result's updates hold those bytes and nothing else
        (:attr:`ExpertUpdate.framed
        <repro.federated.aggregation.ExpertUpdate.framed>`): the dense states
        die here, so a round in flight costs its wire bytes, not its tensors.
        :func:`~repro.runtime.scheduler.run_participants` calls this the
        moment ``participant_round`` returns — valid under the sync and
        semisync schedulers, where the server cannot advance between a
        participant's finish and its delivery.  The async scheduler discounts
        weights and deltas against the server's state *at delivery*, so it
        leaves framing to :meth:`transmit_updates`.  Returns its input under
        the analytic transport and for an upload that is already framed.
        """
        framed = self._frame_updates(result.updates)
        return result if framed is result.updates else replace(result, updates=framed)

    def _frame_updates(self, updates: List[ExpertUpdate]) -> List[ExpertUpdate]:
        if self.config.transport != "wire" or all(update.framed for update in updates):
            return updates
        from ..comm import encode_updates, get_codec

        codec = get_codec(self.wire_codec_name())
        references = [self.uplink_reference(update.layer, update.expert)
                      if codec.needs_reference else None for update in updates]
        return [
            ExpertUpdate(
                participant_id=int(update.participant_id), layer=int(update.layer),
                expert=int(update.expert), state=None, weight=float(update.weight),
                wire_frame=frame, wire_codec=codec.name, wire_reference=reference,
                wire_raw_bytes=sum(np.asarray(v).nbytes for v in update.state.values()))
            for update, reference, frame in zip(
                updates, references, encode_updates(updates, codec, references))]

    def transmit_updates(self, participant: Participant,
                         updates: Sequence[ExpertUpdate]):
        """Move one participant's updates to the server over the transport.

        Under ``transport="analytic"`` (the default) the in-memory updates
        pass straight through and nothing is metered — the legacy behaviour.
        Under ``transport="wire"`` this is the sending half of the uplink:
        the upload is framed by :meth:`frame_upload`'s code (a no-op for what
        :func:`~repro.runtime.scheduler.run_participants` framed at the
        client's finish; the encode itself for the async scheduler and direct
        callers) and every frame is sent over the participant's
        :class:`~repro.comm.Channel` (charging measured airtime, applying
        loss/corruption faults).  The server side verifies a delivered
        frame's checksum and does *not* decode it: the delivered update
        carries the frame, and its ``state`` is decoded when first read (see
        :class:`~repro.federated.aggregation.ExpertUpdate`).  A frame the
        channel corrupted is decoded on the spot, so lost payloads and frames
        that fail their checksum never reach aggregation.

        Returns ``(delivered_updates, stats)`` where ``stats`` is a
        :class:`~repro.comm.ChannelStats` of measured traffic.
        """
        from ..comm import (
            ChannelStats,
            PayloadCorruptedError,
            decode_update,
            verify_frame,
        )

        stats = ChannelStats()
        if self.config.transport != "wire":
            return list(updates), stats
        channel = self.channel_for(participant)
        delivered: List[ExpertUpdate] = []
        raw_bytes = 0.0  # what the same tensors cost raw, at the model's dtype
        with self.telemetry.tracer.span(
                "uplink", category="transfer",
                participant=participant.participant_id,
                codec=self.wire_codec_name()) as span:
            for update in self._frame_updates(list(updates)):
                raw_bytes += update.wire_raw_bytes
                record = channel.send(update.wire_frame, direction="up")
                stats.record(record)
                if not record.delivered:
                    continue
                try:
                    if record.corrupted:
                        # corrupted-but-decodable payloads carry the received
                        # bytes: these are what decoded
                        arrived = decode_update(record.payload,
                                                reference=update.wire_reference)
                    else:
                        verify_frame(record.payload)
                        # a second holder of the same bytes: what the fold
                        # decodes is dropped with it, not kept on the sender's
                        arrived = ExpertUpdate(
                            participant_id=update.participant_id, layer=update.layer,
                            expert=update.expert, state=None, weight=update.weight)
                except PayloadCorruptedError:
                    stats.decode_failures += 1
                    continue
                # Carry the delivered bytes so the service fold dispatch can
                # forward the original frame instead of re-encoding the state.
                arrived.wire_frame = bytes(record.payload)
                arrived.wire_codec = update.wire_codec
                arrived.wire_reference = update.wire_reference
                arrived.wire_raw_bytes = update.wire_raw_bytes
                delivered.append(arrived)
            span.set(sim_duration=stats.seconds, bytes=stats.total_bytes,
                     payloads=stats.payloads, lost=stats.lost,
                     corrupted=stats.corrupted)
            if raw_bytes:
                # payload bytes as a fraction of the raw tensors — ~1.05 for
                # the lossless codec of the model's dtype (frame headers),
                # well under 1 for quantized/sparse codecs
                span.set(wire_density=round(stats.bytes_up / raw_bytes, 4))
        return delivered, stats

    def aggregate_round_updates(self, updates):
        """Fold one round's delivered updates through the aggregation topology.

        Flat runs hand the update stream straight to the server; with an edge
        tier configured, updates pre-fold at their edge aggregators and only
        wire-framed partial aggregates cross the (metered) edge→root channels,
        measured per tier in the topology's ``last_tier_stats``.  Returns the
        contribution counts per expert key.
        """
        tracer = self.telemetry.tracer
        with tracer.span("aggregate", category="fold") as span:
            if self.topology is not None:
                contributions, _ = self.topology.aggregate(
                    self.server, updates, pool=self._aggregation_pool, tracer=tracer)
            else:
                contributions = self.server.aggregate(updates)
            span.set(num_keys=len(contributions),
                     num_updates=sum(contributions.values()))
        return contributions

    # ------------------------------------------------------------- run state
    def export_run_state(self) -> Dict:
        """Picklable snapshot of method-level cross-round state.

        The base orchestrator keeps all cross-round state in the pieces the
        checkpoint layer captures explicitly (server, clock, run RNG,
        participants, channels); methods with their own evolving server-side
        state (e.g. Flux's role-assignment RNG) extend this and
        :meth:`import_run_state`.
        """
        return {}

    def import_run_state(self, state: Dict) -> None:
        """Restore an :meth:`export_run_state` snapshot."""
        self._uplink_references = None  # the restored model may share its round index

    def export_channel_states(self) -> Dict[int, Dict]:
        """Per-participant wire-channel state (fault-stream position + stats)."""
        return {pid: channel.export_state()
                for pid, channel in self._channels.items()}

    def import_channel_states(self, states: Dict[int, Dict]) -> None:
        """Rebuild wire channels and restore their sequence/stat positions."""
        for pid, state in states.items():
            self.channel_for(self.participant_by_id(pid)).import_state(state)

    def evaluate(self) -> float:
        """Evaluate the global model on the held-out test set."""
        return evaluate_model(
            self.server.global_model,
            self.test_dataset,
            batch_size=self.config.eval_batch_size,
            max_samples=self.config.eval_max_samples,
            seed=self.config.seed,
        )

    def target_metric(self) -> float:
        """Absolute metric value corresponding to relative accuracy 1.0."""
        return self.test_dataset.spec.mini_target * self.config.target_relative_accuracy

    def close(self) -> None:
        """Release runtime resources held by the tuner (idempotent).

        Shuts the aggregation service's fold servers down
        (``aggregation_executor="service"``; nothing to do under ``"serial"``).
        They restart lazily on next use, so closing between runs — or between
        rounds driven by hand — is always safe.  :meth:`run` closes the tuner
        itself when it finishes.
        """
        if self.config.aggregation_executor == "service":
            self._aggregation_pool.close()

    def _server_aggregation_time(self, num_updates: int) -> float:
        if not self.cost_models:
            return 0.0
        any_cost_model = next(iter(self.cost_models.values()))
        return any_cost_model.aggregation_time(num_updates)

    def run(self, num_rounds: int, stop_at_target: bool = False,
            target_metric: Optional[float] = None, scheduler=None,
            resume_from: Optional[str] = None) -> RunResult:
        """Run ``num_rounds`` aggregation rounds (optionally stopping at the target).

        The loop is driven by ``scheduler`` when given, else by the policy
        :attr:`RunConfig.scheduler` selects (default: synchronous FedAvg,
        identical to the historical loop).

        With :attr:`RunConfig.checkpoint_every` set, the full run state
        (server + model, completed rounds, RNG streams, scheduler position) is
        snapshotted into :attr:`RunConfig.checkpoint_dir` every K rounds.
        ``resume_from`` continues a killed run from such a snapshot —
        ``num_rounds`` stays the *total* round count, and the resumed run's
        :class:`RunResult` is identical to an uninterrupted one.
        """
        from ..runtime import make_scheduler
        from ..runtime.checkpoint import (
            RunCheckpointer,
            load_run_checkpoint,
            restore_run_state,
        )

        active = scheduler if scheduler is not None else make_scheduler(self.config)
        checkpointer = None
        if self.config.checkpoint_every > 0:
            checkpointer = RunCheckpointer(
                directory=self.config.checkpoint_dir,
                every=self.config.checkpoint_every,
                keep_last=self.config.checkpoint_keep_last,
                delta_every=self.config.checkpoint_delta_every)
        resume = None
        if resume_from is not None:
            resume = restore_run_state(self, active, load_run_checkpoint(resume_from))
        # Resuming prunes the re-executed rounds out of the existing trace and
        # appends; a fresh run truncates.
        self.telemetry.begin(
            resume_round=int(resume["next_round"]) if resume is not None else None)
        try:
            return active.run(self, num_rounds, stop_at_target=stop_at_target,
                              target_metric=target_metric, checkpointer=checkpointer,
                              resume=resume)
        finally:
            self.telemetry.finish()
            self.close()
