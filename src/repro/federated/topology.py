"""Generalized N-tier aggregation topology: participants → aggregator tiers → root.

A production fleet of millions cannot upload every expert update to one root
server.  :class:`AggregationTree` inserts *N tiers* of aggregator nodes
between the participants and the (possibly sharded) parameter server: each
tier-0 node pre-folds its participant group's updates (weighted FedAvg, the
one fold) and forwards **one wire-framed partial aggregate per expert key** —
carrying the group's accumulated weight — over a metered
:class:`~repro.comm.Channel` to its parent node; inner tiers fold the partials
they receive and forward their own partials upward, until the last tier's
partials stream into the root server.  Because the root aggregates partials
exactly as it would aggregate client updates, trees of any depth compose with
expert sharding.

An N-tier weighted-mean-of-weighted-means is mathematically the flat weighted
mean (floating-point association differs, the values agree to rounding).

**Group assignment** has two policies, each a ``group_of(pid, num_groups)``.
Runs with per-participant cost models use :class:`CostAwareGrouping`: a greedy
longest-processing-time bin-pack on each participant's expert *upload cost*
(:func:`repro.systems.cost_model.upload_costs`), so slow uplinks spread
evenly across edges instead of piling onto ``pid % num_edges``.  Without cost
information it degrades to the stable round-robin assignment
(:class:`RoundRobinGrouping`, the policy of runs without cost models), which keeps
cost-less configurations bit-identical to the historical behaviour.

**One loop, one dispatcher.**  :meth:`AggregationTree.aggregate` is one loop
over tiers: fill each node's inbox, fold the tier, send every partial over its
node's channel into the parent's inbox, hand the last tier's deliveries to the
root server.  "Fold the tier" is :func:`repro.service.fold.prefold_nodes` — a
list of jobs, one per node, each the node's updates in arrival order — and
that function alone decides whether a job folds on this thread or, with a
:class:`~repro.service.ServiceAggregationPool`, on an aggregator server; the
two are bit-identical (test-enforced) and this module has no branch on which
one ran.  A partial is one :class:`~repro.federated.aggregation.ExpertUpdate`
that owns the fp64 frame it travels as; one that came back from a server holds
those bytes only and is decoded once, by whoever folds it next.

Tier-hop traffic is measured, not estimated: every partial crosses its node's
channel, and the per-round byte/latency totals surface per tier as
``RoundResult.tier_bytes`` / ``tier_seconds`` / ``tier_payloads`` (with the
cross-tier totals kept in ``edge_bytes`` / ``edge_seconds`` for continuity).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..comm import (
    Channel,
    ChannelStats,
    PayloadCorruptedError,
    ScratchPool,
    decode_update,
)
from ..obs import NULL_TRACER
from .aggregation import ExpertKey, ExpertUpdate

#: inter-tier frames stay float64 whatever the model dtype: tier partials are
#: float64 fold sums, and they must not round on the backhaul hops
EDGE_CODEC = "fp64"

#: pseudo participant ids spacing between tiers: tier ``k`` node ``j`` frames
#: its partials as ``-(k * _TIER_ID_STRIDE + j + 1)``, so tier 0 keeps the
#: historical ``-(edge + 1)`` ids and logs can tell tiers apart.
_TIER_ID_STRIDE = 1000


def tier_of_pseudo_id(pseudo_id: int) -> int:
    """Invert :meth:`AggregationTree.pseudo_id` to its tier index.

    Non-negative (real participant) ids map to tier 0, so fold-plane record
    labelling stays sane on direct/benchmark calls that never built a tree.
    """
    return max(0, -int(pseudo_id) - 1) // _TIER_ID_STRIDE


# ------------------------------------------------------------------- grouping
class RoundRobinGrouping:
    """The stable historical assignment: ``pid % num_groups``."""

    name = "round_robin"

    def group_of(self, participant_id: int, num_groups: int) -> int:
        """The tier-0 node index serving ``participant_id``."""
        return int(participant_id) % num_groups


class CostAwareGrouping:
    """Greedy LPT bin-pack of participants onto groups by upload cost.

    Participants with known costs are assigned longest-processing-time first
    (ties broken by ascending participant id) to the currently least-loaded
    group (ties broken by lowest group index), which balances the per-edge
    upload makespan instead of the participant *count*.  The assignment is a
    pure function of the cost map, so identically configured runs — and
    checkpoint resumes — reproduce it exactly.  Participants without a cost
    entry (and empty cost maps) fall back to round-robin, making the policy a
    drop-in default that only changes behaviour when cost models exist.
    """

    name = "cost_aware"

    def __init__(self, costs: Optional[Mapping[int, float]] = None) -> None:
        self.costs = dict(costs or {})
        self._assignments: Dict[int, Dict[int, int]] = {}

    def _assign(self, num_groups: int) -> Dict[int, int]:
        assignment = self._assignments.get(num_groups)
        if assignment is None:
            loads = [0.0] * num_groups
            assignment = {}
            for pid, cost in sorted(self.costs.items(),
                                    key=lambda item: (-item[1], item[0])):
                group = min(range(num_groups), key=lambda g: (loads[g], g))
                loads[group] += float(cost)
                assignment[pid] = group
            self._assignments[num_groups] = assignment
        return assignment

    def group_of(self, participant_id: int, num_groups: int) -> int:
        assigned = self._assign(num_groups).get(int(participant_id))
        if assigned is not None:
            return assigned
        return int(participant_id) % num_groups


# ----------------------------------------------------------------------- tree
class AggregationTree:
    """An N-tier aggregation topology.

    Parameters
    ----------
    tiers:
        Aggregator-tier widths from the participant-facing tier inward: e.g.
        ``(6, 2)`` is participants → 6 edge nodes → 2 super-edge nodes → root.
    grouping:
        Participant→tier-0 assignment: a :class:`CostAwareGrouping`, or
        ``None`` for :class:`RoundRobinGrouping`.  Inner tiers
        always group node ``j`` under parent ``j % width`` — node ids are
        synthetic, so nothing cost-aware applies there.
    channels:
        Optional pre-built upward channels, one list per tier (``channels[k][j]``
        carries tier-``k`` node ``j``'s partials toward its parent).  The
        default builds unmetered-bandwidth :class:`~repro.comm.Channel`'s with
        ``latency_s`` per frame (aggregator nodes are assumed to sit on
        datacenter-grade links; pass explicit channels to model constrained
        backhaul).
    latency_s:
        Per-frame upward latency for the default channels.
    """

    def __init__(self, tiers: Sequence[int],
                 grouping: Optional[Union[CostAwareGrouping, RoundRobinGrouping]] = None,
                 channels: Optional[Sequence[Sequence[Channel]]] = None,
                 latency_s: float = 0.0) -> None:
        widths = tuple(int(width) for width in tiers)
        if not widths or any(width < 1 for width in widths):
            raise ValueError(
                "an aggregation tree needs at least one tier of at least one "
                f"aggregator node (got tiers={tuple(tiers)!r})")
        self.tiers = widths
        self.grouping = RoundRobinGrouping() if grouping is None else grouping
        if channels is not None:
            tier_channels = [list(tier) for tier in channels]
            if [len(tier) for tier in tier_channels] != list(widths):
                raise ValueError(
                    "one upward channel per aggregator node is required "
                    f"(tiers {widths}, got {[len(t) for t in tier_channels]})")
            self.tier_channels = tier_channels
        else:
            self.tier_channels = [
                [Channel(participant_id=node, latency_s=latency_s)
                 for node in range(width)]
                for width in widths
            ]
        #: contributions folded per node per tier in the most recent round
        self.last_tier_counts: List[List[int]] = [[0] * w for w in widths]
        #: per-tier measured channel stats of the most recent round
        self.last_tier_stats: List[ChannelStats] = [ChannelStats() for _ in widths]
        #: persistent fold scratch of the tier folds that run on this thread
        #: (an aggregator server folds into its own)
        self._fold_scratch = ScratchPool()

    # ----------------------------------------------------------------- shape
    @property
    def depth(self) -> int:
        """Number of aggregator tiers between the participants and the root."""
        return len(self.tiers)

    @property
    def num_edges(self) -> int:
        """Width of the participant-facing tier."""
        return self.tiers[0]

    @property
    def last_edge_counts(self) -> List[int]:
        """Participant updates folded per tier-0 node in the most recent round."""
        return self.last_tier_counts[0]

    def edge_of(self, participant_id: int) -> int:
        """The tier-0 aggregator node serving ``participant_id``."""
        return self.grouping.group_of(participant_id, self.tiers[0])

    def parent_of(self, tier: int, node: int) -> int:
        """The tier ``tier + 1`` node fed by tier-``tier`` node ``node``."""
        if tier >= self.depth - 1:
            raise ValueError(f"tier {tier} feeds the root, not a parent tier")
        return node % self.tiers[tier + 1]

    def pseudo_id(self, tier: int, node: int) -> int:
        """The negative participant id stamped on this node's partials."""
        return -(tier * _TIER_ID_STRIDE + node + 1)

    # -------------------------------------------------------------- aggregation
    def _send(self, tier: int, node: int,
              partial: ExpertUpdate) -> Optional[ExpertUpdate]:
        """Ship one partial's frame over its node's channel; return what arrived.

        ``None`` when the payload was lost or failed its CRC.  A pristine
        frame skips the (lossless fp64) re-decode: the partial that was sent
        is byte for byte what arrived.  A corrupted frame must fail its CRC
        and be dropped, never fold — the same contract as the participant
        hop; a corrupted-but-decodable payload arrives as the decode of the
        *received* bytes, carrying those bytes.
        """
        record = self.tier_channels[tier][node].send(partial.wire_frame, direction="up")
        self.last_tier_stats[tier].record(record)
        if not record.delivered:
            return None
        if not record.corrupted:
            return partial
        try:
            arrived = decode_update(record.payload)
        except PayloadCorruptedError:
            self.last_tier_stats[tier].decode_failures += 1
            return None
        arrived.wire_frame, arrived.wire_codec = bytes(record.payload), EDGE_CODEC
        return arrived

    def aggregate(self, server, updates: Iterable[ExpertUpdate],
                  pool=None, tracer=None
                  ) -> Tuple[Dict[ExpertKey, int], ChannelStats]:
        """Run one round of N-tier aggregation into ``server``.

        Sorts ``updates`` into their participants' tier-0 inboxes, then tier
        by tier: folds every node's inbox into its partials — one per expert
        key, weighing the group's accumulated weight, stamped
        with the node's pseudo id; a key whose group contributed only
        zero-weight updates contributes nothing upward — and ships
        them over the node's metered channel as framed payloads into the
        parent's inbox.  The last tier's delivered partials go to
        ``server.aggregate``.  Nodes fold and send in index order, so channel
        fault sequences are deterministic.  Returns the root's contribution
        counts (partials folded per key — what the root actually received)
        plus the cross-tier total of the measured :class:`ChannelStats`
        (per-tier breakdowns stay in :attr:`last_tier_stats`).

        ``pool`` (a :class:`~repro.service.ServiceAggregationPool`) is handed
        to :func:`repro.service.fold.prefold_nodes` with every tier's jobs;
        that is where "here or on an aggregator server" is decided.

        ``tracer`` (a :class:`~repro.obs.Tracer`) records per-node fold spans
        and per-(tier, node) transfer spans; ``None`` is the no-op tracer.
        """
        from ..service.fold import prefold_nodes  # late: repro.service imports this module

        self.reset_round_metrics()
        if tracer is None:
            tracer = NULL_TRACER
        #: per node of the tier being folded, what it received, arrival order;
        #: after the last tier, the root's one inbox
        inboxes: Dict[int, List[ExpertUpdate]] = {}
        for update in updates:
            inboxes.setdefault(self.edge_of(update.participant_id), []).append(update)
        for tier in range(self.depth):
            stats = self.last_tier_stats[tier]
            jobs = [(node, self.pseudo_id(tier, node), inboxes[node])
                    for node in sorted(inboxes)]
            folded = prefold_nodes(jobs, pool, scratch=self._fold_scratch, tracer=tracer)
            for node, _, inbox in jobs:     # what *was* folded: after the fold
                self.last_tier_counts[tier][node] = len(inbox)
            inboxes = {}
            for node, partials in folded:
                parent = self.parent_of(tier, node) if tier + 1 < self.depth else 0
                with tracer.span("tier_send", category="transfer", tier=tier,
                                 node=node, partials=len(partials)) as span:
                    airtime_before = stats.seconds
                    for partial in partials:
                        arrived = self._send(tier, node, partial)
                        if arrived is not None:
                            inboxes.setdefault(parent, []).append(arrived)
                    span.set(sim_duration=stats.seconds - airtime_before)
        # Known wart, kept as it is: a last-tier partial that came back from a
        # service fold is decoded here and handed over without its frame, so a
        # pooled root re-encodes it.  The frozen benchmarks/e2e test asserts
        # comm.encode_update.calls > 0 on fmd_wire_service, and ROADMAP
        # reserves the removal for the [benchmark] PR.
        contributions = server.aggregate(
            [decode_update(partial.wire_frame) if partial.framed else partial
             for partial in inboxes.get(0, ())])
        totals = ChannelStats()
        for tier_stats in self.last_tier_stats:
            totals.merge(tier_stats)
        return contributions, totals

    def reset_round_metrics(self) -> None:
        """Zero the per-round counts/stats.

        :meth:`aggregate` calls this *before* touching the update stream, so
        a round that delivers zero updates (or dies mid-fold) can never
        surface the previous round's counts as its own.
        """
        self.last_tier_counts = [[0] * width for width in self.tiers]
        self.last_tier_stats = [ChannelStats() for _ in self.tiers]

    # ------------------------------------------------------------- durability
    def export_state(self) -> Dict:
        """Picklable snapshot: tree shape, grouping, per-tier channel positions."""
        return {
            "tiers": list(self.tiers),
            "grouping": self.grouping.name,
            # Cost-aware assignment is a pure function of the cost map, so
            # snapshotting the costs pins the participant→edge assignment.
            "grouping_costs": (dict(self.grouping.costs)
                               if isinstance(self.grouping, CostAwareGrouping)
                               else None),
            "channels": [[channel.export_state() for channel in tier]
                         for tier in self.tier_channels],
        }

    def import_state(self, state: Dict) -> None:
        """Restore an :meth:`export_state` snapshot (shape + grouping must match)."""
        if list(state["tiers"]) != list(self.tiers):
            raise ValueError(
                f"checkpoint topology has tiers {tuple(state['tiers'])} but the "
                f"resuming tuner's topology has tiers {self.tiers}")
        if state["grouping"] != self.grouping.name:
            # The RunConfig check cannot catch this: the cost-aware grouping
            # resolves to round_robin when cost models are absent, so the same
            # config can yield different *effective* groupings — and a changed
            # participant→edge assignment silently diverges from the
            # uninterrupted run.
            raise ValueError(
                f"checkpoint was written with {state['grouping']!r} edge "
                f"grouping but the resuming tuner groups {self.grouping.name!r} "
                "(did the participants' cost models change?)")
        saved_costs = state.get("grouping_costs")
        if isinstance(self.grouping, CostAwareGrouping) \
                and saved_costs != self.grouping.costs:
            raise ValueError(
                "checkpoint was written with different participant upload "
                "costs; the cost-aware edge assignment would change and the "
                "resumed run would silently diverge")
        for tier, tier_states in zip(self.tier_channels, state["channels"]):
            for channel, channel_state in zip(tier, tier_states):
                channel.import_state(channel_state)

    # ---------------------------------------------------------------- inspection
    def describe(self) -> Dict:
        """Topology shape summary (for logs and examples)."""
        return {
            "tiers": self.depth + 1,
            "tier_widths": list(self.tiers),
            "grouping": self.grouping.name,
            "num_edges": self.num_edges,
            "edge_counts": list(self.last_edge_counts),
            "tier_counts": [list(counts) for counts in self.last_tier_counts],
        }


def make_topology(config, participant_costs: Optional[Mapping[int, float]] = None
                  ) -> Optional[AggregationTree]:
    """The topology a :class:`~repro.federated.RunConfig` selects (or ``None``).

    No ``edge_tiers`` keeps the flat single-tier path.  ``participant_costs``
    (per-participant upload seconds, see
    :func:`repro.systems.cost_model.upload_costs`) feeds the cost-aware
    grouping; without it assignment is the stable round-robin.
    """
    tiers = config.edge_tiers
    if not tiers:
        return None
    grouping = CostAwareGrouping(participant_costs) if participant_costs else None
    return AggregationTree(tiers, grouping=grouping, latency_s=float(config.edge_latency_s))
