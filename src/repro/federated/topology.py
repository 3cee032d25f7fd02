"""Generalized N-tier aggregation topology: participants → aggregator tiers → root.

A production fleet of millions cannot upload every expert update to one root
server.  :class:`AggregationTree` inserts *N tiers* of aggregator nodes
between the participants and the (possibly sharded) parameter server: each
tier-0 node pre-folds its participant group's updates with the run's
aggregation strategy and forwards **one wire-framed partial aggregate per
expert key** — carrying the group's accumulated weight — over a metered
:class:`~repro.comm.Channel` to its parent node; inner tiers fold the partials
they receive and forward their own partials upward, until the last tier's
partials stream into the root server.  Because the root aggregates partials
exactly as it would aggregate client updates, trees of any depth compose with
expert sharding and with any
:class:`~repro.federated.strategies.AggregationStrategy`.

For weighted FedAvg an N-tier weighted-mean-of-weighted-means is
mathematically the flat weighted mean (floating-point association differs,
the values agree to rounding).  Order statistics (trimmed mean, median)
become their standard hierarchical approximations: each tier applies the
robust reduction to what it received.

**Group assignment** is pluggable (:class:`GroupingPolicy`).  The default for
runs with per-participant cost models is :class:`CostAwareGrouping`: a greedy
longest-processing-time bin-pack on each participant's expert *upload cost*
(:func:`repro.systems.cost_model.upload_costs`), so slow uplinks spread
evenly across edges instead of piling onto ``pid % num_edges``.  Without cost
information it degrades to the stable round-robin assignment, which keeps
cost-less configurations bit-identical to the historical behaviour.

**Service pre-fold**: pass a :class:`~repro.service.ServiceAggregationPool`
and every node of every tier folds as one job on an aggregator server — the
job carries the node's updates as wire frames and returns the node's partial
frames, bit-identical to the serial fold (test-enforced).  Partial frames that
the next tier's jobs will fold travel on as verified bytes; only the last
tier's, which the root server reads, are decoded here.

Tier-hop traffic is measured, not estimated: every partial crosses its node's
channel, and the per-round byte/latency totals surface per tier as
``RoundResult.tier_bytes`` / ``tier_seconds`` / ``tier_payloads`` (with the
cross-tier totals kept in ``edge_bytes`` / ``edge_seconds`` for continuity).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..comm import (
    Channel,
    ChannelStats,
    PayloadCorruptedError,
    ScratchPool,
    StreamingAggregator,
    decode_update,
    encode_updates,
    get_codec,
    verify_frame,
)
from ..obs import NULL_TRACER
from .aggregation import ExpertKey, ExpertUpdate

#: inter-tier frames are lossless float64 — pre-folded partials must not lose
#: precision on the backhaul hops
EDGE_CODEC = "fp64"

#: pseudo participant ids spacing between tiers: tier ``k`` node ``j`` frames
#: its partials as ``-(k * _TIER_ID_STRIDE + j + 1)``, so tier 0 keeps the
#: historical ``-(edge + 1)`` ids and logs can tell tiers apart.
_TIER_ID_STRIDE = 1000


#: one partial on its way up: the update (``None`` while only a pool's fold
#: job will read it) and the wire frame it travels as
_Partial = Tuple[Optional[ExpertUpdate], bytes]


def _framed(partials: List[ExpertUpdate], codec) -> List[_Partial]:
    """Each of a node's partials paired with its wire frame (one framing pass)."""
    return list(zip(partials, encode_updates(partials, codec)))


def _pool_folded(frames: List[bytes], root_bound: bool) -> List[_Partial]:
    """The partial frames a pool's fold job returned, as a node's partials.

    Partials bound for the root are decoded — the server reads their states.
    Partials another fold job will consume stay bytes: verified here, as the
    uplink verifies a participant's frames, and decoded once, by that job.
    """
    if root_bound:
        return [(decode_update(frame), frame) for frame in frames]
    for frame in frames:
        verify_frame(frame)
    return [(None, frame) for frame in frames]


def tier_of_pseudo_id(pseudo_id: int) -> int:
    """Invert :meth:`AggregationTree.pseudo_id` to its tier index.

    Non-negative (real participant) ids map to tier 0, so fold-plane record
    labelling stays sane on direct/benchmark calls that never built a tree.
    """
    return max(0, -int(pseudo_id) - 1) // _TIER_ID_STRIDE


# ------------------------------------------------------------------- grouping
class GroupingPolicy(abc.ABC):
    """Maps a participant id to its tier-0 aggregator node."""

    name: str = "base"

    @abc.abstractmethod
    def group_of(self, participant_id: int, num_groups: int) -> int:
        """The tier-0 node index serving ``participant_id``."""


class RoundRobinGrouping(GroupingPolicy):
    """The stable historical assignment: ``pid % num_groups``."""

    name = "round_robin"

    def group_of(self, participant_id: int, num_groups: int) -> int:
        return int(participant_id) % num_groups


class CallableGrouping(GroupingPolicy):
    """Adapts a user ``group_fn(pid) -> group`` (range-checked per call)."""

    name = "callable"

    def __init__(self, group_fn: Callable[[int], int]) -> None:
        self._group_fn = group_fn

    def group_of(self, participant_id: int, num_groups: int) -> int:
        group = int(self._group_fn(participant_id))
        if not 0 <= group < num_groups:
            raise ValueError(
                f"group_fn mapped participant {participant_id} to edge {group}, "
                f"outside [0, {num_groups})")
        return group


class CostAwareGrouping(GroupingPolicy):
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

    def group_loads(self, num_groups: int) -> List[float]:
        """Accumulated upload cost per group under the current assignment."""
        loads = [0.0] * num_groups
        for pid, group in self._assign(num_groups).items():
            loads[group] += float(self.costs[pid])
        return loads

    def group_of(self, participant_id: int, num_groups: int) -> int:
        assigned = self._assign(num_groups).get(int(participant_id))
        if assigned is not None:
            return assigned
        return int(participant_id) % num_groups


def _resolve_grouping(grouping) -> GroupingPolicy:
    if grouping is None:
        return RoundRobinGrouping()
    if isinstance(grouping, GroupingPolicy):
        return grouping
    if callable(grouping):
        return CallableGrouping(grouping)
    raise TypeError(f"grouping must be a GroupingPolicy or callable, got {grouping!r}")


# ----------------------------------------------------------------------- tree
class AggregationTree:
    """An N-tier aggregation topology.

    Parameters
    ----------
    tiers:
        Aggregator-tier widths from the participant-facing tier inward: e.g.
        ``(6, 2)`` is participants → 6 edge nodes → 2 super-edge nodes → root.
    grouping:
        Participant→tier-0 assignment: a :class:`GroupingPolicy`, a bare
        ``group_fn(pid)`` callable, or ``None`` for round-robin.  Inner tiers
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

    def __init__(self, tiers: Sequence[int], grouping=None,
                 channels: Optional[Sequence[Sequence[Channel]]] = None,
                 latency_s: float = 0.0) -> None:
        widths = tuple(int(width) for width in tiers)
        if not widths or any(width < 1 for width in widths):
            raise ValueError(
                "an aggregation tree needs at least one tier of at least one "
                f"aggregator node (got tiers={tuple(tiers)!r})")
        self.tiers = widths
        self.grouping = _resolve_grouping(grouping)
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
        #: persistent fold scratch for the *serial* tier folds (service folds
        #: use their server's pool); every serial fold this tree ever runs
        #: shares these term buffers
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
    def channels(self) -> List[Channel]:
        """The participant-facing tier's upward channels (legacy accessor)."""
        return self.tier_channels[0]

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
    def partial_updates(self, edge: int,
                        aggregator: StreamingAggregator) -> List[ExpertUpdate]:
        """A tier-0 node's pre-folded partials, one update per expert key.

        The partial's weight is the group's accumulated (post-discount)
        weight, so the parent's weighted fold treats the group exactly as one
        heavy contributor.  Partials carry a negative pseudo participant id
        (``-(edge + 1)`` at tier 0) so logs can tell tiers apart.

        Keys whose group contributed only zero-weight FedAvg updates are
        dropped: a zero-weight group simply contributes nothing upward.
        """
        return aggregator.partials(self.pseudo_id(0, edge))

    def _send(self, tier: int, node: int, partial: Optional[ExpertUpdate],
              frame: bytes) -> Optional[_Partial]:
        """Ship one framed partial over its node's channel; return what arrived.

        Returns the delivered ``(update, frame bytes)`` — ``None`` when the
        payload was lost or failed its CRC.  Pristine frames skip the
        (lossless fp64) re-decode: the in-memory partial (``None`` for one
        that travels as bytes only) is byte-for-byte what a decode would
        reconstruct.  A corrupted frame must fail its CRC and be dropped,
        never fold — the same contract as the participant hop; a
        corrupted-but-decodable payload returns the *received* bytes, which
        are what any downstream re-decode must see.
        """
        record = self.tier_channels[tier][node].send(frame, direction="up")
        self.last_tier_stats[tier].record(record)
        if not record.delivered:
            return None
        if record.corrupted:
            try:
                return decode_update(record.payload), bytes(record.payload)
            except PayloadCorruptedError:
                self.last_tier_stats[tier].decode_failures += 1
                return None
        return partial, frame

    def _fold_leaf_tier(self, updates: Iterable[ExpertUpdate], strategy,
                        pool, codec, tracer=NULL_TRACER
                        ) -> Dict[int, List[_Partial]]:
        """Fold participant updates into tier-0 partials, here or on ``pool``.

        Returns ``{node: [(partial, frame), ...]}`` in node order of first
        appearance; per-node partial order is accumulator insertion order
        either way, so service and serial folds are bit-identical.
        """
        width = self.tiers[0]
        if pool is None:
            aggregators = [StreamingAggregator(strategy, scratch=self._fold_scratch)
                           for _ in range(width)]
            for update in updates:
                aggregators[self.edge_of(update.participant_id)].add(update)
            partials: Dict[int, List[_Partial]] = {}
            for node, aggregator in enumerate(aggregators):
                self.last_tier_counts[0][node] = aggregator.num_updates
                if len(aggregator):
                    # The serial fold streams updates into all nodes at once,
                    # so the span covers the node's partial extraction (its
                    # finalize work) and framing; service folds time the whole
                    # subtree fold on their server instead.
                    with tracer.span("prefold_node", category="fold", node=node,
                                     tier=0, num_updates=aggregator.num_updates):
                        partials[node] = _framed(
                            self.partial_updates(node, aggregator), codec)
            return partials
        # Service pre-fold: one job per node, carrying its updates as the
        # frames they arrived as (else lossless fp64 frames) plus one framed
        # reference per delta-coded expert key; see
        # :func:`~repro.service.fold.frame_update`.
        from ..service.fold import frame_update

        framed: Dict[int, List[Tuple[bytes, int]]] = {}
        references: Dict[int, Dict] = {}
        framed_references: Dict = {}    # the nodes' jobs share a reference's frame
        for update in updates:
            node = self.edge_of(update.participant_id)
            framed.setdefault(node, []).append(frame_update(
                update, references.setdefault(node, {}), framed_references))
            self.last_tier_counts[0][node] += 1
        jobs = [(node, self.pseudo_id(0, node), frames, references[node])
                for node, frames in framed.items()]
        folded = pool.prefold_nodes(strategy, jobs, timed=tracer.enabled)
        for record in pool.last_span_records:
            tracer.ingest(record)
        return {node: _pool_folded(partial_frames, root_bound=self.depth == 1)
                for node, partial_frames in folded}

    def aggregate(self, server, updates: Iterable[ExpertUpdate],
                  strategy=None, pool=None, tracer=None
                  ) -> Tuple[Dict[ExpertKey, int], ChannelStats]:
        """Run one round of N-tier aggregation into ``server``.

        Consumes ``updates`` one at a time (a generator streams straight into
        the tier-0 accumulators), folds each into its participant's node,
        ships every node's partials over its metered channel as framed
        payloads tier by tier, and hands the last tier's delivered partials
        to ``server.aggregate``.  Returns the root's contribution counts
        (partials folded per key — what the root actually received) plus the
        cross-tier total of the measured :class:`ChannelStats` (per-tier
        breakdowns stay in :attr:`last_tier_stats`).

        ``pool`` (a :class:`~repro.service.ServiceAggregationPool`) moves
        every tier's node folds onto the aggregator servers.  A service fold
        buffers each node's update frames before dispatch, trading the serial
        path's one-update-at-a-time memory profile for folds off this process.

        ``tracer`` (a :class:`~repro.obs.Tracer`) records per-node fold spans
        and per-(tier, node) transfer spans; ``None`` is the no-op tracer.
        """
        self.reset_round_metrics()
        if tracer is None:
            tracer = NULL_TRACER
        codec = get_codec(EDGE_CODEC)
        current = self._fold_leaf_tier(updates, strategy, pool, codec, tracer)
        return self._propagate(server, current, strategy, codec, tracer, pool)

    def reset_round_metrics(self) -> None:
        """Zero the per-round counts/stats.

        :meth:`aggregate` calls this *before* touching the update stream, so
        a round that delivers zero updates (or dies mid-fold) can never
        surface the previous round's counts as its own.
        """
        self.last_tier_counts = [[0] * width for width in self.tiers]
        self.last_tier_stats = [ChannelStats() for _ in self.tiers]

    def _propagate(self, server, current, strategy, codec,
                   tracer=NULL_TRACER, pool=None
                   ) -> Tuple[Dict[ExpertKey, int], ChannelStats]:
        """Ship tier-0 partials up the tree and into the root server."""
        # Inner tiers: deliver each node's partials to its parent aggregator,
        # re-fold, re-frame.  Nodes iterate in index order so channel fault
        # sequences are deterministic.  With a fold pool attached every inner
        # node becomes its own fold job — independent subtrees at each tier
        # fold on their aggregator servers instead of serializing on this
        # loop; the jobs carry the delivered frames in arrival order, so the
        # server's fold is bit-identical to the serial parent aggregator
        # (test-enforced).
        for tier in range(self.depth - 1):
            parents = ([StreamingAggregator(strategy, scratch=self._fold_scratch)
                        for _ in range(self.tiers[tier + 1])]
                       if pool is None else [])
            inbox: Dict[int, List[Tuple[bytes, int]]] = {}
            for node in sorted(current):
                parent = self.parent_of(tier, node)
                with tracer.span("tier_send", category="transfer", tier=tier,
                                 node=node, partials=len(current[node])) as span:
                    airtime_before = self.last_tier_stats[tier].seconds
                    for partial, frame in current[node]:
                        sent = self._send(tier, node, partial, frame)
                        if sent is None:
                            continue
                        if pool is None:
                            parents[parent].add(sent[0])
                        else:
                            # a partial is fresh by construction: staleness 0
                            inbox.setdefault(parent, []).append((sent[1], 0))
                    span.set(sim_duration=self.last_tier_stats[tier].seconds
                             - airtime_before)
            current = {}
            if pool is not None:
                jobs = [(node, self.pseudo_id(tier + 1, node), inbox[node])
                        for node in sorted(inbox)]
                for node, _, framed in jobs:
                    self.last_tier_counts[tier + 1][node] = len(framed)
                folded = pool.prefold_nodes(strategy, jobs, timed=tracer.enabled)
                for record in pool.last_span_records:
                    tracer.ingest(record)
                current = {node: _pool_folded(partial_frames,
                                              root_bound=tier + 2 == self.depth)
                           for node, partial_frames in folded}
                continue
            for node, aggregator in enumerate(parents):
                self.last_tier_counts[tier + 1][node] = aggregator.num_updates
                if len(aggregator):
                    with tracer.span("fold_node", category="fold", tier=tier + 1,
                                     node=node, num_updates=aggregator.num_updates):
                        current[node] = _framed(
                            aggregator.partials(self.pseudo_id(tier + 1, node)), codec)

        def delivered_partials():
            tier = self.depth - 1
            for node in sorted(current):
                with tracer.span("tier_send", category="transfer", tier=tier,
                                 node=node, partials=len(current[node])) as span:
                    airtime_before = self.last_tier_stats[tier].seconds
                    for partial, frame in current[node]:
                        sent = self._send(tier, node, partial, frame)
                        if sent is not None:
                            yield sent[0]
                    span.set(sim_duration=self.last_tier_stats[tier].seconds
                             - airtime_before)

        contributions = server.aggregate(delivered_partials(), strategy=strategy)
        totals = ChannelStats()
        for tier_stats in self.last_tier_stats:
            totals.merge(tier_stats)
        return contributions, totals

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
            # The RunConfig check cannot catch this: edge_grouping="cost_aware"
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
    :func:`repro.systems.cost_model.upload_costs`) feeds the default
    cost-aware grouping; without it — or with
    ``edge_grouping="round_robin"`` — assignment is the stable round-robin.
    """
    tiers = config.edge_tiers
    if not tiers:
        return None
    grouping: Optional[GroupingPolicy] = None
    if getattr(config, "edge_grouping", "cost_aware") == "cost_aware" and participant_costs:
        grouping = CostAwareGrouping(participant_costs)
    latency_s = float(getattr(config, "edge_latency_s", 0.0))
    return AggregationTree(tiers, grouping=grouping, latency_s=latency_s)
