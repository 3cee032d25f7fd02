"""The socket-backed aggregation service (repro.service).

Covers the protocol envelope, bit-identity of service folds against the
serial plane (weight profiles x shard counts, transports x weight profiles x
tree depths x shard counts — partial frames, counts, channel stats, expert
bytes — and full
runs on the sharded 3-tier topology — the acceptance invariant; the fold
arithmetic itself is held to the buffered oracle in ``test_fold_oracle.py``),
kill+resume durability
through live servers, the one-request fold job (a connection dropped at every
boundary of a request, a server SIGKILLed mid-request → respawn + resend, one
request per job), the ``repro_service_*`` telemetry, and the pool machinery
(config wiring, pickling, idempotent close).
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.comm import Channel, encode_updates, frame_codec_name, get_codec
from repro.federated import (
    AggregationTree,
    ExpertUpdate,
    ParameterServer,
    RunConfig,
    ShardedParameterServer,
    make_aggregation_pool,
)
from repro.obs import MetricsRegistry
from repro.runtime import ChannelFaultInjector, latest_checkpoint
from repro.service import fold
from repro.service import (
    OP_NAMES,
    PROTOCOL_VERSION,
    ServiceAggregationPool,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
    UnknownCodecError,
    decode_message,
    encode_message,
)
from repro.service.protocol import (
    OP_ERR,
    OP_FOLD_NODE,
    OP_FOLD_SHARD,
    OP_HELLO,
    OP_OK,
    OP_PING,
    OP_STATS,
    ServiceProtocolError,
    announced_frames,
)
import repro.service.server as service_server
from repro.service.server import AggregatorServer, InProcessServer, spawn_server
from repro.comm.stream import LENGTH_PREFIX, FrameStream

from conftest import UPDATE_PROFILES, _assert_models_equal, _updates
from test_runtime import ConstantMethod, build_federation
from repro.models import MoETransformer

#: the acceptance topology: expert shards at the root under a two-tier
#: aggregation tree (participants → edges → super-edges → root)
SHARDED_3TIER = dict(num_shards=2, edge_tiers=(2, 2), participants_per_round=4)


#: one tree shape per benched depth
TREE_TIERS = {1: (2,), 2: (3, 2), 3: (2, 2, 2)}


def frame_update(update):
    """One update as a fold job's frame (no references kept)."""
    return fold.frame_update(update, {})


def _wire_updates(model, updates, codec_name="topk:0.25:int4"):
    """``updates`` as a wire uplink delivers them: bytes, a sender's upload framed in one pass."""
    codec = get_codec(codec_name)
    references = {key: model.expert_state(*key) for key in model.iter_expert_ids()}
    uploads = {}
    for update in updates:
        uploads.setdefault(update.participant_id, []).append(update)
    delivered = []
    for upload in uploads.values():
        against = [references[update.key] for update in upload]
        for update, reference, frame in zip(upload, against,
                                            encode_updates(upload, codec, against)):
            delivered.append(ExpertUpdate(
                update.participant_id, update.layer, update.expert, None, update.weight,
                wire_frame=frame, wire_codec=codec.name, wire_reference=reference))
    return delivered


def _expert_bytes(model) -> bytes:
    return b"".join(value.tobytes() for key in model.iter_expert_ids()
                    for _, value in sorted(model.expert_state(*key).items()))


@pytest.fixture(scope="module")
def service_pool():
    """One socketpair-backed service plane shared by the fold matrix."""
    pool = ServiceAggregationPool(2, transport="socketpair")
    yield pool
    pool.close()


def _fold_header(count, references=()):
    """A fold request's header body, as :class:`ServiceClient` builds it."""
    return {"shard": 0, "timed": False, "count": count,
            "references": list(references)}


# ------------------------------------------------------------------- protocol
class TestProtocol:
    def test_round_trip_every_op(self):
        for op in OP_NAMES:
            body = dict(_fold_header(2, [(0, 1)]), op=OP_NAMES[op])
            assert decode_message(encode_message(op, body)) == (op, body)

    def test_fold_header_announces_its_frames(self):
        """Update frames, then one reference frame per key; other ops announce none."""
        assert announced_frames(OP_FOLD_SHARD, _fold_header(3, references=[(0, 1)])) == 4
        assert announced_frames(OP_FOLD_NODE, _fold_header(0)) == 0
        assert announced_frames(OP_PING, _fold_header(3)) == 0
        for count in (-1, 2.0, "2", True, None):     # malformed: announces nothing
            assert announced_frames(OP_FOLD_SHARD, dict(_fold_header(0), count=count)) is None
        assert announced_frames(OP_FOLD_SHARD, dict(_fold_header(2), references=None)) is None
        assert announced_frames(OP_FOLD_SHARD, None) is None

    def test_deleted_ops_are_unknown(self):
        """No ADD (2) and no RESET (5) since v4: a v3 peer's requests fail to decode."""
        assert PROTOCOL_VERSION == 6
        for op in (2, 5):
            message = bytearray(encode_message(OP_PING, None))
            message[4] = op
            with pytest.raises(ServiceProtocolError, match="unknown service op"):
                decode_message(bytes(message))

    def test_bad_magic_rejected(self):
        message = bytearray(encode_message(OP_PING, None))
        message[:4] = b"RWP1"  # right family, wrong layer
        with pytest.raises(ServiceProtocolError, match="magic"):
            decode_message(bytes(message))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            encode_message(999, None)
        message = bytearray(encode_message(OP_PING, None))
        message[4] = 250
        with pytest.raises(ServiceProtocolError, match="unknown service op"):
            decode_message(bytes(message))

    def test_torn_body_rejected(self):
        message = encode_message(OP_FOLD_SHARD, _fold_header(4))
        with pytest.raises(ServiceProtocolError, match="undecodable"):
            decode_message(message[: len(message) // 2 + 5])


# ------------------------------------------------------- fold-plane identity
class TestServiceFoldsBitEqualSerial:
    @staticmethod
    def _check_sharded_fold(tiny_config, pool, num_shards, stale=False,
                            profile="graded"):
        serial_model = MoETransformer(tiny_config)
        service_model = MoETransformer(tiny_config)
        service_model.load_state_dict(serial_model.state_dict())
        updates = _updates(serial_model, stale=stale, profile=profile)

        serial = ShardedParameterServer(serial_model, num_shards=num_shards)
        serial_contrib = serial.aggregate(list(updates))
        service = ShardedParameterServer(service_model, num_shards=num_shards)
        service.fold_pool = pool
        service_contrib = service.aggregate(list(updates))

        assert serial_contrib == service_contrib
        assert serial.last_shard_contributions == service.last_shard_contributions
        _assert_models_equal(serial_model, service_model)

    @pytest.mark.parametrize("profile", UPDATE_PROFILES)
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_sharded_fold_matches_serial(self, tiny_config, service_pool, num_shards,
                                         profile):
        self._check_sharded_fold(tiny_config, service_pool, num_shards, profile=profile)

    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_sharded_fold_of_async_weights_matches_serial(self, tiny_config, service_pool,
                                                          num_shards):
        """Staleness-discounted weights, as async ships them, fold as given."""
        self._check_sharded_fold(tiny_config, service_pool, num_shards, stale=True)

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("profile", UPDATE_PROFILES)
    @pytest.mark.parametrize("transport", ["analytic", "wire"])
    def test_tree_prefold_matches_serial(self, tiny_config, service_pool, transport,
                                         profile, depth, num_shards):
        """Every partial frame, count, channel stat and expert byte, both executors."""
        self._check_tree_prefold(tiny_config, service_pool, transport, depth, num_shards,
                                 profile=profile)

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("transport", ["analytic", "wire"])
    def test_tree_prefold_of_async_weights_matches_serial(self, tiny_config, service_pool,
                                                          transport, depth, num_shards):
        """Staleness-discounted weights cross every tier hop as given, both executors."""
        self._check_tree_prefold(tiny_config, service_pool, transport, depth,
                                 num_shards, stale=True)

    @staticmethod
    def _check_tree_prefold(tiny_config, service_pool, transport, depth,
                            num_shards, stale=False, profile="graded"):
        def run(pool):
            model = MoETransformer(tiny_config)
            updates = _updates(model, num_participants=8, stale=stale, profile=profile)
            if transport == "wire":
                updates = _wire_updates(model, updates)
            server = (ShardedParameterServer(model, num_shards=num_shards)
                      if num_shards > 1 else ParameterServer(model))
            server.fold_pool = pool
            tree = AggregationTree(TREE_TIERS[depth], latency_s=0.05)
            sent, send = [], tree._send
            tree._send = lambda tier, node, partial: (
                sent.append((tier, node, partial.wire_frame)) or send(tier, node, partial))
            contributions, totals = tree.aggregate(server, iter(updates), pool=pool)
            if transport == "wire":     # whoever folded them, it was from the bytes
                assert all(update.framed for update in updates)
            return (contributions, sent, tree.last_tier_counts, tree.last_tier_stats,
                    totals, _expert_bytes(model))

        serial, service = run(None), run(service_pool)
        assert len(serial[1]) == len(service[1]) > 0
        assert serial == service

    def test_lossy_tier_channels_drop_what_they_dropped(self, tiny_config, service_pool):
        """Seeded loss and corruption on every tier hop, under each executor.

        The pinned counts are what the forked serial and service paths both
        produced before they became one dispatch (measured on ``c482e88``).
        """

        def run(pool):
            model = MoETransformer(tiny_config)
            faults = ChannelFaultInjector(loss_prob=0.3, corrupt_prob=0.3, seed=4)
            tiers = (3, 2)
            tree = AggregationTree(tiers, channels=[
                [Channel(participant_id=node, faults=faults, latency_s=0.05)
                 for node in range(width)] for width in tiers])
            server = ShardedParameterServer(model, num_shards=2)
            server.fold_pool = pool
            contributions, totals = tree.aggregate(
                server, iter(_updates(model, num_participants=8)), pool=pool)
            assert contributions == {(0, 0): 2, (0, 1): 2, (0, 2): 2, (0, 3): 1}
            assert tree.last_tier_counts == [[24, 24, 16], [9, 4]]
            assert [(s.payloads, s.lost, s.corrupted, s.decode_failures)
                    for s in tree.last_tier_stats] == [(24, 7, 4, 4), (10, 2, 1, 1)]
            assert (totals.payloads, totals.total_bytes) == (34, 212704.0)
            return _expert_bytes(model)

        assert run(None) == run(service_pool)

    def test_generator_fold_matches_serial(self, tiny_config, service_pool):
        serial_model = MoETransformer(tiny_config)
        service_model = MoETransformer(tiny_config)
        service_model.load_state_dict(serial_model.state_dict())
        updates = _updates(serial_model)

        ShardedParameterServer(serial_model, num_shards=3).aggregate(iter(updates))
        service = ShardedParameterServer(service_model, num_shards=3)
        service.fold_pool = service_pool
        service.aggregate(iter(updates))
        _assert_models_equal(serial_model, service_model)

    def test_tree_into_sharded_server(self, tiny_config, service_pool):
        """Tree pre-folds and shard folds ride one pool, still bit-identical."""
        serial_model = MoETransformer(tiny_config)
        service_model = MoETransformer(tiny_config)
        service_model.load_state_dict(serial_model.state_dict())
        updates = _updates(serial_model, num_participants=8)

        AggregationTree((3, 2)).aggregate(
            ShardedParameterServer(serial_model, num_shards=4), iter(updates))
        service_server = ShardedParameterServer(service_model, num_shards=4)
        service_server.fold_pool = service_pool
        AggregationTree((3, 2)).aggregate(service_server, iter(updates),
                                          pool=service_pool)
        _assert_models_equal(serial_model, service_model)

    def test_server_side_error_surfaces_as_service_error(self, tiny_config,
                                                         service_pool):
        model = MoETransformer(tiny_config)
        updates = [u for u in _updates(model, num_participants=2)]
        for update in updates:
            update.weight = 0.0
        service = ShardedParameterServer(model, num_shards=2)
        service.fold_pool = service_pool
        with pytest.raises(ServiceError, match="non-positive total weight"):
            service.aggregate(list(updates))
        # ... where the serial server raises the same complaint itself
        with pytest.raises(ValueError, match="non-positive total weight"):
            ShardedParameterServer(model, num_shards=2).aggregate(list(updates))


# ------------------------------------------------------------------ run level
class TestServiceRuns:
    def _run(self, vocab, tiny_config, **config_kwargs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, **config_kwargs)
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(2)
        return result, tuner

    @pytest.mark.parametrize("knobs", [
        SHARDED_3TIER,
        {"num_shards": 4},
        {"edge_tiers": (3, 2), "num_shards": 2},
        {"edge_tiers": (2, 2), "transport": "wire"},
        {"edge_tiers": (2, 2), "transport": "wire", "codec": "topk:0.25:int4"},
    ], ids=["sharded-3tier", "shards", "tree3x2+shards", "tree+wire", "tree+sparse-wire"])
    def test_service_run_matches_serial(self, vocab, tiny_config, knobs):
        """Acceptance: the service backend is bit-identical to serial (on the
        sharded 3-tier topology first of all)."""
        serial_result, serial_tuner = self._run(vocab, tiny_config, **knobs)
        service_result, service_tuner = self._run(
            vocab, tiny_config, aggregation_executor="service",
            aggregation_workers=2, service_transport="socketpair", **knobs)
        for a, b in zip(serial_result.rounds, service_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
            assert a.simulated_time == b.simulated_time
            assert a.edge_bytes == b.edge_bytes
            assert a.tier_bytes == b.tier_bytes
        _assert_models_equal(serial_tuner.server.global_model,
                             service_tuner.server.global_model)

    def test_service_run_over_tcp_matches_serial(self, vocab, tiny_config):
        """The same invariant through real spawned TCP servers."""
        knobs = dict(num_shards=2, edge_tiers=(2,), participants_per_round=3)
        serial_result, serial_tuner = self._run(vocab, tiny_config, **knobs)
        service_result, service_tuner = self._run(
            vocab, tiny_config, aggregation_executor="service",
            aggregation_workers=2, service_transport="tcp", **knobs)
        for a, b in zip(serial_result.rounds, service_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
        _assert_models_equal(serial_tuner.server.global_model,
                             service_tuner.server.global_model)

    def test_service_resume_matches_uninterrupted(self, vocab, tiny_config,
                                                  tmp_path):
        """Kill+resume through live servers stays bit-identical."""
        knobs = dict(aggregation_executor="service",
                     service_transport="socketpair", aggregation_workers=2,
                     **SHARDED_3TIER)
        server, participants, test, config = build_federation(
            vocab, tiny_config, **knobs)
        expected_tuner = ConstantMethod(server, participants, test, config=config)
        expected = expected_tuner.run(4)

        durable = dict(knobs, checkpoint_every=2, checkpoint_dir=str(tmp_path))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        ConstantMethod(server, participants, test, config=config).run(2)
        snapshot = latest_checkpoint(str(tmp_path))
        assert snapshot is not None

        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        resumed_tuner = ConstantMethod(server, participants, test, config=config)
        resumed = resumed_tuner.run(4, resume_from=snapshot)

        assert resumed.tracker.as_series() == expected.tracker.as_series()
        for got, want in zip(resumed.rounds, expected.rounds):
            assert got.train_loss == want.train_loss
            assert got.metric_value == want.metric_value
            assert got.tier_bytes == want.tier_bytes
        _assert_models_equal(resumed_tuner.server.global_model,
                             expected_tuner.server.global_model)

    def test_backend_is_resumable_across_checkpoints(self, vocab, tiny_config,
                                                     tmp_path):
        """A run checkpointed under one fold backend resumes under another:
        the backends are bit-identical, so the executor fields are in the
        resumable set and must not trip the config-mismatch guard."""
        knobs = dict(num_shards=2, edge_tiers=(2,), participants_per_round=3)
        server, participants, test, config = build_federation(
            vocab, tiny_config, **knobs)
        expected_tuner = ConstantMethod(server, participants, test, config=config)
        expected = expected_tuner.run(4)

        durable = dict(knobs, checkpoint_every=2, checkpoint_dir=str(tmp_path))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)  # checkpointed under serial
        ConstantMethod(server, participants, test, config=config).run(2)
        snapshot = latest_checkpoint(str(tmp_path))

        server, participants, test, config = build_federation(
            vocab, tiny_config, aggregation_executor="service",
            service_transport="socketpair", aggregation_workers=2, **durable)
        resumed_tuner = ConstantMethod(server, participants, test, config=config)
        resumed = resumed_tuner.run(4, resume_from=snapshot)

        for got, want in zip(resumed.rounds, expected.rounds):
            assert got.train_loss == want.train_loss
            assert got.metric_value == want.metric_value
        _assert_models_equal(resumed_tuner.server.global_model,
                             expected_tuner.server.global_model)

    def test_torn_request_then_resume_matches_uninterrupted(self, vocab, tiny_config,
                                                            tmp_path):
        """A server that received a killed run's torn request serves the
        resumed run bit-identically, with no reset: nothing outlives a request."""
        server, participants, test, config = build_federation(
            vocab, tiny_config, **SHARDED_3TIER)
        expected_tuner = ConstantMethod(server, participants, test, config=config)
        expected = expected_tuner.run(4)

        survivor = spawn_server(name="survivor")

        def on_survivor(tuner):
            tuner._aggregation_pool = tuner.server.fold_pool = ServiceAggregationPool(
                addresses=[survivor.address])
            return tuner

        try:
            durable = dict(SHARDED_3TIER, aggregation_executor="service",
                           service_transport="tcp", aggregation_workers=1,
                           checkpoint_every=2, checkpoint_dir=str(tmp_path))
            server, participants, test, config = build_federation(
                vocab, tiny_config, **durable)
            on_survivor(ConstantMethod(server, participants, test, config=config)).run(2)
            # The killed run's last request: its header and half its frames.
            framed = [frame_update(u) for u in _updates(MoETransformer(tiny_config))]
            torn = FrameStream(socket.create_connection(survivor.address))
            torn.send_frames([encode_message(OP_FOLD_SHARD, _fold_header(len(framed))),
                              *framed[:len(framed) // 2]])
            torn.close()

            server, participants, test, config = build_federation(
                vocab, tiny_config, **durable)
            resumed_tuner = on_survivor(ConstantMethod(server, participants, test,
                                                       config=config))
            resumed = resumed_tuner.run(4, resume_from=latest_checkpoint(str(tmp_path)))
        finally:
            survivor.kill()

        assert resumed.tracker.as_series() == expected.tracker.as_series()
        for got, want in zip(resumed.rounds, expected.rounds):
            assert got.train_loss == want.train_loss
            assert got.metric_value == want.metric_value
        _assert_models_equal(resumed_tuner.server.global_model,
                             expected_tuner.server.global_model)


# ------------------------------------------------- compressed service wire
class TestServiceWireCodec:
    """The round's original codec frames are forwarded to the servers
    verbatim (with per-job references for delta codecs), so compressed rounds
    ship compressed service bytes while staying bit-identical to serial."""

    #: ``transport="wire"`` is what stamps each delivered update with its
    #: original codec frame — the bytes the service forwards
    WIRE_KNOBS = dict(SHARDED_3TIER, transport="wire", codec="topk:0.25:int4",
                      aggregation_executor="service",
                      service_transport="socketpair", aggregation_workers=2)

    def _run(self, vocab, tiny_config, **config_kwargs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, **config_kwargs)
        tuner = ConstantMethod(server, participants, test, config=config)
        return tuner.run(2), tuner

    def test_wire_run_matches_serial(self, vocab, tiny_config):
        serial_result, serial_tuner = self._run(
            vocab, tiny_config,
            **dict(SHARDED_3TIER, transport="wire", codec="topk:0.25:int4"))
        wire_result, wire_tuner = self._run(vocab, tiny_config, **self.WIRE_KNOBS)
        for a, b in zip(serial_result.rounds, wire_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
            assert a.edge_bytes == b.edge_bytes
            assert a.tier_bytes == b.tier_bytes
        _assert_models_equal(serial_tuner.server.global_model,
                             wire_tuner.server.global_model)

    def test_wire_saves_service_bytes_and_counts_payloads(self, vocab,
                                                          tiny_config,
                                                          tmp_path):
        """Forwarding topk:int4 frames verbatim must shrink the service wire
        well below what the same run ships with every update fp64-framed (the
        analytic transport: no update carries a frame), with per-codec/
        per-tier/reference counters surfacing exactly what crossed it."""

        def service_bytes(tuner):
            registry = tuner.telemetry.registry
            return sum(c["value"] for c in registry.snapshot()["counters"]
                       if c["name"] == "repro_service_bytes_sent_total")

        _, fp64_tuner = self._run(
            vocab, tiny_config, telemetry=True,
            telemetry_dir=str(tmp_path / "fp64"),
            **dict(self.WIRE_KNOBS, transport="analytic", codec=None))
        _, wire_tuner = self._run(
            vocab, tiny_config, telemetry=True,
            telemetry_dir=str(tmp_path / "wire"), **self.WIRE_KNOBS)

        # Only the leaf fan-in (the bulk at real scale — see the bench's
        # bytes-ratio gate) compresses; inner-tier partials stay fp64.  At
        # this 4-participant scale that still has to show a strict saving.
        assert service_bytes(wire_tuner) < 0.9 * service_bytes(fp64_tuner)
        registry = wire_tuner.telemetry.registry
        assert registry.counter_value("repro_service_frame_bytes_total",
                                      codec="topk:0.25:int4") > 0
        assert registry.counter_value("repro_service_reference_bytes_total") > 0
        # inner-tier folds (tier 1 of the two-tier tree) routed through servers
        assert registry.counter_value("repro_service_tier_folds_total",
                                      tier=1) > 0
        assert registry.counter_value("repro_service_tier_folds_total",
                                      tier=0) > 0

    def test_wire_resume_depth3_matches_uninterrupted(self, vocab, tiny_config,
                                                      tmp_path):
        """Kill+resume through live servers stays bit-identical on a depth-3
        tree with the compressed wire — replayed rounds reship their
        references with the flush, so resumed folds see identical inputs."""
        knobs = dict(self.WIRE_KNOBS, edge_tiers=(2, 2, 2))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **knobs)
        expected_tuner = ConstantMethod(server, participants, test, config=config)
        expected = expected_tuner.run(4)

        durable = dict(knobs, checkpoint_every=2, checkpoint_dir=str(tmp_path))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        ConstantMethod(server, participants, test, config=config).run(2)
        snapshot = latest_checkpoint(str(tmp_path))
        assert snapshot is not None

        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        resumed_tuner = ConstantMethod(server, participants, test, config=config)
        resumed = resumed_tuner.run(4, resume_from=snapshot)

        for got, want in zip(resumed.rounds, expected.rounds):
            assert got.train_loss == want.train_loss
            assert got.metric_value == want.metric_value
            assert got.tier_bytes == want.tier_bytes
        _assert_models_equal(resumed_tuner.server.global_model,
                             expected_tuner.server.global_model)

    def test_unknown_codec_rejected_with_typed_error(self, tiny_config):
        """A fold job frame — update or reference — declaring an unregistered
        codec dies as UnknownCodecError at validation — never a downstream
        decode/pickle failure — and is not retried (the pairing can never work)."""
        server = InProcessServer(name="codec")
        client = ServiceClient(lambda: FrameStream(server.connect()),
                               name="codec", retry_delay_s=0.0)
        try:
            bogus = b"RWP1" + bytes((1, 4)) + b"nope" + b"body-never-reached"
            framed = [frame_update(u) for u in _updates(MoETransformer(tiny_config),
                                                        num_participants=1)]
            with pytest.raises(UnknownCodecError, match="nope"):
                client.fold_shard(0, [bogus])
            with pytest.raises(UnknownCodecError, match="nope"):
                client.prefold_node(0, -1, framed, references={(0, 0): bogus})
            with pytest.raises(ServiceProtocolError, match="not an RWP1"):
                client.fold_shard(0, [b"garbage"])
            assert client.stats["reconnects"] == 0  # fail fast, no replay
        finally:
            client.shutdown()
            server.close()

    def test_hello_negotiation(self):
        """Matching versions ack with server identity; a mismatch is a typed,
        never-retried protocol error (old servers reject the op the same
        way, so incompatible pairs fail on connect, not mid-round)."""
        server = InProcessServer(name="versioned")
        client = ServiceClient(lambda: FrameStream(server.connect()),
                               name="versioned", retry_delay_s=0.0)
        try:
            ack = client.call(OP_HELLO, {"version": PROTOCOL_VERSION})
            assert ack["version"] == PROTOCOL_VERSION
            assert ack["name"] == "versioned"
            with pytest.raises(ServiceProtocolError, match="version"):
                client.call(OP_HELLO, {"version": PROTOCOL_VERSION + 1})
            # a v4 peer sends a staleness per frame in its fold headers
            with pytest.raises(ServiceProtocolError, match="version 4,"):
                client.call(OP_HELLO, {"version": 4})
            # a v5 peer pickles a strategy into every fold header
            with pytest.raises(ServiceProtocolError, match="version 5,"):
                client.call(OP_HELLO, {"version": 5})
            assert client.stats["reconnects"] == 0
        finally:
            client.shutdown()
            server.close()

    def test_a_fold_header_is_ids_count_and_reference_keys(self, tiny_config):
        """The v6 header has no per-frame list besides its frames and names no
        reduction: it folds as sent."""
        server = InProcessServer(name="v6")
        client = ServiceClient(lambda: FrameStream(server.connect()),
                               name="v6", retry_delay_s=0.0)
        framed = [frame_update(u) for u in _updates(MoETransformer(tiny_config),
                                                    num_participants=2)]
        headers, send = [], client._send_request

        def recording(stream, op, body, frames=()):
            if op == OP_FOLD_SHARD:
                headers.append(body)
            return send(stream, op, body, frames)

        client._send_request = recording
        try:
            result, _ = client.fold_shard(0, framed)
            assert [sorted(header) for header in headers] == [
                ["count", "references", "shard", "timed"]]
            assert result == fold.fold_shard_frames(framed)
        finally:
            client.shutdown()
            server.close()


# --------------------------------------------------------- one fold request
class _CutStream(FrameStream):
    """A connection that dies ``cut(ends)`` bytes into the first fold request.

    ``ends`` are the offsets at which the request's header and each of its
    frames end on the stream; ``cut=None`` lets the request through whole and
    dies before its response is read.
    """

    def __init__(self, sock, cut):
        super().__init__(sock)
        self.cut, self.sent_fold = cut, False

    def send_frames(self, payloads):
        if decode_message(payloads[0])[0] not in (OP_FOLD_NODE, OP_FOLD_SHARD):
            return super().send_frames(payloads)
        if self.cut is None:
            self.sent_fold = True
            return super().send_frames(payloads)
        wire = b"".join(LENGTH_PREFIX.pack(len(p)) + bytes(p) for p in payloads)
        ends = [0]
        for payload in payloads:
            ends.append(ends[-1] + LENGTH_PREFIX.size + len(payload))
        self._sock.sendall(wire[:self.cut(ends[1:])])
        self.close()
        raise ConnectionError("connection cut inside the request")

    def recv_frame_view(self):
        if self.sent_fold:
            self.close()
            raise ConnectionError("connection cut before the response")
        return super().recv_frame_view()


def _request_cuts(num_frames):
    """Every boundary of a request of ``num_frames`` frames after its header."""
    yield "after the header", lambda ends: ends[0]
    for k in range(1, num_frames + 1):
        yield f"inside frame {k}", lambda ends, k=k: (ends[k - 1] + ends[k]) // 2
        yield f"after frame {k}", lambda ends, k=k: ends[k]
    yield "before the response", None


def _wire_job(tiny_config, num_participants=2):
    """A delta-coded fold job: its frames and reference frames."""
    model = MoETransformer(tiny_config)
    references = {}
    framed = [fold.frame_update(update, references)
              for update in _wire_updates(model, _updates(model, num_participants))]
    return framed, references


class TestJobFramesAtTheirOwnWidth:
    """What a job carries that did not arrive as a frame travels at the lossless
    codec of its own dtype; what a job returns (float64 fold sums) at fp64."""

    def test_float32_updates_and_references_frame_at_fp32(self, tiny_config):
        model = MoETransformer(tiny_config)
        updates = [ExpertUpdate(update.participant_id, update.layer, update.expert,
                                {name: value.astype(np.float32)
                                 for name, value in update.state.items()}, update.weight)
                   for update in _updates(model, num_participants=2)]
        assert {frame_codec_name(fold.frame_update(update, {}))
                for update in updates} == {"fp32"}
        references = {}
        for update in _wire_updates(model, updates):
            fold.frame_update(update, references)
        assert model.expert_state(0, 0)["w_gate"].dtype == np.float32
        assert {frame_codec_name(frame) for frame in references.values()} == {"fp32"}

    def test_float64_states_and_results_stay_fp64(self, tiny_config):
        model = MoETransformer(tiny_config)
        updates = _updates(model, num_participants=2)        # float64 noisy copies
        framed = [fold.frame_update(update, {}) for update in updates]
        assert {frame_codec_name(frame) for frame in framed} == {"fp64"}
        partials = fold.prefold_node_frames(-1, framed)
        assert {frame_codec_name(frame) for frame in partials} == {"fp64"}
        assert {frame_codec_name(frame) for _, frame, _ in fold.fold_shard_frames(framed)} \
            == {"fp64"}


class TestFoldRequest:
    """A fold job is one request: dropped anywhere, it is resent whole, and
    a rejected one leaves the connection at a request boundary."""

    def _client(self, server, connect=None):
        return ServiceClient(connect or (lambda: FrameStream(server.connect())),
                             name=server.server.name, retry_delay_s=0.0)

    @pytest.mark.parametrize("kind", ["shard", "node"])
    def test_drop_at_every_boundary_resends_bit_equal(self, tiny_config, kind):
        framed, references = _wire_job(tiny_config)
        server = InProcessServer(name=f"cut-{kind}")

        def fold(client):
            if kind == "shard":
                return client.fold_shard(3, framed, references=references)
            return client.prefold_node(1, -2, framed, references=references)

        try:
            baseline = self._client(server)
            expected, _ = fold(baseline)
            baseline.close()
            cuts = list(_request_cuts(len(framed) + len(references)))
            assert len(cuts) == 2 * (len(framed) + len(references)) + 2
            for where, cut in cuts:
                dials = iter([lambda: _CutStream(server.connect(), cut)])
                client = self._client(server, lambda: next(
                    dials, lambda: FrameStream(server.connect()))())
                try:
                    result, _ = fold(client)
                    assert result == expected, where
                    assert client.stats["retried_rounds"] == 1, where
                    assert client.stats["connections"] == 2, where
                finally:
                    client.close()
        finally:
            server.close()

    def test_sigkill_mid_request_respawns_and_resends(self, tiny_config):
        """SIGKILL of a spawned server after the header and half the frames
        were written heals by respawn + resend, bit-identically."""
        framed, references = _wire_job(tiny_config)
        pool = ServiceAggregationPool(1, transport="tcp", retry_delay_s=0.01)
        try:
            expected = pool.fold_shards([(0, framed, references)])
            client = pool._clients[0]
            real_send = client._send_request
            killed = []

            def killer_send(stream, op, body, frames=()):
                if op != OP_FOLD_SHARD or killed:
                    return real_send(stream, op, body, frames)
                half = len(frames) // 2
                stream.send_frames([encode_message(op, body), *frames[:half]])
                killed.append(pool._servers[0].process.pid)
                pool._servers[0].kill()
                stream.send_frames(frames[half:])

            client._send_request = killer_send
            healed = pool.fold_shards([(0, framed, references)])
            assert killed and pool._servers[0].process.pid != killed[0]
            assert healed == expected
            assert client.stats["retried_rounds"] == 1
        finally:
            pool.close()

    def test_fold_call_costs_one_request_per_job(self, tiny_config):
        """N jobs are N requests after the handshake, whatever their size."""
        registry = MetricsRegistry()
        pool = ServiceAggregationPool(1, transport="socketpair")
        pool.bind_telemetry(SimpleNamespace(registry=registry))
        framed = [frame_update(u) for u in _updates(MoETransformer(tiny_config))]
        assert len(framed) > 32  # more than one chunk of the old ADD stream

        def requests():
            return registry.counter_value("repro_service_requests_total",
                                          server="server0")

        try:
            pool.fold_shards([(shard, framed, {}) for shard in range(3)])
            assert requests() == 1 + 3  # HELLO, then one request a job
            pool.prefold_nodes([(node, -1 - node, framed, {}) for node in range(2)])
            assert requests() == 1 + 3 + 2
        finally:
            pool.close()

    def test_rejected_job_leaves_the_client_usable(self, tiny_config):
        """A job the server rejects is answered after all its frames are read,
        and the client drops the connection: the next request gets its own
        answer, not a stale one."""
        server = InProcessServer(name="rejected")
        client = self._client(server)
        try:
            bogus = b"RWP1" + bytes((1, 4)) + b"nope" + b"body-never-reached"
            with pytest.raises(UnknownCodecError, match="nope"):
                client.fold_shard(0, [bogus] * 100)
            assert client.call(OP_PING)["name"] == "rejected"
        finally:
            client.shutdown()
            server.close()

    def test_server_answers_after_reading_the_announced_frames(self, tiny_config):
        """Unknown codec, bad count, fold error: OP_ERR, and the connection
        stays at a request boundary; an undecodable header closes it."""
        server = InProcessServer(name="raw")
        updates = _updates(MoETransformer(tiny_config), num_participants=1)
        frames = [frame_update(u) for u in updates]
        for update in updates:
            update.weight = 0.0
        weightless = [frame_update(u) for u in updates]
        bogus = b"RWP1" + bytes((1, 4)) + b"nope" + b"body-never-reached"
        stream = FrameStream(server.connect())

        def request(op, body, frames=()):
            stream.send_frames([encode_message(op, body), *frames])
            return decode_message(stream.recv_frame())

        try:
            for body, sent, error in (
                    (_fold_header(3), [frames[0], bogus, frames[1]], "UnknownCodecError"),
                    (dict(_fold_header(0), count=-2), [], "ServiceProtocolError"),
                    (_fold_header(len(weightless)), weightless, "ValueError")):
                op, answer = request(OP_FOLD_SHARD, body, sent)
                assert (op, answer["type"]) == (OP_ERR, error)
                assert request(OP_PING, None)[0] == OP_OK
            op, answer = request(OP_FOLD_SHARD, _fold_header(len(frames)), frames)
            assert op == OP_OK and answer["result"]
            stream.send_frame(b"RWS1" + bytes((OP_FOLD_SHARD,)) + b"torn pickle")
            assert stream.recv_frame() is None  # closed, nothing answered
        finally:
            stream.close()
            server.close()


# ------------------------------------------------------------------- failover
class TestServiceFailover:
    def test_killed_server_mid_round_heals_by_respawn_and_replay(self, tiny_config):
        registry = MetricsRegistry()

        class FakeTelemetry:
            pass

        telemetry = FakeTelemetry()
        telemetry.registry = registry
        pool = ServiceAggregationPool(1, transport="tcp", retry_delay_s=0.01)
        pool.bind_telemetry(telemetry)
        try:
            model = MoETransformer(tiny_config)
            framed = [frame_update(u) for u in _updates(model, num_participants=3)]
            expected = pool.fold_shards([(0, framed, {})])
            pool._servers[0].kill()
            healed = pool.fold_shards([(0, framed, {})])
            assert healed == expected
            assert registry.counter_value("repro_service_respawns_total",
                                          server="server0") == 1
            assert registry.counter_value("repro_service_reconnects_total",
                                          server="server0") >= 1
            assert registry.counter_value("repro_service_retried_rounds_total",
                                          server="server0") == 1
        finally:
            pool.close()

    def test_unreachable_server_exhausts_retries(self):
        def refuse():
            raise ConnectionRefusedError("nobody home")

        client = ServiceClient(refuse, name="ghost", retry_attempts=3,
                               retry_delay_s=0.0)
        with pytest.raises(ServiceUnavailableError, match="3 attempt"):
            client.call(OP_PING)
        assert client.stats["reconnects"] == 2  # attempts after the first


# ------------------------------------------------------------------ telemetry
class TestServiceTelemetry:
    def test_run_emits_service_metrics_and_fold_spans(self, vocab, tiny_config,
                                                      tmp_path):
        server, participants, test, config = build_federation(
            vocab, tiny_config, aggregation_executor="service",
            service_transport="socketpair", aggregation_workers=2,
            telemetry=True, telemetry_dir=str(tmp_path), **SHARDED_3TIER)
        tuner = ConstantMethod(server, participants, test, config=config)
        tuner.run(2)
        registry = tuner.telemetry.registry
        sent = sum(counter["value"] for counter in registry.snapshot()["counters"]
                   if counter["name"] == "repro_service_bytes_sent_total")
        assert sent > 0
        assert registry.counter_value("repro_service_folds_total",
                                      kind="shard") > 0
        assert registry.counter_value("repro_service_folds_total",
                                      kind="node") > 0
        assert registry.counter_value("repro_service_connections_total",
                                      server="server0") >= 1
        events = (tmp_path / "trace.jsonl").read_text()
        assert '"transport":"service"' in events
        assert "fold_shard" in events and "prefold_node" in events


# ------------------------------------------------------------------ machinery
class TestServiceMachinery:
    def test_make_aggregation_pool_from_config(self):
        assert make_aggregation_pool(RunConfig()) is None
        pool = make_aggregation_pool(RunConfig(
            aggregation_executor="service", aggregation_workers=3,
            service_transport="socketpair", service_retry_attempts=5,
            service_retry_delay_s=0.2, service_timeout_s=7.0))
        assert isinstance(pool, ServiceAggregationPool)
        assert pool.num_servers == 3
        assert pool.transport == "socketpair"
        assert pool.retry_attempts == 5
        assert pool.retry_delay_s == 0.2
        assert pool.timeout_s == 7.0
        pool.close()  # never started: close is a no-op

    def test_config_validates_service_knobs(self):
        with pytest.raises(ValueError, match="service transport"):
            RunConfig(service_transport="carrier-pigeon")
        with pytest.raises(ValueError, match="retry_attempts"):
            RunConfig(service_retry_attempts=0)
        with pytest.raises(ValueError, match="retry_delay"):
            RunConfig(service_retry_delay_s=-1.0)
        with pytest.raises(ValueError, match="timeout"):
            RunConfig(service_timeout_s=0.0)
        with pytest.raises(ValueError, match="aggregation executor"):
            RunConfig(aggregation_executor="carrier-pigeon")

    def test_pool_validates_construction(self):
        with pytest.raises(ValueError, match="transport"):
            ServiceAggregationPool(transport="smoke-signals")
        with pytest.raises(ValueError, match="addresses"):
            ServiceAggregationPool(transport="socketpair",
                                   addresses=[("localhost", 1)])
        with pytest.raises(ValueError, match="at least one"):
            ServiceAggregationPool(addresses=[])
        with pytest.raises(ValueError, match="disagrees"):
            ServiceAggregationPool(3, addresses=[("localhost", 1)])
        with pytest.raises(ValueError, match="positive"):
            ServiceAggregationPool(0)
        assert ServiceAggregationPool(
            addresses=[("h", 1), ("h", 2)]).num_servers == 2

    def test_close_idempotent_and_lazily_restarts(self, tiny_config):
        pool = ServiceAggregationPool(1, transport="socketpair")
        model = MoETransformer(tiny_config)
        framed = [frame_update(u) for u in _updates(model, num_participants=2)]
        first = pool.fold_shards([(0, framed, {})])
        pool.close()
        pool.close()
        again = pool.fold_shards([(0, framed, {})])  # fresh servers
        assert again == first
        pool.close()

    def test_close_drains_a_server_that_never_folded(self, tiny_config):
        """Only server0 gets a job; server1's client dials its first
        connection inside close(), to deliver the shutdown."""
        model = MoETransformer(tiny_config)
        framed = [frame_update(u) for u in _updates(model, num_participants=1)]
        before = set(threading.enumerate())
        pool = ServiceAggregationPool(2, transport="socketpair")
        pool.fold_shards([(0, framed, {})])
        assert pool._clients[1].stats["connections"] == 0
        pool.close()
        assert set(threading.enumerate()) <= before

    def test_results_keep_job_order_across_servers(self, tiny_config,
                                                   service_pool):
        model = MoETransformer(tiny_config)
        framed = [frame_update(u) for u in _updates(model, num_participants=2)]
        jobs = [(shard, framed, {}) for shard in (5, 2, 9, 0)]
        results = service_pool.fold_shards(jobs)
        assert [shard for shard, _ in results] == [5, 2, 9, 0]
        folded = results[0][1]
        assert all(result == folded for _, result in results)

    def test_in_process_servers_fold_on_the_calling_thread(self, tiny_config):
        """Socketpair servers share the caller's GIL, so no dispatch pool is
        started for them: the only extra threads are the server loops, and
        every client call of a fold runs on the thread that asked for it."""
        model = MoETransformer(tiny_config)
        framed = [frame_update(u) for u in _updates(model, num_participants=2)]
        jobs = [(shard, framed, {}) for shard in (0, 1, 2, 3)]
        pool = ServiceAggregationPool(2, transport="socketpair")
        callers = set()
        before = set(threading.enumerate())
        try:
            pool._ensure_started()
            for client in pool._clients:
                original = client.fold_shard

                def recording(*args, _original=original, **kwargs):
                    callers.add(threading.current_thread())
                    return _original(*args, **kwargs)

                client.fold_shard = recording
            results = pool.fold_shards(jobs)
            names = [thread.name for thread in set(threading.enumerate()) - before]
        finally:
            pool.close()
        assert callers == {threading.current_thread()}
        assert sorted(names) == ["repro-service-server0", "repro-service-server1"]
        assert [shard for shard, _ in results] == [0, 1, 2, 3]

    def test_in_process_close_shuts_open_connections(self):
        """close() does not wait on a client that keeps its connection open,
        and a closed in-process server serves the next connection."""
        server = InProcessServer(name="open")
        client = ServiceClient(lambda: FrameStream(server.connect()),
                               name="open", retry_delay_s=0.0)
        try:
            client.call(OP_PING)
            started = time.perf_counter()
            server.close()
            assert time.perf_counter() - started < 1.0
            assert "repro-service-open" not in {t.name for t in threading.enumerate()}
            assert client.call(OP_PING)["name"] == "open"
            assert client.stats["reconnects"] == 1
        finally:
            client.close()
            server.close()


# ---------------------------------------------------------------- server loop
class TestServerLoop:
    """One blocking FrameStream loop per connection; requests under one lock."""

    @staticmethod
    def _tcp(server):
        runner = threading.Thread(target=server.run_forever, daemon=True)
        server.listen()
        runner.start()
        client = ServiceClient(
            lambda: FrameStream(socket.create_connection((server.host, server.port))),
            name=server.name, retry_delay_s=0.0)
        return runner, client

    def test_accepted_tcp_sockets_set_nodelay(self):
        server = AggregatorServer(name="nodelay")
        nodelay, serve = [], server.serve_connection

        def recording(sock):
            nodelay.append(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            serve(sock)

        server.serve_connection = recording
        runner, client = self._tcp(server)
        try:
            client.call(OP_PING)
        finally:
            client.shutdown()
            runner.join(timeout=10)
        assert not runner.is_alive()
        assert nodelay and all(nodelay)

    def test_shutdown_is_acked_before_its_connection_closes(self):
        """The ack comes first, then the listener closes and accept() wakes."""
        server = AggregatorServer(name="acked")
        runner, client = self._tcp(server)
        try:
            client.call(OP_PING)
            client.shutdown()
            runner.join(timeout=10)
        finally:
            server.stop()
        assert not runner.is_alive()
        assert client.stats["reconnects"] == 0
        assert client.stats["requests"] == 3  # HELLO, PING, SHUTDOWN: all answered

    def test_connections_fold_one_at_a_time(self, tiny_config, monkeypatch):
        """Folds from several connections never overlap, and no server
        counter loses an update (more client threads than cores, a short
        switch interval)."""
        framed = [frame_update(u) for u in _updates(MoETransformer(tiny_config),
                                                    num_participants=1)]
        expected = fold.fold_shard_frames(framed)
        active, peak = [0], [0]
        fold_shard_frames = service_server.fold_shard_frames

        def counting(*args, **kwargs):
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            try:
                time.sleep(0.002)  # let the other connections in, if they may
                return fold_shard_frames(*args, **kwargs)
            finally:
                active[0] -= 1

        monkeypatch.setattr(service_server, "fold_shard_frames", counting)
        server = InProcessServer(name="serial")
        clients = [ServiceClient(lambda: FrameStream(server.connect()),
                                 name="serial", retry_delay_s=0.0) for _ in range(4)]
        results, errors = [], []

        def work(client):
            try:
                for _ in range(5):
                    results.append(client.fold_shard(0, framed)[0])
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(c,)) for c in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = clients[0].call(OP_STATS)
        finally:
            sys.setswitchinterval(interval)
            for client in clients:
                client.close()
            server.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert peak[0] == 1
        assert results == [expected] * 20
        assert stats["connections_total"] == 4
        assert stats["rounds_folded"] == 20
        assert stats["requests_total"] == 4 + 20 + 1  # HELLOs, folds, this STATS
        assert stats["frames_received"] == 20 * len(framed)
