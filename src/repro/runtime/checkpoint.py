"""Durable run-state checkpointing for federated fine-tuning runs.

A production federation of millions of participants cannot afford to restart
from round zero when the coordinator dies.  This layer extends the model
checkpointing in :mod:`repro.models.checkpoint` to the *whole run*: every K
rounds it snapshots

* the parameter server — global model parameters (as a standard ``.npz``
  model checkpoint) plus round index and contribution counts;
* the :class:`~repro.metrics.PerformanceTracker` history, the
  :class:`~repro.systems.RunTimeline` and the completed
  :class:`~repro.federated.RoundResult` list;
* every RNG stream a continuing round will draw from — the tuner's run RNG
  (bit-generator state), each participant's batch-shuffling seed, and each
  wire channel's payload sequence position (the fault injectors themselves
  are stateless: their draws are keyed on ``(seed, round, participant)``);
* the simulated clock, method-level extras
  (:meth:`~repro.federated.FederatedFineTuner.export_run_state` — e.g.
  Flux's role-assignment RNG), and the scheduler's cross-round position
  (for the asynchronous scheduler: the in-flight event queue and buffer).

``FederatedFineTuner.run(num_rounds, resume_from=<checkpoint dir>)`` restores
all of it and continues, producing a :class:`~repro.federated.RunResult`
identical to an uninterrupted run — test-enforced for every scheduler.

On-disk layout: one directory per snapshot (``round_00004/``) holding
``model.npz`` and ``run_state.pkl``.  The pickle is written last and moved
into place atomically, so a snapshot directory containing ``run_state.pkl``
is always complete; :func:`latest_checkpoint` ignores anything else.

Two cost levers keep frequent snapshots off the round loop's critical path:

* **Delta snapshots** (``delta_every=K``): instead of a full ``model.npz``,
  a snapshot may hold ``model.delta`` — an exact ``sparse-delta`` codec frame
  against the *previous* snapshot's model, named by a ``delta_base`` file.
  Every K-th snapshot (and the first of every process) is full, bounding the
  resume chain; loading walks the chain back to the full base and replays the
  deltas forward, bit-identically.
* **Background writes** (``background=True``): :meth:`RunCheckpointer.save`
  captures the run state synchronously (cheap copies + one pickle), then
  encodes and writes on a single-outstanding writer thread, joining before
  the next save.  Marker-last semantics are preserved, so a crash mid-write
  still leaves only torn (ignorable) directories.
"""

from __future__ import annotations

import os
import pickle
import re
import shutil
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from ..models.checkpoint import (
    load_checkpoint_state,
    load_state_delta,
    save_state_checkpoint,
    save_state_delta,
)

#: v2: the flat ``edge_channels`` list became a ``topology`` snapshot (tree
#: shape + grouping + per-tier channel positions)
CHECKPOINT_VERSION = 2
MODEL_FILE = "model.npz"
MODEL_DELTA_FILE = "model.delta"
DELTA_BASE_FILE = "delta_base"
STATE_FILE = "run_state.pkl"
_ROUND_DIR = re.compile(r"^round_(\d+)$")

#: config fields a resumed run may legitimately change — everything else must
#: match the snapshot exactly, or the continuation would silently diverge
#: from the uninterrupted run.  All of these are purely operational:
#: snapshot cadence/location/retention, snapshot encoding (full vs delta,
#: foreground vs background), telemetry output, and the aggregation fold
#: executor (serial and the socket service are bit-identical, test-enforced —
#: so a run checkpointed under one, or under the removed "process" pool, may
#: resume under another) cannot affect run results.
_RESUMABLE_CONFIG_FIELDS = frozenset(
    {"checkpoint_every", "checkpoint_dir", "checkpoint_keep_last",
     "checkpoint_delta_every", "checkpoint_async",
     "telemetry", "telemetry_dir",
     "aggregation_executor", "aggregation_workers",
     "service_transport", "service_retry_attempts",
     "service_retry_delay_s", "service_timeout_s", "service_log_dir"})

#: ``RunConfig`` fields of older trees that no longer exist.  None of them
#: changed a run's bits (buffered == streaming FedAvg, every service payload
#: mode and the participant process pool == the serial loop were
#: test-enforced equal when they were removed), so a saved config that
#: carries them still resumes: they are dropped from the saved side, and
#: ``num_edge_aggregators=n`` is first re-spelt ``edge_tiers=(n,)``.  A
#: retired strategy is re-spelt too: ``aggregation="staleness_fedavg"`` was
#: FedAvg under every scheduler that accepted it.
_RETIRED_CONFIG_FIELDS = frozenset(
    {"streaming_aggregation", "service_codec", "service_window",
     "num_edge_aggregators", "executor", "executor_workers"})


def _config_snapshot(config) -> Dict:
    """The run-affecting slice of a ``RunConfig`` as a comparable dict.

    Applied to the *current* config at capture time and re-applied to the
    *saved* snapshot at resume time, so checkpoints written before a field
    joined ``_RESUMABLE_CONFIG_FIELDS`` — or before it was retired — stay
    loadable (the stale key is filtered out of the comparison).
    """
    items = dict(config if isinstance(config, dict) else asdict(config))
    if items.get("num_edge_aggregators") and items.get("edge_tiers") is None:
        items["edge_tiers"] = (int(items["num_edge_aggregators"]),)
    if items.get("aggregation") == "staleness_fedavg":
        items["aggregation"] = "fedavg"
    return {key: value for key, value in items.items()
            if key not in _RESUMABLE_CONFIG_FIELDS
            and key not in _RETIRED_CONFIG_FIELDS}


def _config_mismatches(saved: Dict, current: Dict) -> List[str]:
    mismatched = []
    for key in sorted(set(saved) | set(current)):
        saved_value, current_value = saved.get(key), current.get(key)
        try:
            same = bool(saved_value == current_value)
        except (ValueError, TypeError):  # e.g. array-valued traces
            same = repr(saved_value) == repr(current_value)
        if not same:
            mismatched.append(key)
    return mismatched


@dataclass
class RunCheckpointCapture:
    """A snapshot's full content, captured synchronously on the round loop.

    The run state is pickled at capture time (the tracker, timeline and round
    list keep mutating as the run continues) and the model parameters are
    copied, so encoding and file IO can happen later — possibly on a
    background thread — without racing the live run.
    """

    state_bytes: bytes
    model_state: Dict[str, np.ndarray]
    model_config: object


def capture_run_checkpoint(tuner, scheduler, tracker, run_timeline,
                           rounds: List) -> RunCheckpointCapture:
    """Capture everything :func:`write_run_checkpoint` needs, copy-safely."""
    state = {
        "version": CHECKPOINT_VERSION,
        "method": tuner.name,
        "scheduler": scheduler.name,
        "next_round": len(rounds),
        "server": tuner.server.export_state(),
        "tracker": tracker,
        "run_timeline": run_timeline,
        "rounds": list(rounds),
        "rng_state": tuner._rng.bit_generator.state,
        "clock": tuner.clock.now(),
        "participants": {
            participant.participant_id:
                tuner.export_participant_state(participant.participant_id)
            for participant in tuner.participants
        },
        "channels": tuner.export_channel_states(),
        # Tree shape, grouping policy and every tier's channel positions; the
        # tree itself holds no cross-round fold state (partials are per-round
        # and checkpoints land between rounds), so this plus the RunConfig
        # snapshot is the whole topology.
        "topology": (
            tuner.topology.export_state()
            if getattr(tuner, "topology", None) is not None else None),
        "run_config": _config_snapshot(tuner.config),
        "tuner_extra": tuner.export_run_state(),
        "scheduler_state": scheduler.export_state(),
    }
    model = tuner.server.global_model
    model_state = {key: np.array(value, copy=True)
                   for key, value in model.state_dict().items()}
    return RunCheckpointCapture(pickle.dumps(state), model_state, model.config)


def write_run_checkpoint(directory: str, capture: RunCheckpointCapture, *,
                         delta_base: Optional[str] = None,
                         delta_reference: Optional[Dict[str, np.ndarray]] = None
                         ) -> str:
    """Persist a captured snapshot into ``directory`` and return it.

    With ``delta_base``/``delta_reference`` set, the model is written as a
    ``model.delta`` sparse-delta frame against ``delta_reference`` (the model
    state of the sibling snapshot named by ``delta_base``) instead of a full
    ``model.npz``.
    """
    if (delta_base is None) != (delta_reference is None):
        raise ValueError(
            "delta snapshots need both the base directory name and the base "
            "model state")
    os.makedirs(directory, exist_ok=True)
    # Re-saving into an existing snapshot (a resumed-from-older-round run
    # reaching this round again) must not leave a half-rewritten model beside
    # a stale-but-complete state file: drop the completeness marker first,
    # then clear whichever model flavour (full or delta) the directory held
    # before — it may differ from the one about to be written and would
    # shadow it — then write through temp files + atomic renames.
    state_path = os.path.join(directory, STATE_FILE)
    if os.path.exists(state_path):
        os.remove(state_path)
    for stale in (MODEL_FILE, MODEL_DELTA_FILE, DELTA_BASE_FILE):
        stale_path = os.path.join(directory, stale)
        if os.path.exists(stale_path):
            os.remove(stale_path)
    if delta_reference is not None:
        save_state_delta(capture.model_state, delta_reference,
                         os.path.join(directory, MODEL_DELTA_FILE))
        base_tmp = os.path.join(directory, DELTA_BASE_FILE + ".tmp")
        with open(base_tmp, "w", encoding="ascii") as handle:
            handle.write(delta_base)
        os.replace(base_tmp, os.path.join(directory, DELTA_BASE_FILE))
    else:
        model_tmp = save_state_checkpoint(
            capture.model_state, capture.model_config,
            os.path.join(directory, "model.tmp.npz"))
        os.replace(model_tmp, os.path.join(directory, MODEL_FILE))
    # Write-then-rename: the state file names a complete snapshot, so a crash
    # mid-save leaves a directory that loaders and `latest_checkpoint` reject
    # rather than a torn checkpoint.
    tmp_path = state_path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(capture.state_bytes)
    os.replace(tmp_path, state_path)
    return directory


def save_run_checkpoint(directory: str, tuner, scheduler, tracker,
                        run_timeline, rounds: List) -> str:
    """Write one complete (full-model) run snapshot into ``directory``."""
    return write_run_checkpoint(
        directory,
        capture_run_checkpoint(tuner, scheduler, tracker, run_timeline, rounds))


def _delta_base_of(path: str) -> Optional[str]:
    """The sibling snapshot directory ``path``'s delta references, if any."""
    base_file = os.path.join(path, DELTA_BASE_FILE)
    if not os.path.exists(base_file):
        return None
    with open(base_file, "r", encoding="ascii") as handle:
        name = handle.read().strip()
    if not name or os.path.sep in name:
        raise ValueError(f"corrupt delta-base reference in {base_file!r}")
    return os.path.join(os.path.dirname(path), name)


def _load_model_state(path: str) -> Dict[str, np.ndarray]:
    """Model state of the snapshot at ``path``, resolving delta chains.

    Walks ``delta_base`` links back to the nearest full ``model.npz`` and
    replays the sparse deltas forward — bit-identical to the state the full
    snapshot would have held.
    """
    chain: List[str] = []
    seen = set()
    current = path
    while True:
        model_path = os.path.join(current, MODEL_FILE)
        if os.path.exists(model_path):
            _, state = load_checkpoint_state(model_path)
            break
        delta_path = os.path.join(current, MODEL_DELTA_FILE)
        base = _delta_base_of(current)
        if base is None or not os.path.exists(delta_path):
            raise FileNotFoundError(
                f"snapshot at {current!r} has neither {MODEL_FILE} nor a "
                f"{MODEL_DELTA_FILE}/{DELTA_BASE_FILE} pair")
        if current in seen:
            raise ValueError(
                f"delta-checkpoint chain starting at {path!r} contains a cycle")
        seen.add(current)
        if not os.path.exists(os.path.join(base, STATE_FILE)):
            raise FileNotFoundError(
                f"delta snapshot {current!r} references base {base!r}, which "
                "is missing or torn")
        chain.append(delta_path)
        current = base
    for delta_path in reversed(chain):
        state = load_state_delta(delta_path, reference=state)
    return state


def load_run_checkpoint(path: str) -> Dict:
    """Read a snapshot directory back into memory (no tuner mutation yet)."""
    state_path = os.path.join(path, STATE_FILE)
    if not os.path.exists(state_path):
        raise FileNotFoundError(
            f"no complete run checkpoint at {path!r} (missing {STATE_FILE})")
    with open(state_path, "rb") as handle:
        state = pickle.load(handle)
    if state.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported run-checkpoint version {state.get('version')!r} "
            f"(expected {CHECKPOINT_VERSION})")
    state["model_state"] = _load_model_state(path)
    return state


def restore_run_state(tuner, scheduler, checkpoint: Dict) -> Dict:
    """Mutate ``tuner``/``scheduler`` back to the snapshot and return the
    resume bundle :meth:`~repro.runtime.scheduler.Scheduler.run` consumes."""
    if checkpoint["method"] != tuner.name:
        raise ValueError(
            f"checkpoint was written by method {checkpoint['method']!r}; "
            f"cannot resume a {tuner.name!r} run from it")
    if checkpoint["scheduler"] != scheduler.name:
        raise ValueError(
            f"checkpoint was written under the {checkpoint['scheduler']!r} "
            f"scheduler; this run uses {scheduler.name!r}")
    mismatched = _config_mismatches(_config_snapshot(checkpoint["run_config"]),
                                    _config_snapshot(tuner.config))
    if mismatched:
        raise ValueError(
            "checkpoint was written under a different RunConfig; resuming "
            "would silently diverge from the uninterrupted run (differing "
            f"fields: {', '.join(mismatched)})")
    tuner.server.global_model.load_state_dict(checkpoint["model_state"])
    tuner.server.import_state(checkpoint["server"])
    tuner._rng = np.random.default_rng()
    tuner._rng.bit_generator.state = checkpoint["rng_state"]
    tuner.clock._now = float(checkpoint["clock"])
    for participant_id, participant_state in checkpoint["participants"].items():
        tuner.import_participant_state(participant_id, participant_state)
    tuner.import_channel_states(checkpoint["channels"])
    topology_state = checkpoint["topology"]
    if topology_state is not None:
        topology = getattr(tuner, "topology", None)
        if topology is None:
            raise ValueError(
                "checkpoint carries an aggregation-topology snapshot "
                f"(tiers {tuple(topology_state['tiers'])}) but the resuming "
                "tuner has a flat topology")
        topology.import_state(topology_state)
    tuner.import_run_state(checkpoint["tuner_extra"])
    scheduler.restore_state(checkpoint["scheduler_state"], tuner)
    return {
        "tracker": checkpoint["tracker"],
        "run_timeline": checkpoint["run_timeline"],
        "rounds": checkpoint["rounds"],
        "next_round": checkpoint["next_round"],
    }


def prune_checkpoints(directory: str, keep_last: int) -> List[str]:
    """Remove all but the ``keep_last`` newest complete snapshots; return removals.

    Retention counts *complete* snapshots (those with a ``run_state.pkl``
    completeness marker), newest round number first.  Marker-less torn
    directories — the residue of a crash mid-save — are always pruned: they
    can never be resumed from and would otherwise accumulate forever.  Call
    only after a successful marker-last save, so the snapshot just written is
    itself complete and therefore always survives.

    A retained *delta* snapshot is only resumable while its base chain is on
    disk, so the ``delta_base`` links of every retained snapshot are followed
    and the (transitive) bases survive too, even beyond ``keep_last``.
    Snapshots without delta links — the historical layout — rotate exactly as
    before.
    """
    if keep_last < 1 or not os.path.isdir(directory):
        return []
    complete: List[tuple] = []
    torn: List[str] = []
    for name in os.listdir(directory):
        match = _ROUND_DIR.match(name)
        if match is None:
            continue
        path = os.path.join(directory, name)
        if os.path.exists(os.path.join(path, STATE_FILE)):
            complete.append((int(match.group(1)), path))
        else:
            torn.append(path)
    complete.sort(reverse=True)
    keep = {path for _, path in complete[:keep_last]}
    frontier = list(keep)
    while frontier:
        try:
            base = _delta_base_of(frontier.pop())
        except ValueError:
            continue  # corrupt link: nothing resolvable to protect
        if (base is not None and base not in keep
                and os.path.exists(os.path.join(base, STATE_FILE))):
            keep.add(base)
            frontier.append(base)
    removed = torn + [path for _, path in complete if path not in keep]
    for path in removed:
        shutil.rmtree(path)
    return sorted(removed)


def latest_checkpoint(directory: str) -> Optional[str]:
    """The most recent complete snapshot under ``directory`` (or ``None``)."""
    if not os.path.isdir(directory):
        return None
    best: Optional[str] = None
    best_round = -1
    for name in os.listdir(directory):
        match = _ROUND_DIR.match(name)
        if match is None:
            continue
        candidate = os.path.join(directory, name)
        if not os.path.exists(os.path.join(candidate, STATE_FILE)):
            continue  # torn snapshot from a crash mid-save
        if int(match.group(1)) > best_round:
            best_round = int(match.group(1))
            best = candidate
    return best


@dataclass
class CheckpointRecord:
    """One completed snapshot write, for telemetry."""

    path: str
    duration_s: float
    mode: str  # "full" | "delta"
    write: str  # "foreground" | "background"


@dataclass
class RunCheckpointer:
    """Policy object: snapshot the run every ``every`` completed rounds.

    ``keep_last=K`` rotates old snapshots: after each successful (marker-last)
    save, everything but the K newest complete ``round_*`` directories is
    pruned — torn marker-less directories included, delta-chain bases of
    retained snapshots excepted.  ``0`` keeps every snapshot (the historical
    behaviour).

    ``delta_every=K`` writes up to K consecutive delta snapshots (each against
    the previous one) between full snapshots; the first save of every process
    is always full, so resume chains never cross a restart.  ``0`` writes only
    full snapshots.

    ``background=True`` moves encoding and file IO to a writer thread with a
    single outstanding write: :meth:`save` captures the run state and returns;
    the write lands before the next save (or :meth:`finish`).  Writer errors
    re-raise on the round loop at the next :meth:`save`/:meth:`finish`.
    """

    directory: str
    every: int
    keep_last: int = 0
    delta_every: int = 0
    background: bool = False

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("checkpoint interval must be positive")
        if not self.directory:
            raise ValueError("a checkpoint directory is required")
        if self.keep_last < 0:
            raise ValueError("keep_last must be non-negative")
        if self.delta_every < 0:
            raise ValueError("delta_every must be non-negative")
        self._since_full = 0
        self._last_path: Optional[str] = None
        self._last_model_state: Optional[Dict[str, np.ndarray]] = None
        self._thread: Optional[threading.Thread] = None
        self._errors: List[BaseException] = []
        self._records: List[CheckpointRecord] = []
        self._lock = threading.Lock()

    def due(self, rounds_completed: int) -> bool:
        return rounds_completed > 0 and rounds_completed % self.every == 0

    def path_for(self, rounds_completed: int) -> str:
        return os.path.join(self.directory, f"round_{rounds_completed:05d}")

    def save(self, tuner, scheduler, tracker, run_timeline, rounds: List) -> str:
        self.finish()  # single outstanding write; also surfaces writer errors
        path = self.path_for(len(rounds))
        make_delta = (self.delta_every > 0
                      and self._last_model_state is not None
                      and self._since_full < self.delta_every)
        capture = capture_run_checkpoint(tuner, scheduler, tracker,
                                         run_timeline, rounds)
        reference = self._last_model_state if make_delta else None
        base_name = (os.path.basename(self._last_path) if make_delta else None)
        mode = "delta" if make_delta else "full"
        # This snapshot's captured model becomes the next delta's reference.
        self._last_model_state = capture.model_state
        self._last_path = path
        self._since_full = self._since_full + 1 if make_delta else 0
        start = time.perf_counter()

        def write() -> None:
            write_run_checkpoint(path, capture, delta_base=base_name,
                                 delta_reference=reference)
            if self.keep_last:
                prune_checkpoints(self.directory, self.keep_last)
            with self._lock:
                self._records.append(CheckpointRecord(
                    path, time.perf_counter() - start, mode,
                    "background" if self.background else "foreground"))

        if self.background:
            def job() -> None:
                try:
                    write()
                except BaseException as error:  # surfaced by finish()
                    with self._lock:
                        self._errors.append(error)

            self._thread = threading.Thread(
                target=job, name="checkpoint-writer", daemon=True)
            self._thread.start()
        else:
            write()
        return path

    def finish(self) -> None:
        """Block until any in-flight background write has landed.

        Re-raises (once) an error the writer thread hit, so a failed save
        surfaces on the round loop instead of vanishing with the thread.
        """
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        with self._lock:
            errors, self._errors = list(self._errors), []
        if errors:
            raise errors[0]

    def drain_records(self) -> List[CheckpointRecord]:
        """Completed-write records since the last drain (telemetry feed)."""
        with self._lock:
            records, self._records = list(self._records), []
        return records
