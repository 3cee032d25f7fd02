"""Outside-in per-layer tracing for the end-to-end benchmark.

The program is not edited: each public callable named in :data:`SITES` is
replaced, for the length of one traced run, by a timing proxy.  A method is
swapped on its class; a module-level function is swapped in every loaded
``repro`` module whose globals bind the same function object, because
``from .x import f`` copies the binding.  Spans are kept in memory (one list
per thread, each span naming its parent), the originals are restored when the
run ends, and the per-site numbers are computed from the spans afterwards.

``repro.obs`` spans are deliberately not the source: the ROADMAP re-cuts them,
and the benchmark's boundaries must stay put while the program changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Site:
    """One traced boundary: ``name`` is ``<layer>.<callable>``, layer = module name."""

    name: str
    module: str
    attr: str                       # "function" or "Class.method"
    #: optional ``(args, kwargs, result) -> {counter: amount}``, run after the
    #: span closed, so its cost never lands in the site's own time
    observe: Optional[Callable] = None


def _update_bytes(args, kwargs, result) -> Dict[str, float]:
    update = args[0] if args else kwargs["update"]
    raw = sum(getattr(value, "nbytes", 0) for value in update.state.values())
    return {"bytes_in": float(raw), "bytes_out": float(len(result))}


def _checkpoint_bytes(args, kwargs, result) -> Dict[str, float]:
    total = 0
    for root, _dirs, files in os.walk(result):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return {"bytes": float(total)}


#: the one site whose owner depends on the workload; see :func:`sites_for`
PARTICIPANT_ROUND = "federated.participant_round"

SITES: Tuple[Site, ...] = (
    Site("core.assignment.assign", "repro.core.assignment", "ExpertRoleAssigner.assign"),
    Site("core.profiling.profile_for_round", "repro.core.profiling",
         "StaleProfiler.profile_for_round"),
    Site("core.merging.plan_compact_model", "repro.core.merging", "plan_compact_model"),
    Site("core.merging.build_compact_model", "repro.core.merging", "build_compact_model"),
    Site("core.gradient_estimation.estimate_expert_gradient",
         "repro.core.gradient_estimation", "estimate_expert_gradient"),
    Site("quantization.quantize_model", "repro.quantization", "quantize_model"),
    Site("analysis.profile_activation", "repro.analysis", "profile_activation"),
    Site("data.make_batches", "repro.data", "make_batches"),
    Site(PARTICIPANT_ROUND, "repro.federated.orchestrator",
         "FederatedFineTuner.participant_round"),
    Site("federated.client.local_finetune", "repro.federated.client",
         "Participant.local_finetune"),
    Site("federated.server.model_snapshot", "repro.federated.server",
         "ParameterServer.model_snapshot"),
    Site("federated.orchestrator.transmit_updates", "repro.federated.orchestrator",
         "FederatedFineTuner.transmit_updates"),
    Site("federated.orchestrator.aggregate_round_updates", "repro.federated.orchestrator",
         "FederatedFineTuner.aggregate_round_updates"),
    Site("models.transformer.init", "repro.models.transformer", "MoETransformer.__init__"),
    Site("models.transformer.forward", "repro.models.transformer", "MoETransformer.forward"),
    Site("models.moe_layer.forward", "repro.models.moe_layer", "MoELayer.forward"),
    Site("autograd.backward", "repro.autograd.tensor", "Tensor.backward"),
    Site("autograd.optim.step", "repro.autograd.optim", "Adam.step"),
    Site("comm.encode_update", "repro.comm", "encode_update", observe=_update_bytes),
    Site("comm.decode_update", "repro.comm", "decode_update"),
    Site("comm.channel.send", "repro.comm.channel", "Channel.send"),
    Site("service.pool.prefold_nodes", "repro.service.pool",
         "ServiceAggregationPool.prefold_nodes"),
    Site("service.pool.fold_shards", "repro.service.pool",
         "ServiceAggregationPool.fold_shards"),
    # the server side of the fold RPCs: runs on the socketpair servers'
    # threads, so it feeds service.background.busy_s, never coverage
    Site("service.server.handle_request", "repro.service.server",
         "AggregatorServer.handle_request"),
    Site("runtime.scheduler.run_round", "repro.runtime.scheduler", "SyncScheduler.run_round"),
    Site("runtime.checkpoint.save", "repro.runtime.checkpoint", "RunCheckpointer.save",
         observe=_checkpoint_bytes),
    Site("metrics.evaluate_model", "repro.metrics", "evaluate_model"),
)

ESTIMATOR = "core.gradient_estimation.estimate_expert_gradient"
FORWARD = "models.transformer.forward"

#: the round loop's phases; transmit runs inside aggregate when the fold pulls
#: updates from a generator, so a phase counts only its outermost spans
PHASES = {
    "client": (PARTICIPANT_ROUND,),
    "aggregation": ("federated.orchestrator.transmit_updates",
                    "federated.orchestrator.aggregate_round_updates"),
    "eval": ("metrics.evaluate_model",),
    "checkpoint": ("runtime.checkpoint.save",),
}


def sites_for(tuner_class: type) -> Tuple[Site, ...]:
    """``SITES`` with ``participant_round`` bound to the class that implements it."""
    mine = Site(PARTICIPANT_ROUND, tuner_class.__module__,
                f"{tuner_class.__name__}.participant_round")
    return tuple(mine if site.name == PARTICIPANT_ROUND else site for site in SITES)


class Tracer:
    """Installs timing proxies, records spans, restores the originals."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self.missing: List[str] = []
        self.counters: Dict[str, Dict[str, float]] = {}
        self._names: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._threads: List[Tuple[int, list]] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    # ------------------------------------------------------------ installation
    def install(self, sites) -> None:
        """Swap every resolvable site for its proxy; unresolvable ones go to ``missing``."""
        for site in sites:
            index = len(self._names)
            self._names.append(site.name)
            try:
                module = importlib.import_module(site.module)
                owner_name, _, method = site.attr.rpartition(".")
                if owner_name:
                    self._swap_method(getattr(module, owner_name), method, index, site)
                else:
                    self._swap_function(getattr(module, site.attr), index, site)
            except (ImportError, AttributeError) as error:
                self.missing.append(site.name)
                print(f"trace: site {site.name} not found ({error}); reported as null",
                      file=sys.stderr)

    def _swap_method(self, owner: type, name: str, index: int, site: Site) -> None:
        original = owner.__dict__.get(name)
        if not isinstance(original, types.FunctionType):
            raise AttributeError(f"{owner.__name__}.{name} is not a plain method")
        setattr(owner, name, self._proxy(original, index, site))
        self._undo.append((owner, name, original))

    def _swap_function(self, original, index: int, site: Site) -> None:
        if not isinstance(original, types.FunctionType):
            raise AttributeError(f"{site.attr} is not a plain function")
        proxy = self._proxy(original, index, site)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == self.prefix
                                      or module_name.startswith(self.prefix + ".")):
                continue
            for global_name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, global_name, proxy)
                    self._undo.append((module, global_name, original))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ----------------------------------------------------------------- proxies
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])     # (spans, open-span stack)
            with self._lock:
                self._threads.append((threading.get_ident(), state[0]))
        return state

    def _proxy(self, original, index: int, site: Site):
        clock = time.perf_counter
        observe = site.observe

        @functools.wraps(original)
        def proxy(*args, **kwargs):
            spans, stack = self._thread_state()
            me = len(spans)
            # [site, start, end, parent]; end stays None while the span is open
            record = [index, 0.0, None, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(me)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observed = observe(args, kwargs, result)
                with self._lock:                 # any thread may call a traced function
                    counters = self.counters.setdefault(site.name, {})
                    for key, amount in observed.items():
                        counters[key] = counters.get(key, 0.0) + amount
            return result

        return proxy

    # ----------------------------------------------------------------- results
    def _spans(self, main: bool):
        """Closed spans, thread by thread: ``(spans, position, site, duration, parent)``."""
        with self._lock:
            threads = list(self._threads)
        for ident, spans in threads:
            if (ident == self._main) != main:
                continue
            for position, (index, start, end, parent) in enumerate(spans):
                if end is not None:
                    yield spans, position, index, end - start, parent

    def site_stats(self) -> Dict[str, Optional[Tuple[int, float, float]]]:
        """Main-thread ``(calls, total_s, self_s)`` per site; ``None`` for a missing site.

        Self time is the span's duration minus the durations of its direct
        child spans.
        """
        count = len(self._names)
        calls, total, child = [0] * count, [0.0] * count, [0.0] * count
        for spans, _position, index, duration, parent in self._spans(main=True):
            calls[index] += 1
            total[index] += duration
            if parent >= 0:
                child[spans[parent][0]] += duration
        return {name: None if name in self.missing
                else (calls[i], total[i], total[i] - child[i])
                for i, name in enumerate(self._names)}

    def _below(self, ancestors):
        """Main-thread spans as ``(site name, duration, runs below one of ancestors)``."""
        wanted = {i for i, name in enumerate(self._names) if name in ancestors}
        below: Dict[int, List[bool]] = {}
        for spans, position, index, duration, parent in self._spans(main=True):
            flags = below.setdefault(id(spans), [False] * len(spans))
            if parent >= 0:
                flags[position] = flags[parent] or spans[parent][0] in wanted
            yield self._names[index], duration, flags[position]

    def calls_under(self, site: str, ancestor: str) -> int:
        """How many main-thread calls of ``site`` ran somewhere below ``ancestor``."""
        return sum(1 for name, _duration, below in self._below({ancestor})
                   if name == site and below)

    def outermost_total(self, sites) -> float:
        """Seconds covered by ``sites`` on the main thread, nested calls counted once."""
        return sum(duration for name, duration, below in self._below(set(sites))
                   if name in sites and not below)

    def background_busy_s(self) -> float:
        """Seconds of root spans on threads other than the main one."""
        return sum(duration for _s, _p, _i, duration, parent in self._spans(main=False)
                   if parent < 0)


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> float:
    if not numerator or not denominator:
        return 0.0
    return numerator / denominator


def derive(tracer: Tracer, traced_wall_s: float,
           untraced_wall_s: float) -> Dict[str, Optional[float]]:
    """The per-layer metric table: three numbers per site plus the derived ratios."""
    stats = tracer.site_stats()
    out: Dict[str, Optional[float]] = {}
    for name, triple in stats.items():
        calls, total, own = triple if triple is not None else (None, None, None)
        out[f"{name}.calls"] = None if calls is None else float(calls)
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = own

    def calls(site: str) -> float:
        return out.get(f"{site}.calls") or 0.0

    encode = tracer.counters.get("comm.encode_update", {})
    saved = tracer.counters.get("runtime.checkpoint.save", {})
    probe_forwards = tracer.calls_under(FORWARD, ESTIMATOR)
    out["service.background.busy_s"] = tracer.background_busy_s()
    out["trace.coverage"] = _ratio(
        sum(triple[2] for triple in stats.values() if triple is not None), traced_wall_s)
    out["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    out["core.gradient_estimation.probe_forward_share"] = _ratio(probe_forwards, calls(FORWARD))
    out["core.gradient_estimation.forwards_per_estimate"] = _ratio(
        probe_forwards, calls(ESTIMATOR))
    out["models.transformer.inits_per_participant_round"] = _ratio(
        calls("models.transformer.init"), calls(PARTICIPANT_ROUND))
    out["comm.encode_update.bytes_in"] = encode.get("bytes_in", 0.0)
    out["comm.encode_update.bytes_out"] = encode.get("bytes_out", 0.0)
    out["comm.wire_density"] = _ratio(encode.get("bytes_out"), encode.get("bytes_in"))
    out["runtime.checkpoint.bytes_per_save"] = _ratio(
        saved.get("bytes"), calls("runtime.checkpoint.save"))
    for phase, sites in PHASES.items():
        out[f"phase.{phase}_share"] = _ratio(tracer.outermost_total(sites), traced_wall_s)
    return out
