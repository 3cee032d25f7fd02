"""Perf-regression harness for the MoE training hot path.

Times the throughput of the MoE layer's expert hot loop and of full-model
training steps for every (kernel, dtype) configuration of the tensor
engine, and writes the results to ``BENCH_hotpath.json`` so later PRs have a
measured trajectory to defend.

Two benchmark families per model preset:

* ``hot_loop`` — the MoE hot-loop microbenchmark: the preset's MoE layer
  driven directly (routing statistics enabled, attention profiling signal and
  sample ids supplied, exactly as the transformer invokes it), phases
  ``forward``, ``forward_backward`` and ``round`` (forward + backward + fused
  Adam step).
* ``model_step`` — full ``MoETransformer.compute_loss`` + backward + optimizer
  step on the preset (one train step; whole federated runs are
  ``benchmarks/e2e``).

An informational ``nodes`` block (not gated) times each fused transformer
node — attention, ``rms_norm``, ``linear`` — against the composed oracle kept
in ``tests/composed_oracles.py``, one µs-per-forward+backward figure each.
A gated ``preamble`` block times Flux's per-participant preamble on one
participant-round's inputs (DeepSeek preset): ``plan_compact_model``,
``build_compact_model`` and ``profile_activation``, each against the path it
replaced (SVD plan, fresh-copy build, float64 profiling copy; oracles in
``tests/plan_oracles.py``).
A gated ``read_rows`` block times ``compute_loss`` + backward on one padded
16-sequence batch (llama and DeepSeek) and ``evaluate_model`` (llama), each
computing a position only as far as something reads it, against every
position computed (the oracle in ``tests/read_oracles.py``).
``--suite aggregation`` carries an informational ``uplink`` block of the same
kind: frames per second of framing one participant's upload per update (the
oracle in ``tests/uplink_oracles.py``) against ``encode_updates`` — two more
informational blocks, ``wire`` (the composed ``topk:0.25:int4`` codec's frame
bytes against its analytic size) and ``checkpoint`` (a sparse-delta snapshot
against a full one), and a gated ``prefold`` row: one tree-leaf fold job, a
sender's frames decoded and folded as one group against the frame-at-a-time
oracle in ``tests/fold_oracles.py``.

Configurations measured: ``loop/float64`` (the per-expert loop, the oracle
``loop_oracle`` in ``tests/composed_oracles.py`` puts a layer or model on, on
the float64 engine), ``batched/float64`` and ``batched/float32`` (the MoE
layer's segment-grouped kernel).  ``--seed-src`` additionally benchmarks a
pristine seed checkout (same driver, via a subprocess) and records it under
``seed_reference``.

Usage::

    python benchmarks/perf_harness.py                     # full run
    python benchmarks/perf_harness.py --quick             # CI smoke
    python benchmarks/perf_harness.py --check BENCH_hotpath.json
    python benchmarks/perf_harness.py --seed-src /path/to/seed/src

``--check`` gates every suite through one table (``GATES``: metric path,
which direction is worse) and one walker (``check_gates``).  For the default
suite it compares the machine-independent *speedup* of ``batched/float32``
over ``loop/float64`` against the committed baseline and fails (exit code 1)
when it has regressed by more than ``--tolerance`` (default 30%).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from typing import Dict, NamedTuple, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(REPO_ROOT, "src")):
    # Appended (not prepended) so a PYTHONPATH pointing at another checkout —
    # the --seed-src worker mechanism — takes precedence over this repo.
    sys.path.append(os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

#: benchmarked (kernel, dtype) configurations; ``loop`` is the test oracle
CONFIGS = (("loop", "float64"), ("batched", "float64"), ("batched", "float32"))

#: the fast path and the baseline the speedup headline compares
FAST_CONFIG = "batched/float32"
BASELINE_CONFIG = "loop/float64"

PRESET_NAMES = ("tiny_moe", "llama_moe_mini")


def _best_time(fn, iters: int, reps: int) -> float:
    """Best-of-``reps`` wall time of ``iters`` calls (robust to noisy hosts)."""
    fn()  # warm-up: JIT-free but primes caches/allocator
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / iters


def _interleaved_best_times(config_fns: Dict[str, Dict], iters: int, reps: int) -> Dict[str, Dict[str, float]]:
    """Best-of timing with configs/phases interleaved per repetition.

    Sequential per-config timing lets slow host-load drift masquerade as a
    speedup change; interleaving hits every config with the same drift so the
    *ratios* the regression check relies on stay stable.
    """
    for phases in config_fns.values():
        for fn in phases.values():
            fn()  # warm-up
    best: Dict[str, Dict[str, float]] = {
        name: {phase: float("inf") for phase in phases}
        for name, phases in config_fns.items()
    }
    for _ in range(reps):
        for name, phases in config_fns.items():
            for phase, fn in phases.items():
                start = time.perf_counter()
                for _ in range(iters):
                    fn()
                elapsed = (time.perf_counter() - start) / iters
                if elapsed < best[name][phase]:
                    best[name][phase] = elapsed
    return best


def _make_layer(preset: str, dtype: Optional[str]):
    """The preset's MoE layer; ``dtype=None`` (a seed checkout's worker) builds
    it under the engine's default dtype."""
    from repro.models.moe_layer import MoELayer
    from repro.models.presets import get_preset

    config = get_preset(preset.replace("_", "-"))
    rng = np.random.default_rng(0)

    def build():
        return MoELayer(d_model=config.d_model, d_ff=config.d_ff,
                        num_experts=config.experts_per_layer()[0],
                        top_k=config.top_k, rng=rng)

    if dtype is None:
        return build()
    from repro.autograd import default_dtype
    with default_dtype(dtype):
        return build()


def _make_model(preset: str, dtype: Optional[str]):
    from repro.models import MoETransformer
    from repro.models.presets import get_preset

    kwargs = {} if dtype is None else {"dtype": dtype}
    return MoETransformer(get_preset(preset.replace("_", "-"), **kwargs))


def _on_kernel(module, kernel: Optional[str]):
    """``module``, on the per-expert loop oracle when ``kernel == "loop"``."""
    if kernel == "loop":
        sys.path.append(os.path.join(REPO_ROOT, "tests"))
        from composed_oracles import loop_oracle
        loop_oracle(module)
    return module


def build_hot_loop(preset: str, kernel: Optional[str], dtype: Optional[str],
                   tokens: int) -> Dict:
    """Phase closures for the MoE hot-loop microbenchmark of one config."""
    layer = _on_kernel(_make_layer(preset, dtype), kernel)
    return _layer_phases(layer, tokens, dtype or "float64")


def _layer_phases(layer, tokens: int, np_dtype: str) -> Dict:
    """forward / forward_backward / round closures driving one MoE layer."""
    from repro.autograd import Adam, Tensor

    # Sequences of 32 tokens: tiny_moe's own max_seq_len, so the
    # microbenchmark drives the layer with shapes the preset actually sees.
    batch = max(tokens // 32, 1)
    x = np.random.default_rng(1).standard_normal(
        (batch, tokens // batch, layer.d_model)).astype(np_dtype)
    attention = np.random.default_rng(2).random((batch, tokens // batch))
    sample_ids = np.arange(batch)
    optimizer = Adam(list(layer.parameters()), lr=1e-8)

    # Precomputed output gradient: backward from the layer output directly
    # instead of through a reduction node, so the measurement isolates the
    # expert hot loop rather than the benchmark driver.
    grad_ones = np.ones(x.shape, dtype=np_dtype)

    def forward():
        layer(Tensor(x), token_attention=attention, sample_ids=sample_ids)

    def forward_backward():
        out = layer(Tensor(x, requires_grad=True),
                    token_attention=attention, sample_ids=sample_ids)
        out.backward(grad_ones)
        optimizer.zero_grad()

    def round_step():
        out = layer(Tensor(x, requires_grad=True),
                    token_attention=attention, sample_ids=sample_ids)
        out.backward(grad_ones)
        optimizer.step()
        optimizer.zero_grad()

    return {"forward": forward, "forward_backward": forward_backward, "round": round_step}


def build_model_step(preset: str, kernel: Optional[str], dtype: Optional[str],
                     tokens: int) -> Dict:
    """Phase closures for the full-model training-round benchmark."""
    from repro.autograd import Adam

    model = _on_kernel(_make_model(preset, dtype), kernel)
    seq_len = min(32, model.config.max_seq_len)
    batch = max(tokens // seq_len, 1)
    ids = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(batch, seq_len))
    sample_ids = np.arange(batch)
    optimizer = Adam(list(model.parameters()), lr=1e-8)

    def round_step():
        loss = model.compute_loss(ids, sample_ids=sample_ids)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()

    return {"round": round_step}


def _peak_temporaries(round_fn) -> int:
    """Peak Python/NumPy heap allocated during one training round (bytes)."""
    tracemalloc.start()
    round_fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def _hot_loop_result(times: Dict[str, float], tokens: int, round_fn) -> Dict[str, float]:
    return {
        "forward_tokens_per_s": tokens / times["forward"],
        "forward_backward_tokens_per_s": tokens / times["forward_backward"],
        "round_tokens_per_s": tokens / times["round"],
        "rounds_per_s": 1.0 / times["round"],
        "peak_temporaries_bytes": _peak_temporaries(round_fn),
    }


def bench_hot_loop(preset: str, kernel: Optional[str], dtype: Optional[str],
                   tokens: int, iters: int, reps: int) -> Dict[str, float]:
    """MoE layer forward / forward+backward / round throughput (tokens/s)."""
    phases = build_hot_loop(preset, kernel, dtype, tokens)
    times = {name: _best_time(fn, iters, reps) for name, fn in phases.items()}
    return _hot_loop_result(times, tokens, phases["round"])


def bench_model_step(preset: str, kernel: Optional[str], dtype: Optional[str],
                     tokens: int, iters: int, reps: int) -> Dict[str, float]:
    """Full-model loss + backward + optimizer step throughput (tokens/s)."""
    phases = build_model_step(preset, kernel, dtype, tokens)
    seq_len = 32  # matches build_model_step batching
    actual_tokens = max(tokens // seq_len, 1) * seq_len
    per_round = _best_time(phases["round"], iters, reps)
    return {"round_tokens_per_s": actual_tokens / per_round,
            "rounds_per_s": 1.0 / per_round}


def _speedup(configs: Dict[str, Dict[str, float]], key: str) -> Optional[float]:
    fast = configs.get(FAST_CONFIG, {}).get(key)
    base = configs.get(BASELINE_CONFIG, {}).get(key)
    if not fast or not base:
        return None
    return fast / base


def run_suite(quick: bool) -> Dict:
    # 1024 tokens = batch 32 × seq 32 (the tiny_moe preset's max_seq_len)
    tokens = 1024
    iters = 3 if quick else 10
    # Best-of needs one repetition after the allocator has settled: glibc
    # serves the large temporaries from fresh mmaps (page faults, 1.5-2x
    # slower) until enough of them have been freed to raise its threshold,
    # ~40 calls into a preset.  With 4 quick repetitions a whole config could
    # be timed before that point, and which one depended on the allocation
    # pattern, so either side of a gated ratio read up to 40% low.
    reps = 8 if quick else 6
    suite: Dict = {}
    for preset in PRESET_NAMES:
        step_tokens = min(tokens, 1024)
        hot_builds = {f"{kernel}/{dtype}": build_hot_loop(preset, kernel, dtype, tokens)
                      for kernel, dtype in CONFIGS}
        hot_times = _interleaved_best_times(hot_builds, iters, reps)
        hot_configs = {name: _hot_loop_result(times, tokens, hot_builds[name]["round"])
                       for name, times in hot_times.items()}
        step_builds = {
            f"{kernel}/{dtype}": build_model_step(preset, kernel, dtype, step_tokens)
            for kernel, dtype in CONFIGS}
        step_times = _interleaved_best_times(step_builds, max(iters // 2, 1), reps)
        actual_step_tokens = max(step_tokens // 32, 1) * 32
        step_configs = {name: {"round_tokens_per_s": actual_step_tokens / times["round"],
                               "rounds_per_s": 1.0 / times["round"]}
                        for name, times in step_times.items()}
        suite[preset] = {
            "hot_loop": {
                "tokens": tokens,
                "configs": hot_configs,
                "speedup_batched_f32_vs_loop_f64":
                    _speedup(hot_configs, "forward_backward_tokens_per_s"),
                "round_speedup_batched_f32_vs_loop_f64":
                    _speedup(hot_configs, "round_tokens_per_s"),
            },
            "model_step": {
                "tokens": min(tokens, 1024),
                "configs": step_configs,
                "round_speedup_batched_f32_vs_loop_f64":
                    _speedup(step_configs, "round_tokens_per_s"),
            },
        }
    return suite


#: the client batch of ``benchmarks/e2e`` (16 samples x ~18 tokens, llama/deepseek mini)
E2E_NODE_SHAPE = {"batch": 16, "seq_len": 18, "d_model": 32, "n_heads": 4}


def bench_nodes(quick: bool) -> Dict:
    """Informational: each fused transformer node against its composed oracle.

    Microseconds per forward + backward (every input requiring grad) of
    ``MultiHeadSelfAttention.forward``, ``F.rms_norm`` and ``F.linear`` and of
    the generic-op compositions they replaced (``tests/composed_oracles.py``),
    at the end-to-end benchmark's batch shape and at each preset's
    ``model_step`` shape.  One figure per node per shape; nothing here is gated.
    """
    sys.path.append(os.path.join(REPO_ROOT, "tests"))
    from composed_oracles import composed_attention, composed_linear, composed_rms_norm
    from repro.autograd import Parameter
    from repro.autograd import functional as F
    from repro.models import MultiHeadSelfAttention
    from repro.models.presets import get_preset

    shapes = {"e2e": E2E_NODE_SHAPE}
    for preset in PRESET_NAMES:
        config = get_preset(preset.replace("_", "-"))
        shapes[preset] = {"batch": 32, "seq_len": 32, "d_model": config.d_model,
                          "n_heads": config.n_heads}
    iters = 5 if quick else 20
    reps = 4 if quick else 8
    out: Dict = {"unit": "us per forward+backward, every input requiring grad", "shapes": {}}
    for label, shape in shapes.items():
        rng = np.random.default_rng(0)
        d_model = shape["d_model"]
        x = Parameter(rng.standard_normal((shape["batch"], shape["seq_len"], d_model)))
        upstream = np.ones(x.shape)
        attn = MultiHeadSelfAttention(d_model, shape["n_heads"], rng=rng)
        scale = Parameter(np.ones(d_model))
        weight = attn.o_proj.weight
        leaves = [x, scale] + list(attn.parameters())

        def step(forward):
            def run():
                forward().backward(upstream)
                for leaf in leaves:
                    leaf.grad = None
            return run

        pairs = {
            "attention": (lambda: attn(x), lambda: composed_attention(attn, x)),
            "rms_norm": (lambda: F.rms_norm(x, scale), lambda: composed_rms_norm(x, scale)),
            "linear": (lambda: F.linear(x, weight), lambda: composed_linear(x, weight)),
        }
        times = _interleaved_best_times(
            {node: {"fused": step(fused), "composed": step(composed)}
             for node, (fused, composed) in pairs.items()}, iters, reps)
        out["shapes"][label] = dict(shape, nodes={
            node: {"fused_us": t["fused"] * 1e6, "composed_us": t["composed"] * 1e6,
                   "speedup": t["composed"] / t["fused"]}
            for node, t in times.items()})
    return out


def bench_preamble(quick: bool) -> Dict:
    """Flux's per-participant preamble, each step against the path it replaced.

    One participant-round's inputs on the end-to-end benchmark's DeepSeek
    model (48 fine-grained experts in 3 layers, 9 tuning, 9 non-tuning slots,
    4 profiling batches of 16): ``plan_compact_model`` from the per-version
    expert Gram matrices vs the SVD plan, ``build_compact_model`` mounted on
    the server's training replica vs a fresh ``copy_of`` with a new module per
    slot, ``profile_activation`` on the float32 profiling copy vs the float64
    one.  The oracles are in ``tests/plan_oracles.py``; equal clusters and
    equal logits are asserted before anything is timed.
    """
    sys.path.append(os.path.join(REPO_ROOT, "tests"))
    from plan_oracles import fresh_build_compact_model, svd_plan_clusters
    from repro.analysis import profile_activation
    from repro.autograd import no_grad
    from repro.core import FluxConfig, build_compact_model, plan_compact_model
    from repro.core.merging import expert_gram_matrices
    from repro.core.profiling import PROFILING_DTYPE
    from repro.data import Vocabulary, make_batches, make_gsm8k_like
    from repro.federated import ParameterServer
    from repro.models import MoETransformer, deepseek_moe_mini
    from repro.quantization import quantize_model

    vocab = Vocabulary(size=256, num_topics=8)
    model = MoETransformer(deepseek_moe_mini(vocab_size=vocab.size, seed=0, n_layers=3))
    dataset = make_gsm8k_like(vocab=vocab, num_samples=64, seed=0)
    batches = make_batches(dataset.samples, 16, vocab, shuffle=False,
                           max_seq_len=model.config.max_seq_len)
    copies = {dtype: quantize_model(model, 4, dtype=dtype)
              for dtype in (PROFILING_DTYPE, "float64")}
    profile = profile_activation(copies[PROFILING_DTYPE], batches)
    ranked = sorted(((freq, (layer, expert)) for layer, freqs in enumerate(profile.frequencies)
                     for expert, freq in enumerate(freqs)), reverse=True)
    tuning: Dict[int, list] = {}
    for _, (layer, expert) in ranked[:9]:
        tuning.setdefault(layer, []).append(expert)
    config = FluxConfig(seed=0)
    server = ParameterServer(model)
    grams = expert_gram_matrices(model)

    def plan():
        return plan_compact_model(model, tuning, profile, max_non_tuning_slots=9,
                                  config=config, expert_grams=grams)

    reference = plan()

    def mounted():
        with server.training_replica() as replica:
            build_compact_model(replica, reference, profile, config)

    if svd_plan_clusters(model, reference, config).clusters_per_layer != reference.clusters:
        raise AssertionError("the Gram-matrix plan differs from the SVD oracle's")
    with server.training_replica() as replica, no_grad():
        build_compact_model(replica, reference, profile, config)
        fresh = fresh_build_compact_model(model, reference, profile, config)[0]
        if not np.array_equal(replica(batches[0].input_ids).data,
                              fresh(batches[0].input_ids).data):
            raise AssertionError("the mounted compact model differs from the fresh build")

    pairs = {
        "plan_compact_model": (plan, lambda: svd_plan_clusters(model, reference, config)),
        "build_compact_model": (
            mounted, lambda: fresh_build_compact_model(model, reference, profile, config)),
        "profile_activation": (
            lambda: profile_activation(copies[PROFILING_DTYPE], batches),
            lambda: profile_activation(copies["float64"], batches)),
    }
    times = _interleaved_best_times(
        {name: {"fast": fast, "oracle": oracle} for name, (fast, oracle) in pairs.items()},
        3 if quick else 10, 5 if quick else 9)
    return {name: {"fast_us": t["fast"] * 1e6, "oracle_us": t["oracle"] * 1e6,
                   "speedup": t["oracle"] / t["fast"]}
            for name, t in times.items()}


def bench_read_rows(quick: bool) -> Dict:
    """Positions computed only as far as they are read, against every position computed.

    ``compute_loss`` + backward of one padded 16-sequence gsm8k batch, with
    only the experts trainable as ``local_finetune`` trains them, on the
    end-to-end benchmark's llama and DeepSeek models; and ``evaluate_model``
    of the llama model on 64 gsm8k samples.  The oracle,
    ``tests/read_oracles.py``, runs every row through every expert and the LM
    head on every position.  Equal losses (1e-12) and equal metrics are
    asserted before anything is timed.
    """
    sys.path.append(os.path.join(REPO_ROOT, "tests"))
    from read_oracles import every_position_computed
    from repro.data import IGNORE_INDEX, Vocabulary, make_batches, make_gsm8k_like
    from repro.metrics import evaluate_model
    from repro.models import MoETransformer, deepseek_moe_mini, llama_moe_mini

    vocab = Vocabulary(size=256, num_topics=8)
    dataset = make_gsm8k_like(vocab=vocab, num_samples=64, seed=0)
    models = {
        "llama": MoETransformer(llama_moe_mini(vocab_size=vocab.size, seed=0)),
        "deepseek": MoETransformer(deepseek_moe_mini(vocab_size=vocab.size, seed=0, n_layers=3)),
    }
    batch = make_batches(dataset.samples[:16], 16, vocab, shuffle=False, max_seq_len=64)[0]

    def loss_step(model):
        def run():
            loss = model.compute_loss(batch.input_ids, labels=batch.labels,
                                      attention_mask=batch.attention_mask)
            loss.backward()
            model.zero_grad()
            return loss.item()
        return run

    def evaluate():
        return evaluate_model(models["llama"], dataset, batch_size=16)

    def oracle(fn):
        def run():
            with every_position_computed():
                return fn()
        return run

    pairs = {}
    for name, model in models.items():
        model.freeze_non_expert_parameters()
        pairs[f"compute_loss_{name}"] = (loss_step(model), oracle(loss_step(model)))
    pairs["evaluate_model"] = (evaluate, oracle(evaluate))
    for name, (fast, slow) in pairs.items():
        got, want = fast(), slow()
        if not np.isclose(got, want, rtol=1e-12, atol=0.0):
            raise AssertionError(f"{name}: {got!r} differs from the oracle's {want!r}")
    times = _interleaved_best_times(
        {name: {"fast": fast, "oracle": slow} for name, (fast, slow) in pairs.items()},
        3 if quick else 10, 5 if quick else 9)
    positions = batch.attention_mask.size
    out: Dict = {
        "batch": {"sequences": batch.batch_size, "seq_len": batch.seq_len,
                  "pad_share": 1.0 - batch.num_tokens / positions,
                  "read_share": float((batch.labels != IGNORE_INDEX).sum()) / positions},
    }
    out.update((name, {"fast_us": t["fast"] * 1e6, "oracle_us": t["oracle"] * 1e6,
                       "speedup": t["oracle"] / t["fast"]})
               for name, t in times.items())
    return out


# ------------------------------------------------------- aggregation suite
#: benchmarked root shard counts (1 = the flat serial baseline shape)
AGG_SHARD_COUNTS = (1, 4, 8)
#: benchmarked aggregation-tree shapes, depth 1/2/3
AGG_TREE_TIERS = ((8,), (8, 4), (8, 4, 2))
AGG_PRESET = "tiny_moe"


def _make_aggregation_updates(participants: int, preset: str = AGG_PRESET):
    """A fleet's worth of expert updates against a fresh preset model."""
    from repro.federated import ExpertUpdate
    from repro.models import MoETransformer
    from repro.models.presets import get_preset

    model = MoETransformer(get_preset(preset.replace("_", "-")))
    rng = np.random.default_rng(0)
    updates = []
    for pid in range(participants):
        for layer, expert in model.iter_expert_ids():
            state = {name: value + 0.01 * rng.normal(size=value.shape)
                     for name, value in model.expert_state(layer, expert).items()}
            updates.append(ExpertUpdate(pid, layer, expert, state,
                                        weight=float(pid % 3 + 1)))
    return model, updates


def _fold_payloads(server, frames) -> None:
    """Decode-and-fold ``frames`` into ``server``'s model through its scratch pool."""
    from repro.comm import StreamingAggregator

    aggregator = StreamingAggregator(server.strategy, scratch=server.fold_scratch)
    aggregator.fold_frames(frames, reference_lookup=server.expert_state)
    aggregator.apply(server.global_model)


def _bench_shard_fold(updates, num_shards: int, iters: int, reps: int) -> Dict:
    """Serial fold of one round's updates vs its per-shard fold jobs.

    Two measurements, interleaved per repetition so host-load drift cancels
    out of the ratios:

    * ``serial_wire_fold_s`` — the serial baseline: the production fused
      decode-and-fold path (``StreamingAggregator.fold_frames`` through the
      server's persistent scratch pool), on one thread.  This is exactly what the root
      of a ``transport="wire"`` deployment does today, and exactly the total
      work the service's fold jobs partition — the headline speedup compares
      like with like.  ``serial_inmemory_fold_s`` (the analytic-transport
      fold, no decode) is recorded alongside for transparency.
    * the per-shard fold jobs the aggregator servers run + the parent merge,
      each timed in isolation; their combination ``critical_path_s = max(job)
      + merge`` is the fold wall-clock on a host with >= ``num_shards`` cores
      (the round only waits for the slowest shard).  Measuring jobs serially
      keeps the number honest on constrained hosts, where concurrently
      scheduled servers would timeshare one core and inflate each other's
      wall time.  (``--suite service`` times the jobs through live servers.)
    """
    from repro.comm import ScratchPool, decode_state_dict
    from repro.federated import ShardedParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.service.fold import fold_shard_frames, frame_update

    config = get_preset(AGG_PRESET.replace("_", "-"))
    serial_server = ShardedParameterServer(MoETransformer(config),
                                           num_shards=num_shards)
    all_framed = [frame_update(update, {}) for update in updates]
    shard_framed = [[] for _ in range(num_shards)]
    for update, framed in zip(updates, all_framed):
        shard_framed[serial_server.shard_of(update.key)].append(framed)
    scratch = ScratchPool()   # warm across jobs, as an aggregator server's is
    worker_results = [fold_shard_frames(None, framed, scratch=scratch)
                      for framed in shard_framed if framed]
    merge_model = MoETransformer(config)

    def serial_wire():
        _fold_payloads(serial_server, all_framed)

    def merge():
        for shard_result in worker_results:
            for (layer, expert), state_frame, _ in shard_result:
                merge_model.load_expert_state(layer, expert,
                                              decode_state_dict(state_frame))

    fns = {"serial_inmemory": {"fold": lambda: serial_server.aggregate(list(updates))},
           "serial_wire": {"fold": serial_wire},
           "merge": {"fold": merge}}
    for shard, framed in enumerate(shard_framed):
        if framed:
            fns[f"job{shard}"] = {
                "fold": lambda framed=framed: fold_shard_frames(
                    None, framed, scratch=scratch)}

    times = _interleaved_best_times(fns, iters, reps)
    serial_s = times["serial_wire"]["fold"]
    job_s = [times[name]["fold"] for name in times if name.startswith("job")]
    critical_s = max(job_s) + times["merge"]["fold"]
    return {
        "serial_wire_fold_s": serial_s,
        "serial_updates_per_s": len(updates) / serial_s,
        "serial_inmemory_fold_s": times["serial_inmemory"]["fold"],
        "serial_inmemory_updates_per_s":
            len(updates) / times["serial_inmemory"]["fold"],
        "shard_job_s": job_s,
        "merge_s": times["merge"]["fold"],
        "critical_path_s": critical_s,
        "critical_path_updates_per_s": len(updates) / critical_s,
        "speedup_critical_path_vs_serial": serial_s / critical_s,
        "speedup_critical_path_vs_serial_inmemory":
            times["serial_inmemory"]["fold"] / critical_s,
    }


def _bench_tree_fold(updates, tiers, iters: int, reps: int) -> Dict:
    """Serial N-tier tree aggregation of one round's updates vs its node jobs.

    The serial baseline decodes the participant wire frames and runs the
    serial tree fold — the work of a wire deployment's aggregation plane on
    one thread, and the exact total the service's node jobs partition.
    ``critical_path_s`` combines the slowest tier-0 node pre-fold job
    (decode + fold, isolated-timed as for shards) with the measured
    non-parallel remainder (channel hops, inner-tier folds, root aggregate)
    = ``serial_s - decode_s - leaf_fold_s``.
    """
    from repro.comm import ScratchPool, decode_update
    from repro.federated import AggregationTree, ParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.service.fold import frame_update, prefold_node_frames, prefold_nodes

    config = get_preset(AGG_PRESET.replace("_", "-"))
    tree = AggregationTree(tiers)
    server = ParameterServer(MoETransformer(config))
    all_framed = [frame_update(update, {}) for update in updates]
    node_framed: Dict[int, list] = {}
    leaf_updates: Dict[int, list] = {}
    for update, framed in zip(updates, all_framed):
        node = tree.edge_of(update.participant_id)
        node_framed.setdefault(node, []).append(framed)
        leaf_updates.setdefault(node, []).append(update)
    leaf_jobs = [(node, tree.pseudo_id(0, node), leaf_updates[node])
                 for node in sorted(leaf_updates)]
    scratch = ScratchPool()   # warm across jobs, as an aggregator server's is
    leaf_scratch = ScratchPool()

    def serial_wire():
        tree.aggregate(server, iter([decode_update(frame) for frame in all_framed]))

    def leaf_fold():
        prefold_nodes(None, leaf_jobs, scratch=leaf_scratch)

    fns = {
        "serial_wire": {"fold": serial_wire},
        "decode": {"fold": lambda: [decode_update(frame) for frame in all_framed]},
        "leaf": {"fold": leaf_fold},
    }
    for node, framed in sorted(node_framed.items()):
        fns[f"job{node}"] = {
            "fold": lambda node=node, framed=framed: prefold_node_frames(
                None, tree.pseudo_id(0, node), framed, scratch=scratch)}

    times = _interleaved_best_times(fns, iters, reps)
    serial_s = times["serial_wire"]["fold"]
    job_s = [times[name]["fold"] for name in times if name.startswith("job")]
    remainder_s = max(serial_s - times["decode"]["fold"] - times["leaf"]["fold"], 0.0)
    critical_s = max(job_s) + remainder_s
    return {
        "depth": len(tiers),
        "serial_wire_s": serial_s,
        "serial_updates_per_s": len(updates) / serial_s,
        "decode_s": times["decode"]["fold"],
        "leaf_fold_s": times["leaf"]["fold"],
        "node_job_s": job_s,
        "remainder_s": remainder_s,
        "critical_path_s": critical_s,
        "critical_path_updates_per_s": len(updates) / critical_s,
        "speedup_critical_path_vs_serial": serial_s / critical_s,
    }


def _bench_decode(updates, iters: int, reps: int) -> Dict:
    """Fresh-allocation vs scratch-pool decode throughput over one round's
    wire frames (the ``decode_into`` fast path the fused fold rides)."""
    from repro.comm import ScratchPool, decode_update
    from repro.service.fold import frame_update

    all_framed = [frame_update(update, {}) for update in updates]
    scratch = ScratchPool()

    def fresh():
        for frame in all_framed:
            decode_update(frame)

    def scratched():
        for frame in all_framed:
            decode_update(frame, scratch=scratch)
            scratch.recycle()

    times = _interleaved_best_times({"fresh": {"decode": fresh},
                                     "scratch": {"decode": scratched}},
                                    iters, reps)
    fresh_s = times["fresh"]["decode"]
    scratch_s = times["scratch"]["decode"]
    return {
        "decode_fresh_s": fresh_s,
        "decode_fresh_updates_per_s": len(all_framed) / fresh_s,
        "decode_scratch_s": scratch_s,
        "decode_scratch_updates_per_s": len(all_framed) / scratch_s,
        "speedup_scratch_vs_fresh": fresh_s / scratch_s,
    }


def _bench_alloc_probe(updates) -> Dict:
    """Tracemalloc probe of one *warm* fold round: peak temporary bytes of
    the fused scratch path vs the buffered decode-then-fold path, plus the
    scratch pool's steady-state allocation count (must stay 0 — any new
    ``np.empty`` inside a warm round is a fast-path regression).  The fused
    path is the serial executor's: ``server.aggregate`` over the byte-holding
    updates a wire uplink delivers, decoded by the fold dispatch.
    """
    from repro.comm import decode_update
    from repro.federated import ExpertUpdate, ShardedParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.service.fold import frame_update

    config = get_preset(AGG_PRESET.replace("_", "-"))
    server = ShardedParameterServer(MoETransformer(config), num_shards=1)
    all_framed = [frame_update(update, {}) for update in updates]
    delivered = [ExpertUpdate(update.participant_id, update.layer, update.expert, None,
                              update.weight, wire_frame=frame, wire_codec="fp64")
                 for update, frame in zip(updates, all_framed)]

    def fused():
        server.aggregate(delivered)

    def buffered():
        server.aggregate([decode_update(frame) for frame in all_framed])

    fused()  # warm: scratch pool filled, allocator and model buffers primed
    buffered()
    allocations_before = server.fold_scratch.allocations
    tracemalloc.start()
    fused()
    _, fused_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    steady_allocations = server.fold_scratch.allocations - allocations_before
    tracemalloc.start()
    buffered()
    _, buffered_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "fused_round_peak_bytes": int(fused_peak),
        "buffered_round_peak_bytes": int(buffered_peak),
        "peak_reduction_buffered_vs_fused": buffered_peak / max(fused_peak, 1),
        "steady_state_scratch_allocations": int(steady_allocations),
    }


#: informational uplink-framing codecs (the e2e wire workload's first) and the
#: models whose full upload (every expert, an FMD participant's) is framed
UPLINK_CODECS = ("topk:0.25:int4", "topk", "int4", "fp64")
UPLINK_PRESETS = ("llama_moe_mini", "deepseek_moe_mini")


def bench_uplink(quick: bool) -> Dict:
    """Informational: one participant's upload framed per update vs in one pass.

    Frames per second of ``per_update_oracle`` (the per-tensor encoder this
    repo shipped before ``encode_updates``, kept in
    ``tests/uplink_oracles.py``), ``per_update`` (today's ``encode_update``,
    mapped) and ``batched`` (``encode_updates``) on the whole upload of an
    ``llama_moe_mini`` participant — the end-to-end wire workload's: 32
    experts x 3 tensors of 64x32 — and a ``deepseek_moe_mini`` one.  Host-speed
    numbers that also move with the allocator's state (the batched kernel's
    temporaries are 512 KB each: 1.7x early in a process, 2.5x once glibc
    stops trimming them), so nothing here is gated; the byte-identity tests
    (``tests/test_uplink_batch.py``) are the gate, and every timed pair is
    asserted equal here too.
    """
    sys.path.append(os.path.join(REPO_ROOT, "tests"))
    from uplink_oracles import oracle_encode_update
    from repro.comm import encode_update, encode_updates, get_codec

    iters = 3 if quick else 10
    reps = 5 if quick else 9
    out: Dict = {"unit": "frames per second, one participant's whole upload",
                 "presets": {}}
    for preset in UPLINK_PRESETS:
        model, updates = _make_aggregation_updates(1, preset)
        states = [model.expert_state(*update.key) for update in updates]
        builds = {}
        for name in UPLINK_CODECS:
            codec = get_codec(name)
            references = states if codec.needs_reference else [None] * len(updates)
            builds[name] = {
                "per_update_oracle": lambda codec=codec, references=references: [
                    oracle_encode_update(update, codec, reference)
                    for update, reference in zip(updates, references)],
                "per_update": lambda codec=codec, references=references: [
                    encode_update(update, codec, reference)
                    for update, reference in zip(updates, references)],
                "batched": lambda codec=codec, references=references:
                    encode_updates(updates, codec, references),
            }
            frames = builds[name]["per_update_oracle"]()
            if builds[name]["batched"]() != frames or builds[name]["per_update"]() != frames:
                raise AssertionError(f"{name} frames differ from the per-tensor oracle's")
        times = _interleaved_best_times(builds, iters, reps)
        out["presets"][preset] = {
            "experts": len(updates),
            "tensor_shapes": sorted({tuple(value.shape) for value in states[0].values()}),
            "codecs": {
                name: dict({f"{phase}_frames_per_s": len(updates) / seconds
                            for phase, seconds in phases.items()},
                           speedup_batched_vs_oracle=(phases["per_update_oracle"]
                                                      / phases["batched"]))
                for name, phases in times.items()},
        }
    return out


#: the end-to-end wire workload's leaf fold job: 8 senders x the 32 experts of
#: ``llama_moe_mini``, framed with its codec
PREFOLD_CODEC = "topk:0.25:int4"
PREFOLD_PRESET = "llama_moe_mini"
PREFOLD_SENDERS = 8


def bench_prefold(quick: bool) -> Dict:
    """One tree-leaf fold job, a sender's frames at a time vs a frame at a time.

    ``batched`` is :func:`repro.service.fold.prefold_node_frames` (decode and
    fold a sender's upload as one group, through a warm scratch pool, as an
    aggregator server runs it); ``oracle`` is the frame-at-a-time job it
    replaced, kept in ``tests/fold_oracles.py``.  Their partial frames are
    asserted byte-identical before anything is timed.
    """
    sys.path.append(os.path.join(REPO_ROOT, "tests"))
    from fold_oracles import oracle_prefold_node_frames
    from repro.comm import ScratchPool, encode_state_dict, encode_updates, get_codec
    from repro.service.fold import prefold_node_frames

    model, updates = _make_aggregation_updates(PREFOLD_SENDERS, PREFOLD_PRESET)
    states = {key: model.expert_state(*key) for key in model.iter_expert_ids()}
    frames = encode_updates(updates, get_codec(PREFOLD_CODEC),
                            [states[update.key] for update in updates])
    references = {key: encode_state_dict(state, get_codec("fp64"))
                  for key, state in states.items()}
    scratch = ScratchPool()

    def batched():
        return prefold_node_frames(None, -1, frames, references, scratch=scratch)

    def oracle():
        return oracle_prefold_node_frames(None, -1, frames, references)

    if batched() != oracle():
        raise AssertionError("batched prefold partials differ from the per-frame oracle's")
    times = _interleaved_best_times({"batched": {"fold": batched},
                                     "oracle": {"fold": oracle}},
                                    2 if quick else 4, 5 if quick else 9)
    return {
        "codec": PREFOLD_CODEC,
        "preset": PREFOLD_PRESET,
        "frames": len(frames),
        "batched_s": times["batched"]["fold"],
        "oracle_s": times["oracle"]["fold"],
        "batched_frames_per_s": len(frames) / times["batched"]["fold"],
        "speedup_batched_vs_oracle": times["oracle"]["fold"] / times["batched"]["fold"],
    }


#: the composed codec whose frame bytes the informational ``wire`` block checks
WIRE_CODEC = "topk:0.25:int4"


def _bench_wire(iters: int, reps: int) -> Dict:
    """Composed ``topk:<density>:int<bits>`` codec: bytes + throughput.

    Encodes one expert's delta under the composed sparse codec and under
    ``fp64``, and cross-checks the measured frame size against the codec's
    ``wire_bytes_per_param`` analytics (the wire-cost model the federated
    layer's :class:`ExchangePlan` reports).
    """
    from repro.comm import encode_state_dict, decode_state_dict, get_codec
    from repro.models import MoETransformer
    from repro.models.presets import get_preset

    codec = get_codec(WIRE_CODEC)
    dense = get_codec("fp64")
    model = MoETransformer(get_preset("llama-moe-mini"))
    reference = model.expert_state(0, 0)
    rng = np.random.default_rng(0)
    state = {key: value + 0.01 * rng.normal(size=value.shape)
             for key, value in reference.items()}
    params = sum(value.size for value in state.values())

    sparse_frame = encode_state_dict(state, codec, reference=reference)
    dense_frame = encode_state_dict(state, dense)
    analytic = sum(value.size * codec.wire_bytes_per_param(group_size=value.size)
                   for value in state.values())

    fns = {
        "encode": {"wire": lambda: encode_state_dict(state, codec,
                                                     reference=reference)},
        "decode": {"wire": lambda: decode_state_dict(sparse_frame,
                                                     reference=reference)},
        "encode_fp64": {"wire": lambda: encode_state_dict(state, dense)},
    }
    times = _interleaved_best_times(fns, iters, reps)
    return {
        "codec": WIRE_CODEC,
        "params_per_expert": params,
        "measured_frame_bytes": len(sparse_frame),
        "analytic_payload_bytes": analytic,
        "measured_vs_analytic_rel_err":
            abs(len(sparse_frame) - analytic) / analytic,
        "fp64_frame_bytes": len(dense_frame),
        "bytes_ratio_vs_fp64": len(sparse_frame) / len(dense_frame),
        "encode_params_per_s": params / times["encode"]["wire"],
        "decode_params_per_s": params / times["decode"]["wire"],
        "fp64_encode_params_per_s": params / times["encode_fp64"]["wire"],
    }


def _bench_checkpoint(iters: int, reps: int) -> Dict:
    """Full vs sparse-delta model snapshot cost (time and bytes on disk).

    The delta snapshot simulates one federated round: only a top-k slice of
    the experts' parameters moved since the previous snapshot, which is
    exactly the regime ``checkpoint_delta_every`` targets.
    """
    import shutil
    import tempfile

    from repro.models import MoETransformer
    from repro.models.checkpoint import save_state_checkpoint, save_state_delta
    from repro.models.presets import get_preset

    model = MoETransformer(get_preset("llama-moe-mini"))
    previous = {key: np.array(value, copy=True)
                for key, value in model.state_dict().items()}
    rng = np.random.default_rng(0)
    current = {}
    for key, value in previous.items():
        updated = np.array(value, copy=True)
        flat = updated.reshape(-1)
        touched = rng.choice(flat.size, size=max(1, flat.size // 20),
                             replace=False)
        flat[touched] += 0.01
        current[key] = updated

    tmp = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        full_path = os.path.join(tmp, "full.npz")
        delta_path = os.path.join(tmp, "model.delta")
        fns = {
            "full": {"save": lambda: save_state_checkpoint(
                current, model.config, full_path)},
            "delta": {"save": lambda: save_state_delta(
                current, previous, delta_path)},
        }
        times = _interleaved_best_times(fns, iters, reps)
        full_bytes = os.path.getsize(full_path)
        delta_bytes = os.path.getsize(delta_path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "params": sum(value.size for value in previous.values()),
        "touched_fraction": 0.05,
        "full_save_s": times["full"]["save"],
        "delta_save_s": times["delta"]["save"],
        "full_bytes": full_bytes,
        "delta_bytes": delta_bytes,
        "delta_bytes_ratio": delta_bytes / full_bytes,
        "delta_save_speedup": times["full"]["save"] / times["delta"]["save"],
    }


def run_aggregation_suite(quick: bool) -> Dict:
    """The aggregation-throughput benchmark family (``--suite aggregation``)."""
    # Quick mode trims repetitions but keeps the full workload shape: the
    # gated speedups depend on the serial/parallel split of the work, so
    # shrinking the fleet would move the ratios, not just the noise.
    participants = 64
    iters = 2 if quick else 4
    reps = 3 if quick else 6
    model, updates = _make_aggregation_updates(participants)
    shards = {str(n): _bench_shard_fold(updates, n, iters, reps)
              for n in AGG_SHARD_COUNTS}
    tree = {"x".join(map(str, tiers)): _bench_tree_fold(updates, tiers, iters, reps)
            for tiers in AGG_TREE_TIERS}
    decode = _bench_decode(updates, iters, reps)
    alloc_probe = _bench_alloc_probe(updates)
    return {
        "preset": AGG_PRESET,
        "participants": participants,
        "num_keys": len(list(model.iter_expert_ids())),
        "num_updates": len(updates),
        "host_cpus": os.cpu_count(),
        "note": ("serial baseline = one thread decoding + folding the round's "
                 "wire frames (what a transport='wire' root does); "
                 "critical_path_s = max(isolated per-shard/node decode+fold "
                 "job) + measured merge/remainder: the fold wall-clock on a "
                 "host with >= num_shards cores partitioning that same work "
                 "(the jobs are the ones the aggregator servers run; --suite "
                 "service times them through live servers). "
                 "serial_inmemory_* is the analytic-"
                 "transport fold that never decodes, for transparency. "
                 "decode compares fresh-allocation vs scratch-pool "
                 "decode_update throughput; alloc_probe tracemallocs one "
                 "warm fused round (steady_state_scratch_allocations must "
                 "stay 0). prefold is one 256-frame topk:0.25:int4 tree-leaf "
                 "job, a sender's frames at a time vs the frame-at-a-time "
                 "oracle (byte-identical partials asserted first). uplink is "
                 "informational (host-speed frames/s of "
                 "framing one participant's upload, per update vs batched), "
                 "and so are wire (composed topk+int codec frame size vs its "
                 "own analytics and vs fp64) and checkpoint (full vs "
                 "sparse-delta snapshot of the same model state, 5% of "
                 "parameters touched)."),
        "shards": shards,
        "tree": tree,
        "decode": decode,
        "alloc_probe": alloc_probe,
        "prefold": bench_prefold(quick),
        "uplink": bench_uplink(quick),
        "wire": _bench_wire(max(iters, 5), reps),
        "checkpoint": _bench_checkpoint(max(iters // 2, 2), reps),
        "headline_speedup_8shards":
            shards["8"]["speedup_critical_path_vs_serial"],
    }


# ------------------------------------------------------------ service suite
#: shard counts compared serial-vs-service (each shard is one fold job,
#: pinned to one aggregator server)
SERVICE_SHARD_COUNTS = (2, 4)
SERVICE_TRANSPORTS = ("socketpair", "tcp")
#: the depth-3 tree whose full fold critical path (leaf fan-in + both inner
#: tiers routed through the fold plane) is compared service-vs-serial
SERVICE_TREE_TIERS = (8, 4, 2)

#: the compressed service-wire codec of the bytes-on-wire measurement — the
#: paper's headline sparse+quantized setting
SERVICE_WIRE_CODEC = "topk:0.25:int4"


def _service_ratios(times: Dict, num_updates: int, service_pools: Dict) -> Dict:
    """Per-transport wall time and the gated cost ratio against ``serial``."""
    serial_s = times["serial"]["fold"]
    transports = {}
    for transport in service_pools:
        service_s = times[f"service_{transport}"]["fold"]
        transports[transport] = {
            "wall_s": service_s,
            "updates_per_s": num_updates / service_s,
            # how much slower (>1) the same fold jobs are through live servers
            # than run one after another on the calling thread
            "wall_ratio_service_vs_serial": service_s / serial_s,
        }
    return {"serial_wall_s": serial_s,
            "serial_updates_per_s": num_updates / serial_s,
            "transports": transports}


def _bench_service_fold(updates, num_shards: int, iters: int, reps: int,
                        service_pools: Dict) -> Dict:
    """Serial vs service fold of one round's updates at ``num_shards`` shards.

    Both sides fold the *same* pre-framed shard jobs with the same function
    (``repro.service.fold.fold_shard_frames``): serially on the calling
    thread, and through ``ServiceAggregationPool.fold_shards`` — the exact
    critical path the round loop drives — so the measured ratio is the
    transport (length-prefixed socket frames + RPC envelope + server
    hand-over) on top of the fold math.  Interleaved per repetition so
    host-load drift cancels out of the gated ratio.
    """
    from repro.comm import ScratchPool
    from repro.federated import ShardedParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.service.fold import fold_shard_frames, frame_update

    config = get_preset(AGG_PRESET.replace("_", "-"))
    scratch = ScratchPool()
    router = ShardedParameterServer(MoETransformer(config), num_shards=num_shards)
    shard_framed: Dict[int, list] = {}
    for update in updates:
        shard_framed.setdefault(router.shard_of(update.key), []).append(
            frame_update(update, {}))
    jobs = [(shard, framed, {}) for shard, framed in sorted(shard_framed.items())]

    fns = {"serial": {"fold": lambda: [
        fold_shard_frames(None, framed, scratch=scratch) for _, framed, _ in jobs]}}
    for transport, pool in service_pools.items():
        fns[f"service_{transport}"] = {
            "fold": lambda pool=pool: pool.fold_shards(None, jobs)}
    times = _interleaved_best_times(fns, iters, reps)
    return dict(_service_ratios(times, len(updates), service_pools),
                num_jobs=len(jobs))


def _bench_service_tree(updates, tiers, iters: int, reps: int,
                        service_pools: Dict) -> Dict:
    """Serial vs service critical path of a full depth-``len(tiers)`` tree fold.

    Drives the exact per-tier pipeline the aggregation tree runs over a pool:
    leaf pre-folds fan in the participants' frames, then every *inner* tier
    folds its children's partial frames as fresh fold jobs (the inner-tier
    service routing), down to the roots.  Both sides execute identical jobs
    in the same order, so the gated ratio isolates transport overhead — here
    including one request per node, inner nodes included.
    """
    from repro.comm import ScratchPool
    from repro.federated.topology import AggregationTree
    from repro.service.fold import frame_update, prefold_node_frames

    tree = AggregationTree(tiers)
    scratch = ScratchPool()
    framed = [frame_update(u, {}) for u in updates]
    leaf: Dict[int, list] = {}
    for index, frame in enumerate(framed):
        leaf.setdefault(index % tiers[0], []).append(frame)

    def serial_prefold(jobs):
        return [(node, prefold_node_frames(None, pseudo_id, node_frames,
                                           scratch=scratch))
                for node, pseudo_id, node_frames, _ in jobs]

    def fold_tree(prefold):
        current = leaf
        for tier in range(len(tiers)):
            jobs = [(node, tree.pseudo_id(tier, node), node_frames, {})
                    for node, node_frames in sorted(current.items())]
            fan_in = tiers[tier + 1] if tier + 1 < len(tiers) else 1
            current = {}
            for node, partials in prefold(jobs):
                current.setdefault(node % fan_in, []).extend(partials)
        return current

    fns = {"serial": {"fold": lambda: fold_tree(serial_prefold)}}
    for transport, pool in service_pools.items():
        fns[f"service_{transport}"] = {
            "fold": lambda pool=pool: fold_tree(
                lambda jobs: pool.prefold_nodes(None, jobs))}
    times = _interleaved_best_times(fns, iters, reps)
    return dict(_service_ratios(times, len(updates), service_pools),
                tiers=list(tiers))


def _bench_service_wire_bytes(updates, num_shards: int) -> Dict:
    """Fold-job payload bytes: verbatim compressed frames vs fp64 frames.

    Deterministic byte accounting, not a timing: every update is stamped with
    the topk:int4 wire frame the transport would deliver (encoded against a
    shared per-key reference), then the shard jobs are built exactly as the
    parameter server builds them (``frame_update``: the arrived frame, plus
    one fp64 reference frame per key per job) and their length is compared
    with the same updates framed as fp64 — what a job carries for an update
    that arrived without a frame.  ``bytes_ratio_wire_vs_fp64`` is the gated
    cost.
    """
    from repro.comm import encode_update, encode_updates, get_codec
    from repro.federated import ShardedParameterServer
    from repro.models import MoETransformer
    from repro.models.presets import get_preset
    from repro.service.fold import frame_update

    config = get_preset(AGG_PRESET.replace("_", "-"))
    router = ShardedParameterServer(MoETransformer(config),
                                    num_shards=num_shards)
    codec = get_codec(SERVICE_WIRE_CODEC)
    fp64_bytes = sum(map(len, encode_updates(updates, get_codec("fp64"))))
    references: Dict = {}
    shard_refs: Dict[int, dict] = {}
    wire_bytes = 0
    for update in updates:
        if update.key not in references:
            references[update.key] = {
                name: np.zeros_like(np.asarray(value))
                for name, value in update.state.items()}
        update.wire_frame = encode_update(update, codec,
                                          reference=references[update.key])
        update.wire_codec = codec.name
        update.wire_reference = references[update.key]
        wire_bytes += len(frame_update(
            update, shard_refs.setdefault(router.shard_of(update.key), {})))
    wire_bytes += sum(len(frame) for refs in shard_refs.values()
                      for frame in refs.values())
    return {
        "codec": SERVICE_WIRE_CODEC,
        "num_shards": num_shards,
        "fp64_bytes": fp64_bytes,
        "wire_bytes": wire_bytes,
        "bytes_ratio_wire_vs_fp64": wire_bytes / fp64_bytes,
    }


def run_service_suite() -> Dict:
    """The service-backend benchmark family (``--suite service``).

    Compares the fold critical path through the persistent socket-backed
    service plane (both transports) against the same fold jobs run serially
    on the calling thread, plus an RPC round-trip microbenchmark per
    transport.  The gated metric is the machine-independent wall-time *ratio*
    of the two, which a regression in stream framing or the RPC envelope
    would move.
    """
    from repro.service import ServiceAggregationPool

    participants = 64
    # --quick trims nothing: a fold is ~25 ms, and with fewer repetitions the
    # wall ratios follow the host's wake-up latency of the moment
    # (tree/socketpair 1.8-5.1x at 3 repetitions, 2.2-3.0x at 6)
    iters, reps = 4, 6
    model, updates = _make_aggregation_updates(participants)
    max_servers = max(SERVICE_SHARD_COUNTS)
    service_pools = {transport: ServiceAggregationPool(max_servers,
                                                       transport=transport)
                     for transport in SERVICE_TRANSPORTS}
    try:
        # Spawn the servers outside the timings.
        for pool in service_pools.values():
            pool.prefold_nodes(None, [(0, -1, [], {})])
        shards = {str(n): _bench_service_fold(updates, n, iters, reps,
                                              service_pools)
                  for n in SERVICE_SHARD_COUNTS}
        tree = _bench_service_tree(updates, SERVICE_TREE_TIERS, iters, reps,
                                   service_pools)
        rpc = {transport: {"ping_s": _best_time(pool._clients[0].ping, 200, reps)}
               for transport, pool in service_pools.items()}
    finally:
        for pool in service_pools.values():
            pool.close()
    # Runs last: it stamps the shared updates with compressed wire frames.
    wire_bytes = _bench_service_wire_bytes(updates, max_servers)
    headline_shards = str(max(SERVICE_SHARD_COUNTS))
    return {
        "preset": AGG_PRESET,
        "participants": participants,
        "num_keys": len(list(model.iter_expert_ids())),
        "num_updates": len(updates),
        "host_cpus": os.cpu_count(),
        "shards": shards,
        "tree": tree,
        "wire_bytes": wire_bytes,
        "rpc": rpc,
        "note": ("serial and service fold identical pre-framed shard jobs "
                 "with the same job function (bit-identical results, "
                 "test-enforced): serial runs them one after another on the "
                 "calling thread, service through fold_shards on live "
                 "servers.  wall_ratio_service_vs_serial is the gated cost "
                 "ratio (>1 = the transport costs that much on this host): "
                 "stream framing, RPC envelope (one request a job), "
                 "server hand-over.  tree is the same ratio over a full "
                 "depth-3 tree fold with inner tiers routed through the "
                 "plane; wire_bytes compares the bytes of the jobs' frames "
                 "for verbatim compressed-frame forwarding (plus one fp64 "
                 "reference per key per job) vs fp64 frames.  rpc.ping_s is "
                 "one request/response round trip.  On a 1-2 CPU host the "
                 "wall ratios are bimodal (server processes with or without "
                 "a core of their own: tcp 0.9x or 1.8x at 2 shards; "
                 "in-process servers hand the GIL over on wake-ups: "
                 "socketpair 1.6-2.8x), so their GATES rows fail only when "
                 "a ratio more than doubles."),
        "headline_ratio": shards[headline_shards]["transports"]["tcp"][
            "wall_ratio_service_vs_serial"],
        "headline_tree_ratio": tree["transports"]["tcp"][
            "wall_ratio_service_vs_serial"],
        "headline_bytes_ratio": wire_bytes["bytes_ratio_wire_vs_fp64"],
    }


# ---------------------------------------------------------- telemetry suite
TELEMETRY_ROUNDS = 2
TELEMETRY_CLIENTS = 8


def _build_telemetry_tuner(telemetry_dir: Optional[str]):
    """A small sharded 2-tier wire-transport run; telemetry on when a dir is given.

    The wire transport plus edge tier makes the telemetry-on run exercise every
    span family (train, transfer, fold, checkpoint-free round bookkeeping), so
    the measured ratio covers the instrumentation's worst case rather than the
    analytic fast path.
    """
    from repro import (
        FMDFineTuner, MoETransformer, ParameterServer, Participant,
        ParticipantResources, RunConfig, Vocabulary, make_gsm8k_like,
        partition_dirichlet, tiny_moe,
    )
    from repro.models.presets import ARCHITECTURE_DESCRIPTORS
    from repro.systems import CostModel, MemoryModel, heterogeneous_fleet

    vocab = Vocabulary(size=96, num_topics=4)
    config = tiny_moe(vocab_size=vocab.size)
    dataset = make_gsm8k_like(vocab=vocab, num_samples=120, seed=0)
    train, test = dataset.split(seed=0)
    shards = partition_dirichlet(train, TELEMETRY_CLIENTS, alpha=0.5, seed=0)
    devices = heterogeneous_fleet(TELEMETRY_CLIENTS, seed=0, spread=0.5)
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
    participants, cost_models = [], {}
    for pid, (shard, device) in enumerate(zip(shards, devices)):
        participants.append(Participant(
            pid, train.subset(shard), device=device,
            resources=ParticipantResources(max_experts=8, max_tuning_experts=4),
            seed=pid))
        cost_models[pid] = CostModel(device, memory)
    server = ParameterServer(MoETransformer(config))
    run_config = RunConfig(
        batch_size=4, max_local_batches=1, learning_rate=1e-2,
        eval_max_samples=12, seed=0, participants_per_round=6,
        num_shards=2, edge_tiers=(2,), transport="wire",
        telemetry=telemetry_dir is not None, telemetry_dir=telemetry_dir)
    return FMDFineTuner(server, participants, test, cost_models=cost_models,
                        config=run_config)


def _timed_telemetry_run(telemetry_dir: Optional[str]) -> float:
    """Wall time of one fresh run (tuner construction excluded)."""
    tuner = _build_telemetry_tuner(telemetry_dir)
    start = time.perf_counter()
    tuner.run(num_rounds=TELEMETRY_ROUNDS)
    return time.perf_counter() - start


def run_telemetry_suite(quick: bool) -> Dict:
    """The observability-overhead benchmark family (``--suite telemetry``).

    Two measurements, interleaved per repetition so host drift cancels out of
    the gated ratio:

    * the same small federated run with telemetry off vs on (JSONL + exporters
      written to a temp dir) — ``overhead_ratio_on_vs_off`` is the headline;
    * span microbenchmarks — the per-call cost of a ``NullTracer`` span (what
      every instrumentation site pays when telemetry is off) and of a live
      ``Tracer`` span with a sink.
    """
    import shutil
    import tempfile

    from repro.obs import JSONL_FILE, NULL_TRACER, Tracer

    reps = 2 if quick else 4
    best = {"off": float("inf"), "on": float("inf")}
    events_per_run = 0
    for _ in range(reps):
        best["off"] = min(best["off"], _timed_telemetry_run(None))
        tmp = tempfile.mkdtemp(prefix="bench-telemetry-")
        try:
            best["on"] = min(best["on"], _timed_telemetry_run(tmp))
            with open(os.path.join(tmp, JSONL_FILE)) as handle:
                events_per_run = sum(1 for _ in handle)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    tracer = Tracer(sink=lambda span: None)

    def null_span():
        with NULL_TRACER.span("bench", category="fold"):
            pass

    def live_span():
        with tracer.span("bench", category="fold") as span:
            span.set(sim_duration=0.0, payload=1)

    micro_iters = 500 if quick else 2000
    null_span_s = _best_time(null_span, micro_iters, reps)
    live_span_s = _best_time(live_span, micro_iters, reps)
    return {
        "rounds": TELEMETRY_ROUNDS,
        "clients": TELEMETRY_CLIENTS,
        "off_run_s": best["off"],
        "on_run_s": best["on"],
        "overhead_ratio_on_vs_off": best["on"] / best["off"],
        "events_per_run": events_per_run,
        "null_span_ns": null_span_s * 1e9,
        "live_span_ns": live_span_s * 1e9,
        "note": ("off/on runs are the same sharded 2-tier wire-transport "
                 "federation; overhead_ratio_on_vs_off = telemetry-on wall "
                 "time / telemetry-off wall time (best-of interleaved reps). "
                 "null_span_ns is the per-site cost every instrumented code "
                 "path pays when telemetry is off."),
    }


# --------------------------------------------------------------- seed worker
def _worker(spec_json: str) -> None:
    """Run one benchmark family in-process and print JSON (seed subprocess)."""
    spec = json.loads(spec_json)
    if spec["family"] == "hot_loop":
        result = bench_hot_loop(spec["preset"], spec.get("kernel"), spec.get("dtype"),
                                spec["tokens"], spec["iters"], spec["reps"])
    else:
        result = bench_model_step(spec["preset"], spec.get("kernel"), spec.get("dtype"),
                                  spec["tokens"], spec["iters"], spec["reps"])
    print(json.dumps(result))


def bench_seed_reference(seed_src: str, quick: bool) -> Dict:
    """Benchmark a pristine seed checkout with the same driver via subprocess.

    Each seed worker run is paired with an adjacent in-process measurement of
    the batched/float32 fast path, and the recorded speedup is the median of
    the paired ratios — host-speed drift between distant measurements then
    cancels out of the headline number.
    """
    tokens = 1024
    iters = 3 if quick else 10
    reps = 3 if quick else 5
    rounds = 2 if quick else 15
    env = dict(os.environ)
    env["PYTHONPATH"] = seed_src
    out: Dict = {"src": seed_src, "presets": {}, "speedup_batched_f32_vs_seed": {}}
    for preset in PRESET_NAMES:
        preset_result: Dict = {}
        paired_ratios = []
        for family, fam_tokens in (("hot_loop", tokens), ("model_step", min(tokens, 1024))):
            spec = {"family": family, "preset": preset, "tokens": fam_tokens,
                    "iters": iters, "reps": reps}
            merged: Dict[str, float] = {}
            for _ in range(rounds):
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--worker", json.dumps(spec)],
                    capture_output=True, text=True, env=env, cwd="/tmp")
                if proc.returncode != 0:
                    raise RuntimeError(f"seed worker failed for {preset}/{family}: {proc.stderr}")
                sample = json.loads(proc.stdout)
                for key, value in sample.items():
                    if key.endswith("_per_s"):
                        merged[key] = max(merged.get(key, 0.0), value)
                    else:
                        merged.setdefault(key, value)
                if family == "hot_loop":
                    fast = bench_hot_loop(preset, "batched", "float32",
                                          fam_tokens, iters, reps)
                    paired_ratios.append(fast["forward_backward_tokens_per_s"]
                                         / sample["forward_backward_tokens_per_s"])
            preset_result[family] = merged
        preset_result["paired_fwd_bwd_ratios"] = [round(r, 3) for r in paired_ratios]
        out["presets"][preset] = preset_result
        out["speedup_batched_f32_vs_seed"][preset] = float(np.median(paired_ratios))
    return out


# --------------------------------------------------------------------- gate
class Gate(NamedTuple):
    """One gated metric: where it lives in a results file and which way is worse.

    ``path`` is ``/``-separated keys into the results dict; ``*`` walks every
    key the *committed* file has there, ``a|b`` walks those two, and a ``~``
    prefix keeps a segment out of the printed label.  ``direction``: ``"higher"`` fails below
    ``(1 - tolerance) * committed``, ``"lower"`` fails above ``(1 + tolerance)
    * committed``, ``"not-above"`` is a count that must not exceed the
    committed one (no tolerance).  ``tolerance`` is the run's ``--tolerance``
    unless the row sets a wider one, for a metric whose own run-to-run spread
    on one host exceeds it.  ``digits`` is the precision printed.
    """

    suite: str
    path: str
    direction: str
    tolerance: float = 0.0
    digits: int = 2


GATES = (
    Gate("hotpath", "~presets/*/hot_loop|model_step/speedup_batched_f32_vs_loop_f64"
                    "|round_speedup_batched_f32_vs_loop_f64", "higher"),
    Gate("hotpath", "preamble/*/speedup", "higher"),
    Gate("hotpath", "read_rows/*/speedup", "higher"),
    Gate("aggregation", "aggregation/shards/*/~speedup_critical_path_vs_serial", "higher"),
    Gate("aggregation", "aggregation/tree/*/~speedup_critical_path_vs_serial", "higher"),
    Gate("aggregation", "aggregation/decode/speedup_scratch_vs_fresh", "higher"),
    Gate("aggregation", "aggregation/alloc_probe/peak_reduction_buffered_vs_fused", "higher"),
    # a warm fused round must not allocate more than the committed steady state
    Gate("aggregation", "aggregation/alloc_probe/steady_state_scratch_allocations",
         "not-above"),
    Gate("aggregation", "aggregation/prefold/speedup_batched_vs_oracle", "higher"),
    # Wall ratios of live servers are bimodal on a small host: out-of-process
    # servers either get a core of their own or share the caller's (tcp at 2
    # shards: 0.9x or 1.8x of serial), and in-process ones hand the GIL over on
    # wake-ups (socketpair: 1.6-2.8x).  The gate is for a transport cost that
    # more than doubles; the byte ratio is deterministic.
    Gate("service", "service/shards/*/~transports/*/~wall_ratio_service_vs_serial", "lower",
         tolerance=1.0),
    Gate("service", "service/tree/~transports/*/~wall_ratio_service_vs_serial", "lower",
         tolerance=1.0),
    Gate("service", "service/wire_bytes/~bytes_ratio_wire_vs_fp64", "lower"),
    Gate("telemetry", "telemetry/overhead_ratio_on_vs_off", "lower", digits=3),
)


def _gated_entries(tree, segments, keys=(), label=()):
    """Every ``(keys, label, value)`` of ``tree`` that a gate path matches."""
    if not segments:
        yield keys, "/".join(label), tree
        return
    name = segments[0].lstrip("~")
    shown = not segments[0].startswith("~")
    if not isinstance(tree, dict):
        return
    for key in (tree if name == "*" else [key for key in name.split("|") if key in tree]):
        yield from _gated_entries(tree[key], segments[1:], keys + (key,),
                                  label + (key,) if shown else label)


def _lookup(tree, keys):
    for key in keys:
        tree = tree.get(key) if isinstance(tree, dict) else None
    return tree


def _shown(gate: Gate, value) -> str:
    """A ratio at the gate's precision; a count as it is."""
    return str(value) if gate.direction == "not-above" else f"{value:.{gate.digits}f}x"


def check_gates(suite: str, current: Dict, committed: Dict, tolerance: float,
                baseline_path: str) -> int:
    """Gate ``current`` against ``committed`` on every :data:`GATES` row of ``suite``.

    Prints one ``[OK]`` / ``[REGRESSION]`` / ``[MISSING]`` line per committed
    entry and returns the exit code.  A committed entry the current run never
    produced is a broken gate, not a pass — otherwise a partial suite (or a
    renamed shard/tier/preset) would silently stop gating — and so is a
    baseline file that carries nothing of the suite.
    """
    failures = gated = 0
    for gate in GATES:
        if gate.suite != suite:
            continue
        count = gate.direction == "not-above"
        allowed = max(tolerance, gate.tolerance)
        for keys, label, ref in _gated_entries(committed, gate.path.split("/")):
            if ref is None or (not ref and not count):
                continue
            gated += 1
            cur = _lookup(current, keys)
            if cur is None or (not cur and not count):
                print(f"[MISSING] {label}: committed {_shown(gate, ref)} has no "
                      "current measurement")
                failures += 1
                continue
            if count:
                ok, bound = cur <= ref, "must not exceed"
            elif gate.direction == "higher":
                floor = (1.0 - allowed) * ref
                ok, bound = cur >= floor, f"floor {_shown(gate, floor)}"
            else:
                ceiling = (1.0 + allowed) * ref
                ok, bound = cur <= ceiling, f"ceiling {_shown(gate, ceiling)}"
            print(f"[{'OK' if ok else 'REGRESSION'}] {label}: current "
                  f"{_shown(gate, cur)} vs committed {_shown(gate, ref)} ({bound})")
            failures += not ok
    if not gated:
        print(f"[MISSING] {baseline_path} carries no {suite} suite baseline; "
              "a gated suite without a committed reference cannot pass")
        return 1
    if failures:
        print(f"FAILED: {failures} {suite} gate(s) moved the wrong way by more than "
              f"{tolerance:.0%} (or their row's tolerance), or went unmeasured, "
              f"vs {baseline_path}")
        return 1
    print(f"All {suite} gates within {tolerance:.0%} (or their row's tolerance) "
          f"of {baseline_path}")
    return 0


def _git_sha() -> Optional[str]:
    """``git describe --always --dirty`` of the measured checkout (None outside git)."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller token counts / fewer repetitions (CI smoke)")
    parser.add_argument("--suite",
                        choices=("hotpath", "aggregation", "telemetry", "service"),
                        default="hotpath",
                        help="hotpath: MoE kernel/training throughput (default); "
                             "aggregation: server-side fold throughput, serial vs "
                             "its per-shard/per-node fold jobs, across shard counts "
                             "and tree depths, plus composed codec wire bytes and "
                             "full vs delta checkpoint cost; "
                             "telemetry: repro.obs tracing overhead, run-level "
                             "on-vs-off ratio plus span microbenchmarks; "
                             "service: socket-backed aggregator servers vs the "
                             "same fold jobs run serially, per transport, plus "
                             "RPC round-trip latency")
    parser.add_argument("--output", default=None,
                        help="where to write the results JSON (default: "
                             "BENCH_hotpath.json or BENCH_aggregation.json by suite)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare the suite's gated metrics (GATES) against a "
                             "committed baseline JSON; exit 1 on regression "
                             "beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative regression for --check")
    parser.add_argument("--seed-src", metavar="PATH",
                        help="src/ directory of a pristine seed checkout to "
                             "benchmark as seed_reference")
    parser.add_argument("--worker", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        _worker(args.worker)
        return 0

    default_output = {"hotpath": "BENCH_hotpath.json",
                      "aggregation": "BENCH_aggregation.json",
                      "telemetry": "BENCH_telemetry.json",
                      "service": "BENCH_service.json"}[args.suite]
    output = args.output or os.path.join(REPO_ROOT, default_output)
    result = {
        "meta": {
            "schema": 1,
            "suite": args.suite,
            "quick": bool(args.quick),
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "host_cpus": os.cpu_count(),
            "git_sha": _git_sha(),
        },
    }
    if args.suite == "aggregation":
        result["aggregation"] = run_aggregation_suite(args.quick)
    elif args.suite == "telemetry":
        result["telemetry"] = run_telemetry_suite(args.quick)
    elif args.suite == "service":
        result["service"] = run_service_suite()
    else:
        result["presets"] = run_suite(args.quick)
        result["nodes"] = bench_nodes(args.quick)
        result["preamble"] = bench_preamble(args.quick)
        result["read_rows"] = bench_read_rows(args.quick)
        if args.seed_src:
            result["seed_reference"] = bench_seed_reference(args.seed_src, args.quick)

    with open(output, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {output}")
    if args.suite == "aggregation":
        agg = result["aggregation"]
        for shards, entry in agg["shards"].items():
            print(f"  {shards} shard(s): serial {entry['serial_updates_per_s']:,.0f} "
                  f"updates/s, critical-path speedup "
                  f"{entry['speedup_critical_path_vs_serial']:.2f}x")
        for name, entry in agg["tree"].items():
            print(f"  tree {name} (depth {entry['depth']}): serial "
                  f"{entry['serial_updates_per_s']:,.0f} updates/s, critical-path "
                  f"speedup {entry['speedup_critical_path_vs_serial']:.2f}x")
        print(f"  prefold: {agg['prefold']['frames']}-frame {agg['prefold']['codec']} leaf "
              f"job {agg['prefold']['batched_s'] * 1e3:.1f} ms, "
              f"{agg['prefold']['speedup_batched_vs_oracle']:.2f}x the per-frame oracle")
        for preset, entry in agg["uplink"]["presets"].items():
            parts = ", ".join(
                f"{name} {values['batched_frames_per_s']:,.0f}/s "
                f"({values['speedup_batched_vs_oracle']:.2f}x)"
                for name, values in entry["codecs"].items())
            print(f"  uplink {preset}: encode_updates {parts} vs the per-update oracle")
        wire = agg["wire"]
        print(f"  wire {wire['codec']}: {wire['measured_frame_bytes']} B/expert "
              f"measured vs {wire['analytic_payload_bytes']:.0f} B analytic "
              f"({wire['measured_vs_analytic_rel_err']:.1%} off), "
              f"{wire['bytes_ratio_vs_fp64']:.3f}x of fp64")
        ckpt = agg["checkpoint"]
        print(f"  checkpoint: delta {ckpt['delta_bytes']} B vs full "
              f"{ckpt['full_bytes']} B ({ckpt['delta_bytes_ratio']:.3f}x), "
              f"save {ckpt['delta_save_speedup']:.2f}x faster")
        print(f"  headline: {agg['headline_speedup_8shards']:.2f}x fold throughput "
              "at 8 shards (critical path vs serial)")
    elif args.suite == "service":
        service = result["service"]
        for shards, entry in service["shards"].items():
            parts = ", ".join(
                f"{transport} {values['wall_ratio_service_vs_serial']:.2f}x"
                for transport, values in entry["transports"].items())
            print(f"  {shards} shard(s): serial "
                  f"{entry['serial_updates_per_s']:,.0f} updates/s; service "
                  f"wall ratio vs serial: {parts}")
        for transport, entry in service["rpc"].items():
            print(f"  rpc {transport}: ping {entry['ping_s'] * 1e6:,.0f}us")
        print(f"  headline: service/tcp critical path at "
              f"{max(SERVICE_SHARD_COUNTS)} shards is "
              f"{service['headline_ratio']:.2f}x the serial wall time of the same jobs")
    elif args.suite == "telemetry":
        tel = result["telemetry"]
        print(f"  {tel['rounds']}-round run: off {tel['off_run_s']:.2f}s, on "
              f"{tel['on_run_s']:.2f}s -> overhead "
              f"{tel['overhead_ratio_on_vs_off']:.3f}x "
              f"({tel['events_per_run']} events)")
        print(f"  span cost: null {tel['null_span_ns']:.0f}ns, live "
              f"{tel['live_span_ns']:.0f}ns")
    else:
        for preset, families in result["presets"].items():
            print(f"  {preset}: hot-loop fwd+bwd speedup "
                  f"{families['hot_loop']['speedup_batched_f32_vs_loop_f64']:.2f}x, "
                  f"round "
                  f"{families['hot_loop']['round_speedup_batched_f32_vs_loop_f64']:.2f}x")
        for label, entry in result["nodes"]["shapes"].items():
            print(f"  nodes @ {label}: " + ", ".join(
                f"{node} {t['fused_us']:.0f}us ({t['speedup']:.1f}x vs composed)"
                for node, t in entry["nodes"].items()))
        print("  preamble: " + ", ".join(
            f"{step} {t['fast_us']:.0f}us ({t['speedup']:.2f}x)"
            for step, t in result["preamble"].items()) + " vs the paths they replaced")
        print("  read rows: " + ", ".join(
            f"{step} {t['fast_us']:.0f}us ({t['speedup']:.2f}x)"
            for step, t in result["read_rows"].items() if "speedup" in t)
            + " vs every position computed")
        if args.seed_src:
            for preset, value in result["seed_reference"][
                    "speedup_batched_f32_vs_seed"].items():
                print(f"  {preset}: batched/float32 vs seed loop/float64 {value:.2f}x")
    if args.check:
        with open(args.check) as handle:
            committed = json.load(handle)
        return check_gates(args.suite, result, committed, args.tolerance, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
