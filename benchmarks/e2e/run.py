"""End-to-end benchmark of whole federated runs: ``python benchmarks/e2e/run.py``.

Two ways in, one measuring function:

* **suite** (no ``--trace``): ``run.py [--workload NAME]... [--seed 0]
  [--repeats 5] [--out FILE] [--smoke]`` runs every workload, one fresh
  subprocess after another (never in parallel: the host has 2 cores), an
  untraced one for the end-to-end metrics and a traced one for the per-layer
  metrics, prints every metric by name with its unit, checks the outputs and
  exits non-zero on a failed check.
* **worker** (``--trace 0|1``, the ``BENCHMARK.json`` driver contract):
  ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints one JSON object as its last line.

Protocol of one worker: BLAS pinned to one thread before NumPy is imported; one
discarded warm-up run of all R rounds, made with an eager cyclic collector so
that the peak RSS read after it is the working set; then timed repeats under
the default collector, each building a fresh federation and tuner (timed as
set-up) and timing ``tuner.run(num_rounds=R)`` with ``perf_counter`` and
``process_time``; ``gc.collect()`` between repeats; telemetry off.  Load is a
closed loop of one caller.  README.md has the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parents[1]
WORK_DIR = BENCH_DIR / ".work"          # checkpoints and worker records; git-ignored
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_REPEATS = 3          # a worker never reports a median of fewer timed runs
SUITE_REPEATS = 5
SETUP_SAMPLES = 9        # set-up is ~0.1 s, so extra builds make its median steady
TRACE_UNTRACED_REPEATS = 2
COVERAGE_GATE = 0.95     # traced self time must account for this share of the traced wall
EAGER_GC = (20, 1, 1)    # collector thresholds of the warm-up run that measures peak RSS

#: suite-only rows: deterministic, and zero or seed-constant by design, which
#: the driver contract does not admit as bounded end-to-end metrics
SUITE_ONLY_METRICS = {
    "sim_round_s": {"unit": "sim_s", "better": "lower", "bound": 0.001},
    "wire_mb_per_round": {"unit": "MB", "better": "lower", "bound": 0.001},
    "failure_rate": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


def local_module(name: str):
    """Import ``<name>.py`` of this directory as ``e2e_<name>``.

    By path, not through ``sys.path``: ``trace`` is also a standard-library
    module, and whichever was imported first would win.
    """
    qualified = f"e2e_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(qualified, BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
    return sys.modules[qualified]


def load_spec() -> Dict:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_table(spec: Dict) -> Dict[str, Dict]:
    """Unit, direction and bound of every end-to-end row the suite reports."""
    table = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
             for m in spec["end_to_end"]}
    table.update(SUITE_ONLY_METRICS)
    return table


def describe(samples: List[float]) -> Dict:
    """Median, quartiles, range and every raw sample of one timing."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "max": max(samples), "n": len(samples),
            "samples": list(samples)}


# ------------------------------------------------------------------- worker
class Session:
    """One workload measured in this process: warm-up, timed repeats, checks."""

    def __init__(self, name: str, seed: int, rounds: Optional[int]) -> None:
        self.wl = local_module("workloads")
        self.workload = self.wl.WORKLOADS[name]
        self.seed = seed
        self.rounds = rounds or self.workload.rounds
        self.work = WORK_DIR / f"{name}-{os.getpid()}"
        self.problems: List[str] = []
        self.setup_s: List[float] = []
        self.wall_s: List[float] = []
        self.cpu_s: List[float] = []
        self.prints: List[Dict] = []
        self.attempted = self.failed = 0
        self.initial_loss = self.final_loss = float("nan")
        self.sim_round_s = self.wire_mb = self.peak_rss_mb = float("nan")

    def fresh(self):
        """A new federation's tuner, on an empty checkpoint directory."""
        shutil.rmtree(self.work, ignore_errors=True)
        return self.wl.build(self.workload, self.seed, str(self.work / "checkpoints"))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def warm_up(self) -> None:
        """One discarded full run, which also measures ``peak_rss_mb``.

        Under the default collector thresholds the peak is mostly unreachable
        autograd graphs waiting for a full collection, and when that lands
        moves the peak by +-25% from seed to seed.  Collecting eagerly for
        this one run leaves the peak working set, which is steady and is what
        a cache would raise.  The timed repeats use the default thresholds.
        """
        tuner = self.fresh()
        self.initial_loss = self.wl.eval_loss(tuner.server.global_model, tuner.test_dataset)
        defaults = gc.get_threshold()
        gc.set_threshold(*EAGER_GC)
        try:
            result = tuner.run(num_rounds=self.rounds)
        finally:
            gc.set_threshold(*defaults)
        self.peak_rss_mb = peak_rss_mb()
        self.prints.append(self.wl.fingerprint(result, tuner.server.global_model))

    def timed_repeat(self) -> None:
        """Build (timed as set-up), then time one ``run()``; a raise counts as failures."""
        gc.collect()
        rounds = self.rounds
        t0 = time.perf_counter()
        tuner = self.fresh()
        t1 = time.perf_counter()
        c0 = time.process_time()
        try:
            result = tuner.run(num_rounds=rounds)
        except Exception as error:               # noqa: BLE001 - counted and reported below
            self.setup_s.append(t1 - t0)
            lost = rounds * (tuner.config.participants_per_round or self.workload.num_clients)
            self.attempted += lost
            self.failed += lost
            self.problems.append(
                f"repeat {len(self.setup_s)} raised {type(error).__name__}: {error}")
            tuner.close()
            return
        t2 = time.perf_counter()
        c1 = time.process_time()
        self.setup_s.append(t1 - t0)
        self.wall_s.append(t2 - t1)
        self.cpu_s.append(c1 - c0)
        self._account(tuner, result)

    def _account(self, tuner, result) -> None:
        """Untimed: count operations, fingerprint the outcome, evaluate the model."""
        model = tuner.server.global_model
        for r in result.rounds:
            finite = math.isfinite(r.train_loss) and math.isfinite(r.metric_value)
            self.attempted += r.num_selected
            self.failed += (r.num_selected if not finite
                            else r.num_selected - r.num_aggregated
                            + r.payloads_lost + r.payloads_corrupted)
            if r.num_aggregated != r.num_selected:
                self.problems.append(f"round {r.round_index}: aggregated "
                                     f"{r.num_aggregated} of {r.num_selected} selected")
            if not finite:
                self.problems.append(f"round {r.round_index}: non-finite loss or metric")
        self.prints.append(self.wl.fingerprint(result, model))
        self.final_loss = self.wl.eval_loss(model, tuner.test_dataset)
        self.sim_round_s = result.total_time / self.rounds
        self.wire_mb = wire_mb_per_round(result)

    def extra_setups(self) -> None:
        """Set-up is ~0.1 s: build a few more federations so its median is steady."""
        while len(self.setup_s) < SETUP_SAMPLES:
            gc.collect()
            t0 = time.perf_counter()
            tuner = self.fresh()
            self.setup_s.append(time.perf_counter() - t0)
            tuner.close()

    def record(self) -> Dict:
        """Run the cross-repeat checks and lay out everything measured."""
        if not self.wall_s:
            self.problems.append("no repeat completed")
        else:
            if any(p != self.prints[0] for p in self.prints[1:]):
                self.problems.append("runs of one seed gave different fingerprints")
            if not self.final_loss < self.initial_loss:
                self.problems.append(f"final_eval_loss {self.final_loss:.4f} is not below "
                                     f"the untouched model's {self.initial_loss:.4f}")
        record: Dict = {
            "workload": self.workload.name, "why": self.workload.why, "seed": self.seed,
            "rounds": self.rounds, "repeats": len(self.wall_s),
            "attempted": self.attempted, "failed": self.failed, "problems": self.problems,
            "initial_eval_loss": self.initial_loss,
            "peak_rss_default_gc_mb": peak_rss_mb(),
        }
        if self.wall_s:
            wall = describe(self.wall_s)
            record["fingerprint"] = self.prints[0]
            record["run_wall_s"] = wall
            record["end_to_end"] = {
                "rounds_per_s": dict(describe([self.rounds / w for w in self.wall_s]),
                                     median=self.rounds / wall["median"]),
                "run_cpu_s": describe(self.cpu_s),
                "setup_s": describe(self.setup_s),
                "peak_rss_mb": describe([self.peak_rss_mb]),
                "final_eval_loss": describe([self.final_loss]),
                "sim_round_s": describe([self.sim_round_s]),
                "wire_mb_per_round": describe([self.wire_mb]),
                "failure_rate": describe([self.failed / self.attempted]),
            }
        return record

    def traced_run(self, untraced_wall_s: float) -> Dict[str, Optional[float]]:
        """One run with the timing proxies installed; originals restored afterwards."""
        tracing = local_module("trace")
        gc.collect()
        tuner = self.fresh()
        with tracing.Tracer() as tracer:
            tracer.install(tracing.sites_for(self.workload.tuner_class))
            t0 = time.perf_counter()
            result = tuner.run(num_rounds=self.rounds)
            traced_wall_s = time.perf_counter() - t0
        per_layer = tracing.derive(tracer, traced_wall_s, untraced_wall_s)
        per_layer["systems.sim_round_s"] = result.total_time / self.rounds
        per_layer["comm.wire_mb_per_round"] = wire_mb_per_round(result)
        if per_layer["trace.coverage"] < COVERAGE_GATE:
            self.problems.append(
                f"trace.coverage {per_layer['trace.coverage']:.3f} is below {COVERAGE_GATE}")
        return per_layer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0     # Linux: KiB


def wire_mb_per_round(result) -> float:
    return sum(r.wire_bytes + r.edge_bytes for r in result.rounds) / len(result.rounds) / 1e6


def run_workload(name: str, seed: int, *, seconds: Optional[float] = None,
                 repeats: Optional[int] = None, rounds: Optional[int] = None,
                 trace: bool = False) -> Dict:
    """Measure one workload in this process and return its full record.

    ``repeats`` fixes the number of timed runs; otherwise they continue while
    another one still fits in ``seconds`` (never fewer than ``MIN_REPEATS``).
    With ``trace``, two untraced runs give the overhead baseline (half the
    budget at most) and one traced run gives the per-layer metrics.
    """
    if trace:
        seconds = None if seconds is None else seconds / 2
        repeats = None if repeats is None else min(repeats, TRACE_UNTRACED_REPEATS)
    floor = TRACE_UNTRACED_REPEATS if trace else MIN_REPEATS
    session = Session(name, seed, rounds)
    try:
        session.warm_up()
        started = time.perf_counter()
        while True:
            begun = len(session.setup_s)             # completed or raised
            elapsed = time.perf_counter() - started
            if repeats is not None:
                if begun >= repeats:
                    break
            elif begun >= floor and elapsed + elapsed / begun > (seconds or 0.0):
                break
            session.timed_repeat()
        if not trace:
            session.extra_setups()
        record = session.record()
        if trace and session.wall_s:
            record["per_layer"] = session.traced_run(record["run_wall_s"]["median"])
            record["per_layer"]["process.peak_rss_default_gc_mb"] = (
                record["peak_rss_default_gc_mb"])
        return record
    finally:
        session.close()


def driver_line(record: Dict, spec: Dict, trace: bool) -> str:
    """The contract's last line: exactly correct / attempted / failed / metrics."""
    if trace:
        values = record.get("per_layer", {})
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        # a site that no longer exists is null in the record and 0 here: no call was seen
        metrics = {name: {"value": values.get(name) or 0.0, "unit": unit}
                   for name, unit in wanted}
    else:
        values = record.get("end_to_end", {})
        metrics = {m["name"]: {"value": values[m["name"]]["median"], "unit": m["unit"]}
                   for m in spec["end_to_end"] if m["name"] in values}
    return json.dumps({
        "correct": not record["problems"] and record["failed"] == 0,
        "attempted": max(int(record["attempted"]), 1),
        "failed": int(record["failed"]),
        "metrics": metrics,
    })


def worker_main(args, spec: Dict) -> int:
    if len(args.workload) != 1:
        print("worker mode (--trace) takes exactly one --workload", file=sys.stderr)
        return 2
    record = run_workload(
        args.workload[0], args.seed, seconds=args.seconds,
        repeats=args.repeats, rounds=args.rounds, trace=bool(args.trace))
    for problem in record["problems"]:
        print(f"CHECK FAILED [{record['workload']}]: {problem}", file=sys.stderr)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(record, handle)
    print(driver_line(record, spec, bool(args.trace)))
    return 1 if record["problems"] else 0


# -------------------------------------------------------------------- suite
def _git(*command: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        done = subprocess.run(("git",) + command, cwd=REPO, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def collect_meta(args, rounds: Dict[str, int]) -> Dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "seed": args.seed,
        "repeats": args.repeats,
        "rounds": rounds,
    }


def _spawn_worker(name: str, args, trace: int, rounds: Optional[int]) -> Optional[Dict]:
    """Run one worker subprocess to completion and load the record it wrote."""
    out = WORK_DIR / f"record-{name}-{trace}-{os.getpid()}.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--repeats", str(args.repeats),
               "--trace", str(trace), "--out", str(out)]
    if rounds:
        command += ["--rounds", str(rounds)]
    done = subprocess.run(command, cwd=REPO, stdout=subprocess.DEVNULL)   # stderr: check failures
    try:
        with open(out) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        print(f"worker for {name} (trace={trace}) exited {done.returncode} without a record",
              file=sys.stderr)
        return None
    finally:
        out.unlink(missing_ok=True)
    return record


def print_report(results: Dict, spec: Dict) -> None:
    table = results["metrics"]
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, entry in results["workloads"].items():
        print(f"\n== {name}  (R={entry['rounds']}, repeats={entry['repeats']}, "
              f"seed={entry['seed']})")
        for metric, stats in entry.get("end_to_end", {}).items():
            info = table[metric]
            spread = f"  [q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']}]" \
                if stats["n"] > 1 else ""
            print(f"  {metric:<20s} {stats['median']:>14.6g} {info['unit']:<6s} "
                  f"({info['better']} is better, bound {info['bound']:g}){spread}")
        print(f"  {'operations':<20s} {entry['attempted']} attempted, {entry['failed']} failed")
        for metric, value in entry.get("per_layer", {}).items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"    {metric:<58s} {shown:>12s} {layer_units.get(metric, '')}")
        for problem in entry["problems"]:
            print(f"  CHECK FAILED: {problem}")


def suite_main(args, spec: Dict) -> int:
    started = time.perf_counter()
    known = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or known
    unknown = [name for name in chosen if name not in known]
    if unknown:
        print(f"unknown workload(s) {unknown}; BENCHMARK.json names {known}", file=sys.stderr)
        return 2
    if args.smoke:
        args.repeats, rounds = 1, 2
    else:
        args.repeats, rounds = max(args.repeats or SUITE_REPEATS, SUITE_REPEATS), args.rounds
    table = metric_table(spec)
    results: Dict = {"comparable": not args.smoke, "claim": None, "metrics": table,
                     "workloads": {}}
    ok = True
    for name in chosen:
        record = _spawn_worker(name, args, 0, rounds)
        traced = _spawn_worker(name, args, 1, rounds)
        if record is None or traced is None:
            ok = False
            continue
        # end-to-end numbers come only from the untraced worker
        record["problems"] += [f"traced run: {p}" for p in traced["problems"]]
        record["per_layer"] = traced.get("per_layer", {})
        results["workloads"][name] = record
        ok = ok and not record["problems"] and record["failed"] == 0
    results["meta"] = collect_meta(
        args, {name: entry["rounds"] for name, entry in results["workloads"].items()})
    results["meta"]["wall_s"] = time.perf_counter() - started
    print_report(results, spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
        print(f"\nresults written to {args.out}")
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"timed runs per workload (suite: default and minimum "
                             f"{SUITE_REPEATS})")
    parser.add_argument("--out", help="write the full results as JSON to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="1 repeat of 2 rounds per workload; output is not comparable")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="worker mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--seconds", type=float, default=None,
                        help="worker mode: keep timing runs while another fits in this budget")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override every workload's rounds per run (not comparable)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for name in BLAS_ENV:                     # before NumPy is imported, here or in a child
        os.environ[name] = "1"
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    args = parse_args(argv)
    try:
        spec = load_spec()
        import repro  # noqa: F401 - fail early, before any result is printed
    except (OSError, ImportError) as error:
        print(f"benchmark needs the repo's BENCHMARK.json and src/repro: {error}",
              file=sys.stderr)
        return 2
    if args.trace is None:
        return suite_main(args, spec)
    if args.seconds is None and args.repeats is None:
        args.seconds = float(spec["run_seconds"])
    return worker_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
