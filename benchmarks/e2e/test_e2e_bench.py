"""Self-test of the end-to-end benchmark.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parents[1]
RUN = BENCH_DIR / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("e2e_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
tracing = run.local_module("trace")
compare = run.local_module("compare")


@pytest.fixture(scope="module")
def spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ whole command
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run([sys.executable, str(RUN), "--smoke", "--out", str(out)],
                          cwd=REPO, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


def test_smoke_names_equal_benchmark_json(smoke, spec):
    assert smoke["comparable"] is False and smoke["claim"] is None
    assert list(smoke["workloads"]) == [w["name"] for w in spec["workloads"]]
    bounded = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for entry in smoke["workloads"].values():
        assert set(bounded) <= set(entry["end_to_end"])
        assert set(entry["end_to_end"]) == set(smoke["metrics"])
        assert list(entry["per_layer"]) == per_layer
        assert entry["problems"] == [] and entry["failed"] == 0
        assert entry["per_layer"]["trace.coverage"] >= 0.95
    for key in ("git_sha", "git_dirty", "host_cpus", "python", "numpy", "blas_threads",
                "seed", "repeats", "rounds", "wall_s"):
        assert key in smoke["meta"]


def test_layers_are_used_only_where_predicted(smoke):
    layers = {name: entry["per_layer"] for name, entry in smoke["workloads"].items()}
    estimator = "core.gradient_estimation.estimate_expert_gradient.calls"
    assert layers["flux_explore"][estimator] > 0
    for name in ("flux_exploit_deepseek", "fmd_dense", "fmd_wire_service"):
        assert layers[name][estimator] == 0
    for name, per_layer in layers.items():
        assert (per_layer["comm.encode_update.calls"] > 0) == (name == "fmd_wire_service")
    assert layers["fmd_wire_service"]["service.background.busy_s"] > 0


def test_compare_smoke_with_itself(smoke, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(smoke))
    lines, any_worse = compare.compare(smoke, smoke)
    assert not any_worse
    assert sum("equal-to-rounding" in line for line in lines) == len(smoke["workloads"])
    assert compare.main([str(path), str(path)]) == 0


def _assert_contract_line(text: str, wanted) -> None:
    line = json.loads(text)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())


def test_worker_prints_the_contract_line(smoke, spec):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "fmd_wire_service", "--seed", "3",
         "--repeats", "1", "--rounds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    _assert_contract_line(done.stdout.strip().splitlines()[-1], spec["end_to_end"])
    traced = smoke["workloads"]["flux_explore"]
    _assert_contract_line(run.driver_line(traced, spec, trace=True), spec["per_layer"])


def test_raising_repeat_is_counted_not_swallowed(monkeypatch):
    from repro import FMDFineTuner

    real_run = FMDFineTuner.run
    calls = {"n": 0}

    def flaky(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:                 # warm-up, first repeat, then this one
            raise RuntimeError("injected")
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(FMDFineTuner, "run", flaky)
    record = run.run_workload("fmd_wire_service", seed=0, repeats=2, rounds=1)
    assert record["repeats"] == 1
    assert record["attempted"] == 64 and record["failed"] == 32
    assert record["end_to_end"]["failure_rate"]["median"] == 0.5
    assert any("injected" in problem for problem in record["problems"])
    line = json.loads(run.driver_line(record, run.load_spec(), trace=False))
    assert line["correct"] is False and line["failed"] == 32


# ------------------------------------------------------------------- compare
def _stats(samples):
    return run.describe(list(samples))


def test_compare_verdicts():
    a = _stats([10.0, 10.1, 9.9, 10.0, 10.05])
    assert compare.verdict(a, _stats([10.2, 10.3, 10.1, 10.2, 10.25]), "lower", 0.1)[0] == "same"
    assert compare.verdict(a, _stats([12.0, 12.1, 11.9, 12.0, 12.05]), "lower", 0.1)[0] == "worse"
    assert compare.verdict(a, _stats([12.0, 12.1, 11.9, 12.0, 12.05]), "higher", 0.1)[0] == "better"
    noisy_a = _stats([8.0, 12.0, 9.0, 11.0, 10.0])
    noisy_b = _stats([9.0, 13.5, 10.5, 12.5, 11.5])
    assert compare.verdict(noisy_a, noisy_b, "lower", 0.1)[0] == "unresolved"
    far_b = _stats([20.0, 24.0, 21.0, 23.0, 22.0])
    assert compare.verdict(noisy_a, far_b, "lower", 0.1)[0] == "worse"
    zero = _stats([0.0])
    assert compare.verdict(zero, zero, "lower", 0.0)[0] == "same"
    assert compare.verdict(zero, _stats([0.25]), "lower", 0.0)[0] == "worse"


def test_curve_verdicts():
    base = {"train_loss": [5.0, 4.0], "metric_value": [0.1, 0.2],
            "simulated_time": [1.0, 2.0], "experts_sha256": "x"}
    nudged = dict(base, train_loss=[5.0 * (1 + 1e-12), 4.0], experts_sha256="y")
    assert compare.curve_verdict(base, base, 0.01).startswith("equal-to-rounding")
    assert compare.curve_verdict(base, nudged, 0.01).startswith("equal-to-rounding")
    assert compare.curve_verdict(base, dict(base, train_loss=[5.02, 4.0]), 0.01) == "within-bound"
    assert compare.curve_verdict(base, dict(base, train_loss=[5.5, 4.0]), 0.01) == "differs"
    assert compare.curve_verdict(base, dict(base, train_loss=[5.0]), 0.01) == "differs"


# -------------------------------------------------------------------- tracer
@pytest.fixture
def toy(monkeypatch):
    """A two-module toy program: ``toyprog.user`` imported ``leaf`` from ``toyprog.lib``."""
    lib = types.ModuleType("toyprog.lib")
    user = types.ModuleType("toyprog.user")
    exec(
        "import time\n"
        "def leaf(seconds=0.01):\n"
        "    time.sleep(seconds)\n"
        "    return 'leaf'\n"
        "def boom():\n"
        "    raise ValueError('boom')\n"
        "class Box:\n"
        "    def outer(self):\n"
        "        time.sleep(0.01)\n"
        "        return [leaf(), leaf()]\n"
        "    def fails(self):\n"
        "        return boom()\n", lib.__dict__)
    user.leaf = lib.leaf                      # what ``from .lib import leaf`` does
    for module in (lib, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    sites = (
        tracing.Site("lib.outer", "toyprog.lib", "Box.outer"),
        tracing.Site("lib.fails", "toyprog.lib", "Box.fails"),
        tracing.Site("lib.leaf", "toyprog.lib", "leaf"),
        tracing.Site("lib.boom", "toyprog.lib", "boom"),
        tracing.Site("lib.gone", "toyprog.lib", "no_such_function"),
        tracing.Site("lib.gone_method", "toyprog.lib", "Box.no_such_method"),
    )
    return lib, user, sites


def test_tracer_nesting_and_self_time(toy):
    lib, user, sites = toy
    with tracing.Tracer(prefix="toyprog") as tracer:
        tracer.install(sites)
        assert lib.Box().outer() == ["leaf", "leaf"]
        assert user.leaf() == "leaf"          # the re-bound name is traced too
    stats = tracer.site_stats()
    outer_calls, outer_total, outer_self = stats["lib.outer"]
    leaf_calls, leaf_total, leaf_self = stats["lib.leaf"]
    assert (outer_calls, leaf_calls) == (1, 3)
    assert leaf_self == pytest.approx(leaf_total)
    assert outer_total >= 0.03 and leaf_total >= 0.03
    two_leaves = outer_total - outer_self
    assert 0.02 <= two_leaves < leaf_total          # self = total - children
    assert tracer.calls_under("lib.leaf", "lib.outer") == 2
    assert tracer.outermost_total(("lib.outer", "lib.leaf")) == pytest.approx(
        outer_total + leaf_total - two_leaves)


def test_tracer_exception_still_closes_the_span(toy):
    lib, _user, sites = toy
    with tracing.Tracer(prefix="toyprog") as tracer:
        tracer.install(sites)
        with pytest.raises(ValueError, match="boom"):
            lib.Box().fails()
        lib.leaf(0.0)                          # must be a root span, not a child of the dead one
    stats = tracer.site_stats()
    assert stats["lib.fails"][0] == 1 and stats["lib.boom"][0] == 1
    assert stats["lib.fails"][2] == pytest.approx(stats["lib.fails"][1] - stats["lib.boom"][1])
    assert tracer.calls_under("lib.leaf", "lib.fails") == 0


def test_tracer_missing_target_is_null_and_originals_come_back(toy, capsys):
    lib, user, sites = toy
    originals = (lib.leaf, lib.Box.__dict__["outer"], user.leaf)
    tracer = tracing.Tracer(prefix="toyprog")
    tracer.install(sites)
    assert lib.leaf is not originals[0] and user.leaf is lib.leaf
    tracer.restore()
    assert (lib.leaf, lib.Box.__dict__["outer"], user.leaf) == originals
    assert tracer.missing == ["lib.gone", "lib.gone_method"]
    assert "lib.gone" in capsys.readouterr().err
    table = tracing.derive(tracer, traced_wall_s=1.0, untraced_wall_s=1.0)
    assert table["lib.gone.calls"] is None and table["lib.gone_method.total_s"] is None
    assert table["lib.leaf.calls"] == 0.0


def test_tracer_threads_are_isolated(toy):
    lib, _user, sites = toy
    with tracing.Tracer(prefix="toyprog") as tracer:
        tracer.install(sites)
        gate = threading.Event()

        def background():
            gate.wait(timeout=5)
            lib.leaf(0.02)

        thread = threading.Thread(target=background)
        thread.start()
        started = time.perf_counter()
        gate.set()
        lib.Box().outer()                      # open on the main thread while the other runs
        thread.join(timeout=5)
        assert not thread.is_alive()
        elapsed = time.perf_counter() - started
    stats = tracer.site_stats()
    assert stats["lib.leaf"][0] == 2           # the background call is not a main-thread call
    assert stats["lib.outer"][1] - stats["lib.outer"][2] == pytest.approx(stats["lib.leaf"][1])
    assert 0.02 <= tracer.background_busy_s() <= elapsed
