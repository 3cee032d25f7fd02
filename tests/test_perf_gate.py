"""``benchmarks/perf_harness.py``'s one table-driven regression gate, on synthetic results."""

from __future__ import annotations

import copy
import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))

from perf_harness import GATES, check_gates  # noqa: E402

COMMITTED = {
    "aggregation": {
        "shards": {"1": {"speedup_critical_path_vs_serial": 1.0},
                   "8": {"speedup_critical_path_vs_serial": 8.0}},
        "tree": {"8x4": {"speedup_critical_path_vs_serial": 4.0}},
        "decode": {"speedup_scratch_vs_fresh": 1.2},
        "alloc_probe": {"peak_reduction_buffered_vs_fused": 30.0,
                        "steady_state_scratch_allocations": 0},
    },
    "service": {
        "shards": {"4": {"transports": {"tcp": {"wall_ratio_service_vs_serial": 1.5}}}},
        "tree": {"transports": {"tcp": {"wall_ratio_service_vs_serial": 2.0}}},
        "wire_bytes": {"bytes_ratio_wire_vs_fp64": 0.12},
    },
    "telemetry": {"overhead_ratio_on_vs_off": 1.1},
    "presets": {"tiny_moe": {"hot_loop": {"speedup_batched_f32_vs_loop_f64": 2.0}}},
}


def _run(suite, current, capsys, committed=COMMITTED, tolerance=0.3):
    code = check_gates(suite, current, committed, tolerance, "BASE.json")
    return code, capsys.readouterr().out.splitlines()


def _with(path, value):
    current = copy.deepcopy(COMMITTED)
    node = current
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return current


def test_every_suite_has_a_row_and_a_known_direction():
    assert {gate.suite for gate in GATES} == {
        "hotpath", "aggregation", "sparse", "service", "telemetry"}
    assert {gate.direction for gate in GATES} == {"higher", "lower", "not-above"}


def test_equal_results_pass_and_print_one_line_per_committed_entry(capsys):
    code, lines = _run("aggregation", COMMITTED, capsys)
    assert code == 0
    assert lines == [
        "[OK] aggregation/shards/1: current 1.00x vs committed 1.00x (floor 0.70x)",
        "[OK] aggregation/shards/8: current 8.00x vs committed 8.00x (floor 5.60x)",
        "[OK] aggregation/tree/8x4: current 4.00x vs committed 4.00x (floor 2.80x)",
        "[OK] aggregation/decode/speedup_scratch_vs_fresh: current 1.20x vs "
        "committed 1.20x (floor 0.84x)",
        "[OK] aggregation/alloc_probe/peak_reduction_buffered_vs_fused: current "
        "30.00x vs committed 30.00x (floor 21.00x)",
        "[OK] aggregation/alloc_probe/steady_state_scratch_allocations: current 0 "
        "vs committed 0 (must not exceed)",
        "All aggregation gates within 30% (or their row's tolerance) of BASE.json",
    ]


def test_higher_is_better_regresses_below_the_floor_only(capsys):
    path = ("aggregation", "shards", "8", "speedup_critical_path_vs_serial")
    assert _run("aggregation", _with(path, 5.7), capsys)[0] == 0     # floor is 5.6
    assert _run("aggregation", _with(path, 80.0), capsys)[0] == 0    # better never fails
    code, lines = _run("aggregation", _with(path, 5.5), capsys)
    assert code == 1
    assert ("[REGRESSION] aggregation/shards/8: current 5.50x vs committed 8.00x "
            "(floor 5.60x)") in lines
    assert lines[-1].startswith("FAILED: 1 aggregation gate(s)")


def test_lower_is_better_regresses_above_the_ceiling_only(capsys):
    path = ("service", "wire_bytes", "bytes_ratio_wire_vs_fp64")
    assert _run("service", _with(path, 0.15), capsys)[0] == 0        # ceiling is 0.156
    assert _run("service", _with(path, 0.01), capsys)[0] == 0
    code, lines = _run("service", _with(path, 0.16), capsys)
    assert code == 1
    assert ("[REGRESSION] service/wire_bytes: current 0.16x vs committed 0.12x "
            "(ceiling 0.16x)") in lines


def test_a_row_may_set_a_wider_tolerance_than_the_run(capsys):
    """Live-server wall ratios: only a transport cost that more than doubles fails."""
    path = ("service", "shards", "4", "transports", "tcp", "wall_ratio_service_vs_serial")
    assert _run("service", _with(path, 2.9), capsys)[0] == 0         # ceiling is 3.0
    code, lines = _run("service", _with(path, 3.1), capsys)
    assert code == 1
    assert ("[REGRESSION] service/shards/4/tcp: current 3.10x vs committed 1.50x "
            "(ceiling 3.00x)") in lines
    assert "[OK] service/tree/tcp: current 2.00x vs committed 2.00x (ceiling 4.00x)" in lines
    # ... and a wider --tolerance than the row's still wins
    assert _run("service", _with(path, 3.1), capsys, tolerance=1.5)[0] == 0


def test_tolerance_is_the_callers(capsys):
    current = _with(("telemetry", "overhead_ratio_on_vs_off"), 1.2)
    assert _run("telemetry", current, capsys, tolerance=0.3)[0] == 0
    code, lines = _run("telemetry", current, capsys, tolerance=0.05)
    assert code == 1
    assert lines[0] == ("[REGRESSION] telemetry/overhead_ratio_on_vs_off: current 1.200x "
                        "vs committed 1.100x (ceiling 1.155x)")


def test_an_allocation_count_gates_exactly(capsys):
    """No tolerance: one more allocation than committed fails, even from zero."""
    path = ("aggregation", "alloc_probe", "steady_state_scratch_allocations")
    code, lines = _run("aggregation", _with(path, 1), capsys)
    assert code == 1
    assert ("[REGRESSION] aggregation/alloc_probe/steady_state_scratch_allocations: "
            "current 1 vs committed 0 (must not exceed)") in lines
    committed = _with(path, 3)
    assert _run("aggregation", _with(path, 3), capsys, committed=committed)[0] == 0
    assert _run("aggregation", _with(path, 2), capsys, committed=committed)[0] == 0
    assert _run("aggregation", _with(path, 4), capsys, committed=committed)[0] == 1


@pytest.mark.parametrize("path, line", [
    (("aggregation", "shards", "8"),
     "[MISSING] aggregation/shards/8: committed 8.00x has no current measurement"),
    (("aggregation", "decode"),
     "[MISSING] aggregation/decode/speedup_scratch_vs_fresh: committed 1.20x has no "
     "current measurement"),
    (("aggregation", "alloc_probe", "steady_state_scratch_allocations"),
     "[MISSING] aggregation/alloc_probe/steady_state_scratch_allocations: committed 0 "
     "has no current measurement"),
])
def test_a_committed_entry_without_a_current_measurement_fails(capsys, path, line):
    code, lines = _run("aggregation", _with(path, None), capsys)
    assert code == 1
    assert line in lines


def test_an_entry_only_the_current_run_has_is_not_gated(capsys):
    current = _with(("aggregation", "shards", "16"), {"speedup_critical_path_vs_serial": 0.1})
    assert _run("aggregation", current, capsys)[0] == 0


def test_a_baseline_without_the_suite_fails(capsys):
    code, lines = _run("sparse", COMMITTED, capsys)
    assert code == 1
    assert lines == ["[MISSING] BASE.json carries no sparse suite baseline; a gated "
                     "suite without a committed reference cannot pass"]
    assert _run("hotpath", COMMITTED, capsys, committed={"telemetry": {}})[0] == 1


def test_hidden_and_alternative_path_segments(capsys):
    code, lines = _run("hotpath", COMMITTED, capsys)
    assert code == 0
    assert lines[0] == ("[OK] tiny_moe/hot_loop/speedup_batched_f32_vs_loop_f64: current "
                        "2.00x vs committed 2.00x (floor 1.40x)")
