"""State the precision tier: every end-to-end workload run at float32 and at float64.

The presets train in float32; float64 is the numerics suites' oracle dtype.
This script runs each ``benchmarks/e2e`` workload (imported read-only) once
per seed at both dtypes, from the same float64-drawn initial weights (the
float32 model is their rounded image), and reports what the dtype moves:

* ``final_eval_loss`` at both dtypes and their relative gap;
* the largest per-round train-loss gap;
* whether Flux's merge plans (``plan_compact_model``) and role assignments
  (``ExpertRoleAssigner.assign``) are equal, call for call.

Usage::

    PYTHONPATH=src python scripts/precision_tier.py [--seeds 0 5 29] [--out runs/tier.json]
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import sys
import tempfile
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(REPO_ROOT, "src"))

import repro.core.finetuner as finetuner  # noqa: E402
import repro.core.flux_client as flux_client  # noqa: E402
from repro.models import presets  # noqa: E402

DTYPES = ("float32", "float64")


def _load_workloads():
    path = os.path.join(REPO_ROOT, "benchmarks", "e2e", "workloads.py")
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_once(workloads, name: str, seed: int, dtype: str) -> Dict:
    """One run of workload ``name`` at ``dtype``: losses, plans and assignments."""
    for preset in ("llama_moe_mini", "deepseek_moe_mini"):
        setattr(workloads, preset, functools.partial(getattr(presets, preset), dtype=dtype))
    plans: List = []
    assignments: List = []
    plan_compact_model = flux_client.plan_compact_model
    assign = finetuner.ExpertRoleAssigner.assign

    def recorded_plan(*args, **kwargs):
        plan = plan_compact_model(*args, **kwargs)
        plans.append([plan.tuning_experts, plan.preserved_frozen, plan.clusters,
                      plan.layer_budgets])
        return plan

    def recorded_assign(self, *args, **kwargs):
        result = assign(self, *args, **kwargs)
        assignments.append(sorted(
            (pid, sorted(a.exploitation), sorted(a.exploration), sorted(a.candidates))
            for pid, a in result.items()))
        return result

    flux_client.plan_compact_model = recorded_plan
    finetuner.ExpertRoleAssigner.assign = recorded_assign
    try:
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            tuner = workloads.build(workloads.WORKLOADS[name], seed, checkpoint_dir)
            try:
                result = tuner.run(num_rounds=workloads.WORKLOADS[name].rounds)
                model = tuner.server.global_model
                assert {p.data.dtype.name for p in model.parameters()} == {dtype}
                loss = workloads.eval_loss(model, tuner.test_dataset)
            finally:
                tuner.close()
    finally:
        flux_client.plan_compact_model = plan_compact_model
        finetuner.ExpertRoleAssigner.assign = assign
    return {"final_eval_loss": loss,
            "train_loss": [float(r.train_loss) for r in result.rounds],
            "plans": json.loads(json.dumps(plans, default=int)),
            "assignments": json.loads(json.dumps(assignments, default=int))}


def compare(runs: Dict[str, Dict]) -> Dict:
    low, high = runs["float32"], runs["float64"]
    return {
        "final_eval_loss": {dtype: round(runs[dtype]["final_eval_loss"], 6) for dtype in DTYPES},
        "final_eval_loss_rel_gap": abs(low["final_eval_loss"] - high["final_eval_loss"])
        / abs(high["final_eval_loss"]),
        "max_train_loss_gap": max(abs(a - b) for a, b in zip(low["train_loss"],
                                                             high["train_loss"])),
        "plan_calls": len(high["plans"]),
        "plans_equal": low["plans"] == high["plans"],
        "assignment_calls": len(high["assignments"]),
        "assignments_equal": low["assignments"] == high["assignments"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 5, 29])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--out", default=None, help="write the table as JSON here")
    args = parser.parse_args(argv)
    workloads = _load_workloads()
    table: Dict[str, Dict[str, Dict]] = {}
    for name in args.workloads or list(workloads.WORKLOADS):
        for seed in args.seeds:
            row = compare({dtype: run_once(workloads, name, seed, dtype) for dtype in DTYPES})
            table.setdefault(name, {})[str(seed)] = row
            print(f"{name:<24s} seed {seed:>3d}  eval loss f32 {row['final_eval_loss']['float32']:.6f}"
                  f"  f64 {row['final_eval_loss']['float64']:.6f}"
                  f"  rel gap {row['final_eval_loss_rel_gap']:.2e}"
                  f"  max train gap {row['max_train_loss_gap']:.2e}"
                  f"  plans equal {row['plans_equal']} ({row['plan_calls']})"
                  f"  assignments equal {row['assignments_equal']} ({row['assignment_calls']})",
                  flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(table, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
