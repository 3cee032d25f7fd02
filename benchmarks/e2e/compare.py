"""Compare two result files of ``run.py --out``: ``python compare.py A.json B.json``.

A is the parent (or the first set of runs), B the change (or the second set).
One row per (workload, end-to-end metric) with both medians, both quartile
ranges, the share by which B is worse, the bound, and a verdict:

* ``better`` / ``worse`` — B's median differs from A's by more than the bound
  (when the spread is wider than the bound, only if every run of B lies on
  that side of every run of A);
* ``same`` — within the bound;
* ``unresolved`` — the run-to-run spread is wider than the bound and the runs
  overlap, so the files cannot tell.

Per workload it also says whether the per-round loss curves are
``equal-to-rounding`` (rtol 1e-9), ``within-bound`` (every point within the
``final_eval_loss`` bound) or ``differs``, and compares the failure shares.
Exit status 1 on any ``worse``, 2 on files that cannot be compared.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Dict, List, Tuple

CURVE_RTOL = 1e-9


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative: better); absolute when A is 0."""
    delta = (a - b) if better == "higher" else (b - a)
    return delta / abs(a) if a else delta


def verdict(a: Dict, b: Dict, better: str, bound: float) -> Tuple[str, float]:
    """Classify B against A for one metric from their sample statistics."""
    share = worse_by(a["median"], b["median"], better)
    scale = abs(a["median"]) or 1.0
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / scale
    b_all_higher, b_all_lower = b["min"] > a["max"], b["max"] < a["min"]
    b_all_worse, b_all_better = ((b_all_higher, b_all_lower) if better == "lower"
                                 else (b_all_lower, b_all_higher))
    if spread > bound and bound > 0:
        if b_all_worse and share > bound:
            return "worse", share
        if b_all_better:
            return "better", share
        return "unresolved", share
    if share > bound:
        return "worse", share
    if share < -bound or (bound == 0 and share < 0):
        return "better", share
    return "same", share


def curve_verdict(a: Dict, b: Dict, bound: float) -> str:
    """Per-round curves: equal to rounding, train loss only within ``bound``, or different."""
    if not a or not b or len(a["train_loss"]) != len(b["train_loss"]):
        return "differs"
    keys = ("train_loss", "metric_value", "simulated_time")
    if all(math.isclose(x, y, rel_tol=CURVE_RTOL, abs_tol=0.0)
           for key in keys for x, y in zip(a[key], b[key])):
        bits = "same" if a["experts_sha256"] == b["experts_sha256"] else "different"
        return f"equal-to-rounding (final expert bits {bits})"
    if all(math.isclose(x, y, rel_tol=bound) for x, y in zip(a["train_loss"], b["train_loss"])):
        return "within-bound"
    return "differs"


def compare(a: Dict, b: Dict) -> Tuple[List[str], bool]:
    """Report lines and whether any row is ``worse``."""
    table = a["metrics"]
    lines: List[str] = []
    any_worse = False
    if b["metrics"] != table:
        lines.append("note: the two files carry different metric tables; using A's")
    if not (a.get("comparable") and b.get("comparable")):
        lines.append("note: a smoke run is not comparable; verdicts are indicative only")
    header = (f"{'workload':<24s}{'metric':<20s}{'A median':>13s}{'B median':>13s}"
              f"{'A q1..q3':>25s}{'B q1..q3':>25s}{'worse by':>10s}{'bound':>8s}  verdict")
    lines += [header, "-" * len(header)]
    for name, left in a["workloads"].items():
        right = b["workloads"].get(name)
        if right is None:
            lines.append(f"{name:<24s}missing from B")
            continue
        for metric, info in table.items():
            if metric not in left.get("end_to_end", {}) or metric not in right.get(
                    "end_to_end", {}):
                lines.append(f"{name:<24s}{metric:<20s}missing")
                continue
            x, y = left["end_to_end"][metric], right["end_to_end"][metric]
            word, share = verdict(x, y, info["better"], info["bound"])
            any_worse = any_worse or word == "worse"
            lines.append(
                f"{name:<24s}{metric:<20s}{x['median']:>13.6g}{y['median']:>13.6g}"
                f"{x['q1']:>12.5g}..{x['q3']:<11.5g}{y['q1']:>12.5g}..{y['q3']:<11.5g}"
                f"{share:>+10.2%}{info['bound']:>8.3g}  {word}")
        curves = curve_verdict(left.get("fingerprint", {}), right.get("fingerprint", {}),
                               table.get("final_eval_loss", {}).get("bound", 0.0))
        lines.append(f"{name:<24s}{'loss curve':<20s}{curves}")
        lines.append(
            f"{name:<24s}{'failures':<20s}A {left['failed']}/{left['attempted']}"
            f"  B {right['failed']}/{right['attempted']}")
    return lines, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    try:
        with open(argv[0]) as first, open(argv[1]) as second:
            a, b = json.load(first), json.load(second)
        lines, any_worse = compare(a, b)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot compare: {error!r}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
