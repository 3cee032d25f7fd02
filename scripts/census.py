"""Reachability and knob census: what the non-test entry points never touch.

Runs every non-test entry point of the repository under ``sys.setprofile``
(and ``threading.setprofile``, so the in-process aggregator servers' threads
count): the examples, both smokes, ``scripts/run_report.py`` over the trace
the hierarchical example writes and the four end-to-end workloads, plus,
with ``--figures``, the fast figure suite (``REPRO_BENCH_FAST=1``).  Each
entry point runs in its own child process of this script, its output in a
per-entry log under ``--log-dir``.  It writes ``runs/census.json`` with

* ``functions_never_entered`` -- every function defined under ``src/`` that
  no entry point called (``path:line qualname``), and every class none of
  whose methods any entry point called (a class body runs once, at import,
  and ``child_main`` imports ``RunConfig``'s modules before the profiler is
  on, so a class counts as entered when any of its methods is) -- except
  what the census cannot see entered, which goes to
* ``census_blind`` -- each such name with its reason (:func:`census_blind`):
  a class with no methods, a function that runs only while the package is
  imported (an import, profiled in a child of its own, is not an entry
  point), or one that only a spawned TCP aggregator server runs;
* ``run_config_never_set`` -- every ``RunConfig`` field that no entry point
  set to a value other than its default;
* ``run_config_set_by`` -- for every field that was set, the entry points
  that set it;
* per entry point its exit status and, for a pytest entry that failed, the
  ``FAILED`` node ids (``failed_tests``), so a new failure does not hide
  behind a known one.

The test suite is deliberately not an entry point: a function or knob only a
test reaches serves no workload.  Processes the smokes spawn themselves (the
killed resume child, the TCP aggregator servers) are not profiled; the
resume child runs code its parent process also runs, and what only a TCP
server runs is listed in :data:`SPAWNED_SERVER_ONLY`.  The standard library
is enough (``coverage`` is not a dependency)::

    python scripts/census.py [--figures] [--only NAME ...] [--out runs/census.json]
                             [--log-dir DIR]
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
WORKLOADS = REPO / "benchmarks" / "e2e" / "workloads.py"
CENSUS_SEED = 0

#: fields the census reports whatever it finds: they stay even when no entry
#: point sets them (the channel fault probabilities drive the CRC and
#: lost-payload paths; the other two are evaluation settings)
WATCHED_FIELDS = ("channel_loss_prob", "channel_corrupt_prob",
                  "eval_batch_size", "target_relative_accuracy")

#: ``path qualname`` of what only a spawned TCP aggregator server process runs
#: (:func:`repro.service.server.serve_main` and what it calls); the census
#: does not profile the processes an entry point spawns
SPAWNED_SERVER_ONLY = frozenset(
    f"src/repro/service/server.py {qualname}" for qualname in (
        "serve_main", "serve_main.<locals>.watch_parent", "_detach_stdio",
        "AggregatorServer.listen", "AggregatorServer.run_forever"))

#: separates the scripts of a ``scripts`` entry, which run one after another
THEN = "::"


def entry_points(figures: bool) -> Dict[str, Tuple[str, ...]]:
    """Entry-point name -> how the child runs it (``{workdir}``: its scratch dir)."""
    entries: Dict[str, Tuple[str, ...]] = {}
    for path in sorted((REPO / "examples").glob("*.py")):
        entries[f"example:{path.stem}"] = ("script", str(path))
    # absolute: resume_smoke.py runs its killed child from the repository root.
    # Both smokes run as CI runs them: the resume smoke with a stitched trace,
    # the service smoke SIGKILLing a server of a depth-2 tree
    entries["smoke:resume"] = ("script", str(REPO / "scripts" / "resume_smoke.py"),
                               "--workdir", "{workdir}",
                               "--trace-dir", os.path.join("{workdir}", "traces"))
    entries["smoke:service"] = ("script", str(REPO / "scripts" / "service_smoke.py"),
                                "--workdir", "{workdir}", "--kill-server", "--edge-tiers", "2,2")
    # the report renders the trace the hierarchical example writes
    trace_dir = os.path.join("{workdir}", "trace")
    entries["script:run_report"] = (
        "scripts", str(REPO / "examples" / "hierarchical_federation.py"),
        "--trace-dir", trace_dir, THEN, str(REPO / "scripts" / "run_report.py"), trace_dir)
    for name in ("flux_explore", "flux_exploit_deepseek", "fmd_dense", "fmd_wire_service"):
        entries[f"e2e:{name}"] = ("workload", name)
    if figures:
        tests = sorted(str(p) for pattern in ("test_fig*.py", "test_table*.py")
                       for p in (REPO / "benchmarks").glob(pattern))
        entries["figures"] = ("pytest", *tests)
    return entries


# ------------------------------------------------------------------ child side
def _profile_calls(seen: Set, prefix: str = str(SRC)) -> None:
    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen and code.co_filename.startswith(prefix):
                seen.add(code)

    threading.setprofile(profile)
    sys.setprofile(profile)


def _record_run_config(set_fields: Set[str]) -> None:
    """Record every ``RunConfig`` field assigned a non-default value."""
    from repro.federated.orchestrator import RunConfig

    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}

    def setattr_(self, name, value):
        object.__setattr__(self, name, value)
        if name in defaults and name not in set_fields:
            try:
                same = bool(value == defaults[name])
            except (TypeError, ValueError):
                same = False
            if not same:
                set_fields.add(name)

    RunConfig.__setattr__ = setattr_


def _run_workload(name: str, workdir: str) -> None:
    spec = importlib.util.spec_from_file_location("census_e2e_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    tuner = workloads.build(workload, CENSUS_SEED, os.path.join(workdir, "checkpoints"))
    tuner.run(num_rounds=workload.rounds)


def _run_script(argv: List[str]) -> int:
    """Run one script as ``__main__``; its exit status."""
    sys.argv = list(argv)
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    return 0


def _import_everything() -> None:
    """Import every module of the package (what runs at import time)."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        __import__(module.name)


def child_main(kind: str, args: List[str], out: str) -> int:
    sys.path.insert(0, str(SRC))
    seen: Set = set()
    set_fields: Set[str] = set()
    if kind != "import":      # the import pass profiles the imports themselves
        _record_run_config(set_fields)
    workdir = os.getcwd()
    status = 0
    _profile_calls(seen)
    try:
        if kind == "script":
            status = _run_script(args)
        elif kind == "scripts":
            for argv in split_scripts(args):
                status = status or _run_script(argv)
        elif kind == "import":
            _import_everything()
        elif kind == "workload":
            _run_workload(args[0], workdir)
        elif kind == "pytest":
            import pytest

            # pytest-benchmark pauses the profiler around what it times
            # unless it is disabled (each benchmarked call then runs once)
            status = int(pytest.main(["-q", "-p", "no:cacheprovider",
                                      "--benchmark-disable", *args]))
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered = sorted({code_key(code, REPO) for code in seen})
    with open(out, "w") as handle:
        json.dump({"status": status, "entered": entered,
                   "run_config_set": sorted(set_fields)}, handle)
    return 0


def split_scripts(args: List[str]) -> Iterator[List[str]]:
    """The argv of each script of a ``scripts`` entry (separated by :data:`THEN`)."""
    argv: List[str] = []
    for arg in args:
        if arg == THEN:
            yield argv
            argv = []
        else:
            argv.append(arg)
    yield argv


# ----------------------------------------------------------------- parent side
def code_key(code, repo: Path) -> str:
    """``path:line qualname`` of a code object, ``path`` relative to ``repo``."""
    return f"{Path(code.co_filename).relative_to(repo)}:{code.co_firstlineno} {code.co_qualname}"


def _walk_defined(src: Path, repo: Path) -> Dict[str, Tuple[bool, FrozenSet[str]]]:
    """``key -> (is a class, keys defined in its body)`` of every def and class under ``src``."""
    found: Dict[str, Tuple[bool, FrozenSet[str]]] = {}

    def walk(code) -> List[str]:
        keys: List[str] = []
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                named = not const.co_name.startswith("<")
                if named:
                    key = code_key(const, repo)
                    found[key] = (False, frozenset())
                    keys.append(key)
                nested = walk(const)
                # a class body has no local namespace of its own
                if named and not const.co_flags & inspect.CO_NEWLOCALS:
                    found[key] = (True, frozenset(nested))
                keys.extend(nested)
        return keys

    for path in sorted(src.rglob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"))
    return found


def defined_functions(src: Path = SRC, repo: Path = REPO) -> Dict[str, FrozenSet[str]]:
    """Every named function (``def``) and class under ``src``, keyed as the child keys them.

    A class maps to the keys of everything defined in its body (its methods,
    and theirs for a nested class); a function maps to nothing.
    """
    return {key: members for key, (_, members) in _walk_defined(src, repo).items()}


def defined_classes(src: Path = SRC, repo: Path = REPO) -> Set[str]:
    """The keys of :func:`defined_functions` that are classes."""
    return {key for key, (is_class, _) in _walk_defined(src, repo).items() if is_class}


def never_entered(defined: Dict[str, FrozenSet[str]], entered: Set[str]) -> List[str]:
    """The keys of ``defined`` no entry point entered; a class is entered when any of
    its methods is."""
    return [key for key, members in defined.items()
            if key not in entered and not members & entered]


def census_blind(never: List[str], defined: Dict[str, FrozenSet[str]], classes: Set[str],
                 import_entered: Set[str],
                 spawned_only: FrozenSet[str] = SPAWNED_SERVER_ONLY) -> Dict[str, str]:
    """Why the census cannot see each of these never-entered keys entered.

    * a class with no methods: its body runs at import, before the profiler,
      and it has nothing else to enter (exceptions, NamedTuples, dataclasses);
    * a function entered while the package is imported (``import_entered``):
      a module-level call, such as registering a codec instance;
    * a function only a spawned TCP server runs (``spawned_only``, ``path
      qualname`` without the line).
    """
    reasons = {}
    for key in never:
        location, qualname = key.split(" ", 1)
        if key in classes and not defined[key]:
            reasons[key] = "a class with no methods: its body runs at import, before the profiler"
        elif key not in classes and key in import_entered:
            reasons[key] = "runs at import time, before the profiler (a module-level call)"
        elif f"{location.split(':')[0]} {qualname}" in spawned_only:
            reasons[key] = "runs only in a spawned TCP aggregator server, which is not profiled"
    return reasons


#: a pytest short-summary line naming a failed test
_FAILED_LINE = re.compile(r"^FAILED (\S+?)(?: - .*)?$")


def failed_node_ids(log: str, workdir: str = ".", repo: Path = REPO) -> List[str]:
    """The node ids of pytest's ``FAILED <node id> - <reason>`` summary lines.

    pytest prints a node id's path relative to its working directory
    (``workdir``, the child's); it is reported relative to ``repo``.
    """
    node_ids = []
    for match in map(_FAILED_LINE.match, log.splitlines()):
        if match:
            path, sep, rest = match.group(1).partition("::")
            full = Path(os.path.normpath(os.path.join(workdir, path)))
            if full.is_relative_to(repo):
                path = str(full.relative_to(repo))
            node_ids.append(path + sep + rest)
    return node_ids


def run_config_fields() -> List[str]:
    sys.path.insert(0, str(SRC))
    from repro.federated.orchestrator import RunConfig

    return [f.name for f in dataclasses.fields(RunConfig)]


def parent_main(args) -> int:
    entries = entry_points(args.figures)
    if args.only:
        unknown = set(args.only) - set(entries)
        if unknown:
            raise SystemExit(f"unknown entry points: {sorted(unknown)}")
        entries = {name: entries[name] for name in args.only}
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if args.figures:
        env["REPRO_BENCH_FAST"] = "1"
    log_dir = args.log_dir or tempfile.mkdtemp(prefix="census-logs-")
    os.makedirs(log_dir, exist_ok=True)
    results: Dict[str, Dict] = {}
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        # the import pass first: what runs at import time, not an entry point
        for index, (name, (kind, *rest)) in enumerate(
                [("import", ("import",)), *entries.items()]):
            workdir = os.path.join(scratch, f"entry{index}")
            os.makedirs(workdir)
            out = os.path.join(scratch, f"entry{index}.json")
            log_path = os.path.join(log_dir, re.sub(r"[^\w.-]", "_", name) + ".log")
            start = time.perf_counter()
            print(f"[census] {name} ... (log: {log_path})", flush=True)
            with open(log_path, "w") as log:
                child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                        "--child", kind, out,
                                        *(arg.format(workdir=workdir) for arg in rest)],
                                       cwd=workdir, env=env,
                                       stdout=log, stderr=subprocess.STDOUT)
            if child.returncode or not os.path.exists(out):
                raise SystemExit(f"[census] {name}: the profiled child failed "
                                 f"(exit {child.returncode}; see {log_path})")
            with open(out) as handle:
                results[name] = json.load(handle)
            if results[name]["status"]:
                with open(log_path) as log:
                    results[name]["failed_tests"] = failed_node_ids(log.read(), workdir)
            print(f"[census] {name}: exit {results[name]['status']}, "
                  f"{len(results[name]['entered'])} src functions entered, "
                  f"{time.perf_counter() - start:.0f} s", flush=True)
            for node_id in results[name].get("failed_tests", ()):
                print(f"[census]   FAILED {node_id}", flush=True)

    import_entered = set(results.pop("import")["entered"])
    defined = defined_functions()
    entered = set().union(*(set(r["entered"]) for r in results.values()))
    candidates = never_entered(defined, entered)
    blind = census_blind(candidates, defined, defined_classes(), import_entered)
    never = [key for key in candidates if key not in blind]
    fields = run_config_fields()
    set_by = {field: sorted(name for name, r in results.items()
                            if field in r["run_config_set"]) for field in fields}
    report = {
        "entry_points": {name: {"exit_status": r["status"],
                                "functions_entered": len(r["entered"]),
                                **({"failed_tests": r["failed_tests"]}
                                   if "failed_tests" in r else {})}
                         for name, r in results.items()},
        "functions_defined": len(defined),
        "functions_never_entered_count": len(never),
        "functions_never_entered": never,
        "census_blind_count": len(blind),
        "census_blind": [{"function": key, "why": why} for key, why in blind.items()],
        "run_config_fields": len(fields),
        "run_config_never_set": [field for field in fields if not set_by[field]],
        "run_config_set_by": {field: names for field, names in set_by.items() if names},
        "watched_fields": {field: set_by.get(field, []) for field in WATCHED_FIELDS},
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"[census] {len(never)} of {len(defined)} src functions never "
          f"entered ({len(blind)} more the census cannot see entered); "
          f"{len(report['run_config_never_set'])} of {len(fields)} RunConfig "
          f"fields never set -> {args.out}; logs in {log_dir}")
    failed = [name for name, r in results.items() if r["status"] != 0]
    if failed:
        print(f"[census] entry points that exited non-zero: {failed}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        kind, out, *rest = argv[1:]
        return child_main(kind, rest, out)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--figures", action="store_true",
                        help="also run the fast figure suite (slow)")
    parser.add_argument("--only", nargs="+", default=None,
                        help="run only these entry points (e.g. e2e:fmd_dense)")
    parser.add_argument("--out", default=str(REPO / "runs" / "census.json"))
    parser.add_argument("--log-dir", default=None,
                        help="where each entry point's output goes, one log per entry "
                             "(default: a fresh temporary directory)")
    return parent_main(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
