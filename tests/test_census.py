"""The reachability census's rules, on toy modules.

A class body runs once, when its module is imported, and ``scripts/census.py``
imports ``RunConfig``'s modules before it installs the profiler: a class
counts as entered when any of its methods is.  What the census cannot see
entered at all (a class with no methods, a call made while the package is
imported, what only a spawned TCP server runs) is set apart with its reason,
and a failed pytest entry point reports its ``FAILED`` node ids.
"""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census.py"

TOY = '''\
class Used:
    def method(self):
        return 1


class Unused:
    def method(self):
        return 2


class Outer:
    class Inner:
        def method(self):
            return 3


def called():
    return Used().method() + Outer.Inner().method()


def never_called():
    return 0
'''


def _census():
    spec = importlib.util.spec_from_file_location("census_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_class_is_entered_when_a_method_is(tmp_path):
    census = _census()
    src = tmp_path / "src"
    src.mkdir()
    (src / "toy_census_module.py").write_text(TOY)
    defined = census.defined_functions(src, tmp_path)
    assert defined["src/toy_census_module.py:1 Used"] == {"src/toy_census_module.py:2 Used.method"}
    assert defined["src/toy_census_module.py:17 called"] == frozenset()

    sys.path.insert(0, str(src))
    try:
        toy = importlib.import_module("toy_census_module")   # class bodies run unprofiled
        seen = set()
        census._profile_calls(seen, prefix=str(src))
        try:
            toy.called()
        finally:
            sys.setprofile(None)
            census.threading.setprofile(None)
    finally:
        sys.path.remove(str(src))
        sys.modules.pop("toy_census_module", None)

    entered = {census.code_key(code, tmp_path) for code in seen}
    assert not any(key.endswith((" Used", " Outer", " Outer.Inner")) for key in entered)
    assert census.never_entered(defined, entered) == [
        "src/toy_census_module.py:6 Unused",
        "src/toy_census_module.py:7 Unused.method",
        "src/toy_census_module.py:21 never_called",
    ]


def test_failed_node_ids_are_read_from_the_pytest_summary():
    census = _census()
    log = "\n".join([
        "..F.s                                                    [100%]",
        "=========================== short test summary info ============================",
        "FAILED benchmarks/test_table2_final_accuracy.py::test_table2 - AssertionError: x",
        "FAILED benchmarks/test_fig10_convergence_llama.py::test_fig10[gsm8k-5]",
        "ERROR benchmarks/test_fig11.py::test_fig11 - fixture 'x' not found",
        "  FAILED is only a summary line at the start of a line",
        "1 failed, 21 passed in 626.00s",
    ])
    assert census.failed_node_ids(log) == [
        "benchmarks/test_table2_final_accuracy.py::test_table2",
        "benchmarks/test_fig10_convergence_llama.py::test_fig10[gsm8k-5]",
    ]
    assert census.failed_node_ids("22 passed in 1.00s") == []


def test_failed_node_ids_are_relative_to_the_repository(tmp_path):
    """pytest prints paths relative to the child's working directory."""
    census = _census()
    workdir = tmp_path / "census-x" / "entry3"
    log = "FAILED ../../benchmarks/test_table2.py::test_table2[llama] - AssertionError"
    assert census.failed_node_ids(log, str(workdir), tmp_path) == [
        "benchmarks/test_table2.py::test_table2[llama]"]


BLIND_TOY = '''\
import dataclasses


class Refused(ValueError):
    """An exception: no methods."""


@dataclasses.dataclass
class Record:
    value: int = 0


class Registered:
    def __init__(self, name):
        self.name = name

    def used(self):
        return self.name


INSTANCE = Registered("made at import")


def serve_forever():
    return 0


def never_called():
    return 1
'''


def test_what_the_census_cannot_see_is_set_apart_with_its_reason(tmp_path):
    """Method-less classes, import-time calls and what only a spawned server runs
    are census-blind; a method or function nothing called stays a candidate."""
    census = _census()
    src = tmp_path / "src"
    src.mkdir()
    (src / "toy_blind_module.py").write_text(BLIND_TOY)
    defined = census.defined_functions(src, tmp_path)
    classes = census.defined_classes(src, tmp_path)
    assert classes == {"src/toy_blind_module.py:4 Refused", "src/toy_blind_module.py:8 Record",
                       "src/toy_blind_module.py:13 Registered"}

    sys.path.insert(0, str(src))
    seen = set()
    try:
        census._profile_calls(seen, prefix=str(src))
        try:
            importlib.import_module("toy_blind_module")      # the import pass
        finally:
            sys.setprofile(None)
            census.threading.setprofile(None)
    finally:
        sys.path.remove(str(src))
        sys.modules.pop("toy_blind_module", None)
    import_entered = {census.code_key(code, tmp_path) for code in seen}

    never = census.never_entered(defined, set())            # no entry point ran anything
    blind = census.census_blind(never, defined, classes, import_entered,
                                spawned_only={"src/toy_blind_module.py serve_forever"})
    assert {key: why.split(":")[0] for key, why in blind.items()} == {
        "src/toy_blind_module.py:4 Refused": "a class with no methods",
        "src/toy_blind_module.py:8 Record": "a class with no methods",
        "src/toy_blind_module.py:14 Registered.__init__":
            "runs at import time, before the profiler (a module-level call)",
        "src/toy_blind_module.py:24 serve_forever":
            "runs only in a spawned TCP aggregator server, which is not profiled",
    }
    assert [key for key in never if key not in blind] == [
        "src/toy_blind_module.py:13 Registered",
        "src/toy_blind_module.py:17 Registered.used",
        "src/toy_blind_module.py:28 never_called",
    ]


def test_a_scripts_entry_runs_its_scripts_in_order():
    census = _census()
    assert list(census.split_scripts(["a.py", "--x", "1", census.THEN, "b.py", "d"])) == [
        ["a.py", "--x", "1"], ["b.py", "d"]]
    assert "script:run_report" in census.entry_points(figures=False)
