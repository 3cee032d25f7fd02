"""The reachability census's rule for classes, on a toy module.

A class body runs once, when its module is imported, and ``scripts/census.py``
imports ``RunConfig``'s modules before it installs the profiler: a class
counts as entered when any of its methods is.
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
