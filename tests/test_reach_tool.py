"""Tests for the reachability ledger's bookkeeping (``tools/reach.py``).

Driving every entry point takes minutes, so the suite checks the parts that
decide what the report says: the function inventory, the nesting rule, what
fails the ledger, and that every ledger verdict names a function that exists
and a test that exists.
"""

from __future__ import annotations

import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


SOURCE = '''\
import functools


def plain():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


class Thing:
    @property
    def value(self):
        def helper():
            return 3
        return helper()

    def unused(self):
        def inner():
            return 4
        return inner()
'''


def test_inventory_keys_on_the_code_objects_first_line(reach, tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(SOURCE)
    functions = {f.name: f for f in reach.inventory(tmp_path)}
    assert sorted(functions) == [
        "repro.mod:Thing.unused",
        "repro.mod:Thing.unused.<locals>.inner",
        "repro.mod:Thing.value",
        "repro.mod:Thing.value.<locals>.helper",
        "repro.mod:decorated",
        "repro.mod:plain",
    ]
    namespace: dict = {}
    exec(compile(SOURCE, functions["repro.mod:plain"].path, "exec"), namespace)
    # A decorated function's code object starts at its first decorator.
    code = namespace["decorated"].__wrapped__.__code__
    assert functions["repro.mod:decorated"].key == (code.co_filename, code.co_firstlineno)
    code = namespace["Thing"].value.fget.__code__
    assert functions["repro.mod:Thing.value"].key == (code.co_filename, code.co_firstlineno)


def test_only_the_outermost_unentered_function_is_reported(reach, tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "mod.py").write_text(SOURCE)
    functions = reach.inventory(tmp_path)
    by_name = {f.name: f for f in functions}
    entered = {by_name["repro.mod:plain"].key, by_name["repro.mod:Thing.value"].key}
    missed = [f.name for f in reach.unentered(functions, entered)]
    # helper ran inside an entered function yet was not entered itself;
    # inner is covered by its unentered parent.
    assert missed == [
        "repro.mod:decorated",
        "repro.mod:Thing.value.<locals>.helper",
        "repro.mod:Thing.unused",
    ]


def test_every_ledger_verdict_names_a_function_under_src(reach):
    names = {f.name for f in reach.inventory()}
    assert set(reach.LEDGER) <= names, sorted(set(reach.LEDGER) - names)
    root = TOOL.parent.parent
    for name, verdict in reach.LEDGER.items():
        assert verdict.startswith(("error path: ", "library: ")), (name, verdict)
        assert not verdict.startswith("library: test-only"), (name, verdict)
        # Every test a verdict names exists (file::Class::test), and an error
        # path names the test that drives it.
        tests = re.findall(r"(tests/[\w/]+\.py)::(?:\w+::)*(\w+)", verdict)
        assert tests or not verdict.startswith("error path: "), (name, verdict)
        for path, test in tests:
            assert f"def {test}(" in (root / path).read_text(), (name, verdict)


LEDGERED = '''\
def entered():
    return 1


def worker_only():
    return 2


def judged():
    return 3
'''

CLEAN = {
    "repro.mod:worker_only": "library: shard workers",
    "repro.mod:judged": "library: tests/test_reach_tool.py",
}


FORGOTTEN = "\n\ndef forgotten():\n    return 4\n"


@pytest.mark.parametrize(
    "extra_source, extra_ledger, problems",
    [
        # worker_only's entry is not stale: whether a worker or this process
        # runs it depends on timing.
        ("", {}, []),
        (FORGOTTEN, {}, ["unjudged: repro.mod:forgotten"]),
        (
            "",
            {"repro.mod:gone": "library: deleted", "repro.mod:entered": "library: a caller"},
            ["stale ledger entry: repro.mod:entered", "stale ledger entry: repro.mod:gone"],
        ),
        (
            "",
            {"repro.mod:judged": "library: test-only; tests/x.py"},
            ["test-only verdict: repro.mod:judged"],
        ),
    ],
    ids=["clean", "unjudged", "stale", "test-only"],
)
def test_what_fails_the_ledger(reach, monkeypatch, tmp_path, extra_source, extra_ledger,
                               problems):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "mod.py").write_text(LEDGERED + extra_source)
    functions = reach.inventory(tmp_path)
    keys = {f.qualname: f.key for f in functions}
    monkeypatch.setattr(reach, "LEDGER", dict(CLEAN, **extra_ledger))
    entered, worker = {keys["entered"]}, {keys["worker_only"]}
    assert reach.report(functions, entered, worker, out=io.StringIO()) == problems
