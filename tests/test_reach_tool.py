"""Tests for the reachability ledger's bookkeeping (``tools/reach.py``).

Driving every entry point takes minutes, so the suite checks the parts that
decide what the report says: the function inventory, the nesting rule, what
fails the ledger, and that every ledger verdict names a function that exists
and a test that exists.
"""

from __future__ import annotations

import ast
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


def defines(path: Path, chain) -> bool:
    """Whether ``path`` defines the node ``Class::...::test`` (``chain``)."""
    body = ast.parse(path.read_text()).body
    for name in chain:
        node = next(
            (n for n in body
             if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
             and n.name == name),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


def test_every_ledger_verdict_names_a_function_under_src(reach):
    names = {f.name for f in reach.inventory()}
    assert set(reach.LEDGER) <= names, sorted(set(reach.LEDGER) - names)
    root = TOOL.parent.parent
    for name, verdict in reach.LEDGER.items():
        assert verdict.startswith(("error path: ", "library: ", "protocol: ")), (name, verdict)
        assert not verdict.startswith("library: test-only"), (name, verdict)
        # Every test a verdict names exists (file::Class::test, resolved
        # through the class chain), and an error path or a protocol names
        # the test that drives it.
        tests = re.findall(r"(tests/[\w/]+\.py)((?:::\w+)+)", verdict)
        assert tests or verdict.startswith("library: "), (name, verdict)
        for path, node in tests:
            assert defines(root / path, node.split("::")[1:]), (name, verdict)


def test_every_ledger_verdict_keeps_the_rules_of_its_kind(reach):
    """The gate's verdict rules hold for the real ledger without driving any
    entry point: every ``library:`` referent mentions its function."""
    functions = {f.name: f for f in reach.inventory()}
    breaches = {name: reach.breach(functions[name], verdict)
                for name, verdict in reach.LEDGER.items()}
    assert {name: problem for name, problem in breaches.items() if problem} == {}


LEDGERED = '''\
def entered():
    return 1


def worker_only():
    return 2


def judged():
    return 3
'''

CLEAN = {
    "repro.mod:worker_only": "library: bench/caller.py",
    "repro.mod:judged": "library: bench/caller.py; tests/test_reach_tool.py::test_x",
}

CALLER = "from repro.mod import judged, worker_only\n\njudged()\nworker_only()\n"

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
        (
            "",
            {"repro.mod:judged": "library: tests/test_reach_tool.py::test_x"},
            ["library verdict names only tests: repro.mod:judged"],
        ),
        (
            "",
            # The function's own file names it only inside its own def.
            {"repro.mod:judged": "library: bench/caller.py; src/repro/mod.py"},
            ["library verdict names src/repro/mod.py, which does not mention judged: "
             "repro.mod:judged"],
        ),
        (
            "",
            {"repro.mod:judged": "protocol: pickle; tests/test_reach_tool.py::test_x"},
            ["protocol verdict on a name that is not a dunder: repro.mod:judged"],
        ),
        (
            "\n\nclass Box:\n    def __len__(self):\n        return 0\n",
            {"repro.mod:Box.__len__": "protocol: sizing; tests/test_reach_tool.py::test_x"},
            ["protocol verdict names no known protocol: repro.mod:Box.__len__"],
        ),
        (
            "",
            {"repro.mod:judged": "caller: bench/caller.py"},
            ["unknown verdict kind: repro.mod:judged"],
        ),
    ],
    ids=["clean", "unjudged", "stale", "test-only", "names-only-tests",
         "referent-without-mention", "protocol-on-non-dunder", "unknown-protocol",
         "unknown-kind"],
)
def test_what_fails_the_ledger(reach, monkeypatch, tmp_path, extra_source, extra_ledger,
                               problems):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(LEDGERED + extra_source)
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "caller.py").write_text(CALLER)
    functions = reach.inventory(tmp_path / "src")
    keys = {f.qualname: f.key for f in functions}
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "LEDGER", dict(CLEAN, **extra_ledger))
    entered, worker = {keys["entered"]}, {keys["worker_only"]}
    assert reach.report(functions, entered, worker, out=io.StringIO()) == problems


JUDGED = '''\
def judged():
    return 3


def lonely(n):
    return lonely(n - 1) if n else 0


class Box:
    def __reduce__(self):
        return (Box, ())

    def __iter__(self):
        return iter(())

    def __setattr__(self, name, value):
        raise AttributeError(name)

    def __exit__(self, *exc):
        return False
'''

CALLS_BY_ATTRIBUTE = "import repro.mod as mod\n\nmod.judged()\n"
NAMES_IN_TEXT_ONLY = "# judged\nprint('judged')\n"


@pytest.mark.parametrize(
    "qualname, verdict, files, problem",
    [
        ("judged", "library: bench/caller.py", {"bench/caller.py": CALLS_BY_ATTRIBUTE}, None),
        ("judged", "library: examples/demo.py",
         {"examples/demo.py": "from repro.mod import judged\n\njudged()\n"}, None),
        ("judged", "library: README.md (the quickstart)",
         {"README.md": "Call `judged()` once.\n"}, None),
        ("judged", "library: .github/workflows/ci.yml",
         {".github/workflows/ci.yml": "run: python -c 'from repro.mod import judged'\n"}, None),
        ("Box.__reduce__", "protocol: pickle; tests/x.py::test_x", {}, None),
        ("Box.__iter__", "protocol: sequence; tests/x.py::test_x", {}, None),
        ("Box.__setattr__", "protocol: immutability; tests/x.py::test_x", {}, None),
        ("Box.__exit__", "protocol: context manager; tests/x.py::test_x", {}, None),
        ("judged", "error path: tests/x.py::test_x", {}, None),
        ("judged", "library: README.md", {"README.md": "See `judged_twice`.\n"},
         "library verdict names README.md, which does not mention judged"),
        ("judged", "library: bench/caller.py", {"bench/caller.py": NAMES_IN_TEXT_ONLY},
         "library verdict names bench/caller.py, which does not mention judged"),
        # Its only mention is its own recursive call.
        ("lonely", "library: src/repro/mod.py", {},
         "library verdict names src/repro/mod.py, which does not mention lonely"),
        ("judged", "library: bench/gone.py", {},
         "library verdict names bench/gone.py, which does not mention judged"),
        ("judged", "library: bench/caller.py; examples/demo.py",
         {"bench/caller.py": CALLS_BY_ATTRIBUTE, "examples/demo.py": "print(1)\n"},
         "library verdict names examples/demo.py, which does not mention judged"),
        ("judged", "library: tests/oracles/placement.py", {},
         "library verdict names only tests"),
    ],
    ids=["attribute", "name", "readme", "ci", "pickle", "sequence", "immutability",
         "context-manager", "error-path", "readme-longer-word", "text-not-ast",
         "own-def-only", "missing-file", "one-referent-of-two", "tests-oracle"],
)
def test_what_a_verdict_names_must_mention_the_function(
    reach, monkeypatch, tmp_path, qualname, verdict, files, problem
):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(JUDGED)
    for relative, text in files.items():
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(text)
    functions = {f.qualname: f for f in reach.inventory(tmp_path / "src")}
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    assert reach.breach(functions[qualname], verdict) == problem
