"""The package's layers, read from the source with ``ast``.

The planner core never imports the reproduction layer (the evaluation
harness, the numeric runtime, the sweep analysis) or numpy when it is
imported: a planning process pays only for planning.  The reproduction layer
builds on the core, and only the CLI front end sits on both.  Imports inside
functions run when a command asks for them, and ``if TYPE_CHECKING:`` blocks
never run, so neither counts.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

CORE, REPRODUCTION, FRONT = 0, 1, 2
LAYER_NAMES = {CORE: "core", REPRODUCTION: "reproduction", FRONT: "front"}
LAYERS = {
    # The package root and its version module are core: `import repro` loads
    # nothing else (tests/test_api.py checks that).
    "": CORE,
    "_version": CORE,
    **dict.fromkeys(
        (
            "utils", "errors", "obs", "hierarchy", "topology", "dsl", "semantics",
            "synthesis", "cost", "baselines", "search", "query", "api", "service",
            "corpus", "serve", "planner", "compile",
        ),
        CORE,
    ),
    **dict.fromkeys(("evaluation", "runtime", "analysis"), REPRODUCTION),
    "cli": FRONT,
}
# Third-party packages that belong to a layer: numpy is the reproduction
# layer's (the numeric executor, the noise RNG and the testbed).
THIRD_PARTY_LAYERS = {"numpy": REPRODUCTION}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _layer_of(module: str) -> int:
    parts = module.split(".")
    if parts[0] != "repro":
        return THIRD_PARTY_LAYERS.get(parts[0], CORE)
    return LAYERS[parts[1] if len(parts) > 1 else ""]


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _nested_bodies(node: ast.stmt) -> List[List[ast.stmt]]:
    """The statement lists inside ``node`` that run when ``node`` runs."""
    if isinstance(node, ast.If):
        return [node.orelse] if _is_type_checking(node.test) else [node.body, node.orelse]
    if isinstance(node, ast.Try):
        return [node.body, *(h.body for h in node.handlers), node.orelse, node.finalbody]
    if isinstance(node, (ast.ClassDef, ast.With)):
        return [node.body]
    return []


def _module_scope_imports(
    body: List[ast.stmt], module: str, is_package: bool
) -> Iterator[Tuple[int, str]]:
    """(line, imported module) for every import that runs when ``module`` loads."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                anchor = module.split(".")
                anchor = anchor[: len(anchor) - node.level + is_package]
                target = ".".join(anchor + ([node.module] if node.module else []))
            yield node.lineno, target
        else:
            for nested in _nested_bodies(node):
                yield from _module_scope_imports(nested, module, is_package)


def _violations() -> List[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        layer = _layer_of(module)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, target in _module_scope_imports(tree.body, module, path.name == "__init__.py"):
            target_layer = _layer_of(target)
            if target_layer > layer:
                found.append(
                    f"{path.relative_to(SRC)}:{line}: {LAYER_NAMES[layer]} module {module} "
                    f"imports {LAYER_NAMES[target_layer]} {target}"
                )
    return found


def test_every_subpackage_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    packages = {p.parent.name for p in PACKAGE.glob("*/__init__.py")}
    assert modules | packages <= set(LAYERS), sorted((modules | packages) - set(LAYERS))


def test_no_module_imports_a_higher_layer_at_module_scope():
    assert _violations() == []


def test_the_scan_sees_imports_that_run_and_skips_those_that_do_not():
    source = (
        "import numpy\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.runtime import executor\n"
        "try:\n"
        "    from repro.evaluation import runner\n"
        "except ImportError:\n"
        "    from repro.analysis import io\n"
        "class Holder:\n"
        "    from repro.cli import main\n"
        "def lazy():\n"
        "    from repro.evaluation import tables\n"
        "from .model import CostModel\n"
    )
    imports = [
        target
        for _, target in _module_scope_imports(ast.parse(source).body, "repro.cost.batch", False)
    ]
    assert imports == [
        "numpy",
        "typing",
        "repro.evaluation",
        "repro.analysis",
        "repro.cli",
        "repro.cost.model",
    ]
