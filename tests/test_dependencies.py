"""Everything the tests, tools and benchmark import is declared in pyproject.toml.

CI installs the package with its ``test`` extra, so a third-party import
that ``pyproject.toml`` does not name fails on a clean runner, however well
it runs on a machine that happens to have the package.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import sys
import sysconfig
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("tests", "tools", "bench")


def _is_stdlib(name: str) -> bool:
    if sys.version_info >= (3, 10):
        return name in sys.stdlib_module_names
    return _is_stdlib_by_location(name)


def _is_stdlib_by_location(name: str) -> bool:
    """Python 3.9 has no ``sys.stdlib_module_names``: judge by where the module lives."""
    if name in sys.builtin_module_names:
        return True
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin == "frozen":
        return True
    origin = os.path.realpath(spec.origin)
    paths = sysconfig.get_paths()

    def under(key: str) -> bool:
        return origin.startswith(os.path.realpath(paths[key]) + os.sep)

    # site-packages may sit inside the stdlib directory (venvs, pyenv).
    return (under("stdlib") or under("platstdlib")) and not (
        under("purelib") or under("platlib")
    )


def _first_party() -> Set[str]:
    """The project itself plus every module and package under the scanned trees."""
    names = {"repro"}
    for top in SCANNED:
        for path in (ROOT / top).rglob("*"):
            if path.suffix == ".py":
                names.add(path.stem)
            elif path.is_dir() and (path / "__init__.py").exists():
                names.add(path.name)
    return names


def _third_party_imports() -> Dict[str, str]:
    """Top-level third-party module -> the first file that imports it."""
    first_party = _first_party()
    found: Dict[str, str] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top_name = name.split(".")[0]
                    if top_name not in first_party and not _is_stdlib(top_name):
                        found.setdefault(top_name, str(path.relative_to(ROOT)))
    return found


def _declared() -> Set[str]:
    """Import names of every requirement in ``dependencies`` and the extras."""
    text = re.sub(r"#.*", "", (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project is not None, "pyproject.toml has no [project] table"
    arrays = re.findall(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S)
    extras = re.search(r"^\[project\.optional-dependencies\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    if extras is not None:
        arrays += re.findall(r"=\s*\[(.*?)\]", extras.group(1), re.S)
    declared = set()
    for array in arrays:
        for requirement in re.findall(r'"([^"]+)"', array):
            distribution = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
            declared.add(distribution.lower().replace("-", "_").replace(".", "_"))
    return declared


def test_pyproject_names_every_third_party_import():
    undeclared = {
        name: where for name, where in _third_party_imports().items() if name not in _declared()
    }
    assert undeclared == {}


def test_the_scan_finds_the_test_tools():
    found = _third_party_imports()
    assert {"pytest", "hypothesis"} <= set(found)
    assert not {"repro", "oracles", "harness", "json"} & set(found)


def test_the_location_rule_tells_stdlib_from_installed_packages():
    names = ("json", "sys", "ast", "asyncio", "pytest", "hypothesis", "repro")
    assert [n for n in names if _is_stdlib_by_location(n)] == ["json", "sys", "ast", "asyncio"]
