"""Smoke tests for the example scripts.

Each example is importable, exposes a ``main`` entry point and runs end to
end, so API drift breaks the suite, not just the docs.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))
# Lines an example must print, beyond printing anything at all.
EXPECTED_OUTPUT = {
    "placement_exploration": ("parallelism matrices", "strategies synthesized"),
    "quickstart": ("numerical verification: PASS", "testbed measurement:"),
    "resnet50_data_parallel": ("numerical verification: PASS",),
    "megatron_parameter_sharding": ("best combined placement:",),
}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_at_least_five_examples_exist(self):
        assert len(EXAMPLE_FILES) >= 5
        names = {p.stem for p in EXAMPLE_FILES}
        assert "quickstart" in names
        assert "resnet50_data_parallel" in names

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_imports_and_has_main(self, path):
        module = _load(path)
        assert callable(getattr(module, "main", None))
        assert module.__doc__ and len(module.__doc__) > 80

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_runs_end_to_end(self, path, capsys):
        _load(path).main()
        out = capsys.readouterr().out
        for expected in EXPECTED_OUTPUT.get(path.stem, ()):
            assert expected in out
        assert out.strip()
