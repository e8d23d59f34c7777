"""Every demo script imports against the current package.

Each demo runs only under its ``if __name__ == "__main__"`` guard and
imports matplotlib lazily, so loading it by path executes its imports and
module constants and nothing else.  A demo that still names a removed
function fails here instead of at its first run.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
