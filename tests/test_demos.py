"""Every demo script imports against the current package, and the
command-line walkthrough runs end to end.

Each demo runs only under its ``if __name__ == "__main__"`` guard and
imports matplotlib lazily, so loading it by path executes its imports and
module constants and nothing else.  A demo that still names a removed
function fails here instead of at its first run.
"""

import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_cli_workflow_runs(tmp_path):
    # No WEARNET_* setting and no installed `wearnet` on PATH, so the
    # script runs this checkout's package with its own arguments.
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEARNET_")}
    env["PATH"] = os.pathsep.join(
        d for d in env.get("PATH", "").split(os.pathsep)
        if not os.path.exists(os.path.join(d, "wearnet")))
    proc = subprocess.run(["sh", str(DEMO_DIR / "cli_workflow.sh")], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "demo_out" / "cli"
    assert "status=PASS" in (out / "summary.txt").read_text()
    for name in ("fig7.cfg", "scenario.cfg", "losball.csv", "coverage_compare.csv"):
        assert (out / name).is_file(), name
