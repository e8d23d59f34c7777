"""Importing the package stays cheap: scipy is a test oracle, not a runtime
dependency of the import, and loading it would cost more than the whole
start-up of a typical run.  And every name the benchmark's tracer patches
exists, so a refactor cannot silently drop a traced layer."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"


def test_import_loads_no_scipy():
    code = ("import sys, wearnet, wearnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_traced_names_exist():
    # bench/tracing.py records a missing name as an absent layer and runs
    # on; here it fails
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, _, _ in tracing.INSTRUMENTS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.INSTRUMENTS and missing == []
