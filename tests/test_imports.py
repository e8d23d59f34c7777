"""Importing the package stays cheap: scipy is a test oracle, not a runtime
dependency of the import, and loading it would cost more than the whole
start-up of a typical run; a single-worker run loads no process pool.  And
every name the benchmark's tracer patches exists, so a refactor cannot
silently drop a traced layer, and README's refusal table names every
violation that src raises."""

import importlib.util
import os
import re
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


def test_single_worker_compare_loads_no_process_pool(tmp_path):
    # the pool's imports (concurrent.futures.process, multiprocessing and
    # the logging it pulls in) add about 1 MB to the peak RSS of a run;
    # mcsim._map_trials imports them only when it starts a pool
    from conftest import FIGURE_FILLS
    from wearnet import experiments, model

    values = model.parse_key_values(experiments.figure_config_text("fig7"))
    values.update(FIGURE_FILLS)
    cfg = tmp_path / "fig7.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    code = ("import sys; from wearnet import cli; "
            "rc = cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process' "
            "or m.split('.')[0] in ('multiprocessing', 'logging'))); "
            "sys.exit(rc)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", code, "--config", str(cfg), "--out-dir",
         str(tmp_path / "out"), "--threads", "1", "compare", "--kind",
         "coverage", "--trials", "300", "--beta-grid-dB=-10:30:10",
         "--tolerance", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "coverage_compare.csv").exists()
    assert proc.stdout.strip().splitlines()[-1] == "[]"


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


def test_refusal_table_names_every_violation():
    # every ConfigError name that src raises, and every _RANGES row, has a
    # row in README's refusal table, and every row names one src raises
    from wearnet import model

    src = "".join(p.read_text() for p in sorted((SRC_DIR / "wearnet").glob("*.py")))
    raised = set(re.findall(r'ConfigError\(\s*"(\w+)"', src))
    raised |= {violation for violation, _, _ in model._RANGES.values()}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Refusals\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert len(rows) == len(set(rows))
    assert sorted(raised - set(rows)) == []
    assert sorted(name for name in rows if f'"{name}"' not in src) == []
