"""Smoke check of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_run_prints_every_name_and_cleans_up():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += ["failed_share", "parallel.executor.strategy", "bar_vs_block"]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        printed = re.search(
            rf"^[ #]*{re.escape(name)}\s", done.stdout, flags=re.MULTILINE
        )
        assert printed, f"{name} is not printed by the smoke run"

    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert not list((HERE / "out").glob("tmp-*")), "temp directory left behind"
