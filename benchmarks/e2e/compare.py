"""Compare two result files of ``run.py`` against the bounds in
``BENCHMARK.json``.

    python benchmarks/e2e/compare.py out/run-1.json out/run-2.json

One row per workload x end-to-end metric: both values and IQRs, the
change of B relative to A (positive = worse) and a verdict:

``ok``          B is not worse than A by more than the metric's bound
``worse``       it is
``unresolved``  the within-run spread (IQR / median, either side) exceeds
                the bound, so the two cannot be told apart

``failed_share`` has bound 0: any failed cycle on either side is ``worse``.
Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    spread = max(a["iqr"] / a["value"], b["iqr"] / b["value"])
    if spread > bound:
        return change, "unresolved"
    return change, "worse" if change > bound else "ok"


def compare(path_a: Path, path_b: Path, bench: dict) -> bool:
    """Print the table; returns whether any row is ``worse``."""
    a_all = json.loads(Path(path_a).read_text())["workloads"]
    b_all = json.loads(Path(path_b).read_text())["workloads"]
    print(f"A = {path_a}\nB = {path_b}")
    print(
        f"{'workload':<22}{'metric':<14}{'A value':>12}{'A iqr':>10}"
        f"{'B value':>12}{'B iqr':>10}{'change':>9}{'bound':>7}  verdict"
    )
    any_worse = False
    for workload in (w["name"] for w in bench["workloads"]):
        a_run = a_all.get(workload, {}).get("end_to_end")
        b_run = b_all.get(workload, {}).get("end_to_end")
        if not a_run or not b_run:
            continue
        for metric in bench["end_to_end"]:
            a, b = a_run[metric["name"]], b_run[metric["name"]]
            change, word = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= word == "worse"
            print(
                f"{workload:<22}{metric['name']:<14}{a['value']:>12.5g}"
                f"{a['iqr']:>10.3g}{b['value']:>12.5g}{b['iqr']:>10.3g}"
                f"{change:>+9.1%}{metric['bound']:>7.0%}  {word}"
            )
        a, b = a_run["failed_share"]["value"], b_run["failed_share"]["value"]
        word = "ok" if a == 0 and b == 0 else "worse"
        any_worse |= word == "worse"
        print(
            f"{workload:<22}{'failed_share':<14}{a:>12.5g}{'':>10}{b:>12.5g}"
            f"{'':>10}{'':>9}{0:>7.0%}  {word}"
        )
    return any_worse


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 1 if compare(Path(args[0]), Path(args[1]), bench) else 0


if __name__ == "__main__":
    sys.exit(main())
