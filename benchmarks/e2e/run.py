"""The repo's benchmark of record: a real read -> stage -> analyse -> write
cycle on real files, four named workloads, end-to-end and per-layer.

    python benchmarks/e2e/run.py                      # every workload, both runs
    python benchmarks/e2e/run.py --workload io_bar --trace 0
    python benchmarks/e2e/run.py --smoke              # seconds, tiny sizes
    python benchmarks/e2e/run.py --repeat 2           # two sets + compare.py

Each workload runs in a fresh subprocess (``cycle.py``) with one BLAS
thread, so that threads + workers <= nproc.  ``--trace 0`` is the untraced
run that gives the end-to-end metrics, ``--trace 1`` (= ``--traced``) the
traced run that gives the per-layer ones; without either, both run.  Metric
names, units, bounds and ``run_seconds`` come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with one workload
and one ``--trace`` value, ``metrics`` holds exactly the ``end_to_end`` or
``per_layer`` metrics of ``BENCHMARK.json``.  Exit code 1 on any failed
check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SMOKE_SECONDS = 1


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> dict:
    """One workload, one fresh process, one BLAS thread."""
    command = [
        sys.executable, str(HERE / "cycle.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    env = dict(os.environ, **{name: "1" for name in PINNED})
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise SystemExit(
            f"{workload}: cycle.py exited with code {done.returncode} and "
            f"no result"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_table(kind: str, rows: dict, info: dict) -> None:
    print(f"   {kind}")
    print(f"   {'metric':<36}{'unit':<8}{'value':>14}{'iqr':>12}{'n':>4}")
    for metric, row in rows.items():
        print(
            f"   {metric:<36}{row['unit']:<8}{row['value']:>14.6g}"
            f"{row['iqr']:>12.3g}{row['n']:>4}"
        )
    for key, value in info.items():
        print(f"   {key:<36}{value}")


def run_set(bench: dict, workloads: list[str], traces: list[int], seed: int,
            seconds: float, smoke: bool) -> dict:
    """Every selected workload x run kind; prints as it goes."""
    units = {
        m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]
    }
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    results: dict = {}
    for name in workloads:
        entry = results[name] = {"attempted": 0, "failed": 0, "failures": []}
        print(f"\n## {name}\n   {why[name]}")
        for trace in traces:
            child = run_child(name, seed, seconds, trace, smoke)
            if "sizes" not in entry:
                entry["sizes"], entry["env"] = child["sizes"], child["env"]
                for part in (child["env"], child["sizes"]):
                    print("   " + " ".join(f"{k}={v}" for k, v in part.items()))
            for key in ("attempted", "failed", "failures"):
                entry[key] += child[key]
            kind = "per_layer" if trace else "end_to_end"
            samples, metrics = child["samples"], child["metrics"]
            # BENCHMARK.json's order first, then what it does not list
            order = [m["name"] for m in bench[kind] if m["name"] in metrics]
            entry[kind] = {
                metric: {
                    "value": metrics[metric],
                    "unit": units.get(
                        metric, "s" if metric.endswith("_s") else "ratio"
                    ),
                    "iqr": iqr(samples.get(metric, [])),
                    "n": len(samples.get(metric, [])) or 1,
                }
                for metric in order + [m for m in metrics if m not in order]
            }
            entry[kind + "_info"] = child["info"]
            print_table(
                f"{kind} ({'traced' if trace else 'untraced'} run)",
                entry[kind], child["info"],
            )
        print(
            f"   cycles_attempted={entry['attempted']} "
            f"cycles_failed={entry['failed']}"
        )
        for failure in entry["failures"]:
            print(f"   FAILED {failure}")
    bar, block = (
        results.get(n, {}).get("end_to_end", {}).get("cycle_s")
        for n in ("io_bar", "io_block")
    )
    if bar and block:
        print(
            f"\nbar_vs_block = io_block.cycle_s / io_bar.cycle_s = "
            f"{block['value'] / bar['value']:.3f}"
        )
    return results


def contract_line(bench: dict, results: dict, workloads: list[str],
                  traces: list[int]) -> str:
    """The driver's result object (see BENCHMARK.json's contract)."""
    def metrics_of(name: str, trace: int) -> dict:
        kind = "per_layer" if trace else "end_to_end"
        return {
            m["name"]: {
                "value": results[name][kind][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in bench[kind]
        }

    if len(workloads) == 1 and len(traces) == 1:
        metrics = metrics_of(workloads[0], traces[0])
    else:  # not the driver's call: one object per workload
        metrics = {name: metrics_of(name, traces[0]) for name in workloads}
    attempted = sum(results[n]["attempted"] for n in workloads)
    failed = sum(results[n]["failed"] for n in workloads)
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, help="measured seconds per run "
                        f"(default {bench['run_seconds']}, smoke {SMOKE_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    if nproc < 2:
        print(f"refusing to run: {nproc} usable core(s), the benchmark needs 2 "
              "(2 workers x 1 BLAS thread)", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else bench["run_seconds"]
    )
    header = {
        "commit": git_commit(), "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "nproc": nproc, "loadavg_1m": os.getloadavg()[0],
    }
    print("# e2e cycle benchmark " + " ".join(
        f"{k}={v}" for k, v in header.items()
    ))
    OUT_DIR.mkdir(exist_ok=True)
    paths = []
    for repeat in range(1, args.repeat + 1):
        if args.repeat > 1:
            print(f"\n# set {repeat} of {args.repeat}")
        results = run_set(
            bench, workloads, traces, args.seed, seconds, args.smoke
        )
        paths.append(
            OUT_DIR / f"{'smoke' if args.smoke else 'run'}-{repeat}.json"
        )
        paths[-1].write_text(json.dumps(
            {"header": header, "workloads": results}, indent=1
        ))
        print(f"\nwrote {paths[-1].relative_to(ROOT)}")
    worse = False
    if args.repeat > 1:
        from compare import compare

        print()
        worse = compare(paths[0], paths[-1], bench)
    print(contract_line(bench, results, workloads, traces))
    failed = any(results[n]["failed"] for n in workloads)
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
