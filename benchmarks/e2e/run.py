"""End-to-end request ladder: one benchmark for the whole request path.

    python benchmarks/e2e/run.py                      # all four workloads
    python benchmarks/e2e/run.py --traced             # + per-layer attribution
    python benchmarks/e2e/run.py --smoke              # 5 % scale, < 15 s
    python benchmarks/e2e/run.py --repeat 5 --label baseline
    python benchmarks/e2e/run.py --workload ms_hot --seed 7 --seconds 20 --trace 0

With ``--workload`` the workload is measured in this process and the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) — the form the benchmark driver
consumes.  Without it, each workload runs in a fresh interpreter (a
clean ``peak_rss_mb``) and the results are written, with an environment
stamp, to ``benchmarks/e2e/results/<label>.json``.

See README.md beside this file for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import platform
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"
# The program under test is this checkout's ``src/`` and nothing else.
sys.path.insert(0, str(ROOT / "src"))

try:
    from measure import END_TO_END_UNITS, layer_unit, measure  # noqa: E402
except ModuleNotFoundError as error:
    if (error.name or "").split(".")[0] != "repro":
        raise
    sys.exit(f"the program under test is missing from {ROOT / 'src'}: {error}")
from spans import SPAN_FIELDS  # noqa: E402
from stats import format_spread, steady, summarize  # noqa: E402
from workloads import WORKLOADS, fixed_configuration  # noqa: E402


def load_benchmark() -> dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# One workload, in this process
# ---------------------------------------------------------------------- #


def _format(value: Optional[float]) -> str:
    if value is None:
        return "n/a (too few samples)"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(report: dict[str, Any]) -> None:
    """Every metric by name, with its unit and its sample count."""
    name = report["workload"]
    samples = report["samples"]
    rounds = report["rounds"]
    print(
        f"== {name}  seed={report['seed']}  rounds={rounds}  "
        f"ops/round={report['ops_per_round']}  digest={report['digest']}"
    )
    notes = {
        "ops_per_s": f"median of {rounds} rounds",
        "write_p50_us": f"n={samples['write']} per round",
        "write_p99_us": f"n={samples['write']} per round",
        "read_p50_us": f"n={samples['read']} per round",
        "read_p99_us": f"n={samples['read']} per round",
        "staleness_p99_vt": f"n={samples['served_reads']}",
        "setup_s": f"median of {rounds} set-ups",
    }
    for metric, value in {**report["end_to_end"], **report["shared"]}.items():
        unit = END_TO_END_UNITS.get(metric) or layer_unit(metric)
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{name:10s} {metric:22s} {_format(value):>14s} {unit}{note}")
    per_layer = report.get("per_layer")
    if per_layer is not None:
        for metric, value in per_layer.items():
            if metric in report["shared"]:
                continue
            print(
                f"{name:10s} {metric:26s} {_format(value):>14s} {layer_unit(metric)}"
            )
        trace = report["trace"]
        print(
            f"{name:10s} self times sum to {trace['self_time_sum_s']:.4f} s of "
            f"{trace['wall_s']:.4f} s traced wall; top layers: "
            + ", ".join(
                f"{top['metric']} {top['share']:.1%}" for top in trace["top_layers"]
            )
        )
    for failure in report["failures"]:
        print(f"FAILED {name}: {failure}", file=sys.stderr)


def write_trace(report: dict[str, Any]) -> pathlib.Path:
    """The first ops' span trees, as ``results/trace-<workload>.json``."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{report['workload']}.json"
    trace = report["trace"]
    path.write_text(
        json.dumps(
            {
                "workload": report["workload"],
                "seed": report["seed"],
                "fields": list(SPAN_FIELDS),
                "note": (
                    "parent is an index into spans (-1: root); op is the client "
                    "op being executed (-1: background work between ops)"
                ),
                "spans": trace["spans"],
            }
        )
    )
    return path


def contract_line(report: dict[str, Any], traced: bool) -> str:
    """The one JSON object the benchmark driver reads."""
    if traced:
        values = report["per_layer"]
        metrics = {
            name: {"value": 0.0 if value is None else value, "unit": layer_unit(name)}
            for name, value in values.items()
        }
    else:
        metrics = {
            name: {"value": report["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> int:
    report = measure(name, seed, seconds, traced=traced, smoke=smoke)
    print_report(report)
    if traced:
        print(f"trace written to {write_trace(report).relative_to(ROOT)}")
    sys.stdout.flush()
    print(contract_line(report, traced))
    return 1 if report["failed"] else 0


# ---------------------------------------------------------------------- #
# All workloads, one fresh interpreter each
# ---------------------------------------------------------------------- #


def _measure_and_print(*args: Any, **kwargs: Any) -> dict[str, Any]:
    report = measure(*args, **kwargs)
    print_report(report)
    sys.stdout.flush()
    return report


def _in_fresh_process(*args: Any, **kwargs: Any) -> dict[str, Any]:
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        return pool.submit(_measure_and_print, *args, **kwargs).result()


def environment_stamp(seed: int) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "load_average_1m": os.getloadavg()[0],
        "git_commit": commit,
        "seed": seed,
    }


def summarize_runs(
    runs: list[dict[str, Any]], benchmark: dict[str, Any]
) -> dict[str, Any]:
    """Median, quartiles and spread of each end-to-end metric over the
    repeated runs, judged against the metric's bound."""
    summary = {}
    for spec in benchmark["end_to_end"]:
        values = [run["end_to_end"][spec["name"]] for run in runs]
        if any(value is None for value in values):
            continue
        entry = summarize(values)
        entry["bound"] = spec["bound"]
        entry["verdict"] = "steady" if steady(entry, spec["bound"]) else "unresolved"
        summary[spec["name"]] = entry
    return summary


def run_all(
    seed: int, seconds: float, traced: bool, smoke: bool, repeat: int, label: str
) -> int:
    benchmark = load_benchmark()
    stamp = environment_stamp(seed)
    results: dict[str, Any] = {}
    failed = 0
    for name in WORKLOADS:
        runs = [
            _in_fresh_process(name, seed, seconds, traced=False, smoke=smoke)
            for _ in range(repeat)
        ]
        entry: dict[str, Any] = {
            "why": WORKLOADS[name].why,
            "op_counts": runs[0]["samples"],
            "digest": runs[0]["digest"],
            "runs": [
                {key: run[key] for key in ("rounds", "attempted", "failed", "end_to_end", "shared")}
                for run in runs
            ],
            "summary": summarize_runs(runs, benchmark),
        }
        failed += sum(run["failed"] for run in runs)
        for run in runs[1:]:
            if run["digest"] != runs[0]["digest"]:
                failed += 1
                print(
                    f"FAILED {name}: fresh processes disagree on the digest "
                    f"({run['digest']} vs {runs[0]['digest']})",
                    file=sys.stderr,
                )
        if traced:
            traced_run = _in_fresh_process(name, seed, seconds, traced=True, smoke=smoke)
            failed += traced_run["failed"]
            write_trace(traced_run)
            trace = traced_run["trace"]
            entry["per_layer"] = traced_run["per_layer"]
            entry["trace"] = {k: v for k, v in trace.items() if k != "spans"}
        for metric, stats in entry["summary"].items():
            print(
                f"{name:10s} {metric:14s} median {stats['median']:.6g}  "
                f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                f"spread {format_spread(stats)} of bound {stats['bound']:.0%}: "
                f"{stats['verdict']}"
            )
        results[name] = entry

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{label}.json"
    path.write_text(
        json.dumps(
            {
                "label": label,
                "stamp": stamp,
                "smoke": smoke,
                "seconds": seconds,
                "configuration": fixed_configuration(),
                "workloads": results,
            },
            indent=1,
        )
    )
    print(f"results written to {path.relative_to(ROOT)}")
    if failed:
        print(f"{failed} failed operations or checks", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        help="measure one workload in this process: " + ", ".join(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long to keep repeating rounds (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--smoke", action="store_true",
        help="5%% scale, two rounds per workload, full oracle",
    )
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes per workload")
    parser.add_argument("--label", default="latest", help="results/<label>.json")
    args = parser.parse_args(argv)

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose one of: "
            + ", ".join(WORKLOADS)
        )
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    seconds = args.seconds
    if seconds is None:
        seconds = float(load_benchmark()["run_seconds"])
    traced = bool(args.trace) or args.traced
    if args.workload is not None:
        return run_one(args.workload, args.seed, seconds, traced, args.smoke)
    return run_all(args.seed, seconds, traced, args.smoke, args.repeat, args.label)


if __name__ == "__main__":
    sys.exit(main())
