"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bb144-circuit-ler --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run.  The
output is a metric table (name, value, unit, sample count), a JSON
report with the environment block, the workload identity and the
correctness checks, and -- as the last line -- one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every correctness check passed and 1
otherwise.  ``--workload all`` runs every benchmarked workload in turn
and prints one result line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import BENCHMARKED, REPORTED, WORKLOADS  # noqa: E402

_UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def _git_sha(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    """Where the numbers were measured."""
    from repro.decoders.kernels import backend_availability, resolve_backend

    return {
        "visible_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(ROOT),
        "kernel_backend": resolve_backend("auto"),
        "numba_available": backend_availability()["numba"]["available"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(report, result_line)`` dicts."""
    result = WORKLOADS[name].run(seed, seconds, trace)
    names = REPORTED[trace]
    metrics = {
        m: {"value": result.metrics[m][0], "unit": _UNITS[m]} for m in names
    }
    report = {
        "workload": name,
        "trace": trace,
        "environment": environment(),
        "identity": result.identity,
        "checks": result.checks,
        "samples": {m: result.metrics[m][1] for m in names},
    }
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    return report, line


def _print_table(report: dict, line: dict) -> None:
    print(f"# {report['workload']} (trace={int(report['trace'])})")
    for name, metric in line["metrics"].items():
        print(
            f"{name:40s} {metric['value']:>16.6g} {metric['unit']:8s} "
            f"n={report['samples'][name]}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = BENCHMARKED if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        report, line = run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        )
        _print_table(report, line)
        print(json.dumps(report, indent=2, sort_keys=True))
        lines.append(line)
    for line in lines:
        print(json.dumps(line, sort_keys=True))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
