"""Metric catalogue and the statistics the benchmark reports.

Every metric the benchmark prints is declared here once, with its unit,
the direction that is better and -- for per-layer metrics -- the
end-to-end metric (and workload) it is expected to move.
``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` keeps the
two in step.

End-to-end metrics are reported by every workload, so each one is
defined for both workload kinds:

* **ler** workloads (offline Monte-Carlo through ``run_point_tasks``):
  a shot's latency runs from the start of its ``run_point_tasks`` call
  to the moment its shard's result reached the caller (the engine's
  ``on_progress`` callback) -- the wait a batch user has for that shot;
* **serve** workloads (``NetDecodeServer`` driven by one client that
  sends rounds of syndromes and waits for every answer): a request's
  latency runs from its send to its answer.

The logical error rate is a per-layer metric, not an end-to-end one: at
the shot counts a run can afford (about one failure per 500 BB-144
shots) its seed-to-seed spread is far wider than any regression bound.
The exactness it guards is enforced by the correctness checks instead
(1-worker against 2-worker failure counts, ``H @ e == s``, BP-OSD
responses against offline ``decode_many``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "END_TO_END",
    "KERNEL_OPS",
    "NAME_PATTERN",
    "PER_LAYER",
    "Metric",
    "percentile",
]

#: Allowed metric-name shape (letters, digits, ``_``, ``.``, ``-``).
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    ``bound`` (end-to-end only) is the share of the parent's median by
    which the metric may worsen before a change counts as a regression.
    ``moves`` (per-layer only) names the end-to-end metric and workload
    the layer metric is expected to move.
    """

    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: str = ""


#: Timings carry the widest allowed bound: a shared 2-core VM's speed
#: drifts by up to a quarter over minutes (co-tenants), which moves every
#: timing of a run together.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("shots_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_tail_ms", "ms", "lower", 0.25),  # p95
    Metric("slo_met_share", "share", "higher", 0.1),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: Kernel protocol operations timed through the traced kernel.
KERNEL_OPS = (
    "start",
    "check_update",
    "variable_update",
    "hard_decision",
    "converged",
    "compact",
)

_SERVE_P50 = "latency_p50_ms on serve"
_SERVE_TAIL = "latency_tail_ms on serve"
_LER_BOTH = "shots_per_s on both ler workloads"


def _kernel_metrics():
    out = []
    for op in KERNEL_OPS:
        if op == "check_update":
            busy_moves = (
                "shots_per_s on bb144 (reduceat fallback), not on coprime154"
            )
        else:
            busy_moves = _LER_BOTH
        out.append(Metric(
            f"kernel.{op}.calls", "count", "lower",
            moves="shots_per_s on coprime154 (per-call overhead)",
        ))
        out.append(Metric(
            f"kernel.{op}.busy_s", "s", "lower", moves=busy_moves,
        ))
    out.append(Metric(
        "kernel.check_update.rows_mean", "rows", "higher",
        moves="shots_per_s on bb144 (working set per call)",
    ))
    out.append(Metric(
        "kernel.bytes_computed", "bytes", "lower",
        moves=_LER_BOTH + " (computed: edges x rows x itemsize)",
    ))
    return out


def _service_metrics():
    out = []
    for dec in ("bpsf", "bposd"):
        out += [
            Metric(f"service.{dec}.batches", "count", "lower",
                   moves=_SERVE_P50),
            Metric(f"service.{dec}.batch_mean", "shots", "higher",
                   moves=_SERVE_P50),
            Metric(f"service.{dec}.busy_s", "s", "lower",
                   moves=_SERVE_TAIL),
            Metric(f"service.{dec}.utilisation", "share", "lower",
                   moves=_SERVE_TAIL),
            Metric(f"service.{dec}.queue_wait_p50_ms", "ms", "lower",
                   moves=_SERVE_P50),
            Metric(f"service.{dec}.queue_wait_tail_ms", "ms", "lower",
                   moves=_SERVE_TAIL),
        ]
    return out


def _latency_split():
    out = []
    for dec in ("bpsf", "bposd"):
        for stat, moves in (("p50", _SERVE_P50), ("tail", _SERVE_TAIL)):
            out.append(Metric(
                f"{dec}.latency_{stat}_ms", "ms", "lower", moves=moves,
            ))
    return out


PER_LAYER = tuple([
    # spec / circuits
    Metric("spec.build_s", "s", "lower", moves="setup_s, most on bb144"),
    Metric("circuits.structural_builds", "count", "lower",
           moves="setup_s on bb144 and serve"),
    Metric("circuits.dem_builds", "count", "lower",
           moves="setup_s on bb144 and serve"),
    Metric("circuits.structure_hits", "count", "higher",
           moves="setup_s on serve (two keys, one circuit)"),
    # problem
    Metric("problem.sample_s", "s", "lower",
           moves="shots_per_s on coprime154"),
    # sim.engine
    Metric("engine.shards", "count", "lower", moves=_LER_BOTH),
    Metric("engine.first_shard_s", "s", "lower",
           moves="latency_p50_ms on both ler workloads"),
    Metric("engine.tail_s", "s", "lower",
           moves="shots_per_s on both ler workloads, more on coprime154"),
    Metric("engine.worker_restarts", "count", "lower", moves=_LER_BOTH),
    Metric("engine.shard_retries", "count", "lower", moves=_LER_BOTH),
    # decoders.bpsf
    Metric("bpsf.decode_s", "s", "lower", moves=_LER_BOTH),
    Metric("bpsf.self_s", "s", "lower",
           moves="shots_per_s on coprime154 (attribution, bookkeeping)"),
    Metric("bpsf.trial_gen_s", "s", "lower",
           moves="shots_per_s on coprime154"),
    Metric("bpsf.trial_syndromes_s", "s", "lower",
           moves="shots_per_s on coprime154"),
    Metric("bpsf.shots_post", "count", "lower", moves=_LER_BOTH),
    Metric("bpsf.trials", "count", "lower", moves=_LER_BOTH),
    Metric("bpsf.rescued_share", "share", "higher",
           moves="logical_error_rate (must not move)"),
    Metric("bpsf.trial_useful_share", "share", "higher",
           moves="shots_per_s on bb144"),
    # decoders.bp
    Metric("bp.initial.busy_s", "s", "lower",
           moves="shots_per_s on coprime154, latency_p50_ms on serve"),
    Metric("bp.initial.row_iterations", "count", "lower",
           moves="shots_per_s on coprime154, latency_p50_ms on serve"),
    Metric("bp.trial.busy_s", "s", "lower",
           moves="shots_per_s on bb144, bpsf.latency_tail_ms on serve"),
    Metric("bp.trial.rows", "count", "lower",
           moves="shots_per_s on bb144, bpsf.latency_tail_ms on serve"),
    Metric("bp.trial.row_iterations", "count", "lower",
           moves="shots_per_s on bb144, bpsf.latency_tail_ms on serve"),
    Metric("bp.trial.wasted_row_iterations", "count", "lower",
           moves="shots_per_s on bb144 (prefix-retire); 0 on coprime154"),
    # decoders.kernels
    *_kernel_metrics(),
    # decoders.bposd / decoders.osd
    Metric("bposd.decode_s", "s", "lower",
           moves="bposd.latency_p50_ms on serve"),
    Metric("bposd.bp_busy_s", "s", "lower",
           moves="bposd.latency_p50_ms on serve"),
    Metric("osd.calls", "count", "lower",
           moves="bposd.latency_tail_ms on serve"),
    Metric("osd.busy_s", "s", "lower",
           moves="bposd.latency_tail_ms on serve"),
    # service
    *_service_metrics(),
    *_latency_split(),
    # service.net
    Metric("net.requests", "count", "higher", moves=_SERVE_P50),
    Metric("net.responses", "count", "higher", moves=_SERVE_P50),
    Metric("net.protocol_errors", "count", "lower", moves="slo_met_share"),
    Metric("net.expired", "count", "lower", moves="slo_met_share"),
    Metric("net.shed", "count", "lower", moves="slo_met_share"),
    Metric("net.ring.max_keys_per_node", "count", "lower",
           moves=_SERVE_TAIL + " (both keys on one decode thread)"),
    Metric("net.overhead_p50_ms", "ms", "lower",
           moves=_SERVE_P50 + ", slo_met_share"),
    Metric("latency_p99_ms", "ms", "lower",
           moves="latency_tail_ms (the deeper tail, all workloads)"),
    # load generator, exactness, tracing
    Metric("loadgen.sent", "count", "higher", moves="(workload size)"),
    Metric("logical_error_rate", "share", "lower",
           moves="(must not move: exactness guard)"),
    Metric("failed_share", "share", "lower", moves="slo_met_share"),
    Metric("trace.overhead_share", "share", "lower",
           moves="(tracing cost, not a system metric)"),
])


def percentile(values, pct: float) -> float:
    """``pct``-th percentile (linear interpolation); ``nan`` when empty."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, pct))
