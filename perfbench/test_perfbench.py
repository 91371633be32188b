"""Tests of the benchmark itself: names, manifest, tiny runs, seeding."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from perfbench.metrics import END_TO_END, NAME_PATTERN, PER_LAYER
from perfbench.run import run_workload
from perfbench.tracing import TRACED_BACKEND, Tracer, instrumented
from perfbench.workloads import (
    BENCHMARKED,
    REPORTED,
    WORKLOADS,
    tiny,
    workload_syndromes,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_unique():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_PATTERN.match(name), name


def test_manifest_matches_catalogue():
    manifest = _manifest()
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
    assert manifest["workloads"] == [
        {"name": name, "why": WORKLOADS[name].why} for name in BENCHMARKED
    ]
    for wl in WORKLOADS.values():
        assert len(wl.why) <= 200 and "\n" not in wl.why
    assert all(m.moves for m in PER_LAYER)


def test_serve_pacing_and_slo_are_recorded_in_the_manifest():
    serve = WORKLOADS["bb144-serve-mixed"]
    assert f"rounds of {serve.round_size} syndromes" in serve.why
    assert f"{serve.think_ms:g} ms after the last answer" in serve.why
    assert f"SLO {serve.slo_ms:g} ms" in serve.why


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_syndromes_deterministically(name):
    wl = tiny(WORKLOADS[name])
    a = workload_syndromes(wl, 1, 64)
    again = workload_syndromes(wl, 1, 64)
    b = workload_syndromes(wl, 2, 64)
    assert np.array_equal(a, again)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, trace, monkeypatch):
    monkeypatch.setitem(WORKLOADS, name, tiny(WORKLOADS[name]))
    report, line = run_workload(name, seed=5, seconds=0.5, trace=trace)
    assert line["correct"], report["checks"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == list(REPORTED[trace])
    assert report["environment"]["visible_cores"] >= 1
    if not trace:
        for name_, metric in line["metrics"].items():
            assert metric["value"] > 0, name_
    else:
        metrics = {k: v["value"] for k, v in line["metrics"].items()}
        children = (
            metrics["bp.initial.busy_s"] + metrics["bp.trial.busy_s"]
            + metrics["bpsf.trial_gen_s"] + metrics["bpsf.trial_syndromes_s"]
        )
        assert metrics["bpsf.self_s"] + children == pytest.approx(
            metrics["bpsf.decode_s"]
        )
        assert metrics["bpsf.decode_s"] > 0


def test_instrumentation_restores_the_program():
    from repro.decoders.bpsf import BPSFDecoder
    from repro.decoders.kernels import KERNEL_BACKENDS, resolve_backend

    before = BPSFDecoder.decode_many
    with instrumented(Tracer()):
        assert TRACED_BACKEND in KERNEL_BACKENDS
        assert resolve_backend("auto") == TRACED_BACKEND
        assert BPSFDecoder.decode_many is not before
    assert BPSFDecoder.decode_many is before
    assert TRACED_BACKEND not in KERNEL_BACKENDS
    assert resolve_backend("auto") != TRACED_BACKEND
