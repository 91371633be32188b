"""Tests for the BP-OSD baseline decoder."""

import hashlib
import time

import numpy as np
import pytest

from repro.codes import get_code, surface_code
from repro.decoders import BPOSDDecoder, MinSumBP
from repro.noise import code_capacity_problem
from repro.spec import ProblemSpec


class TestStages:
    def test_easy_syndrome_stays_in_bp(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPOSDDecoder(problem, max_iter=30, osd_order=4)
        error = np.zeros(problem.n_mechanisms, dtype=np.uint8)
        error[2] = 1
        result = dec.decode(problem.syndromes(error))
        assert result.converged
        assert result.stage == "initial"

    def test_osd_invoked_on_bp_failure(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        dec = BPOSDDecoder(problem, max_iter=6, osd_order=4)
        errors = problem.sample_errors(40, rng)
        syndromes = problem.syndromes(errors)
        results = dec.decode_batch(syndromes)
        stages = {r.stage for r in results}
        assert "post" in stages
        for r in results:
            assert r.converged  # OSD always satisfies a feasible syndrome

    def test_all_results_satisfy_syndrome(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        dec = BPOSDDecoder(problem, max_iter=6, osd_order=4)
        errors = problem.sample_errors(25, rng)
        syndromes = problem.syndromes(errors)
        for i, r in enumerate(dec.decode_batch(syndromes)):
            assert np.array_equal(problem.syndromes(r.error), syndromes[i])


class TestQuality:
    def test_bposd_ler_not_worse_than_bp(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.05)
        errors = problem.sample_errors(120, rng)
        syndromes = problem.syndromes(errors)
        bp = MinSumBP(problem, max_iter=25).decode_many(syndromes)
        ler_bp = problem.is_failure(errors, bp.errors).mean()
        dec = BPOSDDecoder(problem, max_iter=25, osd_order=6)
        est = np.array([r.error for r in dec.decode_batch(syndromes)])
        ler_osd = problem.is_failure(errors, est).mean()
        assert ler_osd <= ler_bp + 1e-9

    def test_single_decode_matches_batch(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.05)
        dec = BPOSDDecoder(problem, max_iter=10, osd_order=4)
        errors = problem.sample_errors(6, rng)
        syndromes = problem.syndromes(errors)
        singles = [dec.decode(s) for s in syndromes]
        batched = dec.decode_batch(syndromes)
        for s, b in zip(singles, batched):
            assert s.stage == b.stage
            assert np.array_equal(s.error, b.error)


class TestConfiguration:
    def test_name_reflects_settings(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPOSDDecoder(problem, max_iter=1000, osd_order=10)
        assert dec.name == "BP1000-OSD10"

    def test_osd0_label(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPOSDDecoder(problem, max_iter=1000, osd_order=0,
                           osd_method="0")
        assert dec.name == "BP1000-OSD0"

    def test_layered_variant_constructs(self):
        problem = code_capacity_problem(surface_code(3), 0.05)
        dec = BPOSDDecoder(problem, max_iter=10, osd_order=2, layered=True)
        error = np.zeros(problem.n_mechanisms, dtype=np.uint8)
        error[1] = 1
        result = dec.decode(problem.syndromes(error))
        assert result.converged


class TestBatchTimeAttribution:
    """Regression: BP-converged shots were charged 0 s, OSD shots no BP."""

    def test_every_shot_charged_and_column_within_call_time(self, rng):
        problem = code_capacity_problem(get_code("coprime_154_6_16"), 0.06)
        dec = BPOSDDecoder(problem, max_iter=6, osd_order=4)
        syndromes = problem.syndromes(problem.sample_errors(40, rng))
        start = time.perf_counter()
        batch = dec.decode_many(syndromes)
        outer = time.perf_counter() - start
        assert (batch.stage == "initial").any()
        assert (batch.stage == "post").any()
        assert (batch.time_seconds > 0).all()
        assert batch.time_seconds.sum() <= outer


class TestGoldenBB144:
    """BP-OSD output on BB-144 circuit noise is byte-frozen.

    The hashes were computed with the per-column elimination scan that
    preceded the live-row-mask pivot search; the rewrite is exact, so
    every OSD candidate, cost and output must stay unchanged.
    """

    KEY = "bb_144_12_12:circuit:p=0.003:r=2:bposd:auto"
    SEED, SHOTS, MIN_OSD_CALLS = 2026, 120, 30
    ERRORS_SHA256 = (
        "c1eb32abc67521ad96267fc4c47d478ad46cd6bb87ad7356ca08021e6827d2eb"
    )
    CONVERGED_SHA256 = (
        "8714e41752f7cfc482508b7090da3e09e9c40bd63b14aca3aa43be2a9756696b"
    )

    def test_errors_and_converged_pinned(self):
        problem, factory = ProblemSpec.parse(self.KEY).build()
        dec = factory(problem)
        errors = problem.sample_errors(
            self.SHOTS, np.random.default_rng(self.SEED)
        )
        batch = dec.decode_many(problem.syndromes(errors))
        # OSD runs once per BP failure; make sure the pin exercises it.
        assert (batch.stage != "initial").sum() >= self.MIN_OSD_CALLS
        digest = hashlib.sha256(
            np.ascontiguousarray(batch.errors, dtype=np.uint8).tobytes()
        ).hexdigest()
        assert digest == self.ERRORS_SHA256
        digest = hashlib.sha256(
            np.ascontiguousarray(batch.converged, dtype=np.bool_).tobytes()
        ).hexdigest()
        assert digest == self.CONVERGED_SHA256
