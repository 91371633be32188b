"""Per-layer tracing from outside the program.

Nothing under ``src/`` is instrumented.  Inside :func:`instrumented`
the benchmark wraps the public functions of each layer it measures and
restores them on exit:

* ``ProblemSpec.build`` (spec), ``DecodingProblem.sample_errors`` and
  ``.syndromes`` (problem sampling);
* ``BPSFDecoder.decode_many`` / ``generate_trials`` /
  ``trial_syndromes`` and ``BPOSDDecoder.decode_many``
  (post-processing); ``MinSumBP.decode_many`` (inner BP, attributed to
  the role its owning composite gives it: ``bpsf.initial``,
  ``bpsf.trial`` or ``bposd.bp``);
* ``OrderedStatisticsDecoder.decode_from_marginals`` (OSD);
* the ``BPKernel`` protocol, through a :class:`FusedKernel` subclass
  registered under :data:`TRACED_BACKEND` and selected with
  ``use_backend`` for decoders built inside the scope.

Spans are aggregated as they close (busy seconds and call counts per
name), so memory stays flat however many kernel calls a run makes.  A
layer's self time is its busy time minus its children's busy time; the
children of ``bpsf.decode`` are initial BP, trial BP, trial generation
and trial syndromes, which it calls and nothing else does.

The wrappers also check every decode they see: each converged estimate
must satisfy its syndrome (``H @ e == s``).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

from repro._matrix import mod2_right_mul
from repro.decoders.bp import MinSumBP
from repro.decoders.bposd import BPOSDDecoder
from repro.decoders.bpsf import BPSFDecoder
from repro.decoders.kernels import KERNEL_BACKENDS, FusedKernel, use_backend
from repro.decoders.osd import OrderedStatisticsDecoder
from repro.problem import DecodingProblem
from repro.spec import ProblemSpec

__all__ = ["TRACED_BACKEND", "Tracer", "instrumented"]

#: Kernel backend name the traced kernel is registered under (scoped).
TRACED_BACKEND = "perfbench-traced"


class Tracer:
    """Thread-safe aggregate of span busy times and counters.

    Decodes of the served problems run on executor threads, so every
    update takes the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.violations = 0

    def span(self, name: str, seconds: float) -> None:
        with self._lock:
            self.busy[name] += seconds
            self.calls[name] += 1

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def check_syndromes(self, problem, syndromes, result) -> None:
        """Count converged estimates that fail ``H @ e == s``."""
        conv = np.asarray(result.converged, dtype=bool)
        if not conv.any():
            return
        got = mod2_right_mul(result.errors[conv], problem.check_matrix)
        bad = int((got != np.asarray(syndromes)[conv]).any(axis=1).sum())
        with self._lock:
            self.violations += bad


def _traced_kernel_class(tracer: Tracer) -> type:
    """A :class:`FusedKernel` whose protocol calls record spans."""

    def timed(op):
        base = getattr(FusedKernel, op)

        def method(self, *args):
            start = time.perf_counter()
            out = base(self, *args)
            tracer.span(f"kernel.{op}", time.perf_counter() - start)
            if op in ("check_update", "variable_update"):
                rows = args[0].shape[0]
                tracer.count(
                    "kernel.bytes_computed",
                    rows * self.edges.n_edges * self.dtype.itemsize,
                )
                if op == "check_update":
                    tracer.count("kernel.check_update.rows", rows)
            return out

        method.__name__ = op
        return method

    namespace = {
        op: timed(op)
        for op in (
            "start", "check_update", "variable_update",
            "hard_decision", "converged", "compact",
        )
    }
    namespace["name"] = TRACED_BACKEND
    return type("TracedFusedKernel", (FusedKernel,), namespace)


def _wasted_trial_iterations(decoder, result, pooled) -> int:
    """Row-iterations trials ran beyond what the selection rule needed.

    Serial selection keeps the first converged trial in generation
    order, so every trial generated after the winner was wasted work.
    Parallel selection keeps the first to converge in time and retires
    the rest of the group at that iteration, so only iterations past
    the winner's count as waste (none, with group early-stop).
    """
    wasted = 0
    offset = 0
    for i in np.nonzero(result.trials_attempted > 0)[0]:
        k = int(result.trials_attempted[i])
        winner = int(result.winning_trial[i])
        iters = pooled.iterations[offset:offset + k]
        if winner >= 0:
            if decoder.selection == "serial":
                wasted += int(iters[winner + 1:].sum())
            else:
                wasted += int(
                    np.maximum(iters - iters[winner], 0).sum()
                )
        offset += k
    return wasted


class _Patches:
    """Scoped class-attribute replacement, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


@contextmanager
def instrumented(tracer: Tracer):
    """Trace every layer call made inside the block into ``tracer``."""
    roles: dict[int, str] = {}
    local = threading.local()
    patches = _Patches()

    orig_build = ProblemSpec.build

    def build(self):
        start = time.perf_counter()
        try:
            return orig_build(self)
        finally:
            tracer.span("spec.build", time.perf_counter() - start)

    orig_sample = DecodingProblem.sample_errors
    orig_syndromes = DecodingProblem.syndromes

    def sample_errors(self, shots, rng):
        start = time.perf_counter()
        errors = orig_sample(self, shots, rng)
        tracer.span("problem.sample", time.perf_counter() - start)
        local.sampled = errors
        return errors

    def syndromes(self, errors):
        # Only the syndromes of freshly sampled errors count as
        # sampling; failure checks call this on other arrays.
        if errors is not getattr(local, "sampled", None):
            return orig_syndromes(self, errors)
        local.sampled = None
        start = time.perf_counter()
        out = orig_syndromes(self, errors)
        tracer.span("problem.sample", time.perf_counter() - start)
        return out

    orig_bp = MinSumBP.decode_many

    def bp_decode_many(self, syndromes, **kwargs):
        role = roles.get(id(self), "bp")
        start = time.perf_counter()
        result = orig_bp(self, syndromes, **kwargs)
        tracer.span(role, time.perf_counter() - start)
        tracer.count(f"{role}.row_iterations", int(result.iterations.sum()))
        tracer.count(f"{role}.rows", len(result))
        if role == "bpsf.trial":
            local.trial_result = result
        return result

    orig_bpsf = BPSFDecoder.decode_many
    orig_gen = BPSFDecoder.generate_trials
    orig_trial_synd = BPSFDecoder.trial_syndromes

    def bpsf_decode_many(self, syndromes):
        roles[id(self.bp_initial)] = "bpsf.initial"
        roles[id(self.bp_trial)] = "bpsf.trial"
        local.trial_result = None
        start = time.perf_counter()
        result = orig_bpsf(self, syndromes)
        tracer.span("bpsf.decode", time.perf_counter() - start)
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        tracer.check_syndromes(self.problem, syndromes, result)
        entered = int((result.stage != "initial").sum())
        tracer.count("bpsf.shots", len(result))
        tracer.count("bpsf.shots_post", entered)
        tracer.count("bpsf.rescued", result.n_post)
        tracer.count("bpsf.trials", int(result.trials_attempted.sum()))
        if local.trial_result is not None:
            tracer.count(
                "bpsf.trial.wasted_row_iterations",
                _wasted_trial_iterations(self, result, local.trial_result),
            )
        return result

    def generate_trials(self, flip_counts, marginals):
        start = time.perf_counter()
        try:
            return orig_gen(self, flip_counts, marginals)
        finally:
            tracer.span("bpsf.trial_gen", time.perf_counter() - start)

    def trial_syndromes(self, syndrome, trials):
        start = time.perf_counter()
        try:
            return orig_trial_synd(self, syndrome, trials)
        finally:
            tracer.span("bpsf.trial_syndromes", time.perf_counter() - start)

    orig_bposd = BPOSDDecoder.decode_many

    def bposd_decode_many(self, syndromes):
        roles[id(self.bp)] = "bposd.bp"
        start = time.perf_counter()
        result = orig_bposd(self, syndromes)
        tracer.span("bposd.decode", time.perf_counter() - start)
        syndromes = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
        tracer.check_syndromes(self.problem, syndromes, result)
        return result

    orig_osd = OrderedStatisticsDecoder.decode_from_marginals

    def decode_from_marginals(self, syndrome, marginal_llrs):
        start = time.perf_counter()
        try:
            return orig_osd(self, syndrome, marginal_llrs)
        finally:
            tracer.span("osd", time.perf_counter() - start)

    with ExitStack() as stack:
        KERNEL_BACKENDS[TRACED_BACKEND] = _traced_kernel_class(tracer)
        stack.callback(KERNEL_BACKENDS.pop, TRACED_BACKEND, None)
        stack.callback(patches.restore)
        patches.set(ProblemSpec, "build", build)
        patches.set(DecodingProblem, "sample_errors", sample_errors)
        patches.set(DecodingProblem, "syndromes", syndromes)
        patches.set(MinSumBP, "decode_many", bp_decode_many)
        patches.set(BPSFDecoder, "decode_many", bpsf_decode_many)
        patches.set(BPSFDecoder, "generate_trials", generate_trials)
        patches.set(BPSFDecoder, "trial_syndromes", trial_syndromes)
        patches.set(BPOSDDecoder, "decode_many", bposd_decode_many)
        patches.set(
            OrderedStatisticsDecoder, "decode_from_marginals",
            decode_from_marginals,
        )
        stack.enter_context(use_backend(TRACED_BACKEND))
        yield tracer
