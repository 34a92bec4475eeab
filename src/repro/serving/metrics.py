"""Serving metrics: throughput, utilization, tail latency, SLA checks.

Mirrors the reporting style of :mod:`repro.core.results`: a dataclass
per aggregate with derived properties and a ``describe()`` that prints
the table rows the serving experiments lead with.

:func:`summarize` folds any representation of a run -- a reference
loop's object-based result or a columnar engine's, prefill, generative
or fault-mode -- into the same :class:`ServingReport`.  Every result
hands over its completed requests as one
:class:`~repro.serving.requests.CompletedChunk` (``completed_rows()``),
the same row shape the stream drivers feed :func:`summarize_stream`,
and one report builder serves both functions.  Equivalent runs hand
over the same values in the same order, so they summarize to an
identical report.

``summarize(..., exact=False)`` swaps the percentile computation onto
:class:`~repro.obs.streaming.StreamingHistogram` sketches -- the
memory-O(1) path for fleet-scale streams, where per-request latency
columns must never be sorted (or, eventually, materialized) whole.
The sketch's p50/p95/p99 carry its documented relative error bound
(:attr:`~repro.obs.streaming.StreamingHistogram.rel_error_bound`,
~0.9% at the default resolution) vs the exact order statistics;
``mean``/``max``/counts stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.obs.streaming import StreamingHistogram
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.engine import simulate_stream
from repro.serving.requests import CompletedChunk, RequestTable


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of one latency population (seconds)."""

    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples) -> "LatencyStats":
        # Arrays pass through unboxed (the columnar path hands in whole
        # float64 columns); lists/generators still materialize.
        if not isinstance(samples, np.ndarray):
            samples = list(samples)
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            # A run where zero requests complete (load far beyond SLA
            # capacity) must produce a degenerate report, not crash the
            # capacity sweep probing for the overload point.
            nan = float("nan")
            return cls(nan, nan, nan, nan, nan)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        return cls(
            mean_s=float(arr.mean()),
            p50_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
            max_s=float(arr.max()),
        )

    @classmethod
    def from_sketch(cls, sketch: StreamingHistogram) -> "LatencyStats":
        """Percentiles from a streaming sketch (O(buckets) memory).

        p50/p95/p99 carry the sketch's documented relative error bound
        (:attr:`~repro.obs.streaming.StreamingHistogram.
        rel_error_bound`); ``mean`` and ``max`` are tracked exactly.
        An empty sketch yields the same NaN-filled degenerate stats as
        an empty sample population.
        """
        return cls(
            mean_s=sketch.mean,
            p50_s=sketch.quantile(50.0),
            p95_s=sketch.quantile(95.0),
            p99_s=sketch.quantile(99.0),
            max_s=sketch.max,
        )


@dataclass
class ServingReport:
    """One (config, mode, arrival pattern, load) serving outcome."""

    config: str
    mode: str
    pattern: str
    offered_rps: float
    requests: int
    duration_s: float
    latency: LatencyStats
    queue_wait: LatencyStats
    throughput_rps: float
    #: Mean busy fraction across devices over the run's span.
    utilization: float
    mean_batch_size: float
    energy_uj: float
    sla_s: Optional[float] = None
    sla_violations: int = 0
    #: Generative runs only (``None``/0 for prefill-only traffic, so
    #: legacy report equality is untouched): time-to-first-token and
    #: time-between-tokens populations, and total tokens generated.
    ttft: Optional[LatencyStats] = None
    tbt: Optional[LatencyStats] = None
    total_tokens: int = 0
    #: Fault-injection accounting.  The defaults describe a fault-free
    #: run, so legacy report construction and equality are untouched.
    faulted: bool = False
    dropped_requests: int = 0
    #: Dropped counts keyed by reason ('retries', 'deadline',
    #: 'stranded'); empty on fault-free runs.
    dropped_by_reason: dict = field(default_factory=dict)
    #: Retry dispatches the fault layer scheduled.
    retries: int = 0
    #: Completed requests that needed at least one retry.
    retried_completed: int = 0
    #: Batches lost to mid-execution device failures.
    failed_batches: int = 0
    #: Energy spent on lost (never-delivered) batch work.
    wasted_energy_uj: float = 0.0
    #: Mean fleet uptime fraction over the run span (1.0 without
    #: faults).
    availability: float = 1.0
    #: Latency population of completed requests that needed >= 2
    #: attempts (``None`` on fault-free runs).
    retried_latency: Optional[LatencyStats] = None

    @property
    def generative(self) -> bool:
        return self.ttft is not None

    @property
    def offered_requests(self) -> int:
        """Requests that entered the system: completed plus dropped."""
        return self.requests + self.dropped_requests

    @property
    def goodput_rps(self) -> float:
        """Completed-request rate -- the degraded-fleet reading of
        throughput (drops never count; compare against
        ``offered_rps`` for the loss to failures)."""
        return self.throughput_rps

    @property
    def drop_rate(self) -> float:
        offered = self.offered_requests
        return self.dropped_requests / offered if offered else 0.0

    @property
    def tokens_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.total_tokens / self.duration_s

    @property
    def energy_uj_per_token(self) -> float:
        if self.total_tokens == 0:
            return 0.0
        return self.energy_uj / self.total_tokens

    @property
    def sla_violation_rate(self) -> float:
        return self.sla_violations / self.requests if self.requests else 0.0

    def meets_sla(self) -> bool:
        """p99 within the SLA (the criterion the sweeps rank loads by)."""
        if self.sla_s is None:
            return True
        return self.latency.p99_s <= self.sla_s

    def describe(self) -> str:
        lines = [
            f"{self.config} / {self.mode} / {self.pattern} "
            f"@ {self.offered_rps:,.1f} rps:",
            f"  requests          : {self.requests:,} "
            f"over {self.duration_s:,.2f} s",
            f"  throughput        : {self.throughput_rps:,.1f} rps",
            f"  utilization       : {self.utilization:.1%}",
            f"  latency p50/p95/p99: "
            f"{self.latency.p50_s * 1e3:,.2f} / "
            f"{self.latency.p95_s * 1e3:,.2f} / "
            f"{self.latency.p99_s * 1e3:,.2f} ms",
            f"  queue wait p50/p99: "
            f"{self.queue_wait.p50_s * 1e3:,.2f} / "
            f"{self.queue_wait.p99_s * 1e3:,.2f} ms",
            f"  mean batch size   : {self.mean_batch_size:.2f}",
            f"  energy            : {self.energy_uj:,.1f} uJ",
        ]
        if self.generative:
            lines.extend(
                [
                    f"  tokens            : {self.total_tokens:,} "
                    f"({self.tokens_per_s:,.1f} tok/s, "
                    f"{self.energy_uj_per_token:.3f} uJ/tok)",
                    f"  TTFT p50/p99      : "
                    f"{self.ttft.p50_s * 1e3:,.2f} / "
                    f"{self.ttft.p99_s * 1e3:,.2f} ms",
                    f"  TBT p50/p99       : "
                    f"{self.tbt.p50_s * 1e3:,.2f} / "
                    f"{self.tbt.p99_s * 1e3:,.2f} ms",
                ]
            )
        if self.faulted:
            reasons = (
                ", ".join(
                    f"{name}={count:,}"
                    for name, count in sorted(self.dropped_by_reason.items())
                    if count
                )
                or "none"
            )
            lines.extend(
                [
                    f"  availability      : {self.availability:.1%}",
                    f"  goodput           : {self.goodput_rps:,.1f} rps "
                    f"({self.requests:,}/{self.offered_requests:,} offered)",
                    f"  dropped           : {self.dropped_requests:,} ({reasons})",
                    f"  retries           : {self.retries:,} "
                    f"({self.retried_completed:,} completed after retry)",
                    f"  lost batches      : {self.failed_batches:,} "
                    f"({self.wasted_energy_uj:,.1f} uJ wasted)",
                ]
            )
        if self.sla_s is not None:
            lines.append(
                f"  SLA {self.sla_s * 1e3:,.1f} ms     : "
                f"{self.sla_violations:,} violations "
                f"({self.sla_violation_rate:.2%})"
            )
        return "\n".join(lines)


class _RowFold:
    """Completed-row chunks folded into a report's populations.

    Usable as a stream ``sink``.  ``exact`` keeps every sample for
    exact order statistics; otherwise each population is a
    :class:`~repro.obs.streaming.StreamingHistogram` sketch.  TTFT/TBT
    fold for generative rows (TBT over multi-token requests), and the
    retried-completion latencies for rows that carry ``attempts``.
    """

    POPULATIONS = ("latency", "queue_wait", "ttft", "tbt", "retried")

    def __init__(self, exact: bool, sla_s: Optional[float]):
        self.exact = exact
        self.sla_s = sla_s
        self.samples = {
            name: [] if exact else StreamingHistogram() for name in self.POPULATIONS
        }
        self.count = 0
        self.batch_size_sum = 0
        self.violations = 0
        self.retried = 0

    def _add(self, name: str, values: np.ndarray) -> None:
        if self.exact:
            self.samples[name].append(values)
        else:
            self.samples[name].add_many(values)

    def __call__(self, rows: CompletedChunk) -> None:
        latencies = rows.latency_s
        self._add("latency", latencies)
        self._add("queue_wait", rows.queue_wait_s)
        if rows.output_len is not None:
            self._add("ttft", rows.ttft_s)
            tbt = rows.tbt_s
            self._add("tbt", tbt[np.isfinite(tbt)])
        if rows.attempts is not None:
            retried = latencies[rows.attempts >= 2]
            self._add("retried", retried)
            self.retried += int(retried.size)
        self.count += len(rows)
        # Integer fold: exact, and equal to np.mean's float sum for any
        # realistic stream (batch sizes sum far below 2**53).
        self.batch_size_sum += int(np.sum(rows.batch_size))
        if self.sla_s is not None:
            self.violations += int(np.count_nonzero(latencies > self.sla_s))

    def stats(self, name: str) -> LatencyStats:
        samples = self.samples[name]
        if self.exact:
            return LatencyStats.from_samples(
                np.concatenate(samples) if samples else np.empty(0)
            )
        return LatencyStats.from_sketch(samples)


def _report(
    result,
    fold: _RowFold,
    generative: bool,
    faulted: bool,
    config: str,
    mode: str,
    pattern: str,
    offered_rps: float,
) -> ServingReport:
    """The one report builder: ``fold`` holds the completed rows,
    ``result`` the run-level aggregates."""
    duration = result.duration_s
    span = duration if duration > 0 else float("inf")
    busy = np.asarray(result.device_busy_s, dtype=np.float64)
    n = fold.count
    if generative:
        # Mean *step*-batch occupancy: token steps over step batches.
        mean_batch = result.total_tokens / result.batches if result.batches else 0.0
    else:
        mean_batch = fold.batch_size_sum / n if n else 0.0
    fault_kwargs: dict = {}
    if faulted:
        by_reason = dict(result.dropped_by_reason)
        downtime = np.asarray(result.device_downtime_s, dtype=np.float64)
        fault_kwargs = dict(
            faulted=True,
            dropped_requests=sum(by_reason.values()),
            dropped_by_reason=by_reason,
            retries=result.retries,
            retried_completed=fold.retried,
            failed_batches=result.failed_batches,
            wasted_energy_uj=result.wasted_energy_pj / 1e6,
            availability=(
                float(1.0 - np.mean(downtime / span)) if downtime.size else 1.0
            ),
            retried_latency=fold.stats("retried"),
        )
    return ServingReport(
        config=config,
        mode=mode,
        pattern=pattern,
        offered_rps=offered_rps,
        requests=n,
        duration_s=duration,
        latency=fold.stats("latency"),
        queue_wait=fold.stats("queue_wait"),
        throughput_rps=n / span,
        utilization=float(np.mean(busy / span)) if busy.size else 0.0,
        mean_batch_size=mean_batch,
        energy_uj=float(sum(result.device_energy_pj)) / 1e6,
        sla_s=fold.sla_s,
        sla_violations=fold.violations,
        ttft=fold.stats("ttft") if generative else None,
        tbt=fold.stats("tbt") if generative else None,
        total_tokens=result.total_tokens if generative else 0,
        **fault_kwargs,
    )


def summarize(
    result,
    config: str,
    mode: str,
    pattern: str,
    offered_rps: float,
    sla_s: Optional[float] = None,
    exact: bool = True,
) -> ServingReport:
    """Fold one run (object-based or columnar) into a report.

    ``result`` is any simulator's result: the reference loops'
    :class:`~repro.serving.scheduler.ServingResult` /
    :class:`~repro.serving.scheduler.GenerativeResult`, or the columnar
    :class:`~repro.serving.engine.ColumnarServingResult`,
    :class:`~repro.serving.decode.DecodeColumnarResult` and
    :class:`~repro.serving.faults.FaultColumnarResult`.

    ``exact=False`` computes the latency and queue-wait percentiles
    from :class:`~repro.obs.streaming.StreamingHistogram` sketches
    instead of ``np.percentile`` over the full columns -- O(buckets)
    working memory and a single vectorized pass, the summarization
    path sized for the ROADMAP's 10^8-request runs.  Throughput,
    utilization, energy, violation counts, ``mean``, and ``max`` are
    identical either way; p50/p95/p99 differ from the exact report by
    at most the sketch's documented relative error bound.

    Generative results (rows with an ``output_len`` column)
    additionally fill the ``ttft``/``tbt``/``total_tokens`` fields;
    for them ``latency`` is arrival-to-last-token, SLA violations stay
    on that end-to-end latency, and ``mean_batch_size`` is mean
    *step*-batch occupancy (total token steps over step batches).  TBT
    percentiles cover the multi-token requests (single-token requests
    have no decode gaps).

    Fault-mode results (rows with an ``attempts`` column: a
    :class:`~repro.serving.faults.FaultColumnarResult`, or a reference
    result whose run had a fault schedule) also fill the degraded-fleet
    fields: drops by reason, retry counts, lost-batch energy,
    availability, and the latency population of retried completions.
    ``requests`` / ``throughput`` then cover *completed* requests only
    (goodput); compare against :attr:`ServingReport.offered_requests`
    for the loss.
    """
    rows = result.completed_rows()
    fold = _RowFold(exact, sla_s)
    fold(rows)
    return _report(
        result,
        fold,
        rows.output_len is not None,
        rows.attempts is not None,
        config,
        mode,
        pattern,
        offered_rps,
    )


def summarize_stream(
    chunks: Iterable[RequestTable],
    cost_model: ServiceCostModel,
    config: str,
    mode: str,
    pattern: str,
    offered_rps: float,
    sla_s: Optional[float] = None,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    threads: int = 1,
    faults=None,
    retry=None,
) -> ServingReport:
    """Simulate a chunked stream and summarize it in O(1) memory.

    Drives :func:`~repro.serving.engine.simulate_stream` over the
    chunks (e.g. a :class:`~repro.serving.stream.RequestStream`) and
    folds every completed chunk's latency / queue-wait / batch-size
    columns straight into :class:`~repro.obs.streaming.
    StreamingHistogram` sketches and exact counters, so a 10^8-request
    run holds one chunk plus fixed-size sketches -- never a full
    per-request column.

    Relative to the exact whole-table ``summarize``: ``requests``,
    ``duration``, ``throughput``, ``utilization``, ``energy``,
    ``mean_batch_size``, and SLA violation counts are identical (the
    underlying run is bitwise equal and the folds are exact);
    latency/queue-wait p50/p95/p99 carry the sketch's documented
    relative error bound (~0.9% at default resolution), and their
    ``mean`` differs only by float summation order.

    Generative streams fold TTFT and TBT into their own sketches the
    same way (TBT over multi-token requests), so the decode-phase tail
    percentiles also come out of O(1) memory.

    A ``faults`` schedule runs the stream with device outages in
    force; the report then carries the degraded-fleet fields and a
    retried-completion latency sketch.
    """
    fold = _RowFold(False, sla_s)
    result = simulate_stream(
        chunks,
        cost_model,
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
        setup_cycles=setup_cycles,
        threads=threads,
        sink=fold,
        faults=faults,
        retry=retry,
    )
    return _report(
        result,
        fold,
        result.generative,
        faults is not None,
        config,
        mode,
        pattern,
        offered_rps,
    )
