"""Serving-traffic simulation on top of the SPRINT cycle model.

Turns the per-sample, per-head simulator into a production-serving
study: request streams (Poisson / bursty / trace replay) flow through a
dynamic batcher onto one or more simulated SPRINT chips, producing
throughput, device utilization, and p50/p95/p99 latency with SLA
accounting.

Two execution paths share those semantics:

* the **columnar fast path** (:func:`simulate_table` over a
  :class:`RequestTable`) -- batch-granular simulation over
  struct-of-arrays columns, the default for production-size streams::

      table = generate_request_table(process, "BERT-B", count=200_000)
      cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
      cost.prime(table.specs[0], table.valid_len)
      report = summarize(simulate_table(table, cost), ...)

* the **per-request reference loop** (:class:`ServingSimulator` over
  ``list[Request]``) -- the ``slow_exact`` event-driven definition of
  the semantics; the fast path is pinned exactly equal to it.

A third, **out-of-core** path scales the fast path to 10^7--10^8
requests: :class:`RequestStream` yields chunks whose concatenation is
bitwise identical to the whole-table generator, :func:`simulate_stream`
drives them carrying only the O(devices + open batches) frontier, and
:func:`summarize_stream` folds completed chunks into O(1)-memory
sketches -- same exact aggregates, sketch-bounded percentiles::

    stream = RequestStream(process, "BERT-B", count=100_000_000)
    report = summarize_stream(stream, cost, ...)

**Generative (decode) traffic** extends all three paths to
autoregressive serving under continuous batching: give the stream an
``output_len`` column (``mean_output_tokens=...`` on the generators)
and requests re-enter the scheduler after every decode step with a
grown attention context, device slots freeing per token.  The same
entry points route automatically -- :func:`simulate_table` /
:func:`simulate_stream` dispatch to the event-driven columnar decode
engine (:mod:`repro.serving.decode`), pinned bitwise-equal to the
:class:`GenerativeServingSimulator` reference loop -- and
:func:`summarize` / :func:`summarize_stream` add TTFT / TBT /
tokens-per-second to the report.  With every ``output_len == 1`` the
generative loop degenerates exactly to the prefill-only semantics.

**Fault injection** (:mod:`repro.serving.faults`) threads a
deterministic, seedable :class:`FaultSchedule` of per-device outages
through every path above: a device dying mid-batch loses the in-flight
batch, affected requests re-enter their queue under a
:class:`RetryPolicy` (bounded attempts, exponential backoff) or drop
once their per-request deadline passes, and :func:`summarize` /
:func:`summarize_stream` report availability, goodput, retries, and
wasted energy.  ``simulate_table`` / ``simulate_stream`` take
``faults=`` / ``retry=`` and stay bitwise-equal to the fault-threaded
reference loops: the columnar side runs the decode engine's one event
core and its two drivers with the schedule in force (prefill traffic
as the ``output_len == 1`` case), macro-stepping up to each device's
next outage.  With no schedule the fast paths are untouched.

Every stream route -- prefill, decode, fault -- hands its ``sink``
:class:`CompletedChunk` columns and returns a
:class:`StreamedServingResult`; every result's ``completed_rows()``
returns the same chunk shape, which is all :func:`summarize` and
:func:`summarize_stream` read per request.

Both paths accept an optional :class:`repro.obs.trace.TraceRecorder`
for sim-time request tracing, and :func:`summarize` can fold latency
columns through the :mod:`repro.obs.streaming` tail-latency sketch
(``exact=False``) instead of materialized percentile sorts; both are
opt-in and leave results bitwise unchanged.

Typical (reference-path) use::

    from repro.core.configs import S_SPRINT
    from repro.core.system import ExecutionMode
    from repro.serving import (
        DynamicBatcher, PoissonProcess, ServiceCostModel,
        ServingSimulator, SprintDevice, generate_requests, summarize,
    )

    process = PoissonProcess(rate_rps=200.0)
    requests = generate_requests(process, "BERT-B", count=1000, seed=0)
    cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
    sim = ServingSimulator(
        [SprintDevice(0, cost)], DynamicBatcher(max_batch_size=8)
    )
    report = summarize(
        sim.run(requests), config=S_SPRINT.name, mode="sprint",
        pattern=process.name, offered_rps=process.mean_rate_rps,
        sla_s=0.1,
    )
    print(report.describe())
"""

from repro.serving.arrivals import (
    ArrivalCursor,
    ArrivalProcess,
    BurstyProcess,
    PoissonProcess,
    TraceProcess,
    generate_request_table,
    generate_requests,
    sample_output_lens,
    sample_valid_len,
)
from repro.serving.batching import (
    BatcherStats,
    ContinuousBatcher,
    DynamicBatcher,
    StepBatch,
    StepItem,
)
from repro.serving.decode import (
    DecodeColumnarResult,
    simulate_decode_stream,
    simulate_decode_table,
)
from repro.serving.devices import (
    SampleCost,
    ServiceCostModel,
    SprintDevice,
    shared_cost_model,
)
from repro.serving.engine import (
    ColumnarServingResult,
    StreamedServingResult,
    simulate_stream,
    simulate_table,
)
from repro.serving.events import Event, EventKind, EventQueue
from repro.serving.faults import (
    DeviceFaultTrace,
    DroppedRecord,
    FaultColumnarResult,
    FaultSchedule,
    RetryPolicy,
)
from repro.serving.metrics import (
    LatencyStats,
    ServingReport,
    summarize,
    summarize_stream,
)
from repro.serving.requests import (
    Batch,
    CompletedChunk,
    Request,
    RequestRecord,
    RequestTable,
)
from repro.serving.scheduler import (
    DecodeRecord,
    GenerativeResult,
    GenerativeServingSimulator,
    ServingResult,
    ServingSimulator,
)
from repro.serving.stream import DEFAULT_CHUNK_SIZE, RequestStream

__all__ = [
    "ArrivalCursor",
    "ArrivalProcess",
    "Batch",
    "BatcherStats",
    "BurstyProcess",
    "ColumnarServingResult",
    "CompletedChunk",
    "ContinuousBatcher",
    "DEFAULT_CHUNK_SIZE",
    "DecodeColumnarResult",
    "DecodeRecord",
    "DeviceFaultTrace",
    "DroppedRecord",
    "DynamicBatcher",
    "Event",
    "EventKind",
    "EventQueue",
    "FaultColumnarResult",
    "FaultSchedule",
    "GenerativeResult",
    "GenerativeServingSimulator",
    "LatencyStats",
    "PoissonProcess",
    "Request",
    "RequestRecord",
    "RequestStream",
    "RequestTable",
    "RetryPolicy",
    "SampleCost",
    "ServiceCostModel",
    "ServingReport",
    "ServingResult",
    "ServingSimulator",
    "SprintDevice",
    "StepBatch",
    "StepItem",
    "StreamedServingResult",
    "TraceProcess",
    "generate_request_table",
    "generate_requests",
    "sample_output_lens",
    "sample_valid_len",
    "shared_cost_model",
    "simulate_decode_stream",
    "simulate_decode_table",
    "simulate_stream",
    "simulate_table",
    "summarize",
    "summarize_stream",
]
