"""The serving event loop: arrivals -> batcher -> devices -> records.

:class:`ServingSimulator` wires the pieces together as a discrete-event
simulation: request arrivals feed the dynamic batcher; sealed batches
enter a FIFO dispatch queue; idle devices pull from it; completions
free the device and stamp every member request's record.  The loop is
fully deterministic -- same requests, same knobs, same result.

This per-request event loop is the serving layer's ``slow_exact``
**reference**: the columnar fast path (:mod:`repro.serving.engine`)
must produce per-request records exactly equal to it, and the
equivalence suite pins that contract across patterns, modes, device
counts, and wait bounds.  Production-size streams should run through
the fast engine; this loop exists to define the semantics and to keep
the fast path honest.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.batching import (
    ContinuousBatcher,
    DynamicBatcher,
    StepBatch,
    StepItem,
)
from repro.serving.devices import SprintDevice
from repro.serving.events import EventKind, EventQueue
from repro.serving.faults import (
    DroppedRecord,
    _emit_fault_trace,
    count_drop_reasons,
    retry_in_force,
)
from repro.serving.requests import (
    Batch,
    CompletedChunk,
    Request,
    RequestRecord,
    RequestTable,
)


class _ReferenceResult:
    """What the reference loops' result types share."""

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def offered(self) -> int:
        return len(self.records) + len(self.dropped)

    @property
    def dropped_by_reason(self) -> dict:
        return count_drop_reasons(d.reason for d in self.dropped)

    def _rows(self, batch_fields: Sequence[str], generative: bool) -> CompletedChunk:
        """Completed records as columns, in record order.

        ``batch_fields`` names the record's (batched, service start,
        batch size, device) fields; ``attempts`` is carried only when
        the run had a fault schedule.
        """
        records = self.records
        table = RequestTable.from_requests([rec.request for rec in records])

        def col(name, dtype=np.float64):
            return np.array([getattr(rec, name) for rec in records], dtype=dtype)

        batched, started, size, device = batch_fields
        return CompletedChunk(
            specs=table.specs,
            request_id=table.request_id,
            arrival_s=table.arrival_s,
            spec_idx=table.spec_idx,
            valid_len=table.valid_len,
            batched_s=col(batched),
            service_start_s=col(started),
            finish_s=col("finish_s"),
            batch_size=col(size, np.int64),
            device_id=col(device, np.int64),
            output_len=(
                np.array([rec.request.output_len for rec in records], dtype=np.int64)
                if generative
                else None
            ),
            first_token_s=col("first_token_s") if generative else None,
            decode_slots=col("decode_slots", np.int64) if generative else None,
            attempts=col("attempts", np.int64) if self.device_downtime_s else None,
        )


@dataclass
class ServingResult(_ReferenceResult):
    """Everything one simulation run produced.

    The fault-layer fields keep their zero defaults on fault-free runs,
    so legacy construction sites and equality checks are untouched.
    """

    records: List[RequestRecord] = field(default_factory=list)
    #: Wall-clock span of the run: first arrival to last completion.
    start_s: float = 0.0
    end_s: float = 0.0
    #: Per-device busy seconds (index = device position).
    device_busy_s: List[float] = field(default_factory=list)
    device_energy_pj: List[float] = field(default_factory=list)
    batches: int = 0
    size_triggered_batches: int = 0
    timeout_triggered_batches: int = 0
    #: Retry dispatches the fault layer scheduled.
    retries: int = 0
    #: Batches lost to mid-execution device failures.
    failed_batches: int = 0
    #: Energy spent on lost (never-delivered) batch work.
    wasted_energy_pj: float = 0.0
    #: :class:`~repro.serving.faults.DroppedRecord` per given-up
    #: request, in drop order.
    dropped: list = field(default_factory=list)
    #: Per-device outage seconds within [start_s, end_s] (empty on
    #: fault-free runs).
    device_downtime_s: List[float] = field(default_factory=list)
    #: (request id, retry instant, attempt number, model name) per
    #: scheduled retry.
    retry_events: list = field(default_factory=list)

    def completed_rows(self) -> CompletedChunk:
        return self._rows(
            ("batched_s", "service_start_s", "batch_size", "device_id"), False
        )


class ServingSimulator:
    """Simulate one (devices, batcher) deployment over a request stream.

    Parameters
    ----------
    devices:
        One or more :class:`SprintDevice` (multi-chip deployments load-
        balance over them; the first idle device takes the next batch).
    batcher:
        The dynamic batcher; its knobs set the batching/latency trade.
    recorder:
        Optional sim-time :class:`~repro.obs.trace.TraceRecorder`;
        sampled lifecycle spans are emitted from the completed records
        after the event loop finishes, so tracing never perturbs the
        simulation itself.
    faults:
        Optional :class:`~repro.serving.faults.FaultSchedule` (one
        outage trace per device position).  With it in force, a device
        that dies mid-batch loses the batch; members retry under
        ``retry`` or drop (see :mod:`repro.serving.faults`).
    retry:
        :class:`~repro.serving.faults.RetryPolicy` for lost requests;
        defaults to ``RetryPolicy()`` when ``faults`` is given.
    """

    def __init__(
        self,
        devices: Sequence[SprintDevice],
        batcher: DynamicBatcher,
        recorder: Optional[TraceRecorder] = None,
        faults=None,
        retry=None,
    ):
        devices = list(devices)
        if not devices:
            raise ValueError("at least one device required")
        retry = retry_in_force(faults, retry, len(devices))
        self.devices = devices
        self.batcher = batcher
        self.recorder = recorder
        self.faults = faults
        self.retry = retry
        self._consumed = False

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ServingResult:
        """Process every request to completion; returns the records.

        Single-use: devices and the batcher accumulate wall-clock and
        counter state during a run, so reusing them would corrupt the
        next run's timing.  Build a fresh simulator per stream.
        """
        if self._consumed:
            raise RuntimeError(
                "ServingSimulator.run() is single-use: devices and "
                "batcher carry per-run state; build a new simulator"
            )
        self._consumed = True
        requests = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        if not requests:
            raise ValueError("request stream must not be empty")
        seen = set()
        for r in requests:
            if r.request_id in seen:
                raise ValueError(f"duplicate request id {r.request_id}")
            seen.add(r.request_id)

        queue = EventQueue()
        # Sealed batches awaiting a device, FIFO: a deque so the head
        # pop is O(1) instead of list.pop(0)'s O(n) shuffle.
        ready: Deque[Batch] = deque()
        records: Dict[int, RequestRecord] = {}
        arrivals_left = len(requests)
        faults = self.faults
        retry = self.retry
        # Fault-mode state.  A retried request re-enters the batcher
        # as a copy with ``arrival_s`` moved to the retry instant (so
        # the batcher's wait rules apply naturally); ``originals``
        # keeps the true request for records and latency.
        originals: Dict[int, Request] = {}
        failures: Dict[int, int] = {}
        dropped: list = []
        retry_events: list = []
        pending_retries = 0
        retries = 0
        failed_batches = 0
        wasted_energy_pj = 0.0
        if faults is not None:
            originals = {r.request_id: r for r in requests}

        for r in requests:
            queue.push(r.arrival_s, EventKind.ARRIVAL, r)
        if faults is not None:
            for device_index, up_s in faults.recovery_events():
                queue.push(up_s, EventKind.RECOVERY, device_index)

        def seal(batch: Batch) -> None:
            for member in batch.requests:
                records[member.request_id] = RequestRecord(
                    request=originals.get(member.request_id, member),
                    batched_s=batch.sealed_s,
                    batch_size=batch.size,
                )
            ready.append(batch)

        def dispatch(now_s: float) -> None:
            nonlocal failed_batches, wasted_energy_pj
            while ready:
                at = -1
                for i, d in enumerate(self.devices):
                    if d.is_idle(now_s) and (
                        faults is None or faults.is_up(i, now_s)
                    ):
                        at = i
                        break
                if at < 0:
                    return
                device = self.devices[at]
                batch = ready.popleft()
                if faults is not None:
                    fail_s = faults.next_down_after(at, now_s)
                    if fail_s < now_s + device.service_time_s(batch):
                        # Preordained loss: the device dies mid-batch.
                        wasted_energy_pj += device.lose_batch(batch, now_s, fail_s)
                        failed_batches += 1
                        queue.push(fail_s, EventKind.BATCH_FAILED, batch)
                        continue
                finish = device.start_batch(batch, now_s)
                for member in batch.requests:
                    rec = records[member.request_id]
                    rec.service_start_s = now_s
                    rec.finish_s = finish
                    rec.device_id = device.device_id
                queue.push(finish, EventKind.DEVICE_DONE, batch)

        while queue:
            event = queue.pop()
            now = event.time_s
            if event.kind == EventKind.ARRIVAL:
                arrivals_left -= 1
                sealed = self.batcher.add(event.payload, now)
                if sealed is not None:
                    seal(sealed)
                elif self.batcher.max_wait_s > 0:
                    queue.push(
                        self.batcher.deadline_for(event.payload),
                        EventKind.BATCH_TIMEOUT,
                    )
                elif faults is None:
                    # Zero wait: the request never lingers in the
                    # batcher; seal its (possibly singleton) queue now.
                    # (Fault mode runs the same flush post-event, where
                    # retry re-admissions share it.)
                    for b in self.batcher.flush_due(now):
                        seal(b)
                if faults is None and arrivals_left == 0 and self.batcher.pending:
                    # Stream over: don't make the tail wait out its
                    # timeout for batch-mates that will never come.
                    for b in self.batcher.flush_all(now):
                        seal(b)
            elif event.kind == EventKind.BATCH_TIMEOUT:
                for b in self.batcher.flush_due(now):
                    seal(b)
            elif event.kind == EventKind.DEVICE_DONE:
                if faults is not None:
                    for member in event.payload.requests:
                        records[member.request_id].attempts = (
                            failures.get(member.request_id, 0) + 1
                        )
            elif event.kind == EventKind.BATCH_FAILED:
                for member in event.payload.requests:
                    rid = member.request_id
                    f = failures.get(rid, 0) + 1
                    failures[rid] = f
                    original = originals[rid]
                    if f >= retry.max_attempts:
                        dropped.append(DroppedRecord(original, "retries", now, f))
                        continue
                    retry_at = now + retry.backoff_s(f)
                    if (
                        original.deadline_s is not None
                        and retry_at > original.arrival_s + original.deadline_s
                    ):
                        dropped.append(DroppedRecord(original, "deadline", now, f))
                        continue
                    retries += 1
                    pending_retries += 1
                    retry_events.append(
                        (rid, retry_at, f + 1, original.spec.name)
                    )
                    queue.push(
                        retry_at,
                        EventKind.RETRY,
                        dataclasses.replace(original, arrival_s=retry_at),
                    )
            elif event.kind == EventKind.RETRY:
                pending_retries -= 1
                sealed = self.batcher.add(event.payload, now)
                if sealed is not None:
                    seal(sealed)
                elif self.batcher.max_wait_s > 0:
                    queue.push(
                        self.batcher.deadline_for(event.payload),
                        EventKind.BATCH_TIMEOUT,
                    )
            # EventKind.RECOVERY carries no state change: up/down is a
            # pure function of time; the event re-triggers dispatch.
            if faults is not None:
                if self.batcher.max_wait_s == 0 and self.batcher.pending:
                    for b in self.batcher.flush_due(now):
                        seal(b)
                if (
                    arrivals_left == 0
                    and pending_retries == 0
                    and self.batcher.pending
                ):
                    for b in self.batcher.flush_all(now):
                        seal(b)
            dispatch(now)

        if faults is not None:
            # Fleet dead forever with sealed work still queued: those
            # batches can never run; their members strand.
            while ready:
                batch = ready.popleft()
                for member in batch.requests:
                    rid = member.request_id
                    dropped.append(
                        DroppedRecord(
                            originals[rid],
                            "stranded",
                            batch.sealed_s,
                            failures.get(rid, 0),
                        )
                    )
        assert not ready and self.batcher.pending == 0
        dropped_ids = {d.request.request_id for d in dropped}
        result_records = [
            records[r.request_id]
            for r in requests
            if r.request_id not in dropped_ids
        ]
        assert len(result_records) + len(dropped) == len(requests)
        if faults is None:
            end_s = max(rec.finish_s for rec in result_records)
        else:
            end_s = max(
                [rec.finish_s for rec in result_records]
                + [d.dropped_s for d in dropped]
            )
        if self.recorder is not None:
            for rec in result_records:
                self.recorder.add_request(
                    request_id=rec.request.request_id,
                    model=rec.request.spec.name,
                    arrival_s=rec.request.arrival_s,
                    batched_s=rec.batched_s,
                    service_start_s=rec.service_start_s,
                    finish_s=rec.finish_s,
                    device_id=rec.device_id,
                    batch_size=rec.batch_size,
                )
            if faults is not None:
                _emit_fault_trace(
                    self.recorder,
                    faults,
                    len(self.devices),
                    requests[0].arrival_s,
                    end_s,
                    retry_events,
                )
        return ServingResult(
            records=result_records,
            start_s=requests[0].arrival_s,
            end_s=end_s,
            device_busy_s=[d.busy_s for d in self.devices],
            device_energy_pj=[d.energy_pj for d in self.devices],
            batches=self.batcher.stats.batches_out,
            size_triggered_batches=self.batcher.stats.size_triggered,
            timeout_triggered_batches=self.batcher.stats.timeout_triggered,
            retries=retries,
            failed_batches=failed_batches,
            wasted_energy_pj=wasted_energy_pj,
            dropped=dropped,
            device_downtime_s=(
                []
                if faults is None
                else [
                    faults.downtime_within(i, requests[0].arrival_s, end_s)
                    for i in range(len(self.devices))
                ]
            ),
            retry_events=retry_events,
        )


@dataclass
class DecodeRecord:
    """Per-token lifecycle timestamps for one generative request."""

    request: Request
    #: When the batcher sealed this request's prefill batch.
    prefill_batched_s: float = 0.0
    #: When a device started the prefill batch.
    prefill_start_s: float = 0.0
    #: When the prefill batch finished -- the first output token.
    first_token_s: float = 0.0
    #: When the request's final token step finished.
    finish_s: float = 0.0
    #: Size of the prefill batch the request rode in.
    prefill_batch_size: int = 1
    #: Device that executed the prefill batch.
    prefill_device_id: int = -1
    #: Sum of batch sizes over this request's decode steps (total
    #: batch occupancy its decode tokens experienced; 0 when
    #: ``output_len == 1``).
    decode_slots: int = 0
    #: Dispatch attempts this request needed (1 without faults; the
    #: fault layer counts one per lost step batch plus the success).
    attempts: int = 1

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival to prefill completion."""
        return self.first_token_s - self.request.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to the last token."""
        return self.finish_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Arrival to prefill service start."""
        return self.prefill_start_s - self.request.arrival_s

    @property
    def tbt_s(self) -> float:
        """Mean time between tokens over the decode phase.

        NaN for single-token requests (no decode steps to average).
        """
        steps = self.request.output_len - 1
        if steps < 1:
            return float("nan")
        return (self.finish_s - self.first_token_s) / steps


@dataclass
class GenerativeResult(_ReferenceResult):
    """Everything one generative (continuous-batching) run produced."""

    records: List[DecodeRecord] = field(default_factory=list)
    start_s: float = 0.0
    end_s: float = 0.0
    device_busy_s: List[float] = field(default_factory=list)
    device_energy_pj: List[float] = field(default_factory=list)
    #: Token-step batches dispatched (prefill + decode).
    batches: int = 0
    prefill_batches: int = 0
    decode_batches: int = 0
    size_triggered_batches: int = 0
    timeout_triggered_batches: int = 0
    #: Tokens generated across all *completed* requests (= total steps
    #: executed; equals the whole stream's tokens without faults).
    total_tokens: int = 0
    retries: int = 0
    failed_batches: int = 0
    wasted_energy_pj: float = 0.0
    dropped: list = field(default_factory=list)
    device_downtime_s: List[float] = field(default_factory=list)
    retry_events: list = field(default_factory=list)

    def completed_rows(self) -> CompletedChunk:
        return self._rows(
            (
                "prefill_batched_s",
                "prefill_start_s",
                "prefill_batch_size",
                "prefill_device_id",
            ),
            True,
        )


class GenerativeServingSimulator:
    """Reference event loop for autoregressive (decode) serving.

    The semantic spec for continuous batching on the SPRINT machine,
    mirroring :class:`ServingSimulator`'s structure: arrivals enter as
    prefill :class:`~repro.serving.batching.StepItem` work; every
    batch completion re-admits its unfinished members as decode steps
    at the finish instant (device slots free per token); the
    :class:`~repro.serving.batching.ContinuousBatcher` seals mixed
    prefill/decode queues under the same size/wait rules.  Timing
    rules, event priorities, FIFO dispatch, and the lowest-index-idle
    device choice are identical to the prefill-only loop, and with
    every ``output_len == 1`` this loop degenerates to it exactly
    (same batches, same floats).  The columnar fast path
    (:mod:`repro.serving.decode`) is pinned bitwise-equal to this
    loop.

    End-of-stream rule: when no future steps can ever join (all
    arrivals seen and no unfinished request is in flight), pending
    queues flush immediately instead of waiting out their timeout --
    the generative extension of the reference loop's tail flush.
    """

    def __init__(
        self,
        devices: Sequence[SprintDevice],
        batcher: ContinuousBatcher,
        recorder: Optional[TraceRecorder] = None,
        faults=None,
        retry=None,
    ):
        devices = list(devices)
        if not devices:
            raise ValueError("at least one device required")
        retry = retry_in_force(faults, retry, len(devices))
        self.devices = devices
        self.batcher = batcher
        self.recorder = recorder
        self.faults = faults
        self.retry = retry
        self._consumed = False

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> GenerativeResult:
        """Process every request's every token step to completion."""
        if self._consumed:
            raise RuntimeError(
                "GenerativeServingSimulator.run() is single-use: devices "
                "and batcher carry per-run state; build a new simulator"
            )
        self._consumed = True
        requests = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        if not requests:
            raise ValueError("request stream must not be empty")
        seen = set()
        for r in requests:
            if r.request_id in seen:
                raise ValueError(f"duplicate request id {r.request_id}")
            seen.add(r.request_id)

        queue = EventQueue()
        ready: Deque[StepBatch] = deque()
        records: Dict[int, DecodeRecord] = {}
        arrivals_left = len(requests)
        #: Unfinished steps downstream of the batcher (sealed or
        #: executing): while any exist, more work will re-enter.
        in_flight_rejoiners = 0
        prefill_batches = 0
        decode_batches = 0
        faults = self.faults
        retry = self.retry
        failures: Dict[int, int] = {}
        dropped: list = []
        retry_events: list = []
        pending_retries = 0
        retries = 0
        failed_batches = 0
        wasted_energy_pj = 0.0
        for r in requests:
            queue.push(r.arrival_s, EventKind.ARRIVAL, r)
        if faults is not None:
            for device_index, up_s in faults.recovery_events():
                queue.push(up_s, EventKind.RECOVERY, device_index)

        def seal(batch: StepBatch) -> None:
            nonlocal in_flight_rejoiners, prefill_batches, decode_batches
            if batch.decode:
                decode_batches += 1
            else:
                prefill_batches += 1
                for item in batch.items:
                    rec = records[item.request.request_id]
                    rec.prefill_batched_s = batch.sealed_s
                    rec.prefill_batch_size = batch.size
            in_flight_rejoiners += sum(1 for item in batch.items if not item.is_last)
            ready.append(batch)

        def admit(item: StepItem, now_s: float) -> None:
            sealed = self.batcher.add(item, now_s)
            if sealed is not None:
                seal(sealed)
            elif self.batcher.max_wait_s > 0:
                queue.push(
                    self.batcher.deadline_for(item),
                    EventKind.BATCH_TIMEOUT,
                )

        def dispatch(now_s: float) -> None:
            nonlocal failed_batches, wasted_energy_pj
            while ready:
                at = -1
                for i, d in enumerate(self.devices):
                    if d.is_idle(now_s) and (
                        faults is None or faults.is_up(i, now_s)
                    ):
                        at = i
                        break
                if at < 0:
                    return
                device = self.devices[at]
                batch = ready.popleft()
                if faults is not None:
                    fail_s = faults.next_down_after(at, now_s)
                    service = device.step_service_time_s(
                        batch.spec, batch.max_context_len, batch.size, batch.decode
                    )
                    if fail_s < now_s + service:
                        # Preordained loss: the device dies mid-step.
                        wasted_energy_pj += device.lose_step_batch(
                            batch.spec,
                            batch.max_context_len,
                            batch.size,
                            batch.decode,
                            now_s,
                            fail_s,
                        )
                        failed_batches += 1
                        queue.push(fail_s, EventKind.BATCH_FAILED, batch)
                        continue
                finish = device.start_step_batch(
                    batch.spec,
                    batch.max_context_len,
                    batch.size,
                    batch.decode,
                    now_s,
                )
                if not batch.decode:
                    for item in batch.items:
                        rec = records[item.request.request_id]
                        rec.prefill_start_s = now_s
                        rec.prefill_device_id = device.device_id
                queue.push(finish, EventKind.DEVICE_DONE, batch)

        while queue:
            event = queue.pop()
            now = event.time_s
            if event.kind == EventKind.ARRIVAL:
                arrivals_left -= 1
                r = event.payload
                records[r.request_id] = DecodeRecord(request=r)
                admit(StepItem(request=r, step=0, ready_s=now), now)
            elif event.kind == EventKind.BATCH_TIMEOUT:
                for b in self.batcher.flush_due(now):
                    seal(b)
            elif event.kind == EventKind.DEVICE_DONE:
                batch = event.payload
                size = batch.size
                for item in batch.items:
                    rec = records[item.request.request_id]
                    if batch.decode:
                        rec.decode_slots += size
                    else:
                        rec.first_token_s = now
                    if item.is_last:
                        rec.finish_s = now
                        if faults is not None:
                            rec.attempts = (
                                failures.get(item.request.request_id, 0) + 1
                            )
                    else:
                        in_flight_rejoiners -= 1
                        admit(
                            StepItem(
                                request=item.request,
                                step=item.step + 1,
                                ready_s=now,
                            ),
                            now,
                        )
            elif event.kind == EventKind.BATCH_FAILED:
                batch = event.payload
                for item in batch.items:
                    if not item.is_last:
                        in_flight_rejoiners -= 1
                    rid = item.request.request_id
                    f = failures.get(rid, 0) + 1
                    failures[rid] = f
                    if f >= retry.max_attempts:
                        dropped.append(DroppedRecord(item.request, "retries", now, f))
                        continue
                    retry_at = now + retry.backoff_s(f)
                    if (
                        item.request.deadline_s is not None
                        and retry_at
                        > item.request.arrival_s + item.request.deadline_s
                    ):
                        dropped.append(DroppedRecord(item.request, "deadline", now, f))
                        continue
                    retries += 1
                    pending_retries += 1
                    retry_events.append(
                        (rid, retry_at, f + 1, item.request.spec.name)
                    )
                    queue.push(
                        retry_at,
                        EventKind.RETRY,
                        StepItem(
                            request=item.request,
                            step=item.step,
                            ready_s=retry_at,
                        ),
                    )
            elif event.kind == EventKind.RETRY:
                pending_retries -= 1
                admit(event.payload, now)
            # EventKind.RECOVERY carries no state change: up/down is a
            # pure function of time; the event re-triggers dispatch.
            if self.batcher.max_wait_s == 0 and self.batcher.pending:
                # Zero wait: no step lingers in the batcher; seal the
                # (possibly singleton) queues this event populated.
                for b in self.batcher.flush_due(now):
                    seal(b)
            if (
                arrivals_left == 0
                and in_flight_rejoiners == 0
                and pending_retries == 0
                and self.batcher.pending
            ):
                # No future step can ever join: don't make the tail
                # wait out its timeout for batch-mates that won't come.
                for b in self.batcher.flush_all(now):
                    seal(b)
            dispatch(now)

        if faults is not None:
            # Fleet dead forever with sealed work still queued: those
            # steps can never run; their requests strand.
            while ready:
                batch = ready.popleft()
                for item in batch.items:
                    if not item.is_last:
                        in_flight_rejoiners -= 1
                    rid = item.request.request_id
                    dropped.append(
                        DroppedRecord(
                            item.request,
                            "stranded",
                            batch.sealed_s,
                            failures.get(rid, 0),
                        )
                    )
        assert not ready and self.batcher.pending == 0
        assert in_flight_rejoiners == 0
        dropped_ids = {d.request.request_id for d in dropped}
        result_records = [
            records[r.request_id]
            for r in requests
            if r.request_id not in dropped_ids
        ]
        assert len(result_records) + len(dropped) == len(requests)
        if faults is None:
            end_s = max(rec.finish_s for rec in result_records)
        else:
            end_s = max(
                [rec.finish_s for rec in result_records]
                + [d.dropped_s for d in dropped]
            )
        if self.recorder is not None:
            for rec in result_records:
                self.recorder.add_request(
                    request_id=rec.request.request_id,
                    model=rec.request.spec.name,
                    arrival_s=rec.request.arrival_s,
                    batched_s=rec.prefill_batched_s,
                    service_start_s=rec.prefill_start_s,
                    finish_s=rec.finish_s,
                    device_id=rec.prefill_device_id,
                    batch_size=rec.prefill_batch_size,
                )
                self.recorder.add_decode_phase(
                    request_id=rec.request.request_id,
                    model=rec.request.spec.name,
                    first_token_s=rec.first_token_s,
                    finish_s=rec.finish_s,
                    tokens=rec.request.output_len - 1,
                )
            if faults is not None:
                _emit_fault_trace(
                    self.recorder,
                    faults,
                    len(self.devices),
                    requests[0].arrival_s,
                    end_s,
                    retry_events,
                )
        return GenerativeResult(
            records=result_records,
            start_s=requests[0].arrival_s,
            end_s=end_s,
            device_busy_s=[d.busy_s for d in self.devices],
            device_energy_pj=[d.energy_pj for d in self.devices],
            batches=self.batcher.stats.batches_out,
            prefill_batches=prefill_batches,
            decode_batches=decode_batches,
            size_triggered_batches=self.batcher.stats.size_triggered,
            timeout_triggered_batches=self.batcher.stats.timeout_triggered,
            total_tokens=sum(rec.request.output_len for rec in result_records),
            retries=retries,
            failed_batches=failed_batches,
            wasted_energy_pj=wasted_energy_pj,
            dropped=dropped,
            device_downtime_s=(
                []
                if faults is None
                else [
                    faults.downtime_within(i, requests[0].arrival_s, end_s)
                    for i in range(len(self.devices))
                ]
            ),
            retry_events=retry_events,
        )
