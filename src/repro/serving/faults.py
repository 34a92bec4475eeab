"""Deterministic device-fault injection for the serving simulators.

A :class:`FaultSchedule` assigns every device a fixed list of outage
intervals -- either written down directly (:meth:`FaultSchedule
.from_intervals`) or drawn from seeded exponential MTBF/MTTR
generators (:meth:`FaultSchedule.exponential`).  The schedule is
*exogenous*: outages depend only on (seed, device), never on simulated
traffic, so every batch's fate is preordained at dispatch time and the
event loops never roll anything back.  Generated schedules are
materialized up front -- O(expected failures), independent of stream
length -- so chunked (out-of-core) runs replay the exact same outages
no matter how the stream is cut, the fault-layer analogue of
``ArrivalProcess.cursor``.

Failure semantics
-----------------
* A device is *down* over half-open intervals ``[down_s, up_s)``: it
  can start a batch at the exact recovery instant, and a batch that
  finishes exactly when the outage begins completes.
* A batch whose device dies mid-execution is **lost** at the failure
  instant: the device stays occupied until then (the work happened, it
  just produced nothing), the partial energy is accounted as *wasted*,
  and every member re-enters its queue under the :class:`RetryPolicy`
  -- bounded attempts with exponential backoff -- or is dropped once
  its budget or per-request deadline (``Request.deadline_s``, relative
  to arrival) is exhausted.
* If the whole fleet is down forever with sealed work still queued,
  those requests are dropped as ``stranded``.

Both serving paths understand fault schedules: the per-request
reference loops (:mod:`repro.serving.scheduler`) define the semantics,
and the columnar fast path is the decode engine's own event core
(:class:`repro.serving.decode._DecodeCore`) run with the schedule in
force -- macro-stepping included, bounded by each device's next outage
-- pinned bitwise-equal under every schedule (and equal to the
no-fault engines when the schedule is empty).  The entry points are
the ordinary ones, :func:`~repro.serving.engine.simulate_table` /
:func:`~repro.serving.engine.simulate_stream` with ``faults=``; this
module holds the schedule, the retry policy, the drop records, the
whole-table fault result, and the trace emission both engines share.
Conservation holds by construction:
``completed + dropped == offered``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.requests import CompletedChunk, Request, RequestTable

_INF = float("inf")

#: Drop-reason codes of the core's drop records and the
#: ``drop_reason`` column (0 = completed).
DROP_NONE = 0
DROP_RETRIES = 1
DROP_DEADLINE = 2
DROP_STRANDED = 3

#: The reason names drop records and reports use, by code.
DROP_REASON_NAMES = {
    DROP_RETRIES: "retries",
    DROP_DEADLINE: "deadline",
    DROP_STRANDED: "stranded",
}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for lost batches.

    A request's k-th failure (k counted from 1) schedules a retry at
    ``failure_instant + backoff_base_s * backoff_multiplier**(k - 1)``
    unless k has reached ``max_attempts`` (the request is dropped with
    reason ``retries``) or the retry instant overshoots the request's
    absolute deadline (dropped with reason ``deadline``).  Deadlines
    gate *retries only* -- a request that completes on its first
    attempt is never deadline-checked, so fault-free runs are
    untouched by deadline columns.
    """

    max_attempts: int = 3
    backoff_base_s: float = 1e-3
    backoff_multiplier: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff_s(self, failure_index: int) -> float:
        """Backoff after the ``failure_index``-th failure (1-based)."""
        return self.backoff_base_s * self.backoff_multiplier ** (failure_index - 1)


def retry_in_force(faults, retry, num_devices: int):
    """The retry policy a run uses: ``None`` without a schedule, else
    ``retry`` or the default policy, once the schedule fits the fleet."""
    if faults is None:
        if retry is not None:
            raise ValueError("a retry policy requires a fault schedule")
        return None
    faults.validate_for(num_devices)
    return RetryPolicy() if retry is None else retry


def count_drop_reasons(reasons: Iterable[str]) -> dict:
    """Drops per reason name; every reason is present, zero if unseen."""
    counts = {name: 0 for name in DROP_REASON_NAMES.values()}
    for reason in reasons:
        counts[reason] += 1
    return counts


class DeviceFaultTrace:
    """Sorted, disjoint half-open ``[down_s, up_s)`` outages of one device."""

    __slots__ = ("down_s", "up_s")

    def __init__(self, intervals: Sequence[Tuple[float, float]]):
        downs: List[float] = []
        ups: List[float] = []
        prev_up = 0.0
        for down, up in intervals:
            down = float(down)
            up = float(up)
            if down < 0:
                raise ValueError("outage start must be non-negative")
            if not up > down:
                raise ValueError("outage end must exceed its start")
            if downs and down <= prev_up:
                raise ValueError("outage intervals must be sorted and disjoint")
            downs.append(down)
            ups.append(up)
            prev_up = up
        self.down_s: Tuple[float, ...] = tuple(downs)
        self.up_s: Tuple[float, ...] = tuple(ups)

    def __len__(self) -> int:
        return len(self.down_s)

    def is_up(self, t: float) -> bool:
        idx = bisect_right(self.down_s, t) - 1
        return idx < 0 or t >= self.up_s[idx]

    def next_down_after(self, t: float) -> float:
        """Start of the first outage strictly after ``t`` (inf if none)."""
        idx = bisect_right(self.down_s, t)
        return self.down_s[idx] if idx < len(self.down_s) else _INF

    def downtime_within(self, t0: float, t1: float) -> float:
        """Seconds of outage overlapping ``[t0, t1]``."""
        total = 0.0
        for down, up in zip(self.down_s, self.up_s):
            if down >= t1:
                break
            overlap = min(up, t1) - max(down, t0)
            if overlap > 0:
                total += overlap
        return total


class FaultSchedule:
    """Per-device outage traces; index = device position in the fleet."""

    def __init__(self, traces: Sequence[DeviceFaultTrace]):
        self.traces: List[DeviceFaultTrace] = list(traces)

    def __len__(self) -> int:
        return len(self.traces)

    # ------------------------------------------------------------------
    @classmethod
    def from_intervals(
        cls, intervals_per_device: Sequence[Sequence[Tuple[float, float]]]
    ) -> "FaultSchedule":
        """Fixed outage traces, one interval list per device."""
        return cls([DeviceFaultTrace(iv) for iv in intervals_per_device])

    @classmethod
    def none(cls, num_devices: int) -> "FaultSchedule":
        """An empty schedule: every device is up forever."""
        if num_devices < 1:
            raise ValueError("at least one device required")
        return cls([DeviceFaultTrace(()) for _ in range(num_devices)])

    @classmethod
    def exponential(
        cls,
        num_devices: int,
        mtbf_s: float,
        mttr_s: float,
        horizon_s: float,
        seed: int = 0,
    ) -> "FaultSchedule":
        """Seeded alternating-renewal outages: Exp(mtbf) up, Exp(mttr) down.

        Each device draws from its own ``default_rng([seed, device])``
        stream, so the schedule for device ``d`` is identical no matter
        the fleet size, and the whole schedule is materialized up front
        (outages whose *start* falls before ``horizon_s``), making
        chunked replays exact by construction.
        """
        if num_devices < 1:
            raise ValueError("at least one device required")
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        traces = []
        for device in range(num_devices):
            rng = np.random.default_rng([seed, device])
            t = 0.0
            intervals: List[Tuple[float, float]] = []
            while True:
                t += float(rng.exponential(mtbf_s))
                if t >= horizon_s:
                    break
                down = t
                t += float(rng.exponential(mttr_s))
                intervals.append((down, t))
            traces.append(DeviceFaultTrace(intervals))
        return cls(traces)

    # ------------------------------------------------------------------
    def validate_for(self, num_devices: int) -> None:
        if len(self.traces) != num_devices:
            raise ValueError(
                f"fault schedule covers {len(self.traces)} devices, "
                f"fleet has {num_devices}"
            )

    def is_up(self, device: int, t: float) -> bool:
        return self.traces[device].is_up(t)

    def next_down_after(self, device: int, t: float) -> float:
        return self.traces[device].next_down_after(t)

    def recovery_events(self) -> List[Tuple[int, float]]:
        """(device, recovery instant) for every finite outage end.

        The reference loops push these a priori; the columnar core
        keeps one pending per device.  A recovery only exists to
        re-trigger dispatch -- up/down state itself is a pure function
        of time -- so the order of same-instant recoveries cannot
        change a result.
        """
        events = []
        for device, trace in enumerate(self.traces):
            for up in trace.up_s:
                if up < _INF:
                    events.append((device, up))
        return events

    def downtime_within(self, device: int, t0: float, t1: float) -> float:
        return self.traces[device].downtime_within(t0, t1)


@dataclass
class DroppedRecord:
    """One request the fault layer gave up on."""

    request: Request
    #: ``retries`` (attempt budget exhausted), ``deadline`` (the next
    #: retry would land past the request's deadline), or ``stranded``
    #: (the whole fleet died with the request's batch still queued).
    reason: str
    dropped_s: float
    #: Dispatch attempts that actually started (and were lost).
    attempts: int


@dataclass
class FaultColumnarResult:
    """A fault-mode run's per-request columns plus fleet accounting.

    Rows are in canonical (arrival, id) order.  ``completed`` masks
    the rows that finished; dropped rows carry ``drop_reason`` /
    ``dropped_s`` instead of service timestamps.  ``generative``
    selects which reference result :meth:`to_result` rebuilds.
    """

    table: RequestTable
    generative: bool
    completed: np.ndarray
    attempts: np.ndarray
    drop_reason: np.ndarray
    dropped_s: np.ndarray
    #: Row indices of dropped requests in drop-event order (the
    #: reference result's ``dropped`` list order).
    drop_order: np.ndarray
    batched_s: np.ndarray
    service_start_s: np.ndarray
    first_token_s: np.ndarray
    finish_s: np.ndarray
    batch_size: np.ndarray
    device_id: np.ndarray
    decode_slots: np.ndarray
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    device_downtime_s: List[float]
    batches: int
    prefill_batches: int
    decode_batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int
    total_tokens: int
    retries: int
    failed_batches: int
    wasted_energy_pj: float
    retry_events: List[Tuple[int, float, int, str]]

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def completed_count(self) -> int:
        return int(np.count_nonzero(self.completed))

    @property
    def dropped_count(self) -> int:
        return int(self.drop_order.size)

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latency of the *completed* rows."""
        return self.completed_rows().latency_s

    @property
    def queue_wait_s(self) -> np.ndarray:
        return self.completed_rows().queue_wait_s

    @property
    def ttft_s(self) -> np.ndarray:
        return self.completed_rows().ttft_s

    @property
    def tbt_s(self) -> np.ndarray:
        """Mean time between tokens per completed row (NaN when 1 token)."""
        return self.completed_rows().tbt_s

    @property
    def dropped_by_reason(self) -> dict:
        return count_drop_reasons(
            DROP_REASON_NAMES[int(self.drop_reason[row])] for row in self.drop_order
        )

    def completed_rows(self) -> CompletedChunk:
        """The completed rows' columns, in canonical row order."""
        m = self.completed
        t = self.table
        gen = self.generative
        return CompletedChunk(
            specs=t.specs,
            request_id=t.request_id[m],
            arrival_s=t.arrival_s[m],
            spec_idx=t.spec_idx[m],
            valid_len=t.valid_len[m],
            batched_s=self.batched_s[m],
            service_start_s=self.service_start_s[m],
            finish_s=self.finish_s[m],
            batch_size=self.batch_size[m],
            device_id=self.device_id[m],
            output_len=t.output_len[m] if gen else None,
            first_token_s=self.first_token_s[m] if gen else None,
            decode_slots=self.decode_slots[m] if gen else None,
            attempts=self.attempts[m],
        )

    def to_result(self):
        """Rebuild the reference result (for the equivalence suite)."""
        from repro.serving.scheduler import (
            DecodeRecord,
            GenerativeResult,
            RequestRecord,
            ServingResult,
        )

        requests = self.table.to_requests()
        dropped = [
            DroppedRecord(
                request=requests[row],
                reason=DROP_REASON_NAMES[int(self.drop_reason[row])],
                dropped_s=float(self.dropped_s[row]),
                attempts=int(self.attempts[row]),
            )
            for row in self.drop_order
        ]
        rows = np.flatnonzero(self.completed)
        common = dict(
            start_s=self.start_s,
            end_s=self.end_s,
            device_busy_s=list(self.device_busy_s),
            device_energy_pj=list(self.device_energy_pj),
            batches=self.batches,
            size_triggered_batches=self.size_triggered_batches,
            timeout_triggered_batches=self.timeout_triggered_batches,
            retries=self.retries,
            failed_batches=self.failed_batches,
            wasted_energy_pj=self.wasted_energy_pj,
            dropped=dropped,
            device_downtime_s=list(self.device_downtime_s),
            retry_events=list(self.retry_events),
        )
        if self.generative:
            records = [
                DecodeRecord(
                    request=requests[row],
                    prefill_batched_s=float(self.batched_s[row]),
                    prefill_start_s=float(self.service_start_s[row]),
                    first_token_s=float(self.first_token_s[row]),
                    finish_s=float(self.finish_s[row]),
                    prefill_batch_size=int(self.batch_size[row]),
                    prefill_device_id=int(self.device_id[row]),
                    decode_slots=int(self.decode_slots[row]),
                    attempts=int(self.attempts[row]),
                )
                for row in rows
            ]
            return GenerativeResult(
                records=records,
                prefill_batches=self.prefill_batches,
                decode_batches=self.decode_batches,
                total_tokens=self.total_tokens,
                **common,
            )
        records = [
            RequestRecord(
                request=requests[row],
                batched_s=float(self.batched_s[row]),
                service_start_s=float(self.service_start_s[row]),
                finish_s=float(self.finish_s[row]),
                batch_size=int(self.batch_size[row]),
                device_id=int(self.device_id[row]),
                attempts=int(self.attempts[row]),
            )
            for row in rows
        ]
        return ServingResult(records=records, **common)


def _emit_fault_trace(
    recorder: TraceRecorder,
    schedule: FaultSchedule,
    num_devices: int,
    start_s: float,
    end_s: float,
    retry_events: Sequence[Tuple[int, float, int, str]],
) -> None:
    """Shared post-hoc span emission: both engines call this with equal
    inputs, so fault traces stay byte-identical across paths."""
    for device in range(num_devices):
        trace = schedule.traces[device]
        for down, up in zip(trace.down_s, trace.up_s):
            if down < end_s and up > start_s:
                recorder.add_device_fault(
                    device_id=device,
                    down_s=max(down, start_s),
                    up_s=min(up, end_s),
                )
    for request_id, at_s, attempt, model in retry_events:
        recorder.add_retry(
            request_id=request_id, model=model, at_s=at_s, attempt=attempt
        )
