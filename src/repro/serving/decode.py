"""Columnar fast path for generative (continuous-batching) serving.

The decode twin of :mod:`repro.serving.engine`: where prefill-only
batch formation is device-independent (so the fast engine can form
every batch in one vectorized pass), a decode step only becomes
schedulable when its previous step *finishes* -- batch formation and
dispatch are coupled through device timing.  This engine therefore
stays event-driven, but works at **batch granularity over columnar
state**: one heap entry per sealed step batch (not per request-step),
plain-tuple queue frontiers instead of per-step objects, and a
memoized (model, phase, bucket) cost table -- the same design that
makes the prefill engine fast, applied to the generative lifecycle.

The contract matches the prefill engine's: for the same stream and
knobs, :func:`simulate_decode_table` produces per-request timestamps,
device busy/energy folds, and batch counters **bitwise equal** to the
reference :class:`~repro.serving.scheduler.GenerativeServingSimulator`
(same float expressions evaluated in the same order), and
:func:`simulate_decode_stream` extends that bitwise contract to
chunked out-of-core streams at any chunk size, retiring completed
requests through a ``sink`` as
:class:`~repro.serving.requests.CompletedChunk` columns so peak memory
is O(chunk + in-flight), and returning the prefill engine's
:class:`~repro.serving.engine.StreamedServingResult`.

Request lifecycle (continuous batching)::

    arrival --> [prefill queue] --seal--> prefill step ----> first token
                                              (batch)            |
              +---------------------------------<----------------+
              |  re-admit at finish, context += 1
              v
            [decode queue] --seal--> decode step --> ... --> last token

Seal rules are the reference batcher's, at step granularity: a queue
seals on ``max_batch_size`` members or when its oldest step has waited
``max_wait_s``; prefill and decode steps never share a batch; when no
future step can ever join, pending queues flush immediately.

The same event core and the same two drivers serve fault injection:
``faults=`` (a :class:`~repro.serving.faults.FaultSchedule`) and
``retry=`` run it with device outages and a retry policy in force,
macro-stepping included, for prefill tables (as the
``output_len == 1`` case) and generative ones alike; the table driver
then returns a :class:`~repro.serving.faults.FaultColumnarResult`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.engine import (
    _EMPTY,
    StreamedServingResult,
    _check_chunk,
    _queue_map,
    _validate_knobs,
)
from repro.serving.events import EventKind
from repro.serving.faults import (
    DROP_DEADLINE,
    DROP_NONE,
    DROP_REASON_NAMES,
    DROP_RETRIES,
    DROP_STRANDED,
    FaultColumnarResult,
    _emit_fault_trace,
    count_drop_reasons,
    retry_in_force,
)
from repro.serving.requests import (
    CompletedChunk,
    Request,
    RequestTable,
    has_duplicate_ids,
)
from repro.serving.scheduler import DecodeRecord, GenerativeResult


# Per-request record layout (plain lists: the hot loop touches these
# per token step, so attribute access is out).
_RID = 0      # request id
_ARR = 1      # arrival_s
_SPEC = 2     # spec index
_VLEN = 3     # prompt length
_OLEN = 4     # output length
_LCTX = 5     # final context: vlen + olen - 1
_PFB = 6      # prefill batched (sealed) time
_PFS = 7      # prefill service start
_PFD = 8      # prefill device id
_PFSZ = 9     # prefill batch size
_FT = 10      # first token (prefill finish)
_FIN = 11     # finish (last token)
_DSLOT = 12   # summed decode batch occupancy
_ROW = 13     # global row index (sorted order)
_QID = 14     # name-keyed queue id (duplicate-name specs share one)
_FLS = 15     # lost dispatches so far (fault schedules only)
_ADL = 16     # absolute deadline: arrival + deadline_s (inf if none)

# Heap priorities as plain ints (ARRIVAL never enters the heap:
# arrivals feed in sorted).
_P_DONE = int(EventKind.DEVICE_DONE)
_P_TIMEOUT = int(EventKind.BATCH_TIMEOUT)
_P_FAILED = int(EventKind.BATCH_FAILED)
_P_RECOVERY = int(EventKind.RECOVERY)
_P_RETRY = int(EventKind.RETRY)

_INF = float("inf")


@dataclass
class DecodeColumnarResult:
    """A generative run's outcome as struct-of-arrays columns.

    Rows follow the canonical (arrival_s, request_id) sort of the
    input table; every value is bitwise equal to the reference loop's
    :class:`~repro.serving.scheduler.DecodeRecord` fields.
    """

    specs: List
    request_id: np.ndarray
    arrival_s: np.ndarray
    spec_idx: np.ndarray
    valid_len: np.ndarray
    output_len: np.ndarray
    prefill_batched_s: np.ndarray
    prefill_start_s: np.ndarray
    first_token_s: np.ndarray
    finish_s: np.ndarray
    prefill_batch_size: np.ndarray
    prefill_device_id: np.ndarray
    decode_slots: np.ndarray
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    batches: int
    prefill_batches: int
    decode_batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int
    total_tokens: int
    #: Optional per-request deadline column (seconds relative to
    #: arrival, ``inf`` = none), carried through the canonical sort so
    #: :meth:`to_result` round-trips deadline-bearing tables losslessly.
    deadline_s: Optional[np.ndarray] = None

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def completed(self) -> int:
        return int(self.request_id.size)

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latency column: arrival to last token."""
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> np.ndarray:
        """Arrival to prefill service start."""
        return self.prefill_start_s - self.arrival_s

    @property
    def ttft_s(self) -> np.ndarray:
        """Time-to-first-token column: arrival to prefill finish."""
        return self.first_token_s - self.arrival_s

    @property
    def tbt_s(self) -> np.ndarray:
        """Mean time between tokens per request (NaN when 1 token)."""
        return self.completed_rows().tbt_s

    def completed_rows(self) -> CompletedChunk:
        """Every row's columns (every request completes), in row order."""
        return CompletedChunk(
            specs=self.specs,
            request_id=self.request_id,
            arrival_s=self.arrival_s,
            spec_idx=self.spec_idx,
            valid_len=self.valid_len,
            batched_s=self.prefill_batched_s,
            service_start_s=self.prefill_start_s,
            finish_s=self.finish_s,
            batch_size=self.prefill_batch_size,
            device_id=self.prefill_device_id,
            output_len=self.output_len,
            first_token_s=self.first_token_s,
            decode_slots=self.decode_slots,
        )

    def to_result(self) -> GenerativeResult:
        """Materialize reference-shaped records (tests, small runs)."""
        records = [
            DecodeRecord(
                request=Request(
                    request_id=int(self.request_id[i]),
                    arrival_s=float(self.arrival_s[i]),
                    spec=self.specs[int(self.spec_idx[i])],
                    valid_len=int(self.valid_len[i]),
                    output_len=int(self.output_len[i]),
                    deadline_s=(
                        None
                        if self.deadline_s is None
                        or not np.isfinite(self.deadline_s[i])
                        else float(self.deadline_s[i])
                    ),
                ),
                prefill_batched_s=float(self.prefill_batched_s[i]),
                prefill_start_s=float(self.prefill_start_s[i]),
                first_token_s=float(self.first_token_s[i]),
                finish_s=float(self.finish_s[i]),
                prefill_batch_size=int(self.prefill_batch_size[i]),
                prefill_device_id=int(self.prefill_device_id[i]),
                decode_slots=int(self.decode_slots[i]),
            )
            for i in range(self.completed)
        ]
        return GenerativeResult(
            records=records,
            start_s=self.start_s,
            end_s=self.end_s,
            device_busy_s=list(self.device_busy_s),
            device_energy_pj=list(self.device_energy_pj),
            batches=self.batches,
            prefill_batches=self.prefill_batches,
            decode_batches=self.decode_batches,
            size_triggered_batches=self.size_triggered_batches,
            timeout_triggered_batches=self.timeout_triggered_batches,
            total_tokens=self.total_tokens,
        )


def _build_cost_vectors(
    cost_model: ServiceCostModel, spec, decode: bool, max_ctx: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample (cycles, energy_pj) vectors indexed by raw context.

    Index ``c`` answers a seal at max context ``c`` for ``c`` in
    ``1 .. hi``, where ``hi`` rounds ``max_ctx`` up to a bucket
    boundary so repeated extensions amortize (index 0 pads).  Values
    come from the vectorized bucket caches
    (:meth:`~repro.serving.devices.ServiceCostModel.cost_arrays` /
    :meth:`~repro.serving.devices.ServiceCostModel.decode_cost_arrays`)
    and are bitwise equal to the scalar lookups the reference devices
    make, so sealing and macro-stepping can price by one array index.
    """
    lb = cost_model.len_bucket
    hi = max(2, -(-max(max_ctx, 1) // lb) * lb)
    ctx_range = np.arange(1, hi + 1, dtype=np.int64)
    if decode:
        cyc, en = cost_model.decode_cost_arrays(spec, ctx_range)
    else:
        cyc, en = cost_model.cost_arrays(spec, ctx_range)
    pad = np.full(1, np.nan)
    return np.concatenate((pad, cyc)), np.concatenate((pad, en))


class _DecodeCore:
    """The event loop over columnar generative state.

    Shared by the whole-table and chunked entry points: arrivals feed
    in through :meth:`run_arrivals` (possibly across many calls), the
    heap carries one entry per in-flight step batch plus queue-creation
    timeouts, and completed per-request records accumulate in
    ``self.completed`` (the callers drain it).  Event ordering --
    (time, priority, push order) with DEVICE_DONE < ARRIVAL <
    BATCH_TIMEOUT < BATCH_FAILED < RECOVERY < RETRY at equal instants
    -- matches the reference :class:`~repro.serving.events.EventQueue`
    exactly.

    An optional ``(schedule, retry)`` pair puts a
    :class:`~repro.serving.faults.FaultSchedule` in force.  Dispatch
    then takes the lowest-index device that is free *and up*; a batch
    whose device goes down before it would finish is lost at the
    failure instant (BATCH_FAILED), and its members retry under
    ``retry`` (RETRY events) or land in ``self.dropped``; recovery
    instants are heap events that re-trigger dispatch.  Prefill tables
    run as the ``output_len == 1`` case.  Without a schedule, no
    fault event exists and every next-down bound is ``inf``, so the
    fault-free loop does no schedule work.
    """

    def __init__(
        self,
        specs: List,
        cost_model: ServiceCostModel,
        num_devices: int,
        max_batch_size: int,
        max_wait_s: float,
        setup_cycles: int,
        schedule=None,
        retry=None,
    ):
        self.specs = specs
        self.queue_specs, queue_of_spec = _queue_map(specs)
        # A plain list: arrivals index it once each in the hot loop.
        self.queue_of_spec = queue_of_spec.tolist()
        self.cost_model = cost_model
        self.num_devices = num_devices
        #: Dispatch scans devices in index order (lowest free one wins).
        self.device_ids = range(num_devices)
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.zero_wait = max_wait_s == 0
        self.setup_cycles = setup_cycles
        self.frequency_hz = cost_model.config.frequency_ghz * 1e9
        self.traces = None if schedule is None else schedule.traces
        self.retry = retry
        # Each device's next outage start, cached while it is up: a
        # device is known up at ``now`` while ``now < up_until[d]``
        # (and known down while ``now < down_until[d]``; see
        # :meth:`_refresh_up`).  With a schedule every entry starts
        # stale; without one ``up_until`` is inf forever, so
        # availability checks never touch a trace and every next-down
        # bound is inf.
        self.up_until = [_INF if schedule is None else -_INF] * num_devices
        self.down_until = [-_INF] * num_devices

        # (time, priority, seq, payload); payloads: sealed batch for
        # DEVICE_DONE / BATCH_FAILED, (record, context) for RETRY, the
        # device for RECOVERY, None for BATCH_TIMEOUT.
        self.heap: list = []
        self.seq = 0
        # (queue id, decode?) -> [ready times, records, contexts,
        # rejoiner count]; insertion-ordered like the reference
        # batcher's dict (flush order at shared instants depends on
        # it).  The rejoiner count -- members whose step is not their
        # last -- accumulates at admission so sealing is O(1) in it.
        self.queues: dict = {}
        # Sealed batches awaiting a device, FIFO.  Entries are mutable
        # lists [decode?, records, contexts, service_s, energy_pj,
        # macro_steps, min_left, max_ctx, sealed_s, rejoiners]:
        # ``service_s`` / ``energy_pj`` price the sealed step (only
        # dispatch reads them), ``macro_steps`` counts decode steps
        # advanced without touching the per-member records (stamped
        # lazily at the next scalar event), ``min_left`` is the fewest
        # steps any member still has from the materialized contexts
        # minus ``macro_steps``, ``max_ctx`` tracks the batch's current
        # max context, and ``sealed_s`` / ``rejoiners`` serve stranding
        # and failure accounting.
        self.ready: deque = deque()
        self.free_at = [0.0] * num_devices
        #: min(free_at), maintained on every assignment: the dispatch
        #: loop's "every device is busy" exit is one comparison.
        self.min_free_at = 0.0
        self.busy_s = [0.0] * num_devices
        self.energy_pj = [0.0] * num_devices
        # (queue id, decode?) -> context-indexed per-sample cost
        # vectors (see :func:`_build_cost_vectors`), stored as plain
        # Python lists: sealing and macro-stepping price by one list
        # index (cheaper than numpy scalar indexing in the hot loop)
        # instead of memo-dict chains.  Built lazily per queue
        # (extended on bucket boundaries), prebuilt by
        # ``threads``/shard phase 1.
        self.vecs: Dict[tuple, Tuple[list, list]] = {}
        # Queue-creation timeouts not yet pushed: (deadline, key),
        # nondecreasing in deadline (appended in event order).  A
        # timeout only needs to reach the heap before the event loop
        # advances past its deadline; deferring the push lets queues
        # that seal by size first drop theirs entirely (the reference
        # pushes *more* timeout events than this -- one per non-sealing
        # admission -- so the contract is over outcomes, not pushes).
        self.deferred_to: deque = deque()
        self.completed: list = []
        #: (record, drop-reason code, drop instant), in event order.
        self.dropped: list = []
        self.in_flight_rejoiners = 0
        self.pending_retries = 0
        self.arrivals_done = False
        self.last_now = 0.0
        self.batches = 0
        self.prefill_batches = 0
        self.decode_batches = 0
        self.size_triggered = 0
        self.timeout_triggered = 0
        self.retries = 0
        self.failed_batches = 0
        self.wasted_energy_pj = 0.0
        #: (request id, retry instant, attempt number, model name).
        self.retry_events: list = []
        if schedule is not None:
            # One RECOVERY per device is pending at a time (the next is
            # pushed as each pops), which keeps the heap shallow.  A
            # recovery changes no state -- it only re-triggers dispatch
            # -- so push order among equal instants cannot matter.
            self.recoveries = [
                deque(up for up in trace.up_s if up < _INF)
                for trace in schedule.traces
            ]
            for dev in range(num_devices):
                self._next_recovery(dev)

    # ------------------------------------------------------------------
    def _vectors(self, qid: int, decode: bool, max_ctx: int):
        """Cost vectors for a queue, covering contexts up to max_ctx."""
        key = (qid, decode)
        vecs = self.vecs.get(key)
        if vecs is None or max_ctx >= len(vecs[0]):
            cyc, en = _build_cost_vectors(
                self.cost_model, self.queue_specs[qid], decode, max_ctx
            )
            vecs = self.vecs[key] = (cyc.tolist(), en.tolist())
        return vecs

    def _seal(self, key, now: float, by_size: bool) -> None:
        readys, recs, ctxs, rejoiners = self.queues.pop(key)
        qid, decode = key
        size = len(recs)
        if decode:
            # One pass for the pricing context (max) and the macro
            # window (fewest steps any member has before its last).
            mx = 0
            left = 1 << 60
            for k in range(size):
                c = ctxs[k]
                if c > mx:
                    mx = c
                r = recs[k][_LCTX] - c
                if r < left:
                    left = r
        else:
            mx = max(ctxs)
            left = 0
        vecs = self._vectors(qid, decode, mx)
        # Same float expressions as SprintDevice.start_step_batch.
        service = (self.setup_cycles + vecs[0][mx] * size) / self.frequency_hz
        energy = vecs[1][mx]
        self.batches += 1
        if by_size:
            self.size_triggered += 1
        else:
            self.timeout_triggered += 1
        if decode:
            self.decode_batches += 1
        else:
            self.prefill_batches += 1
            for rec in recs:
                rec[_PFB] = now
                rec[_PFSZ] = size
        self.in_flight_rejoiners += rejoiners
        self.ready.append(
            [decode, recs, ctxs, service, energy, 0, left, mx, now, rejoiners]
        )

    def _admit(self, rec, ctx: int, decode: bool, now: float, limit: float) -> None:
        """Queue one step; a new queue's timeout is pushed now only if
        it falls before ``limit`` (the next arrival), else deferred."""
        key = (rec[_QID], decode)
        queues = self.queues
        q = queues.get(key)
        rejoin = 1 if ctx != rec[_LCTX] else 0
        if q is None:
            q = queues[key] = [[now], [rec], [ctx], rejoin]
            if self.max_batch_size <= 1:
                self._seal(key, now, by_size=True)
            elif self.max_wait_s > 0:
                deadline = now + self.max_wait_s
                if deadline < limit:
                    heappush(self.heap, (deadline, _P_TIMEOUT, self.seq, None))
                    self.seq += 1
                else:
                    self.deferred_to.append((deadline, key))
        else:
            q[0].append(now)
            q[1].append(rec)
            q[2].append(ctx)
            q[3] += rejoin
            if len(q[1]) >= self.max_batch_size:
                self._seal(key, now, by_size=True)

    def _flush_due(self, now: float) -> None:
        # Same float comparison as the reference batcher's flush_due.
        w = self.max_wait_s
        queues = self.queues
        if len(queues) == 1:
            key = next(iter(queues))
            if now >= queues[key][0][0] + w:
                self._seal(key, now, by_size=False)
            return
        due = [key for key, q in queues.items() if now >= q[0][0] + w]
        for key in due:
            self._seal(key, now, by_size=False)

    def _refresh_up(self, dev: int, now: float) -> bool:
        """Re-cache ``dev``'s next outage start; False if down at ``now``.

        Callers pass event instants, which never decrease, so an entry
        cached at an earlier instant stays valid until it is reached.
        """
        if now < self.down_until[dev]:
            return False
        trace = self.traces[dev]
        downs = trace.down_s
        idx = bisect_right(downs, now)
        if idx and now < trace.up_s[idx - 1]:
            self.down_until[dev] = trace.up_s[idx - 1]
            return False
        self.up_until[dev] = downs[idx] if idx < len(downs) else _INF
        return True

    def _next_recovery(self, dev: int) -> None:
        """Push ``dev``'s next RECOVERY event, if it has one left."""
        pending = self.recoveries[dev]
        if pending:
            heappush(self.heap, (pending.popleft(), _P_RECOVERY, self.seq, dev))
            self.seq += 1

    def _dispatch(self, now: float) -> None:
        ready = self.ready
        if not ready or self.min_free_at > now:
            return
        free_at = self.free_at
        up_until = self.up_until
        while ready:
            # The lowest-index device free and up at ``now``.
            for dev in self.device_ids:
                if free_at[dev] <= now and (
                    now < up_until[dev] or self._refresh_up(dev, now)
                ):
                    break
            else:
                return
            batch = ready.popleft()
            recs = batch[1]
            service = batch[3]
            finish = now + service
            if up_until[dev] < finish:
                # Preordained loss: the device dies mid-batch.  It
                # stays occupied until the failure; the partial work's
                # energy is wasted, not delivered.
                fail = up_until[dev]
                free_at[dev] = fail
                self.min_free_at = min(free_at)
                self.busy_s[dev] += fail - now
                self.wasted_energy_pj += batch[4] * len(recs) * ((fail - now) / service)
                self.failed_batches += 1
                heappush(self.heap, (fail, _P_FAILED, self.seq, batch))
                self.seq += 1
                continue
            free_at[dev] = finish
            self.min_free_at = min(free_at)
            self.busy_s[dev] += service
            self.energy_pj[dev] += batch[4] * len(recs)
            if not batch[0]:
                for rec in recs:
                    rec[_PFS] = now
                    rec[_PFD] = dev
            heappush(self.heap, (finish, _P_DONE, self.seq, batch))
            self.seq += 1

    def _macro_run(self, batch, now: float, limit: float) -> bool:
        """Advance a decode batch through a run of membership-fixed steps.

        Preconditions (checked by the caller): this batch's DEVICE_DONE
        just popped with the queues and the ready FIFO empty -- no
        other members are pending, so until the next arrival
        (``limit``), the next foreign heap event, or a member's last
        token, every event is this batch's own reseal cycle and its
        membership is fixed.  Under a fault schedule, recoveries,
        retries and failures are heap events too, so the foreign-event
        bound covers them.  Every reseal dispatches to the device the
        scalar scan would pick: the lowest-index one free *and up* at
        ``now``.  One more bound keeps failures scalar: a step is taken
        only while ``step_start + service <= fail``, with ``fail`` that
        device's next outage start (``inf`` without a schedule), so a
        step that would be lost always runs through :meth:`_dispatch`.

        The run advances as one plain-float chain: each iteration is
        the exact arithmetic of one scalar reseal cycle (rejoin, seal,
        dispatch) priced off the queue's context-indexed cost lists, so
        every finish instant and the busy/energy folds are bitwise the
        reference loop's one-event-at-a-time accumulation -- without
        touching the heap, the queue dict, or the per-member records.
        Returns False when no full reseal fits before the bounds (the
        caller falls back to the scalar handler).
        """
        recs = batch[1]
        size = len(recs)
        left, mx = batch[6], batch[7]
        qid = recs[0][_QID]
        queues = self.queues
        # A pending queue at this batch's own rejoin key means the
        # reseal would have to merge into it: membership changes, so
        # the step runs scalar.
        if queues and (qid, True) in queues:
            return False
        by_size = size >= self.max_batch_size
        # After arrivals end, the end-of-stream flush only seals a
        # rejoin queue instantly when no OTHER batch still has pending
        # rejoiners in flight (our own ``size`` members rejoin at each
        # step and do not block it) and no retry is pending.
        instant = (
            by_size
            or self.zero_wait
            or (
                self.arrivals_done
                and self.in_flight_rejoiners == size
                and self.pending_retries == 0
            )
        )
        heap = self.heap
        # The next foreign heap event bounds the run strictly: at equal
        # instants it was pushed earlier, so it pops first and may
        # change membership (a stale timeout merely ends the run
        # early; it pops as a no-op and the next DONE resumes).
        t2 = heap[0][0] if heap else None
        if not instant and (
            now + self.max_wait_s >= limit
            or (t2 is not None and now + self.max_wait_s >= t2)
        ):
            return False
        # Every reseal dispatches to the same device: the lowest-index
        # one free (and up) at ``now`` -- exactly the scalar _dispatch
        # scan -- since no other device frees or recovers before the
        # run's bound.
        free_at = self.free_at
        up_until = self.up_until
        dev = 0
        while free_at[dev] > now or not (
            now < up_until[dev] or self._refresh_up(dev, now)
        ):
            dev += 1
            if dev == self.num_devices:
                return False
        fail = up_until[dev]
        if queues:
            # Other pending queues are safe spectators -- they only
            # seal at their own deadline or on an arrival, both of
            # which bound the run.  Any alive queue's deadline is
            # either already in the heap (the foreign-event bound
            # above) or still deferred: the earliest alive deferred
            # deadline joins the bound.  Dead-key heads would pop as
            # no-ops anyway (their queue sealed first), so drop them.
            deferred = self.deferred_to
            while deferred:
                deadline, key = deferred[0]
                if key in queues:
                    if t2 is None or deadline < t2:
                        t2 = deadline
                    break
                deferred.popleft()
        # Stop one step short of the earliest member's last token: the
        # completion step changes membership, so it runs scalar.  The
        # loops count steps by cost-vector index: step k (from 1) of
        # the run is priced at context ``mx + k``.
        end = mx + left - 1
        cyc_vec, en_vec = self._vectors(qid, True, end)
        setup = self.setup_cycles
        freq = self.frequency_hz
        busy = self.busy_s[dev]
        energy = self.energy_pj[dev]
        idx = mx
        fin = now  # the pending (in-flight) DONE instant
        if instant:
            # Full batch, zero wait, or end-of-stream flush: each DONE
            # reseals and redispatches at the same instant, so finish
            # times chain directly.  A finish at exactly ``limit``
            # still runs (DEVICE_DONE outranks the arrival) but one at
            # the foreign event's instant does not (it was pushed
            # earlier), hence the strict bound when ``t2`` is closer.
            hi = limit
            strict = False
            if t2 is not None and t2 <= limit:
                hi = t2
                strict = True
            prev = now
            while True:
                s = (setup + cyc_vec[idx + 1] * size) / freq
                nxt = fin + s
                if nxt > fail:
                    break
                idx += 1
                busy += s
                energy += en_vec[idx] * size
                prev = fin
                fin = nxt
                if idx == end or fin > hi or (strict and fin == hi):
                    break
            if idx == mx:
                return False
            self.last_now = prev
        else:
            # Timeout cadence: DONE at fin_j -> members re-queue ->
            # timeout seals at fin_j + w -> dispatch -> next finish.
            # A seal at exactly ``limit`` belongs to the caller
            # (arrivals outrank timeouts at equal instants), so both
            # bounds are strict.
            w = self.max_wait_s
            hi = limit if t2 is None or limit <= t2 else t2
            t_seal = now
            while True:
                ts = fin + w
                if ts >= hi:
                    break
                s = (setup + cyc_vec[idx + 1] * size) / freq
                nxt = ts + s
                if nxt > fail:
                    break
                idx += 1
                busy += s
                energy += en_vec[idx] * size
                t_seal = ts
                fin = nxt
                if idx == end:
                    break
            if idx == mx:
                return False
            self.last_now = t_seal
        m = idx - mx
        self.busy_s[dev] = busy
        self.energy_pj[dev] = energy
        free_at[dev] = fin
        self.min_free_at = min(free_at)
        self.batches += m
        self.decode_batches += m
        if by_size:
            self.size_triggered += m
        else:
            self.timeout_triggered += m
        batch[5] += m
        batch[6] = left - m
        batch[7] = idx
        heappush(heap, (fin, _P_DONE, self.seq, batch))
        self.seq += 1
        return True

    def _fail(self, batch, now: float) -> None:
        """BATCH_FAILED: every member retries under the policy or drops."""
        self.in_flight_rejoiners -= batch[9]
        retry = self.retry
        recs, ctxs = batch[1], batch[2]
        for k in range(len(recs)):
            rec = recs[k]
            f = rec[_FLS] + 1
            rec[_FLS] = f
            if f >= retry.max_attempts:
                self.dropped.append((rec, DROP_RETRIES, now))
                continue
            retry_at = now + retry.backoff_s(f)
            if retry_at > rec[_ADL]:
                self.dropped.append((rec, DROP_DEADLINE, now))
                continue
            self.retries += 1
            self.pending_retries += 1
            self.retry_events.append(
                (rec[_RID], retry_at, f + 1, self.queue_specs[rec[_QID]].name)
            )
            heappush(self.heap, (retry_at, _P_RETRY, self.seq, (rec, ctxs[k])))
            self.seq += 1

    def _handle_heap_event(self, limit: float) -> None:
        now, priority, _, batch = heappop(self.heap)
        if priority == _P_DONE:
            if (
                batch[0]
                and batch[6] >= 2
                and not self.ready
                and self._macro_run(batch, now, limit)
            ):
                return
            decode, recs, ctxs = batch[0], batch[1], batch[2]
            size = len(recs)
            steps = batch[5]
            if steps:
                # Materialize macro-advanced state before per-member
                # processing: each deferred step occupied ``size``
                # decode slots and grew every context by one.
                add = size * steps
                for k in range(size):
                    ctxs[k] += steps
                    recs[k][_DSLOT] += add
            # The rejoin admission (self._admit with decode=True) is
            # inlined: this loop runs once per token-step and dominates
            # the engine's wall-clock.
            queues = self.queues
            completed = self.completed
            max_bs = self.max_batch_size
            w = self.max_wait_s
            rejoined = 0
            created = None
            for k in range(size):
                rec = recs[k]
                ctx = ctxs[k]
                last = rec[_LCTX]
                if decode:
                    rec[_DSLOT] += size
                else:
                    rec[_FT] = now
                if ctx == last:
                    rec[_FIN] = now
                    completed.append(rec)
                    continue
                rejoined += 1
                ctx += 1
                key = (rec[_QID], True)
                q = queues.get(key)
                if q is None:
                    q = queues[key] = [[now], [rec], [ctx], 0 if ctx == last else 1]
                    if max_bs <= 1:
                        self._seal(key, now, by_size=True)
                    elif w > 0:
                        if now + w < limit:
                            if created is None:
                                created = [key]
                            else:
                                created.append(key)
                        else:
                            self.deferred_to.append((now + w, key))
                else:
                    q[0].append(now)
                    q[1].append(rec)
                    q[2].append(ctx)
                    if ctx != last:
                        q[3] += 1
                    if len(q[1]) >= max_bs:
                        self._seal(key, now, by_size=True)
            if created is not None:
                # Push deadlines only for queues that survived the
                # handler: a queue sealed by size above never needs its
                # timeout event at all.
                for key in created:
                    if key in queues:
                        heappush(self.heap, (now + w, _P_TIMEOUT, self.seq, None))
                        self.seq += 1
            self.in_flight_rejoiners -= rejoined
        elif batch is None:  # BATCH_TIMEOUT, the one payload-free kind
            if self.queues:
                self._flush_due(now)
        elif priority == _P_FAILED:
            self._fail(batch, now)
        elif priority == _P_RETRY:
            self.pending_retries -= 1
            rec, ctx = batch
            self._admit(rec, ctx, ctx > rec[_VLEN], now, limit)
        elif priority == _P_RECOVERY:
            # No state change: up/down is a pure function of time; the
            # event re-triggers dispatch (payload: the device).
            self._next_recovery(batch)
        # _after_event, inlined (this handler is the hot loop).
        self.last_now = now
        if self.zero_wait and self.queues:
            self._flush_due(now)
        if (
            self.arrivals_done
            and self.in_flight_rejoiners == 0
            and self.queues
            and self.pending_retries == 0
        ):
            for key in list(self.queues):
                self._seal(key, now, by_size=False)
        if self.ready:
            self._dispatch(now)

    # ------------------------------------------------------------------
    def run_arrivals(
        self, rid, arr, spec_i, vlen, olen, row_base: int, deadline_s=None
    ):
        """Feed one chunk of sorted arrivals through the event loop.

        Heap events strictly preceding each arrival (in the reference
        (time, priority) order) are processed first; events at or
        beyond the chunk's last arrival stay queued for the next chunk
        or :meth:`finalize`.  Deferred queue-creation timeouts whose
        deadline the loop is about to reach are pushed first -- only
        for queues still alive, which is what lets size-sealed queues
        skip their timeout events entirely.  ``deadline_s`` (relative
        to arrival) only gates retries under a fault schedule.
        """
        heap = self.heap
        queues = self.queues
        deferred = self.deferred_to
        qmap = self.queue_of_spec
        n = rid.size
        for i in range(n):
            t = float(arr[i])
            while deferred and deferred[0][0] <= t:
                deadline, key = deferred.popleft()
                if key in queues:
                    heappush(heap, (deadline, _P_TIMEOUT, self.seq, None))
                    self.seq += 1
            while heap and (heap[0][0] < t or (heap[0][0] == t and heap[0][1] == 0)):
                self._handle_heap_event(t)
            v = int(vlen[i])
            o = int(olen[i])
            s = int(spec_i[i])
            rec = [
                int(rid[i]),
                t,
                s,
                v,
                o,
                v + o - 1,
                0.0,
                0.0,
                -1,
                1,
                0.0,
                0.0,
                0,
                row_base + i,
                qmap[s],
                0,
                _INF if deadline_s is None else t + float(deadline_s[i]),
            ]
            self._admit(rec, v, False, t, t)
            # _after_event, inlined (arrivals_done is False here, so
            # the end-of-stream flush can never apply).
            self.last_now = t
            if self.zero_wait and self.queues:
                self._flush_due(t)
            if self.ready:
                self._dispatch(t)

    def finalize(self) -> None:
        """No further arrivals: apply the tail flush and drain the heap.

        Under a fault schedule, batches still sealed when the heap
        runs dry have no device left to ever run them (the whole fleet
        is down for good): their members strand at the seal instant.
        """
        self.arrivals_done = True
        if self.in_flight_rejoiners == 0 and self.pending_retries == 0 and self.queues:
            # The end-of-stream flush the monolithic loop would have
            # applied at the last processed event.
            now = self.last_now
            for key in list(self.queues):
                self._seal(key, now, by_size=False)
            self._dispatch(now)
        deferred = self.deferred_to
        while deferred:
            deadline, key = deferred.popleft()
            if key in self.queues:
                heappush(self.heap, (deadline, _P_TIMEOUT, self.seq, None))
                self.seq += 1
        while self.heap:
            self._handle_heap_event(_INF)
        while self.ready:
            batch = self.ready.popleft()
            self.in_flight_rejoiners -= batch[9]
            for rec in batch[1]:
                self.dropped.append((rec, DROP_STRANDED, batch[8]))
        assert not self.queues
        assert self.in_flight_rejoiners == 0 and self.pending_retries == 0


def _prebuild_vectors(core: _DecodeCore, spec_i, vlen, olen, threads: int) -> None:
    """Phase 1: build every queue's cost vectors before the event loop.

    The per-queue context ceiling comes from the arrival columns
    (``valid_len + output_len - 1``), so the event loop never faults
    the cycle model mid-run.  Queues are independent -- they own
    disjoint model names, hence disjoint bucket-cache keys -- so with
    ``threads > 1`` each queue's vectors (including the exact
    cycle-model passes behind cold buckets, which run numpy-heavy
    batched kernels) build concurrently.  Values are memoized pure
    functions of (model, bucket), so thread scheduling cannot change
    any priced cost and results stay bitwise identical at every thread
    count.
    """
    qmap = np.asarray(core.queue_of_spec, dtype=np.int64)
    qids = qmap[spec_i]
    ctx_hi = vlen + olen - 1
    targets = [
        (int(qid), int(ctx_hi[qids == qid].max())) for qid in np.unique(qids)
    ]

    def _one(target):
        qid, hi = target
        core._vectors(qid, True, hi)
        core._vectors(qid, False, hi)

    if threads > 1 and len(targets) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(targets))) as pool:
            list(pool.map(_one, targets))
    else:
        for target in targets:
            _one(target)


#: Per-request outcome column -> (record slot, dtype, value on rows
#: that never complete).  Chunks carry the ``_GENERATIVE`` ones only
#: for streams with an ``output_len`` column.
_OUTCOMES = {
    "batched_s": (_PFB, np.float64, np.nan),
    "service_start_s": (_PFS, np.float64, np.nan),
    "finish_s": (_FIN, np.float64, np.nan),
    "batch_size": (_PFSZ, np.int64, 0),
    "device_id": (_PFD, np.int64, -1),
    "first_token_s": (_FT, np.float64, np.nan),
    "decode_slots": (_DSLOT, np.int64, 0),
}
#: Arrival columns -> (record slot, dtype) a chunk carries next to
#: the outcomes.
_ARRIVALS = {
    "request_id": (_RID, np.int64),
    "arrival_s": (_ARR, np.float64),
    "spec_idx": (_SPEC, np.int64),
    "valid_len": (_VLEN, np.int64),
    "output_len": (_OLEN, np.int64),
}
_GENERATIVE = ("output_len", "first_token_s", "decode_slots")


def simulate_decode_table(
    table: RequestTable,
    cost_model: ServiceCostModel,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    recorder: Optional[TraceRecorder] = None,
    threads: int = 1,
    _vectors: Optional[dict] = None,
    faults=None,
    retry=None,
) -> "DecodeColumnarResult | FaultColumnarResult":
    """Run one deployment over a generative columnar stream; fast path.

    Identical knobs and semantics to building ``num_devices``
    :class:`~repro.serving.devices.SprintDevice` plus a
    :class:`~repro.serving.batching.ContinuousBatcher` and calling
    :meth:`~repro.serving.scheduler.GenerativeServingSimulator.run`;
    per-request timestamps, busy/energy folds, and batch counters are
    bitwise equal.  Tables without an ``output_len`` column run as
    all-``output_len=1`` generative traffic (pure prefill).

    ``faults`` (a :class:`~repro.serving.faults.FaultSchedule`) puts
    device outages in force, with ``retry`` (default
    :class:`~repro.serving.faults.RetryPolicy`) for lost requests; the
    run then returns a :class:`~repro.serving.faults.FaultColumnarResult`,
    bitwise equal to the fault-mode reference loops
    (:class:`~repro.serving.scheduler.ServingSimulator` for prefill
    tables, :class:`~repro.serving.scheduler.GenerativeServingSimulator`
    for generative ones).

    ``recorder`` emits the sampled requests' lifecycle spans post-hoc
    from the finished columns (prefill batching/dispatch, decode phase,
    finish at the last token, plus outages and retries under a
    schedule), bitwise identical to the reference loop's.
    ``threads > 1`` runs phase 1 (per-queue cost-vector construction,
    including the cycle-model passes behind cold cost buckets) across a
    thread pool -- results stay bitwise identical at every thread
    count.  ``_vectors`` is the process-shard injection point
    (:func:`repro.runtime.pool.simulate_decode_table_sharded`): a dict
    of (queue id, decode?) -> prebuilt cost vectors.
    """
    _validate_knobs(num_devices, max_batch_size, max_wait_s, threads)
    retry = retry_in_force(faults, retry, num_devices)
    if faults is not None and _vectors is not None:
        raise ValueError("sharded cost vectors do not apply under fault injection")
    if len(table) == 0:
        raise ValueError(_EMPTY)
    if has_duplicate_ids(table.request_id):
        raise ValueError("duplicate request id in stream")

    table = table.in_canonical_order()
    n = len(table)
    olen = np.ones(n, dtype=np.int64) if table.output_len is None else table.output_len
    core = _DecodeCore(
        table.specs,
        cost_model,
        num_devices,
        max_batch_size,
        max_wait_s,
        setup_cycles,
        faults,
        retry,
    )
    if _vectors:
        core.vecs.update(
            {
                key: (np.asarray(cyc).tolist(), np.asarray(en).tolist())
                for key, (cyc, en) in _vectors.items()
            }
        )
    elif threads > 1:
        _prebuild_vectors(core, table.spec_idx, table.valid_len, olen, threads)
    core.run_arrivals(
        table.request_id,
        table.arrival_s,
        table.spec_idx,
        table.valid_len,
        olen,
        0,
        None if faults is None else table.deadline_s,
    )
    core.finalize()

    # One gather: completed records scatter into their canonical rows
    # (every row without a schedule); dropped rows keep the fill values
    # and carry the drop columns instead.
    done = core.completed
    assert len(done) + len(core.dropped) == n
    rows = np.fromiter((r[_ROW] for r in done), np.int64, len(done))
    cols = {}
    for name, (at, dtype, fill) in _OUTCOMES.items():
        cols[name] = col = np.full(n, fill, dtype=dtype)
        col[rows] = np.fromiter((r[at] for r in done), dtype, len(done))
    completed = np.zeros(n, dtype=bool)
    completed[rows] = True
    attempts = np.zeros(n, dtype=np.int64)
    attempts[rows] = np.fromiter((r[_FLS] + 1 for r in done), np.int64, len(done))
    drop_reason = np.full(n, DROP_NONE, dtype=np.int8)
    dropped_s = np.full(n, np.nan)
    drop_order = np.empty(len(core.dropped), dtype=np.int64)
    end_s = max((r[_FIN] for r in done), default=-_INF)
    for k, (rec, reason, at) in enumerate(core.dropped):
        row = rec[_ROW]
        drop_order[k] = row
        attempts[row] = rec[_FLS]
        drop_reason[row] = reason
        dropped_s[row] = at
        if at > end_s:
            end_s = at
    start_s = float(table.arrival_s[0])
    end_s = float(end_s)

    if recorder is not None:
        specs = table.specs
        for row in np.flatnonzero(completed).tolist():
            request_id = int(table.request_id[row])
            model = specs[int(table.spec_idx[row])].name
            finish_s = float(cols["finish_s"][row])
            recorder.add_request(
                request_id=request_id,
                model=model,
                arrival_s=float(table.arrival_s[row]),
                batched_s=float(cols["batched_s"][row]),
                service_start_s=float(cols["service_start_s"][row]),
                finish_s=finish_s,
                device_id=int(cols["device_id"][row]),
                batch_size=int(cols["batch_size"][row]),
            )
            recorder.add_decode_phase(
                request_id=request_id,
                model=model,
                first_token_s=float(cols["first_token_s"][row]),
                finish_s=finish_s,
                tokens=int(olen[row]) - 1,
            )
        if faults is not None:
            _emit_fault_trace(
                recorder, faults, num_devices, start_s, end_s, core.retry_events
            )

    run = dict(
        start_s=start_s,
        end_s=end_s,
        device_busy_s=list(core.busy_s),
        device_energy_pj=list(core.energy_pj),
        batches=core.batches,
        prefill_batches=core.prefill_batches,
        decode_batches=core.decode_batches,
        size_triggered_batches=core.size_triggered,
        timeout_triggered_batches=core.timeout_triggered,
        total_tokens=int(olen[completed].sum()),
    )
    if faults is None:
        return DecodeColumnarResult(
            specs=table.specs,
            request_id=table.request_id,
            arrival_s=table.arrival_s,
            spec_idx=table.spec_idx,
            valid_len=table.valid_len,
            output_len=olen,
            prefill_batched_s=cols["batched_s"],
            prefill_start_s=cols["service_start_s"],
            first_token_s=cols["first_token_s"],
            finish_s=cols["finish_s"],
            prefill_batch_size=cols["batch_size"],
            prefill_device_id=cols["device_id"],
            decode_slots=cols["decode_slots"],
            deadline_s=table.deadline_s,
            **run,
        )
    return FaultColumnarResult(
        table=table,
        generative=table.output_len is not None,
        completed=completed,
        attempts=attempts,
        drop_reason=drop_reason,
        dropped_s=dropped_s,
        drop_order=drop_order,
        device_downtime_s=[
            faults.downtime_within(d, start_s, end_s) for d in range(num_devices)
        ],
        retries=core.retries,
        failed_batches=core.failed_batches,
        wasted_energy_pj=core.wasted_energy_pj,
        retry_events=list(core.retry_events),
        **cols,
        **run,
    )


def _completed_chunk(specs, recs, generative: bool, faulted: bool) -> CompletedChunk:
    """Columns of retired core records, in completion order."""
    n = len(recs)
    cols = {
        name: np.fromiter((r[at] for r in recs), dtype, n)
        for name, (at, dtype, *_) in chain(_ARRIVALS.items(), _OUTCOMES.items())
        if generative or name not in _GENERATIVE
    }
    if faulted:
        cols["attempts"] = np.fromiter((r[_FLS] + 1 for r in recs), np.int64, n)
    return CompletedChunk(specs=specs, **cols)


def simulate_decode_stream(
    chunks: Iterable[RequestTable],
    cost_model: ServiceCostModel,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    sink: Optional[Callable[[CompletedChunk], None]] = None,
    threads: int = 1,
    faults=None,
    retry=None,
) -> StreamedServingResult:
    """Out-of-core generative simulation over a chunked request stream.

    The generative twin of :func:`~repro.serving.engine.
    simulate_stream`: consumes ``RequestTable`` chunks in arrival
    order, holds only the event-loop frontier (open queues, in-flight
    step batches, device folds) plus one chunk, and retires completed
    requests through ``sink`` as
    :class:`~repro.serving.requests.CompletedChunk` columns in
    completion order (with the generative columns when the stream has
    an ``output_len`` column, and ``attempts`` under a schedule).
    Every emitted value and aggregate is bitwise equal to the
    whole-table :func:`simulate_decode_table` run of the concatenated
    stream (with the same ``faults`` / ``retry``), at any chunk size.

    Chunks must be non-overlapping and ordered (each chunk's earliest
    (arrival, id) lexicographically follows the previous chunk's
    latest) and share one spec list.  Without a schedule, request-id
    uniqueness across chunks is the caller's contract, as in the
    prefill driver.  Under a schedule a repeated id is rejected across
    chunks too: the driver keeps every id seen so far in a set, which
    grows with the stream (about 62.5 MiB per 10^6 ids).

    ``threads > 1`` builds each chunk's per-queue cost vectors across a
    thread pool before feeding the chunk's arrivals (vectors extend
    in place as later chunks raise a queue's context ceiling), keeping
    results bitwise identical at every thread count.
    """
    _validate_knobs(num_devices, max_batch_size, max_wait_s, threads)
    retry = retry_in_force(faults, retry, num_devices)
    core: Optional[_DecodeCore] = None
    specs: Optional[List] = None
    generative = False
    seen_ids = None if faults is None else set()
    prev = (-_INF, 0)
    offered = 0
    start_s = 0.0
    end_s = -_INF
    total_tokens = 0
    dropped_by_reason = {} if faults is None else count_drop_reasons(())

    def _drain() -> None:
        nonlocal end_s, total_tokens
        recs = core.completed
        if recs:
            end_s = max(end_s, max(r[_FIN] for r in recs))
            total_tokens += sum(r[_OLEN] for r in recs)
            if sink is not None:
                sink(_completed_chunk(specs, recs, generative, faults is not None))
            core.completed = []
        for _, reason, at in core.dropped:
            dropped_by_reason[DROP_REASON_NAMES[reason]] += 1
            end_s = max(end_s, at)
        core.dropped = []

    for chunk in chunks:
        if len(chunk) == 0:
            continue
        if core is None:
            specs = list(chunk.specs)
            generative = chunk.output_len is not None
            core = _DecodeCore(
                specs,
                cost_model,
                num_devices,
                max_batch_size,
                max_wait_s,
                setup_cycles,
                faults,
                retry,
            )
        chunk = chunk.in_canonical_order()
        if offered == 0:
            start_s = float(chunk.arrival_s[0])
        prev = _check_chunk(chunk, specs, chunk.request_id, chunk.arrival_s, prev)
        if seen_ids is not None:
            for rid in chunk.request_id.tolist():
                if rid in seen_ids:
                    raise ValueError(f"duplicate request id {rid}")
                seen_ids.add(rid)
        olen = (
            np.ones(len(chunk), dtype=np.int64)
            if chunk.output_len is None
            else chunk.output_len
        )
        if threads > 1:
            _prebuild_vectors(core, chunk.spec_idx, chunk.valid_len, olen, threads)
        core.run_arrivals(
            chunk.request_id,
            chunk.arrival_s,
            chunk.spec_idx,
            chunk.valid_len,
            olen,
            offered,
            None if faults is None else chunk.deadline_s,
        )
        offered += len(chunk)
        _drain()
    if core is None:
        raise ValueError(_EMPTY)
    core.finalize()
    _drain()
    dropped = sum(dropped_by_reason.values())
    return StreamedServingResult(
        completed=offered - dropped,
        start_s=start_s,
        end_s=float(end_s),
        device_busy_s=list(core.busy_s),
        device_energy_pj=list(core.energy_pj),
        batches=core.batches,
        size_triggered_batches=core.size_triggered,
        timeout_triggered_batches=core.timeout_triggered,
        prefill_batches=core.prefill_batches,
        decode_batches=core.decode_batches,
        total_tokens=total_tokens,
        generative=generative,
        dropped=dropped,
        dropped_by_reason=dropped_by_reason,
        device_downtime_s=(
            []
            if faults is None
            else [faults.downtime_within(d, start_s, end_s) for d in range(num_devices)]
        ),
        retries=core.retries,
        failed_batches=core.failed_batches,
        wasted_energy_pj=core.wasted_energy_pj,
    )
