"""Columnar fast path: batch-granular serving simulation over arrays.

The per-request reference loop (:class:`~repro.serving.scheduler.
ServingSimulator`) spends its time on Python object churn: one heap
event, one dict lookup, and one record mutation per request.  This
module simulates the *same* deployment semantics at batch granularity
over a struct-of-arrays :class:`~repro.serving.requests.RequestTable`:

1. **Batch formation is device-independent.**  The dynamic batcher
   seals on size or on the oldest member's wait bound only, so a batch
   opened at row ``i`` of a model's sorted arrival column closes at a
   row ``nxt[i]`` known from one vectorized ``searchsorted``.  The
   batch starts are row 0's orbit under ``nxt``, found by pointer
   doubling in ``log2(batches)`` array rounds: no event loop and no
   Python iteration per batch.
2. **Dispatch is a k-server FIFO over batches.**  Devices are k free
   times; each batch (in global seal order) starts at
   ``max(sealed_s, earliest free time)`` on the lowest-index device
   idle at that instant -- exactly the device the reference loop's
   event-driven dispatch would pick -- collapsing the event count by
   the mean batch size.  One device is a seeded ``np.cumsum`` between
   idle gaps; k devices run one lean scalar step per batch over plain
   Python floats, and the busy/energy folds are seeded cumsums per
   device.
3. **Costs and metrics stay columnar.**  Per-batch cycles/energy come
   from :meth:`~repro.serving.devices.ServiceCostModel.cost_arrays`
   (array indexing into the primed bucket cache) and
   :func:`~repro.serving.metrics.summarize` consumes the result's
   columns directly.

The equivalence contract: for any stream, knobs, and device count,
:func:`simulate_table` produces per-request records **exactly equal**
(bitwise, not approximately) to the reference loop's -- the same
floating-point expressions are evaluated in the same order, only
batched.  ``tests/test_serving_engine.py`` pins this across arrival
patterns, execution modes, seeds, device counts, and wait bounds.

:func:`simulate_table` and :func:`simulate_stream` are also the entry
points for generative traffic and fault schedules: both route those to
the event-driven decode engine (:mod:`repro.serving.decode`), which
returns its own whole-table result types and the same
:class:`StreamedServingResult` / :class:`CompletedChunk` stream types.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder
from repro.serving.devices import DEFAULT_SETUP_CYCLES, ServiceCostModel
from repro.serving.requests import (
    CompletedChunk,
    RequestRecord,
    RequestTable,
    has_duplicate_ids,
)
from repro.serving.scheduler import ServingResult

#: The stream-input rule messages, shared by every route.
_EMPTY = "request stream must not be empty"
_SPEC_MISMATCH = "chunks must share one spec list"
_OUT_OF_ORDER = (
    "chunks must be ordered by (arrival_s, request_id): each chunk must "
    "start after the previous chunk's last request"
)


@dataclass
class ColumnarServingResult:
    """Everything one fast-path run produced, as per-request columns.

    Row ``i`` of every column describes request ``i`` of ``table``
    (sorted by arrival, ties by request id -- the reference loop's
    record order).  :meth:`to_result` materializes the object-based
    :class:`~repro.serving.scheduler.ServingResult` for equivalence
    tests; analysis paths should stay columnar via
    :func:`~repro.serving.metrics.summarize`.
    """

    table: RequestTable
    batched_s: np.ndarray
    service_start_s: np.ndarray
    finish_s: np.ndarray
    batch_size: np.ndarray
    device_id: np.ndarray
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def completed(self) -> int:
        return len(self.table)

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latency column: arrival to completion."""
        return self.finish_s - self.table.arrival_s

    @property
    def queue_wait_s(self) -> np.ndarray:
        """Arrival to service start (batching + dispatch queueing)."""
        return self.service_start_s - self.table.arrival_s

    def completed_rows(self) -> CompletedChunk:
        """Every row's columns (every request completes), in row order."""
        t = self.table
        return CompletedChunk(
            specs=t.specs,
            request_id=t.request_id,
            arrival_s=t.arrival_s,
            spec_idx=t.spec_idx,
            valid_len=t.valid_len,
            batched_s=self.batched_s,
            service_start_s=self.service_start_s,
            finish_s=self.finish_s,
            batch_size=self.batch_size,
            device_id=self.device_id,
        )

    def to_result(self) -> ServingResult:
        """Materialize per-request records (the reference loop's shape)."""
        records = [
            RequestRecord(
                request=request,
                batched_s=float(self.batched_s[i]),
                service_start_s=float(self.service_start_s[i]),
                finish_s=float(self.finish_s[i]),
                batch_size=int(self.batch_size[i]),
                device_id=int(self.device_id[i]),
            )
            for i, request in enumerate(self.table.to_requests())
        ]
        return ServingResult(
            records=records,
            start_s=self.start_s,
            end_s=self.end_s,
            device_busy_s=list(self.device_busy_s),
            device_energy_pj=list(self.device_energy_pj),
            batches=self.batches,
            size_triggered_batches=self.size_triggered_batches,
            timeout_triggered_batches=self.timeout_triggered_batches,
        )


def _validate_knobs(num_devices, max_batch_size, max_wait_s, threads) -> None:
    if num_devices < 1:
        raise ValueError("at least one device required")
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be positive")
    if max_wait_s < 0:
        raise ValueError("max_wait_s must be non-negative")
    if threads < 1:
        raise ValueError("threads must be positive")


def _check_chunk(chunk, specs, request_id, arrival_s, prev) -> Tuple[float, int]:
    """Apply the stream-input rules to one canonically sorted chunk.

    ``prev`` is the previous chunk's last (arrival, id); the returned
    pair is this chunk's, which the next chunk must start after.
    """
    if list(chunk.specs) != specs:
        raise ValueError(_SPEC_MISMATCH)
    if (float(arrival_s[0]), int(request_id[0])) <= prev:
        raise ValueError(_OUT_OF_ORDER)
    if has_duplicate_ids(request_id):
        raise ValueError("duplicate request id in chunk")
    return float(arrival_s[-1]), int(request_id[-1])


def _form_batches(
    arrival: np.ndarray,
    request_id: np.ndarray,
    max_batch_size: int,
    max_wait_s: float,
    last_arrival_s: Optional[float] = None,
    horizon_s: Optional[float] = None,
) -> Tuple[np.ndarray, ...]:
    """Seal one model queue's batches without a per-batch loop.

    Returns formation-order arrays ``(member_start, member_count,
    sealed_s, by_size, tie_arrival, tie_id, consumed)`` where
    ``member_start`` / ``member_count`` slice the model's sorted
    request rows and ``consumed`` counts the leading rows covered by
    the returned batches.  The seal rules mirror the reference batcher
    exactly:

    * **size**: the ``max_batch_size``-th member seals at its own
      arrival instant;
    * **timeout**: otherwise the batch seals at ``oldest arrival +
      max_wait_s``, including any request arriving exactly at that
      deadline (arrivals outrank timeout flushes at equal timestamps);
    * **end of stream**: once the globally last request has arrived,
      the pending tail seals immediately at ``last_arrival_s``;
    * **zero wait** degenerates to one singleton batch per request.

    Exactly one of ``last_arrival_s`` / ``horizon_s`` must be given.
    ``last_arrival_s`` is whole-stream mode: every row is consumed.
    ``horizon_s`` is the chunked drivers' incremental mode: only
    batches whose seal no future arrival could change are emitted --
    size seals, plus timeout seals whose deadline falls strictly
    before the horizon (the largest arrival seen so far; a request
    arriving *exactly* at a deadline still joins that batch, so a
    deadline equal to the horizon stays open).  Unconsumed rows are
    the queue's pending tail, provably shorter than
    ``max_batch_size``.

    ``tie_arrival``/``tie_id`` reproduce the reference event loop's
    FIFO order for batches sealed at the same instant: size-sealed
    batches order by their triggering (final) member's event position,
    timeout/end flushes by their oldest member's queue-creation
    position.

    Formulation: a batch opened at row ``i`` takes every row arriving
    by ``arrival[i] + max_wait_s`` (``due[i]``, one vectorized
    ``searchsorted``), at most ``max_batch_size``, so the next batch
    opens at ``nxt[i] = min(i + max_batch_size, due[i])``.  The batch
    starts are row 0's orbit under ``nxt`` (see :func:`_orbit`); every
    other column is an ``np.where`` over the orbit, evaluating the
    same float expressions as the historical scalar loop, so values
    are bitwise equal to it (``tests/test_serving_engine.py`` keeps
    that loop as a differential oracle).  Incremental mode cuts the
    orbit at its first batch that is neither size-sealed nor due
    before the horizon.
    """
    if (last_arrival_s is None) == (horizon_s is None):
        raise ValueError("give exactly one of last_arrival_s / horizon_s")
    n = arrival.size
    if max_wait_s == 0.0:
        # The reference loop flushes after every add: singleton batches
        # sealed at their own arrival.  They count as size-triggered
        # only when max_batch_size == 1 (the add() itself seals).
        return (
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
            arrival.copy(),
            np.full(n, max_batch_size == 1, dtype=bool),
            arrival.copy(),
            request_id.copy(),
            n,
        )
    # A batch opened at row i holds every row up to its deadline, at
    # most max_batch_size of them: the next batch opens at nxt[i].
    deadline = arrival + max_wait_s
    nxt = np.empty(n + 1, dtype=np.int64)
    np.minimum(
        np.arange(max_batch_size, n + max_batch_size, dtype=np.int64),
        np.searchsorted(arrival, deadline, side="right"),
        out=nxt[:n],
    )
    nxt[n] = n
    starts = _orbit(nxt)
    counts = nxt[starts] - starts
    by_size = counts == max_batch_size
    opened = deadline[starts]
    consumed = n
    if last_arrival_s is not None:
        timeout_seal = np.where(opened <= last_arrival_s, opened, last_arrival_s)
    else:
        # Incremental mode: a timeout seal is final once every arrival
        # that could still join (<= deadline) has been seen, and the
        # deadline precedes the stream's end (the horizon is itself an
        # arrival), so no end-of-stream clamp applies.  The first batch
        # that is not final cuts the orbit: its rows stay pending.
        open_at = np.flatnonzero(~by_size & (opened >= horizon_s))
        if open_at.size:
            cut = int(open_at[0])
            consumed = int(starts[cut])
            starts, counts, by_size = starts[:cut], counts[:cut], by_size[:cut]
            opened = opened[:cut]
        timeout_seal = opened
    # Size seals fire at (and FIFO-order by) their final member's
    # arrival; timeout/end flushes order by their oldest member.
    anchor = np.where(by_size, starts + counts - 1, starts)
    tie_arrival = arrival[anchor]
    return (
        starts,
        counts,
        np.where(by_size, tie_arrival, timeout_seal),
        by_size,
        tie_arrival,
        request_id[anchor].astype(np.int64, copy=False),
        consumed,
    )


def _orbit(nxt: np.ndarray) -> np.ndarray:
    """Row 0's orbit under ``nxt``, ascending, without the sink.

    ``nxt`` maps each row to a strictly later one and the sink ``n``
    (its last entry) to itself.  Pointer doubling: after round ``r``,
    ``path`` holds the orbit's first ``2**r`` steps in order and
    ``jump`` advances ``2**r`` steps, so ``log2(batches)`` rounds of
    integer fancy-indexing replace one Python iteration per batch.
    """
    n = nxt.size - 1
    path = np.zeros(1, dtype=np.int64)
    jump = nxt
    while path[-1] != n:
        path = np.concatenate((path, jump[path]))
        if path[-1] != n:
            jump = jump[jump]
    return path[: np.searchsorted(path, n)]


def _queue_map(specs) -> Tuple[List, np.ndarray]:
    """Map spec indices onto batching queues (one queue per model name).

    Returns ``(queue_specs, queue_of_spec)``: the representative spec
    per queue in first-appearance order (the reference batcher's queue
    creation order) and an int64 lookup from spec index to queue id.
    The table validated that same-name specs are identical.  The decode
    engine's core and the process-shard workers in
    :mod:`repro.runtime.pool` key their queues through it too, so every
    side agrees on which queue owns which rows.
    """
    queue_ids: dict = {}
    queue_specs: List = []
    queue_of_spec = np.empty(len(specs), dtype=np.int64)
    for idx, spec in enumerate(specs):
        qid = queue_ids.setdefault(spec.name, len(queue_specs))
        if qid == len(queue_specs):
            queue_specs.append(spec)
        queue_of_spec[idx] = qid
    return queue_specs, queue_of_spec


def _group_rows(
    spec_idx: np.ndarray, queue_of_spec: np.ndarray, num_queues: int
) -> List[np.ndarray]:
    """Row indices per queue, each ascending (stream order preserved).

    One O(n) lookup plus one stable argsort replaces the historical
    per-queue ``np.isin`` scan (O(n * queues)); the stable sort keeps
    rows of equal queue id in their original ascending order, so the
    selection is identical to ``np.flatnonzero(np.isin(...))``.
    """
    if num_queues == 1:
        return [np.arange(spec_idx.size, dtype=np.int64)]
    qcol = queue_of_spec[spec_idx]
    counts = np.bincount(qcol, minlength=num_queues)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(qcol, kind="stable")
    return [order[offsets[q] : offsets[q + 1]] for q in range(num_queues)]


def _form_queue(
    arrival: np.ndarray,
    request_id: np.ndarray,
    valid_len: np.ndarray,
    spec,
    cost_model: ServiceCostModel,
    max_batch_size: int,
    max_wait_s: float,
    setup_cycles: int,
    frequency_hz: float,
    last_arrival_s: Optional[float] = None,
    horizon_s: Optional[float] = None,
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray, int]:
    """Phase 1 for one queue: seal batches and price them.

    Returns ``(formed, service_s, energy_pj, consumed)`` where
    ``formed`` is :func:`_form_batches` output (sans consumed count),
    ``service_s``/``energy_pj`` are per-batch cost columns, and
    ``consumed`` counts the leading rows covered.
    """
    f = _form_batches(
        arrival,
        request_id,
        max_batch_size,
        max_wait_s,
        last_arrival_s=last_arrival_s,
        horizon_s=horizon_s,
    )
    starts, counts, consumed = f[0], f[1], f[6]
    if starts.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return f[:6], empty, empty.copy(), consumed
    # Dynamic batching pads members to the batch's longest input; cost
    # lookup is one array-indexing pass over the primed cache.
    padded_len = np.maximum.reduceat(valid_len[:consumed], starts)
    cycles, energy = cost_model.cost_arrays(spec, padded_len)
    service_s = (setup_cycles + cycles * counts) / frequency_hz
    return f[:6], service_s, energy * counts, consumed


def _single_device_chain(
    sealed: np.ndarray, service: np.ndarray, free0: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-device dispatch over batches already in dispatch order.

    The scalar loop is a left fold: ``start = max(sealed, prev_finish);
    finish = start + service``.  Whenever the device never idles,
    ``finish`` is a running sum -- and a seeded ``np.cumsum`` *is* that
    exact left fold, so stretches between idle gaps vectorize without
    changing a single rounding step.  The scan walks windows (doubling
    up to 64k while no gap appears), accepts the prefix up to the first
    idle gap (``sealed > previous finish``), and reseeds there, which
    keeps every accepted value bitwise equal to the loop's.
    """
    n = sealed.size
    start = np.empty(n, dtype=np.float64)
    finish = np.empty(n, dtype=np.float64)
    prev = float(free0)
    i = 0
    window = 64
    while i < n:
        j = min(n, i + window)
        s = sealed[i:j]
        sv = service[i:j]
        first = prev if prev > s[0] else float(s[0])
        f = np.cumsum(np.concatenate(([first], sv)))[1:]
        gaps = np.flatnonzero(s[1:] > f[:-1])
        if gaps.size == 0:
            take = j - i
            window = min(window * 2, 65536)
        else:
            take = int(gaps[0]) + 1
        start[i] = first
        start[i + 1 : i + take] = f[: take - 1]
        finish[i : i + take] = f[:take]
        prev = float(f[take - 1])
        i += take
    return start, finish


#: Batches per ``.tolist()`` window of the k-device dispatch loop:
#: large enough to amortize each conversion, small enough that no
#: whole-run Python list is ever built.
_DISPATCH_WINDOW = 4096


def _multi_device_starts(
    sealed: np.ndarray, service: np.ndarray, free_at: List[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """K-device dispatch over batches already in dispatch order.

    Returns per-batch ``(start, device)`` and advances ``free_at`` in
    place.  The reference scans devices in index order at the dispatch
    instant, so the *lowest-index device idle at the seal* takes the
    batch; only when every device is busy does the batch wait for the
    earliest-freed one (the lowest index among equal free times).  The
    scalar loop runs over plain Python floats, one ``.tolist()`` window
    at a time.
    """
    n = sealed.size
    start = np.empty(n, dtype=np.float64)
    device = np.empty(n, dtype=np.int64)
    devices = range(len(free_at))
    for lo in range(0, n, _DISPATCH_WINDOW):
        hi = min(n, lo + _DISPATCH_WINDOW)
        starts: List[float] = []
        picked: List[int] = []
        for at, cost in zip(sealed[lo:hi].tolist(), service[lo:hi].tolist()):
            for d in devices:
                if free_at[d] <= at:
                    break
            else:
                at = min(free_at)
                d = free_at.index(at)
            free_at[d] = at + cost
            starts.append(at)
            picked.append(d)
        start[lo:hi] = starts
        device[lo:hi] = picked
    return start, device


def _left_fold(seed: float, values: np.ndarray) -> float:
    """``seed + v0 + v1 + ...`` added strictly left to right.

    A seeded ``np.cumsum`` *is* the scalar loop's sequential ``+=``
    fold (``np.sum`` is pairwise and would round differently).
    """
    return float(np.cumsum(np.concatenate(([seed], values)))[-1])


def _dispatch(
    sealed_s: np.ndarray,
    service_s: np.ndarray,
    energy_pj: np.ndarray,
    size_sealed: np.ndarray,
    tie_arrival: np.ndarray,
    tie_id: np.ndarray,
    free_at: List[float],
    busy_s: List[float],
    energy_by_device: List[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K-server FIFO dispatch of one globally ordered batch set.

    Sorts the batches into the reference event loop's dispatch order
    (size seals happen inside an arrival event, which outranks a
    timeout flush at the same instant, hence the ``~size_sealed``
    rank), runs them over the device pool, and mutates the carried
    ``free_at`` / ``busy_s`` / ``energy_by_device`` state in place --
    the chunked driver calls this once per flush and the carried state
    makes the flush sequence bitwise equal to one whole-stream pass.
    Returns per-batch ``(start, finish, device)`` in input order.
    """
    num_batches = sealed_s.size
    batch_start = np.empty(num_batches, dtype=np.float64)
    batch_finish = np.empty(num_batches, dtype=np.float64)
    batch_device = np.empty(num_batches, dtype=np.int64)
    if num_batches == 0:
        return batch_start, batch_finish, batch_device
    order = np.lexsort((tie_id, tie_arrival, ~size_sealed, sealed_s))
    sealed_o = sealed_s[order]
    service_o = service_s[order]
    energy_o = energy_pj[order]
    if len(free_at) == 1:
        start_o, finish_o = _single_device_chain(sealed_o, service_o, free_at[0])
        device_o = np.zeros(num_batches, dtype=np.int64)
        free_at[0] = float(finish_o[-1])
    else:
        start_o, device_o = _multi_device_starts(sealed_o, service_o, free_at)
        finish_o = start_o + service_o
    for device in range(len(free_at)):
        mine = device_o == device
        busy_s[device] = _left_fold(busy_s[device], service_o[mine])
        energy_by_device[device] = _left_fold(energy_by_device[device], energy_o[mine])
    batch_start[order] = start_o
    batch_finish[order] = finish_o
    batch_device[order] = device_o
    return batch_start, batch_finish, batch_device


def simulate_table(
    table: RequestTable,
    cost_model: ServiceCostModel,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    recorder: Optional[TraceRecorder] = None,
    threads: int = 1,
    faults=None,
    retry=None,
    _formed: Optional[dict] = None,
) -> "ColumnarServingResult | DecodeColumnarResult | FaultColumnarResult":
    """Run one deployment over a columnar stream; the fast path.

    Generative tables (an ``output_len`` column present) route to the
    event-driven decode engine and return a
    :class:`~repro.serving.decode.DecodeColumnarResult` instead --
    same knobs, same bitwise-vs-reference contract, per-token
    lifecycle columns.

    Identical knobs and semantics to building ``num_devices``
    :class:`~repro.serving.devices.SprintDevice` plus a
    :class:`~repro.serving.batching.DynamicBatcher` and calling
    :meth:`~repro.serving.scheduler.ServingSimulator.run`, but
    batch-granular and array-shaped: batch formation runs in
    ``log2(batches)`` vectorized rounds, one-device dispatch in
    vectorized stretches between idle gaps, and k-device dispatch in
    one plain-float scalar step per batch -- instead of O(requests)
    heap events.  Unlike the single-use reference simulator, this
    function carries no run state and may be called repeatedly.

    ``recorder`` opts into sim-time tracing: the sampled requests'
    lifecycle spans are emitted from the finished columns after the
    simulation proper, so tracing cannot perturb a single computed
    value -- results are bitwise identical with tracing on or off (and
    the emitted spans bitwise match the reference loop's).

    ``threads > 1`` runs phase 1 (per-queue batch formation + cost
    lookup, embarrassingly parallel and numpy-heavy, so the GIL is
    mostly released) across a thread pool -- results stay bitwise
    identical at every thread count.  ``_formed`` is the process-shard
    injection point (:func:`repro.runtime.pool.simulate_table_sharded`):
    a dict of queue id -> precomputed phase-1 parts for the canonically
    sorted table.

    ``faults`` (a :class:`~repro.serving.faults.FaultSchedule`) runs
    prefill and generative tables alike on the decode engine's event
    core with the schedule in force -- macro-stepping included -- and
    returns a :class:`~repro.serving.faults.FaultColumnarResult`;
    ``retry`` customizes its :class:`~repro.serving.faults.RetryPolicy`,
    and ``threads`` parallelizes its phase 1 as on the decode route.
    With ``faults=None`` the no-fault fast paths run untouched.
    """
    _validate_knobs(num_devices, max_batch_size, max_wait_s, threads)
    if faults is not None or table.output_len is not None:
        # Generative traffic: decode-step readiness depends on device
        # timing, so batch formation cannot be precomputed; a fault
        # schedule makes dispatch depend on it too.  Both run on the
        # event-driven columnar decode engine, whose phase 1
        # (per-queue cost vectors) ``threads`` parallelizes.
        from repro.serving.decode import simulate_decode_table

        if _formed is not None:
            raise ValueError(
                "sharded batch formation applies to fault-free prefill tables only"
            )
        return simulate_decode_table(
            table,
            cost_model,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            recorder=recorder,
            threads=threads,
            faults=faults,
            retry=retry,
        )
    if retry is not None:
        raise ValueError("a retry policy requires a fault schedule")
    if len(table) == 0:
        raise ValueError(_EMPTY)
    if has_duplicate_ids(table.request_id):
        raise ValueError("duplicate request id in stream")

    table = table.in_canonical_order()
    n = len(table)
    last_arrival_s = float(table.arrival_s[n - 1])
    frequency_hz = cost_model.config.frequency_ghz * 1e9

    # ------------------------------------------------------------------
    # Phase 1: per-model batch formation (device-independent).  One
    # queue per model *name*, like the reference batcher: a spec list
    # may carry the same model under several indices (a mix that
    # repeats a model), and those requests share one queue.
    # ------------------------------------------------------------------
    queue_specs, queue_of_spec = _queue_map(table.specs)
    rows_list = _group_rows(table.spec_idx, queue_of_spec, len(queue_specs))
    active = [qid for qid in range(len(queue_specs)) if rows_list[qid].size]

    def _one_queue(qid: int):
        rows = rows_list[qid]
        return _form_queue(
            table.arrival_s[rows],
            table.request_id[rows],
            table.valid_len[rows],
            queue_specs[qid],
            cost_model,
            max_batch_size,
            max_wait_s,
            setup_cycles,
            frequency_hz,
            last_arrival_s=last_arrival_s,
        )

    if _formed is not None:
        per_queue = [_formed[qid] for qid in active]
    elif threads > 1 and len(active) > 1:
        # Fault every cold length bucket serially first: the threaded
        # workers then only read the memo dict (plus GIL-free numpy),
        # and the fault order stays deterministic.
        for qid in active:
            cost_model.prime(queue_specs[qid], table.valid_len[rows_list[qid]])
        with ThreadPoolExecutor(max_workers=min(threads, len(active))) as pool:
            per_queue = list(pool.map(_one_queue, active))
    else:
        per_queue = [_one_queue(qid) for qid in active]

    model_rows: List[np.ndarray] = []
    model_slices: List[Tuple[int, int]] = []
    form_columns: List[Tuple[np.ndarray, ...]] = []
    service_parts: List[np.ndarray] = []
    energy_parts: List[np.ndarray] = []
    total = 0
    for qid, (formed, service, energy, _consumed) in zip(active, per_queue):
        model_rows.append(rows_list[qid])
        model_slices.append((total, total + formed[0].size))
        form_columns.append(formed)
        service_parts.append(service)
        energy_parts.append(energy)
        total += formed[0].size

    member_count = np.concatenate([f[1] for f in form_columns])
    sealed_s = np.concatenate([f[2] for f in form_columns])
    size_sealed = np.concatenate([f[3] for f in form_columns])
    tie_arrival = np.concatenate([f[4] for f in form_columns])
    tie_id = np.concatenate([f[5] for f in form_columns])
    service_s = np.concatenate(service_parts)
    energy_pj = np.concatenate(energy_parts)
    num_batches = member_count.size

    # ------------------------------------------------------------------
    # Phase 2: k-server FIFO dispatch over batches in global seal order.
    # ------------------------------------------------------------------
    free_at = [0.0] * num_devices
    busy_s = [0.0] * num_devices
    energy_by_device = [0.0] * num_devices
    batch_start, batch_finish, batch_device = _dispatch(
        sealed_s,
        service_s,
        energy_pj,
        size_sealed,
        tie_arrival,
        tie_id,
        free_at,
        busy_s,
        energy_by_device,
    )

    # ------------------------------------------------------------------
    # Phase 3: scatter per-batch outcomes back to per-request columns.
    # A model's batches tile its sorted rows in formation order, so one
    # repeat() per model covers every member.
    # ------------------------------------------------------------------
    batched_col = np.empty(n, dtype=np.float64)
    start_col = np.empty(n, dtype=np.float64)
    finish_col = np.empty(n, dtype=np.float64)
    size_col = np.empty(n, dtype=np.int64)
    device_col = np.empty(n, dtype=np.int64)
    for rows, (lo, hi) in zip(model_rows, model_slices):
        counts = member_count[lo:hi]
        batched_col[rows] = np.repeat(sealed_s[lo:hi], counts)
        start_col[rows] = np.repeat(batch_start[lo:hi], counts)
        finish_col[rows] = np.repeat(batch_finish[lo:hi], counts)
        size_col[rows] = np.repeat(member_count[lo:hi], counts)
        device_col[rows] = np.repeat(batch_device[lo:hi], counts)

    size_triggered = int(np.count_nonzero(size_sealed))
    if recorder is not None:
        # Post-hoc span emission over the finished columns: the sampled
        # set keys on request id only, so it matches the reference
        # loop's (and any other run of this stream) exactly.
        for i in np.flatnonzero(recorder.config.mask(table.request_id)):
            i = int(i)
            recorder.add_request(
                request_id=int(table.request_id[i]),
                model=table.specs[int(table.spec_idx[i])].name,
                arrival_s=float(table.arrival_s[i]),
                batched_s=float(batched_col[i]),
                service_start_s=float(start_col[i]),
                finish_s=float(finish_col[i]),
                device_id=int(device_col[i]),
                batch_size=int(size_col[i]),
            )
    return ColumnarServingResult(
        table=table,
        batched_s=batched_col,
        service_start_s=start_col,
        finish_s=finish_col,
        batch_size=size_col,
        device_id=device_col,
        start_s=float(table.arrival_s[0]),
        end_s=float(np.max(batch_finish)),
        device_busy_s=busy_s,
        device_energy_pj=energy_by_device,
        batches=int(num_batches),
        size_triggered_batches=size_triggered,
        timeout_triggered_batches=int(num_batches) - size_triggered,
    )


# ----------------------------------------------------------------------
# Out-of-core chunked driver.
# ----------------------------------------------------------------------


@dataclass
class StreamedServingResult:
    """Run-level aggregates of a chunked out-of-core simulation.

    Every stream route returns one -- prefill or generative, with or
    without a fault schedule.  It carries what a whole-table result
    reports except the per-request columns, which streamed through the
    ``sink`` as :class:`~repro.serving.requests.CompletedChunk` batches;
    every field is bitwise equal to the whole-table run's.  A prefill
    stream counts one token per request and only prefill batches; the
    fault fields are zero or empty when no schedule is in force.
    """

    completed: int
    start_s: float
    end_s: float
    device_busy_s: List[float]
    device_energy_pj: List[float]
    batches: int
    size_triggered_batches: int
    timeout_triggered_batches: int
    prefill_batches: int
    decode_batches: int
    total_tokens: int
    #: Whether the stream carried an ``output_len`` column.
    generative: bool = False
    dropped: int = 0
    #: Dropped counts keyed by reason name (every reason under a
    #: schedule, empty without one).
    dropped_by_reason: dict = field(default_factory=dict)
    #: Per-device outage seconds within [start_s, end_s] (empty
    #: without a schedule).
    device_downtime_s: List[float] = field(default_factory=list)
    retries: int = 0
    failed_batches: int = 0
    wasted_energy_pj: float = 0.0

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    @property
    def offered(self) -> int:
        return self.completed + self.dropped


#: Column layout of a per-queue batch "part": batch-level arrays first
#: (sealed, by_size, tie_arrival, tie_id, service, energy, counts),
#: then member-level arrays (arrival, request_id, valid_len, spec_idx)
#: aligned with ``counts``.
_BATCH_COLS = 7


@dataclass
class _QueueState:
    """One model queue's frontier between chunks.

    ``pend`` is the unsealed tail (provably shorter than the batch
    size bound); ``carry`` holds batches already sealed but not yet
    dispatchable (sealed exactly at the current horizon -- a later
    flush retires them).  Both are O(open batch), not O(stream).
    """

    spec: object
    pend: Tuple[np.ndarray, ...] = field(
        default_factory=lambda: (
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    )
    carry: Optional[Tuple[np.ndarray, ...]] = None


def _advance_queue(
    q: _QueueState,
    cost_model: ServiceCostModel,
    max_batch_size: int,
    max_wait_s: float,
    setup_cycles: int,
    frequency_hz: float,
    horizon_s: Optional[float],
    last_arrival_s: Optional[float],
) -> Optional[Tuple[np.ndarray, ...]]:
    """Seal and price whatever is certain in one queue's pending tail."""
    arr, rid, vlen, sidx = q.pend
    if arr.size == 0:
        return None
    formed, service, energy, consumed = _form_queue(
        arr,
        rid,
        vlen,
        q.spec,
        cost_model,
        max_batch_size,
        max_wait_s,
        setup_cycles,
        frequency_hz,
        last_arrival_s=last_arrival_s,
        horizon_s=horizon_s,
    )
    if consumed == 0:
        return None
    part = (
        formed[2],
        formed[3],
        formed[4],
        formed[5],
        service,
        energy,
        formed[1],
        arr[:consumed],
        rid[:consumed],
        vlen[:consumed],
        sidx[:consumed],
    )
    q.pend = (
        arr[consumed:].copy(),
        rid[consumed:].copy(),
        vlen[consumed:].copy(),
        sidx[consumed:].copy(),
    )
    return part


def _split_carry(
    q: _QueueState,
    part: Optional[Tuple[np.ndarray, ...]],
    horizon_s: Optional[float],
) -> Optional[Tuple[np.ndarray, ...]]:
    """Merge carried batches with newly sealed ones and split on the horizon.

    Only batches sealed *strictly before* the horizon may dispatch: a
    future chunk can still seal batches exactly at the horizon instant
    (size seals anchored on a boundary arrival), and the global
    dispatch order breaks same-instant ties across queues.  Batches at
    the horizon stay carried; ``horizon_s=None`` (end of stream)
    flushes everything.
    """
    if q.carry is not None and part is not None:
        combined = tuple(np.concatenate((c, p)) for c, p in zip(q.carry, part))
    elif q.carry is not None:
        combined = q.carry
    elif part is not None:
        combined = part
    else:
        return None
    if horizon_s is None:
        q.carry = None
        return combined
    sealed = combined[0]
    batch_mask = sealed < horizon_s
    if batch_mask.all():
        q.carry = None
        return combined
    member_mask = np.repeat(batch_mask, combined[_BATCH_COLS - 1])
    held = tuple(a[~batch_mask] for a in combined[:_BATCH_COLS]) + tuple(
        a[~member_mask] for a in combined[_BATCH_COLS:]
    )
    q.carry = held
    if not batch_mask.any():
        return None
    return tuple(a[batch_mask] for a in combined[:_BATCH_COLS]) + tuple(
        a[member_mask] for a in combined[_BATCH_COLS:]
    )


def simulate_stream(
    chunks: Iterable[RequestTable],
    cost_model: ServiceCostModel,
    num_devices: int = 1,
    max_batch_size: int = 8,
    max_wait_s: float = 2e-3,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    threads: int = 1,
    sink: Optional[Callable[[CompletedChunk], None]] = None,
    faults=None,
    retry=None,
) -> StreamedServingResult:
    """Out-of-core serving simulation over a chunked request stream.

    Consumes ``RequestTable`` chunks in arrival order (e.g. from
    :class:`repro.serving.stream.RequestStream`), carrying only the
    O(devices + open batches) frontier between chunks: per-queue
    unsealed tails, sealed-at-horizon batches, device free times, and
    running busy/energy folds.  Completed requests leave immediately
    as :class:`~repro.serving.requests.CompletedChunk` columns through
    ``sink`` -- peak memory is one chunk plus the frontier, independent
    of stream length.

    Generative streams (first non-empty chunk carries an
    ``output_len`` column) and every stream under a ``faults`` schedule
    (with ``retry`` as in :func:`simulate_table`) run on the
    event-driven decode engine
    (:func:`~repro.serving.decode.simulate_decode_stream`); its chunks
    add the generative and ``attempts`` columns where they apply.

    The equivalence contract matches :func:`simulate_table`: for the
    same concatenated stream and knobs, every per-request column value,
    device busy/energy total, and batch counter is **bitwise equal**
    to the whole-table run (and hence to the reference event loop),
    at every chunk size and thread count.

    Chunks must be non-overlapping and ordered: each chunk's earliest
    (arrival, id) must lexicographically follow the previous chunk's
    latest, and all chunks must share one spec list.  Request-id
    uniqueness is enforced within a chunk; across chunks it is the
    caller's contract here (checking it globally would break the O(1)
    memory bound) -- only fault schedules check it across chunks.
    """
    _validate_knobs(num_devices, max_batch_size, max_wait_s, threads)
    # Peek the first non-empty chunk to route generative streams.
    iterator = iter(chunks)
    first = next(iterator, None)
    while first is not None and len(first) == 0:
        first = next(iterator, None)
    chunks = iter(()) if first is None else chain([first], iterator)
    if faults is not None or (first is not None and first.output_len is not None):
        from repro.serving.decode import simulate_decode_stream

        return simulate_decode_stream(
            chunks,
            cost_model,
            num_devices=num_devices,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            setup_cycles=setup_cycles,
            sink=sink,
            threads=threads,
            faults=faults,
            retry=retry,
        )
    if retry is not None:
        raise ValueError("a retry policy requires a fault schedule")
    frequency_hz = cost_model.config.frequency_ghz * 1e9

    specs: Optional[List] = None
    queue_specs: List = []
    queue_of_spec = np.empty(0, dtype=np.int64)
    queues: List[_QueueState] = []
    free_at = [0.0] * num_devices
    busy_s = [0.0] * num_devices
    energy_by_device = [0.0] * num_devices
    completed_total = 0
    batches_total = 0
    size_triggered_total = 0
    start_s = 0.0
    end_s = -np.inf
    prev = (-np.inf, 0)
    pool: Optional[ThreadPoolExecutor] = None

    def _advance_and_split(qid: int, horizon, last_arrival):
        part = _advance_queue(
            queues[qid],
            cost_model,
            max_batch_size,
            max_wait_s,
            setup_cycles,
            frequency_hz,
            horizon,
            last_arrival,
        )
        return _split_carry(queues[qid], part, horizon)

    def _flush(parts) -> None:
        nonlocal completed_total, batches_total, size_triggered_total, end_s
        if not parts:
            return
        cols = [np.concatenate([p[k] for p in parts]) for k in range(len(parts[0]))]
        sealed, by_size, tie_a, tie_i, service, energy, counts = cols[:_BATCH_COLS]
        b_start, b_finish, b_device = _dispatch(
            sealed,
            service,
            energy,
            by_size,
            tie_a,
            tie_i,
            free_at,
            busy_s,
            energy_by_device,
        )
        batches_total += int(sealed.size)
        size_triggered_total += int(np.count_nonzero(by_size))
        flush_end = float(np.max(b_finish))
        if flush_end > end_s:
            end_s = flush_end
        completed = CompletedChunk(
            specs=specs,
            arrival_s=cols[_BATCH_COLS],
            request_id=cols[_BATCH_COLS + 1],
            valid_len=cols[_BATCH_COLS + 2],
            spec_idx=cols[_BATCH_COLS + 3],
            batched_s=np.repeat(sealed, counts),
            service_start_s=np.repeat(b_start, counts),
            finish_s=np.repeat(b_finish, counts),
            batch_size=np.repeat(counts, counts),
            device_id=np.repeat(b_device, counts),
        )
        completed_total += len(completed)
        if sink is not None:
            sink(completed)

    try:
        for chunk in chunks:
            if len(chunk) == 0:
                continue
            order = np.lexsort((chunk.request_id, chunk.arrival_s))
            arrival = chunk.arrival_s[order]
            request_id = chunk.request_id[order]
            spec_idx = chunk.spec_idx[order]
            valid_len = chunk.valid_len[order]
            if specs is None:
                specs = list(chunk.specs)
                queue_specs, queue_of_spec = _queue_map(specs)
                queues = [_QueueState(spec) for spec in queue_specs]
                start_s = float(arrival[0])
            prev = _check_chunk(chunk, specs, request_id, arrival, prev)
            horizon = prev[0]

            rows_list = _group_rows(spec_idx, queue_of_spec, len(queues))
            for qid, rows in enumerate(rows_list):
                if rows.size:
                    q = queues[qid]
                    q.pend = (
                        np.concatenate((q.pend[0], arrival[rows])),
                        np.concatenate((q.pend[1], request_id[rows])),
                        np.concatenate((q.pend[2], valid_len[rows])),
                        np.concatenate((q.pend[3], spec_idx[rows])),
                    )
            busy_qids = [
                qid
                for qid in range(len(queues))
                if queues[qid].pend[0].size or queues[qid].carry is not None
            ]
            if threads > 1 and len(busy_qids) > 1:
                for qid in busy_qids:
                    if queues[qid].pend[0].size:
                        cost_model.prime(queues[qid].spec, queues[qid].pend[2])
                if pool is None:
                    pool = ThreadPoolExecutor(max_workers=threads)
                parts = list(
                    pool.map(
                        lambda qid: _advance_and_split(qid, horizon, None),
                        busy_qids,
                    )
                )
            else:
                parts = [_advance_and_split(qid, horizon, None) for qid in busy_qids]
            _flush([p for p in parts if p is not None])

        if specs is None:
            raise ValueError(_EMPTY)
        # End of stream: the pending tails seal at the global last
        # arrival and every carried batch dispatches.
        parts = [_advance_and_split(qid, None, prev[0]) for qid in range(len(queues))]
        _flush([p for p in parts if p is not None])
    finally:
        if pool is not None:
            pool.shutdown()

    return StreamedServingResult(
        completed=completed_total,
        start_s=start_s,
        end_s=end_s,
        device_busy_s=busy_s,
        device_energy_pj=energy_by_device,
        batches=batches_total,
        size_triggered_batches=size_triggered_total,
        timeout_triggered_batches=batches_total - size_triggered_total,
        prefill_batches=batches_total,
        decode_batches=0,
        total_tokens=completed_total,
    )
