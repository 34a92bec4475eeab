"""Inference requests and their lifecycle records.

A :class:`Request` is one user inference call: a model, a (possibly
padded) input length, and an arrival time.  The serving simulators fill
in a :class:`RequestRecord` as the request moves through the dynamic
batcher, the dispatch queue, and a device -- the record carries every
timestamp the tail-latency analysis needs.

Streams exist in two interchangeable representations:

* a list of :class:`Request` objects, consumed by the per-request
  reference event loop (:class:`repro.serving.scheduler.ServingSimulator`);
* a :class:`RequestTable` -- the same stream as struct-of-arrays numpy
  columns, consumed by the columnar fast path
  (:mod:`repro.serving.engine`).

``RequestTable.from_requests`` / ``RequestTable.to_requests`` convert
losslessly between the two.

Autoregressive (generative) traffic adds an ``output_len`` per request:
the prompt (``valid_len`` tokens) is processed by one *prefill* step
that emits the first token, then each further token is one *decode*
step over a context grown by one.  ``output_len == 1`` degenerates to
the historical single-forward-pass request, and a table without the
``output_len`` column is exactly the legacy prefill-only stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.models.zoo import ModelSpec


@dataclass
class Request:
    """One inference request in the arrival stream.

    Attributes
    ----------
    request_id:
        Unique, monotonically increasing within a stream.
    arrival_s:
        Arrival time in seconds from the start of the simulation.
    spec:
        The model this request runs (drawn from the stream's mix).
    valid_len:
        Non-padded tokens in this request's input (drawn around the
        model's mean padding ratio, like the workload generator does).
        For generative requests this is the *prompt* length.
    output_len:
        Tokens the request generates.  ``1`` (the default) is the
        legacy prefill-only request: one forward pass, one result.
        ``k > 1`` adds ``k - 1`` decode steps, each re-entering the
        batcher with context grown by one token; the final context
        ``valid_len + output_len - 1`` must fit in ``spec.seq_len``.
    deadline_s:
        Optional completion deadline in seconds *relative to arrival*.
        Only the fault layer reads it: a lost request is dropped
        instead of retried once its next retry would land past
        ``arrival_s + deadline_s``.  ``None`` (the default) never
        drops.
    """

    request_id: int
    arrival_s: float
    spec: ModelSpec
    valid_len: int
    output_len: int = 1
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.valid_len < 1:
            raise ValueError("valid_len must be positive")
        if self.valid_len > self.spec.seq_len:
            raise ValueError("valid_len exceeds the model's seq_len")
        if self.output_len < 1:
            raise ValueError("output_len must be positive")
        if self.valid_len + self.output_len - 1 > self.spec.seq_len:
            raise ValueError("valid_len + output_len - 1 exceeds the model's seq_len")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive")


@dataclass
class RequestRecord:
    """Lifecycle timestamps for one completed request (seconds)."""

    request: Request
    #: When the dynamic batcher sealed this request's batch.
    batched_s: float = 0.0
    #: When a device started executing the batch.
    service_start_s: float = 0.0
    #: When the batch (and hence the request) finished.
    finish_s: float = 0.0
    #: Size of the batch the request rode in.
    batch_size: int = 1
    #: Device that executed the batch.
    device_id: int = -1
    #: Dispatch attempts this request needed (1 without faults; the
    #: fault layer counts one per lost batch plus the success).
    attempts: int = 1

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.finish_s - self.request.arrival_s

    @property
    def batching_wait_s(self) -> float:
        """Time spent waiting in the batcher before the batch sealed."""
        return self.batched_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Arrival to service start (batching + dispatch queueing)."""
        return self.service_start_s - self.request.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.service_start_s


@dataclass
class Batch:
    """A group of compatible requests dispatched as one unit."""

    batch_id: int
    requests: list = field(default_factory=list)
    #: When the batcher sealed the batch (size or wait trigger).
    sealed_s: float = 0.0

    def __post_init__(self):
        if not self.requests:
            raise ValueError("a batch needs at least one request")
        specs = {r.spec.name for r in self.requests}
        if len(specs) > 1:
            raise ValueError(f"mixed-model batch: {sorted(specs)}")

    @property
    def spec(self) -> ModelSpec:
        return self.requests[0].spec

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def max_valid_len(self) -> int:
        """Dynamic batching pads every member to the longest input."""
        return max(r.valid_len for r in self.requests)


def has_duplicate_ids(ids: np.ndarray) -> bool:
    """Whether any id repeats: a sort plus an adjacent compare.

    Same answer as ``np.unique(ids).size != ids.size`` at a small
    fraction of its cost on large tables.
    """
    ordered = np.sort(ids)
    return bool(np.any(ordered[1:] == ordered[:-1]))


@dataclass
class RequestTable:
    """A request stream as struct-of-arrays numpy columns.

    The columnar twin of a ``list[Request]``: row ``i`` of every column
    describes one request, and ``specs[spec_idx[i]]`` is its model.
    This is the representation the fast serving engine
    (:mod:`repro.serving.engine`) consumes -- generation, batch
    formation, cost lookup, and metrics all stay in vectorized numpy
    instead of touching per-request Python objects.

    Columns are validated on construction (equal lengths, positive
    ``valid_len`` within each spec's ``seq_len``, in-range ``spec_idx``)
    so the engine can trust them without re-checking per row.
    """

    #: Distinct model specs; ``spec_idx`` indexes into this list.
    specs: List[ModelSpec]
    request_id: np.ndarray
    arrival_s: np.ndarray
    spec_idx: np.ndarray
    valid_len: np.ndarray
    #: Generated tokens per request (``None`` -> legacy prefill-only
    #: stream; every request is one forward pass).
    output_len: Optional[np.ndarray] = None
    #: Per-request completion deadline, seconds relative to arrival
    #: (``None`` -> no deadlines; ``inf`` rows mean no deadline).
    #: Only the fault layer reads this column.
    deadline_s: Optional[np.ndarray] = None

    def __post_init__(self):
        self.request_id = np.asarray(self.request_id, dtype=np.int64)
        self.arrival_s = np.asarray(self.arrival_s, dtype=np.float64)
        self.spec_idx = np.asarray(self.spec_idx, dtype=np.int64)
        self.valid_len = np.asarray(self.valid_len, dtype=np.int64)
        if self.output_len is not None:
            self.output_len = np.asarray(self.output_len, dtype=np.int64)
        if self.deadline_s is not None:
            self.deadline_s = np.asarray(self.deadline_s, dtype=np.float64)
        n = self.request_id.size
        for name in ("arrival_s", "spec_idx", "valid_len"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} length != request_id length")
        if self.output_len is not None and self.output_len.size != n:
            raise ValueError("column output_len length != request_id length")
        if self.deadline_s is not None:
            if self.deadline_s.size != n:
                raise ValueError("column deadline_s length != request_id length")
            if n and not np.all(self.deadline_s > 0):
                raise ValueError("deadline_s must be positive")
        if n == 0:
            return
        if not self.specs:
            raise ValueError("a non-empty table needs at least one spec")
        seen: dict = {}
        for spec in self.specs:
            # Batching keys on the model *name* (the reference batcher
            # merges same-name queues), so two specs may share a name
            # only if they are the same model.
            if seen.setdefault(spec.name, spec) != spec:
                raise ValueError(f"conflicting specs share the name {spec.name!r}")
        if self.spec_idx.min() < 0 or self.spec_idx.max() >= len(self.specs):
            raise ValueError("spec_idx out of range")
        if self.valid_len.min() < 1:
            raise ValueError("valid_len must be positive")
        seq_lens = np.array([s.seq_len for s in self.specs], dtype=np.int64)
        if np.any(self.valid_len > seq_lens[self.spec_idx]):
            raise ValueError("valid_len exceeds the model's seq_len")
        if self.output_len is not None:
            if self.output_len.min() < 1:
                raise ValueError("output_len must be positive")
            final_ctx = self.valid_len + self.output_len - 1
            if np.any(final_ctx > seq_lens[self.spec_idx]):
                raise ValueError(
                    "valid_len + output_len - 1 exceeds the model's seq_len"
                )

    def __len__(self) -> int:
        return int(self.request_id.size)

    @property
    def is_generative(self) -> bool:
        """Whether this stream carries decode work (an output_len column)."""
        return self.output_len is not None

    # ------------------------------------------------------------------
    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "RequestTable":
        """Columnarize an object stream (specs dedup by model name)."""
        specs: List[ModelSpec] = []
        index: dict = {}
        spec_idx = np.empty(len(requests), dtype=np.int64)
        for i, r in enumerate(requests):
            at = index.get(r.spec.name)
            if at is None:
                at = index[r.spec.name] = len(specs)
                specs.append(r.spec)
            spec_idx[i] = at
        # The columns stay absent for pure prefill / no-deadline
        # streams so legacy round-trips keep producing legacy tables.
        output_len = None
        if any(r.output_len != 1 for r in requests):
            output_len = np.array([r.output_len for r in requests], dtype=np.int64)
        deadline_s = None
        if any(r.deadline_s is not None for r in requests):
            deadline_s = np.array(
                [np.inf if r.deadline_s is None else r.deadline_s for r in requests],
                dtype=np.float64,
            )
        return cls(
            specs=specs,
            request_id=np.array([r.request_id for r in requests], dtype=np.int64),
            arrival_s=np.array([r.arrival_s for r in requests], dtype=np.float64),
            spec_idx=spec_idx,
            valid_len=np.array([r.valid_len for r in requests], dtype=np.int64),
            output_len=output_len,
            deadline_s=deadline_s,
        )

    def to_requests(self) -> List[Request]:
        """Materialize the object stream (exact same values row-wise)."""
        out = self.output_len
        dl = self.deadline_s
        return [
            Request(
                request_id=int(self.request_id[i]),
                arrival_s=float(self.arrival_s[i]),
                spec=self.specs[int(self.spec_idx[i])],
                valid_len=int(self.valid_len[i]),
                output_len=1 if out is None else int(out[i]),
                deadline_s=(
                    None
                    if dl is None or not np.isfinite(dl[i])
                    else float(dl[i])
                ),
            )
            for i in range(len(self))
        ]

    def head(self, count: int) -> "RequestTable":
        """The first ``count`` rows (a prefix of the stream)."""
        if count < 1:
            raise ValueError("count must be positive")
        if count > len(self):
            raise ValueError(f"count {count} exceeds the table's {len(self)} rows")
        return self.slice(0, count)

    def slice(self, lo: int, hi: int) -> "RequestTable":
        """Rows ``[lo, hi)`` as an independent (copied) table.

        The chunked drivers cut one stream into consecutive slices;
        copies keep a chunk alive without pinning the parent columns.
        """
        if not 0 <= lo < hi <= len(self):
            raise ValueError(f"slice [{lo}, {hi}) out of range for {len(self)} rows")
        out = self.output_len
        dl = self.deadline_s
        return RequestTable(
            specs=self.specs,
            request_id=self.request_id[lo:hi].copy(),
            arrival_s=self.arrival_s[lo:hi].copy(),
            spec_idx=self.spec_idx[lo:hi].copy(),
            valid_len=self.valid_len[lo:hi].copy(),
            output_len=None if out is None else out[lo:hi].copy(),
            deadline_s=None if dl is None else dl[lo:hi].copy(),
        )

    def in_canonical_order(self) -> "RequestTable":
        """Rows sorted by (arrival_s, request_id): the order every
        simulator admits arrivals in (the reference loop's record
        order)."""
        order = np.lexsort((self.request_id, self.arrival_s))
        out = self.output_len
        dl = self.deadline_s
        return RequestTable(
            specs=self.specs,
            request_id=self.request_id[order],
            arrival_s=self.arrival_s[order],
            spec_idx=self.spec_idx[order],
            valid_len=self.valid_len[order],
            output_len=None if out is None else out[order],
            deadline_s=None if dl is None else dl[order],
        )


@dataclass
class CompletedChunk:
    """Outcome columns for a set of completed requests.

    The chunked drivers hand one to their ``sink`` per flush (rows in
    completion order, values bitwise equal to the whole-table run's),
    and every serving result returns its completed requests as one
    through ``completed_rows()`` -- the single row shape
    :mod:`repro.serving.metrics` folds.  For generative requests the
    batch columns describe the prefill batch.
    """

    specs: List[ModelSpec]
    request_id: np.ndarray
    arrival_s: np.ndarray
    spec_idx: np.ndarray
    valid_len: np.ndarray
    batched_s: np.ndarray
    service_start_s: np.ndarray
    finish_s: np.ndarray
    batch_size: np.ndarray
    device_id: np.ndarray
    #: Generative streams only (an ``output_len`` column): first-token
    #: instant and summed decode batch occupancy per request.
    output_len: Optional[np.ndarray] = None
    first_token_s: Optional[np.ndarray] = None
    decode_slots: Optional[np.ndarray] = None
    #: Dispatch attempts per request, under a fault schedule only.
    attempts: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.request_id.size)

    @property
    def latency_s(self) -> np.ndarray:
        """End-to-end latency: arrival to completion (last token)."""
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> np.ndarray:
        """Arrival to (prefill) service start."""
        return self.service_start_s - self.arrival_s

    @property
    def ttft_s(self) -> np.ndarray:
        """Time to first token (generative rows only)."""
        return self.first_token_s - self.arrival_s

    @property
    def tbt_s(self) -> np.ndarray:
        """Mean time between tokens (NaN for single-token requests)."""
        steps = (self.output_len - 1).astype(np.float64)
        return np.divide(
            self.finish_s - self.first_token_s,
            steps,
            out=np.full(steps.shape, np.nan),
            where=steps > 0,
        )
