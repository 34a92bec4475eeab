"""Dynamic batching: group compatible requests under size/wait knobs.

The batcher keeps one FIFO queue per model.  A batch seals when it
reaches ``max_batch_size``, or when its oldest member has waited
``max_wait_s`` (the reference scheduler drives the timeout via
events).  Requests for different models never share a batch -- they
need different weights and learned thresholds programmed into the
accelerator.

Note the seal rules depend only on the arrival stream, never on device
state: batch formation is fully determined before any batch runs.  The
columnar fast path (:mod:`repro.serving.engine`) exploits exactly that
-- it computes every sealed batch with array operations over the
sorted arrival columns instead of driving this incremental batcher,
and is pinned to produce the same batches.

Generative traffic batches at *token-step* granularity instead:
:class:`ContinuousBatcher` queues :class:`StepItem` work (one prefill
or decode step of one request) under the same size/wait seal rules,
keyed by (model, phase).  Decode steps re-enter the queue the moment
their previous step finishes, so device slots free per token rather
than per request -- continuous batching.  Unlike the prefill-only
batcher, step readiness *does* depend on device timing, so generative
batch formation cannot be precomputed; the fast decode engine
(:mod:`repro.serving.decode`) replays these seal rules
event-driven over columnar state instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.models.zoo import ModelSpec
from repro.serving.requests import Batch, Request


@dataclass
class BatcherStats:
    """Aggregate batcher behaviour over one simulation."""

    requests_in: int = 0
    batches_out: int = 0
    size_triggered: int = 0
    timeout_triggered: int = 0

    @property
    def mean_batch_size(self) -> float:
        if self.batches_out == 0:
            return 0.0
        return self.requests_in / self.batches_out


class DynamicBatcher:
    """Size- and latency-bounded request grouping.

    Parameters
    ----------
    max_batch_size:
        Seal a batch as soon as it holds this many requests.
    max_wait_s:
        Upper bound on the time any request spends waiting for
        batch-mates.  ``0`` degenerates to one-request batches.
    """

    def __init__(self, max_batch_size: int = 8, max_wait_s: float = 2e-3):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.stats = BatcherStats()
        self._queues: Dict[str, List[Request]] = {}
        self._next_batch_id = 0

    # ------------------------------------------------------------------
    def _seal(self, model: str, now_s: float, by_size: bool) -> Batch:
        requests = self._queues.pop(model)
        batch = Batch(batch_id=self._next_batch_id, requests=requests, sealed_s=now_s)
        self._next_batch_id += 1
        self.stats.batches_out += 1
        if by_size:
            self.stats.size_triggered += 1
        else:
            self.stats.timeout_triggered += 1
        return batch

    # ------------------------------------------------------------------
    def add(self, request: Request, now_s: float) -> Optional[Batch]:
        """Admit one request; returns a sealed batch on a size trigger."""
        self.stats.requests_in += 1
        queue = self._queues.setdefault(request.spec.name, [])
        queue.append(request)
        if len(queue) >= self.max_batch_size:
            return self._seal(request.spec.name, now_s, by_size=True)
        return None

    def deadline_for(self, request: Request) -> float:
        """Latest instant this request may wait for batch-mates."""
        return request.arrival_s + self.max_wait_s

    def flush_due(self, now_s: float) -> List[Batch]:
        """Seal every queue whose oldest member's wait bound expired."""
        due = [
            model
            for model, queue in self._queues.items()
            if now_s >= queue[0].arrival_s + self.max_wait_s
        ]
        return [self._seal(m, now_s, by_size=False) for m in due]

    def flush_all(self, now_s: float) -> List[Batch]:
        """Seal everything (end of stream)."""
        return [self._seal(m, now_s, by_size=False) for m in list(self._queues)]

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())


@dataclass
class StepItem:
    """One token step of one request, awaiting continuous batching.

    ``step == 0`` is the prefill pass: the whole prompt
    (``request.valid_len`` tokens) runs and the first output token
    emerges at its finish.  ``step == k >= 1`` is the k-th decode
    step: one new token attending over a context grown to
    ``valid_len + k``.
    """

    request: Request
    step: int
    #: When this step became schedulable: the request's arrival for
    #: prefill, the previous step's finish for decode.
    ready_s: float

    @property
    def decode(self) -> bool:
        return self.step > 0

    @property
    def context_len(self) -> int:
        """Tokens this step attends over (pads to the batch max)."""
        return self.request.valid_len + self.step

    @property
    def is_last(self) -> bool:
        return self.step == self.request.output_len - 1


@dataclass
class StepBatch:
    """A group of same-model, same-phase steps dispatched as one unit."""

    batch_id: int
    items: List[StepItem]
    sealed_s: float = 0.0

    def __post_init__(self):
        if not self.items:
            raise ValueError("a step batch needs at least one item")
        keys = {(i.request.spec.name, i.decode) for i in self.items}
        if len(keys) > 1:
            raise ValueError(f"mixed step batch: {sorted(keys)}")

    @property
    def spec(self) -> ModelSpec:
        return self.items[0].request.spec

    @property
    def decode(self) -> bool:
        return self.items[0].decode

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def max_context_len(self) -> int:
        """Every member pads to the longest context in the batch."""
        return max(i.context_len for i in self.items)


class ContinuousBatcher:
    """Size- and latency-bounded grouping of token steps.

    The generative twin of :class:`DynamicBatcher`: identical seal
    knobs and FIFO rules, but the queued unit is a :class:`StepItem`
    and queues key on (model name, phase) -- prefill and decode steps
    never share a batch (a prefill pass and a single-token step are
    different kernels), while both phases interleave freely on the
    devices.  ``stats.requests_in`` counts *steps*, so
    ``stats.mean_batch_size`` is mean step-batch occupancy.
    """

    def __init__(self, max_batch_size: int = 8, max_wait_s: float = 2e-3):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.stats = BatcherStats()
        self._queues: Dict[Tuple[str, bool], List[StepItem]] = {}
        self._next_batch_id = 0

    # ------------------------------------------------------------------
    def _seal(self, key: Tuple[str, bool], now_s: float, by_size: bool) -> StepBatch:
        items = self._queues.pop(key)
        batch = StepBatch(batch_id=self._next_batch_id, items=items, sealed_s=now_s)
        self._next_batch_id += 1
        self.stats.batches_out += 1
        if by_size:
            self.stats.size_triggered += 1
        else:
            self.stats.timeout_triggered += 1
        return batch

    # ------------------------------------------------------------------
    def add(self, item: StepItem, now_s: float) -> Optional[StepBatch]:
        """Admit one step; returns a sealed batch on a size trigger."""
        self.stats.requests_in += 1
        key = (item.request.spec.name, item.decode)
        queue = self._queues.setdefault(key, [])
        queue.append(item)
        if len(queue) >= self.max_batch_size:
            return self._seal(key, now_s, by_size=True)
        return None

    def deadline_for(self, item: StepItem) -> float:
        """Latest instant this step may wait for batch-mates."""
        return item.ready_s + self.max_wait_s

    def flush_due(self, now_s: float) -> List[StepBatch]:
        """Seal every queue whose oldest step's wait bound expired."""
        due = [
            key
            for key, queue in self._queues.items()
            if now_s >= queue[0].ready_s + self.max_wait_s
        ]
        return [self._seal(k, now_s, by_size=False) for k in due]

    def flush_all(self, now_s: float) -> List[StepBatch]:
        """Seal everything (no further steps can ever join)."""
        return [self._seal(k, now_s, by_size=False) for k in list(self._queues)]

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())
