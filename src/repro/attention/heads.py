"""Multi-head attention runtime with per-head pruning statistics.

The accuracy experiments drive attention through
:class:`~repro.attention.policies.ScorePolicy` objects, one call per
layer over the ``(H, s, s)`` stack of head scores; this module adds
the bookkeeping layer a system evaluation needs on top: per-head
learned thresholds, per-head pruning rates, adjacent-query overlap, and
CORELET-imbalance inputs -- the quantities Figures 2, 3, and 8 are
built from, exposed as a reusable API instead of experiment-local code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attention.functional import softmax
from repro.attention.locality import measure_adjacent_overlap
from repro.attention.policies import ScorePolicy, SprintPolicy


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """``(s, num_heads * d)`` -> ``(num_heads, s, d)`` per-head view."""
    s, total = x.shape
    if total % num_heads:
        raise ValueError(f"width {total} not divisible by {num_heads} heads")
    return x.reshape(s, num_heads, total // num_heads).transpose(1, 0, 2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: ``(H, s, d)`` -> ``(s, H * d)``."""
    num_heads, s, d = x.shape
    return x.transpose(1, 0, 2).reshape(s, num_heads * d)


@dataclass
class HeadStats:
    """Measured statistics for one head on one input."""

    head: int
    pruning_rate: float
    adjacent_overlap: float
    unpruned_mean: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "head": float(self.head),
            "pruning_rate": self.pruning_rate,
            "adjacent_overlap": self.adjacent_overlap,
            "unpruned_mean": self.unpruned_mean,
        }


@dataclass
class MultiHeadResult:
    """Outputs plus per-head statistics from one runtime invocation."""

    outputs: np.ndarray  # (s, num_heads * d)
    head_stats: List[HeadStats] = field(default_factory=list)

    def mean_pruning_rate(self) -> float:
        if not self.head_stats:
            return 0.0
        return float(np.mean([h.pruning_rate for h in self.head_stats]))

    def mean_overlap(self) -> float:
        if not self.head_stats:
            return 0.0
        return float(np.mean([h.adjacent_overlap for h in self.head_stats]))


class MultiHeadRuntime:
    """Run multi-head attention under a policy, collecting head stats.

    Parameters
    ----------
    num_heads:
        Heads to split the projection width into.
    policy:
        Score policy applied identically to every head (the paper learns
        one threshold per *layer*; per-head thresholds emerge from the
        policy's calibration against each head's own scores).
    """

    def __init__(self, num_heads: int, policy: Optional[ScorePolicy] = None):
        if num_heads < 1:
            raise ValueError("num_heads must be positive")
        self.num_heads = num_heads
        self.policy = policy or SprintPolicy(pruning_rate=0.75)

    def run(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        padding_mask: Optional[np.ndarray] = None,
    ) -> MultiHeadResult:
        """Attention over pre-projected ``(s, num_heads * d)`` tensors.

        The policy sees all heads at once, as one ``(H, s, s)`` stack.
        """
        queries = np.asarray(queries, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if queries.shape != keys.shape or keys.shape != values.shape:
            raise ValueError("q/k/v shapes must match")
        q, k, v = (split_heads(m, self.num_heads) for m in (queries, keys, values))
        scale = 1.0 / np.sqrt(q.shape[-1])
        scores = (q @ k.transpose(0, 2, 1)) * scale
        probabilities, keeps = self.policy.process(
            scores, padding_mask, q=q, k=k, scale=scale
        )
        outputs = merge_heads(probabilities @ v)
        stats: List[HeadStats] = []
        for head, keep in enumerate(keeps):
            region = keep if padding_mask is None else keep[
                padding_mask.any(axis=1)
            ][:, padding_mask.any(axis=0)]
            stats.append(
                HeadStats(
                    head=head,
                    pruning_rate=1.0 - float(region.mean())
                    if region.size else 0.0,
                    adjacent_overlap=measure_adjacent_overlap(keep),
                    unpruned_mean=float(keep.sum(axis=1).mean()),
                )
            )
        return MultiHeadResult(outputs=outputs, head_stats=stats)

    def compare_policies(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        policies: Sequence[ScorePolicy],
        padding_mask: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Max output deviation of each policy vs exact attention.

        A convenience used by robustness studies: how far each policy's
        multi-head output drifts from the exact computation.
        """
        exact = self._exact(queries, keys, values, padding_mask)
        deviations = []
        for policy in policies:
            runtime = MultiHeadRuntime(self.num_heads, policy)
            result = runtime.run(queries, keys, values, padding_mask)
            deviations.append(
                float(np.max(np.abs(result.outputs - exact)))
            )
        return deviations

    def _exact(self, queries, keys, values, padding_mask) -> np.ndarray:
        q, k, v = (
            split_heads(np.asarray(m, dtype=np.float64), self.num_heads)
            for m in (queries, keys, values)
        )
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(q.shape[-1]))
        if padding_mask is not None:
            scores = np.where(padding_mask, scores, -1e9)
        return merge_heads(softmax(scores, axis=-1) @ v)
