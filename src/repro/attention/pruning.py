"""Learned-threshold runtime pruning (the mechanism SPRINT accelerates).

The paper builds on LeOPArd-style *learned runtime pruning*: a per-layer
threshold, learned during fine-tuning, is compared against every
pre-softmax score.  Scores below the threshold are replaced by a large
negative constant so the softmax drives their probability to zero
(Eq. 3).  SPRINT moves the *comparison* into ReRAM using approximate
scores; this module provides both the exact comparison and the
approximate variant used for in-memory thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.attention.functional import NEG_INFINITY, softmax
from repro.attention.quantization import quantize_scores


@dataclass(frozen=True)
class PruningResult:
    """Outcome of a runtime-pruning pass over a score matrix or a stack.

    Attributes
    ----------
    keep_mask:
        Boolean ``(..., s, s)``; ``True`` where the key survives for that
        query.
    scores:
        The ``(..., s, s)`` scores with pruned entries nullified.
    probabilities:
        Softmax over :attr:`scores`.
    threshold:
        The threshold the comparison used: a float for one matrix, one
        value per matrix (shape ``scores.shape[:-2]``) for a stack.
    """

    keep_mask: np.ndarray
    scores: np.ndarray
    probabilities: np.ndarray
    threshold: Union[float, np.ndarray]

    @property
    def pruning_rate(self) -> float:
        """Fraction of (query, key) score entries removed."""
        return 1.0 - float(np.mean(self.keep_mask))

    def unpruned_counts(self) -> np.ndarray:
        """Number of surviving keys per query (shape ``(..., s)``)."""
        return self.keep_mask.sum(axis=-1)

    def pruning_vectors(self) -> np.ndarray:
        """Binary pruning vectors as the hardware emits them.

        Follows the paper's memory-controller convention ('1' -> pruned,
        '0' -> unpruned, section V-C).
        """
        return (~self.keep_mask).astype(np.uint8)


def masked_quantile(values: np.ndarray, valid: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(values[i][valid[i]], q)`` for every row ``i``, bitwise.

    ``values`` and ``valid`` are ``(..., n)``; each row is reduced to
    the ``q`` quantile of its valid entries, and every row needs at
    least one.  This is numpy's default ("linear") method written out
    over a whole stack at once: invalid entries are parked at ``+inf``,
    one row-wise sort puts every row's order statistics in place (a
    multi-``kth`` partition is slower than numpy's vectorized sort), and
    numpy's own lerp formula interpolates between the two neighbours,
    so each result equals the one-row ``np.quantile`` call to the bit.
    The one exception is a zero result from a row holding zeros of both
    signs: equal keys have no defined order, so the sign may differ.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.count_nonzero(valid, axis=-1)
    virtual = (counts - 1) * np.float64(q)
    lower = np.floor(virtual)
    # At the top order statistic numpy interpolates the last element
    # with itself, taking the weight from index -1; the weight still
    # picks the lerp branch, and so the sign of a zero result.
    top = virtual >= counts - 1
    gamma = virtual - np.where(top, -1.0, lower)
    below = np.where(top, counts - 1, lower.astype(np.intp))
    above = np.where(top, below, below + 1)
    ordered = np.where(valid, values, np.inf)
    ordered.sort(axis=-1)
    a = np.take_along_axis(ordered, below[..., None], axis=-1)[..., 0]
    b = np.take_along_axis(ordered, above[..., None], axis=-1)[..., 0]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def calibrate_thresholds(
    scores: np.ndarray, target_pruning_rate: float
) -> np.ndarray:
    """Per-matrix :func:`calibrate_threshold` over a ``(..., s, s)`` stack.

    Returns one threshold per matrix (shape ``scores.shape[:-2]``), each
    what :func:`calibrate_threshold` returns for that matrix alone: the
    quantile of its finite (unmasked) scores, to the bit (up to the sign
    of a zero threshold, which no ``>=`` comparison can tell apart; see
    :func:`masked_quantile`).
    """
    if not 0.0 <= target_pruning_rate < 1.0:
        raise ValueError("target_pruning_rate must be in [0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    flat = scores.reshape(*scores.shape[:-2], -1)
    finite = flat > NEG_INFINITY / 2
    if not finite.any(axis=-1).all():
        raise ValueError("no finite scores to calibrate against")
    return masked_quantile(flat, finite, target_pruning_rate)


def calibrate_threshold(scores: np.ndarray, target_pruning_rate: float) -> float:
    """Pick the threshold that yields ``target_pruning_rate`` on ``scores``.

    The paper *learns* thresholds during task fine-tuning and reports the
    resulting pruning rate per model (section VII).  Without the original
    fine-tuning pipeline we invert the relationship: given a calibration
    score sample, choose the quantile that reproduces the published rate.
    All of ``scores`` is one sample, whatever its shape; see
    :func:`calibrate_thresholds` for one threshold per matrix of a stack.
    """
    if not 0.0 <= target_pruning_rate < 1.0:
        raise ValueError("target_pruning_rate must be in [0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    finite = scores[scores > NEG_INFINITY / 2]
    if finite.size == 0:
        raise ValueError("no finite scores to calibrate against")
    return float(np.quantile(finite, target_pruning_rate))


def prune_scores(
    scores: np.ndarray,
    threshold: float,
    *,
    decision_scores: Optional[np.ndarray] = None,
    keep_self: bool = True,
) -> PruningResult:
    """Apply Eq. 3: threshold-compare, nullify, softmax.

    Parameters
    ----------
    scores:
        Full-precision ``(s, s)`` pre-softmax scores, or a ``(..., s, s)``
        stack of them.  These are the values the surviving entries keep
        (the *recompute* path).
    threshold:
        Learned threshold ``Th``: one float, or one value per matrix of
        the stack (shape ``scores.shape[:-2]``).
    decision_scores:
        Scores used for the *comparison* only.  Pass the b-bit / noisy
        in-memory scores to model SPRINT's approximate thresholding; by
        default the exact scores decide (ideal runtime pruning).
    keep_self:
        Always keep the diagonal (a query's own key), which self-attention
        pruning schemes preserve to keep every row's softmax well defined.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if decision_scores is None:
        decision_scores = scores
    decision_scores = np.asarray(decision_scores, dtype=np.float64)
    if decision_scores.shape != scores.shape:
        raise ValueError("decision_scores shape must match scores")
    threshold = np.asarray(threshold, dtype=np.float64)
    keep = decision_scores >= threshold[..., None, None]
    if keep_self:
        diagonal = np.arange(min(keep.shape[-2:]))
        keep[..., diagonal, diagonal] = True
    # Never prune everything in a row: keep the row maximum so softmax has
    # at least one finite entry (hardware equivalently falls back to the
    # strongest key when the analog comparator rejects all columns).
    empty_rows = ~keep.any(axis=-1)
    if np.any(empty_rows):
        rows = np.nonzero(empty_rows)
        best = np.argmax(decision_scores[rows], axis=-1)
        keep[rows + (best,)] = True
    pruned = np.where(keep, scores, NEG_INFINITY)
    return PruningResult(
        keep_mask=keep,
        scores=pruned,
        probabilities=softmax(pruned, axis=-1),
        threshold=float(threshold) if threshold.ndim == 0 else threshold,
    )


def runtime_prune(
    scores: np.ndarray,
    target_pruning_rate: float,
    *,
    decision_bits: Optional[int] = None,
    noise_sigma: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    keep_self: bool = True,
) -> PruningResult:
    """Calibrate a threshold and prune, optionally with approximate scores.

    ``decision_bits`` quantizes the comparison scores to ``b`` bits (Fig. 5
    sensitivity study); ``noise_sigma`` adds Gaussian analog noise relative
    to the score standard deviation (circuit inaccuracies, section III-A).
    """
    scores = np.asarray(scores, dtype=np.float64)
    threshold = calibrate_threshold(scores, target_pruning_rate)
    decision = scores
    if decision_bits is not None:
        decision = quantize_scores(decision, decision_bits)
    if noise_sigma > 0.0:
        rng = rng or np.random.default_rng()
        decision = decision + rng.normal(
            0.0, noise_sigma * float(np.std(scores)), size=scores.shape
        )
    return prune_scores(
        scores, threshold, decision_scores=decision, keep_self=keep_self
    )
