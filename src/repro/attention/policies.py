"""Score-processing policies for the four accuracy scenarios of Figure 9.

A policy turns raw pre-softmax scores into attention probabilities,
reproducing how each hardware configuration perturbs the computation.
It takes one ``(s, s)`` score matrix or a ``(..., s, s)`` stack of them
(a transformer layer passes all its heads as one ``(H, s, s)`` stack);
every statistic a policy derives -- the calibrated threshold, the noise
scale, the quantization ranges -- is taken per matrix over the last two
axes, so each matrix of a stack comes out bitwise as it would alone:

- :class:`ExactPolicy` -- the software baseline (no pruning).
- :class:`RuntimePruningPolicy` -- ideal learned runtime pruning
  (LeOPArd): exact scores decide, exact scores survive.
- :class:`SprintPolicy` with ``recompute=True`` -- SPRINT: approximate
  in-memory scores decide which keys survive, but the surviving scores
  are recomputed exactly on chip.
- :class:`SprintPolicy` with ``recompute=False`` -- the ablation: the
  approximate scores feed the softmax directly.

The in-memory approximation has two faithful components: the 4-bit
**MSB truncation of both operands** (keys live in 4-bit MLC cells;
queries are DAC-limited to 4 bits) and additive **analog output noise**
(the "5-bit equivalent accuracy" of a 64-tap crossbar dot product).
When the raw ``q``/``k`` operands are available the policy computes the
truncated-operand product; otherwise it falls back to quantizing the
score matrix itself to ``score_bits`` (Eq. 3's ``Score^b_R``, the knob
Figure 5 sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.attention.functional import NEG_INFINITY, softmax
from repro.attention.pruning import calibrate_thresholds, prune_scores
from repro.attention.quantization import (
    MATRIX_AXES,
    quantize_scores,
    symmetric_quantize,
)


class ScorePolicy:
    """Interface: map raw scores (+padding) to probabilities and keep mask.

    ``scores`` is ``(s, s)`` or a ``(..., s, s)`` stack; ``padding_mask``
    broadcasts against it (one ``(s, s)`` mask may serve a whole stack);
    ``q``/``k`` are the matching ``(..., s, d)`` operands.  Both returned
    arrays have the shape of ``scores``.
    """

    def process(
        self,
        scores: np.ndarray,
        padding_mask: Optional[np.ndarray] = None,
        q: Optional[np.ndarray] = None,
        k: Optional[np.ndarray] = None,
        scale: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


def _mask_scores(
    scores: np.ndarray, padding_mask: Optional[np.ndarray]
) -> np.ndarray:
    if padding_mask is None:
        return np.asarray(scores, dtype=np.float64)
    return np.where(padding_mask, scores, NEG_INFINITY)


def msb_truncated_scores(
    q: np.ndarray, k: np.ndarray, msb_bits: int = 4, scale: float = 1.0
) -> np.ndarray:
    """Approximate ``q k^T`` with 4-bit-MSB operands (section III-B).

    Both operands are symmetrically quantized to 8 bits, truncated to
    their ``msb_bits`` MSBs (arithmetic shift, exactly what storing the
    MSB half in MLC cells does), multiplied in the shifted domain, and
    rescaled to score units.  ``q``/``k`` are ``(s, d)`` or ``(..., s,
    d)`` stacks, quantized per matrix.
    """
    if not 0 < msb_bits <= 8:
        raise ValueError("msb_bits must be in (0, 8]")
    qq = symmetric_quantize(q, bits=8, axis=MATRIX_AXES)
    kk = symmetric_quantize(k, bits=8, axis=MATRIX_AXES)
    shift = 8 - msb_bits
    q_m = ((qq.codes >> shift) << shift).astype(np.float64)
    k_m = ((kk.codes >> shift) << shift).astype(np.float64)
    # Exact in float64: every partial sum of products of 8-bit codes is
    # an integer far below 2**53, so the BLAS matmul equals the integer
    # one bit for bit.
    product = q_m @ np.swapaxes(k_m, -1, -2)
    return product * (qq.scale * kk.scale * scale)


@lru_cache(maxsize=16)
def _standard_normal(seed: int, shape: Tuple[int, ...]) -> np.ndarray:
    """The noise pattern of ``seed``: what ``default_rng(seed)`` draws first.

    ``rng.normal(0.0, sigma, size)`` is ``0.0 + sigma * z`` for exactly
    this ``z``, so one cached draw serves every matrix and every sigma.
    """
    z = np.random.default_rng(seed).standard_normal(shape)
    z.flags.writeable = False
    return z


@dataclass
class ExactPolicy(ScorePolicy):
    """Full, unpruned attention (the paper's software baseline)."""

    def process(self, scores, padding_mask=None, q=None, k=None, scale=None):
        masked = _mask_scores(scores, padding_mask)
        if padding_mask is None:
            keep = np.ones_like(masked, dtype=bool)
        else:
            mask = np.asarray(padding_mask, dtype=bool)
            keep = np.broadcast_to(mask, masked.shape).copy()
        return softmax(masked, axis=-1), keep


@dataclass
class RuntimePruningPolicy(ScorePolicy):
    """Ideal learned runtime pruning: exact scores for decision and value."""

    pruning_rate: float

    def process(self, scores, padding_mask=None, q=None, k=None, scale=None):
        masked = _mask_scores(scores, padding_mask)
        threshold = calibrate_thresholds(masked, self.pruning_rate)
        result = prune_scores(masked, threshold)
        return result.probabilities, result.keep_mask

    def threshold_for(self, scores, padding_mask=None):
        """Calibrated threshold: a float for one matrix, one per matrix
        (shape ``scores.shape[:-2]``) for a stack."""
        threshold = calibrate_thresholds(
            _mask_scores(scores, padding_mask), self.pruning_rate
        )
        return float(threshold) if threshold.ndim == 0 else threshold


@dataclass
class SprintPolicy(ScorePolicy):
    """SPRINT's in-memory thresholding, with or without on-chip recompute.

    Parameters
    ----------
    pruning_rate:
        Target rate used to calibrate the learned threshold.
    msb_bits:
        Operand MSBs kept in the transposable ReRAM (4 in the design).
    score_bits:
        When set, additionally quantizes the in-memory score itself to
        ``b`` bits (Eq. 3 / Figure 5 sweep).  ``None`` leaves the analog
        product at its native precision.
    noise_sigma:
        Analog output noise as a fraction of the score std-dev (on top
        of the truncation error).
    recompute:
        ``True`` -> surviving scores recomputed exactly on chip (SPRINT);
        ``False`` -> approximate scores feed the softmax (the ablation).
    threshold_margin:
        Optional negative margin subtracted from the threshold (section
        III-A's noise-compensation knob; costs pruning rate).
    """

    pruning_rate: float
    msb_bits: int = 4
    score_bits: Optional[int] = None
    noise_sigma: float = 0.02
    recompute: bool = True
    threshold_margin: float = 0.0
    seed: int = 0

    # Backwards-friendly alias used by the Figure 5 sweep.
    @property
    def decision_bits(self) -> Optional[int]:
        return self.score_bits

    def _approximate(
        self,
        scores: np.ndarray,
        q: Optional[np.ndarray],
        k: Optional[np.ndarray],
        scale: Optional[float],
    ) -> np.ndarray:
        if q is not None and k is not None:
            approx = msb_truncated_scores(
                q, k, msb_bits=self.msb_bits, scale=scale or 1.0
            )
        else:
            approx = scores
        if self.score_bits is not None:
            approx = quantize_scores(approx, self.score_bits, axis=MATRIX_AXES)
        if self.noise_sigma > 0:
            # Every matrix gets the pattern a fresh default_rng(seed)
            # draws, scaled by that matrix's own score spread.
            per_matrix = scores.reshape(*scores.shape[:-2], -1)
            spread = np.std(per_matrix, axis=-1, keepdims=True)[..., None]
            noise = (self.noise_sigma * spread) * _standard_normal(
                self.seed, approx.shape[-2:]
            )
            # rng.normal(0.0, sigma) draws exactly 0.0 + sigma * z.
            noise += 0.0
            noise += approx
            approx = noise
        return approx

    def process(self, scores, padding_mask=None, q=None, k=None, scale=None):
        scores = np.asarray(scores, dtype=np.float64)
        # The analog dot product operates on raw (finite) operands; the
        # memory controller filters padded keys before thresholding.
        approx = self._approximate(scores, q, k, scale)
        masked_exact = _mask_scores(scores, padding_mask)
        masked_approx = _mask_scores(approx, padding_mask)
        threshold = (
            calibrate_thresholds(masked_exact, self.pruning_rate)
            - self.threshold_margin
        )
        value_scores = masked_exact if self.recompute else masked_approx
        result = prune_scores(
            value_scores, threshold, decision_scores=masked_approx
        )
        return result.probabilities, result.keep_mask
