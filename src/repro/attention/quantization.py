"""Quantization utilities for SPRINT's mixed analog/digital datapath.

SPRINT stores key vectors as 8-bit integers split into a 4-bit MSB part
(programmed into transposable MLC ReRAM cells, used for the approximate
in-memory dot product) and a 4-bit LSB part (standard ReRAM, fetched only
for the unpruned vectors so the on-chip accelerator can recompute scores
in full 8-bit precision).  Eq. 3 of the paper quantizes the in-memory
score itself to ``b`` bits before the threshold comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

#: The axes of a ``(..., m, n)`` stack that hold one matrix.
MATRIX_AXES = (-2, -1)


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus the scale that maps them back to real values.

    ``codes`` are signed integers in ``[-2**(bits-1), 2**(bits-1) - 1]``;
    ``scale`` is the real value of one code step, so
    ``dequantize(q) == q.codes * q.scale``.  A per-matrix quantization
    of a stack (``axis=MATRIX_AXES``) carries one scale per matrix, as
    an array that broadcasts against ``codes``.
    """

    codes: np.ndarray
    scale: Union[float, np.ndarray]
    bits: int

    @property
    def level_count(self) -> int:
        return 2 ** self.bits


def symmetric_quantize(
    x: np.ndarray, bits: int, axis: Optional[Tuple[int, ...]] = None
) -> QuantizedTensor:
    """Symmetric linear quantization of ``x`` to signed ``bits``-bit codes.

    The scale is chosen from the maximum absolute value so zero is exactly
    representable, matching the straightforward post-training quantization
    the paper applies (no fine-tuning of the quantized values, section VII).

    ``axis=None`` quantizes the whole tensor with one scale.  Otherwise
    the maximum is taken over ``axis`` only (``MATRIX_AXES`` quantizes
    each matrix of a stack on its own) and ``scale`` is an array kept
    broadcastable against ``codes``; each slice gets exactly the codes
    and scale a separate call on it would.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    # One bit is sign-only at full scale: its unit is max_abs itself.
    q_max = 1 if bits == 1 else 2 ** (bits - 1) - 1
    if axis is None:
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        scale = max_abs / q_max if max_abs > 0 else 1.0
    else:
        max_abs = np.max(np.abs(x), axis=axis, keepdims=True)
        scale = np.where(max_abs > 0, max_abs / q_max, 1.0)
    if bits == 1:
        # Sign-only representation: the single bit distinguishes
        # positive from negative at full scale (severely coarse, the
        # leftmost point of the paper's Figure 5 sweep).
        codes = np.where(x >= 0, 1, -1).astype(np.int32)
        codes[x == 0] = 0
        return QuantizedTensor(codes=codes, scale=scale, bits=bits)
    codes = np.clip(np.round(x / scale), -q_max - 1, q_max).astype(np.int32)
    return QuantizedTensor(codes=codes, scale=scale, bits=bits)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map integer codes back to real values."""
    return q.codes.astype(np.float64) * q.scale


def split_msb_lsb(codes: np.ndarray, bits: int = 8, msb_bits: int = 4):
    """Split signed ``bits``-bit codes into MSB and LSB integer parts.

    Returns ``(msb, lsb)`` such that ``msb * 2**lsb_bits + lsb == codes``.
    ``msb`` is signed (arithmetic shift) and is what SPRINT programs into
    the transposable ReRAM; ``lsb`` is unsigned in ``[0, 2**lsb_bits)``.
    """
    if not 0 < msb_bits < bits:
        raise ValueError("msb_bits must be in (0, bits)")
    codes = np.asarray(codes)
    if np.any(codes > 2 ** (bits - 1) - 1) or np.any(codes < -(2 ** (bits - 1))):
        raise ValueError(f"codes out of signed {bits}-bit range")
    lsb_bits = bits - msb_bits
    msb = codes >> lsb_bits  # arithmetic shift: floor division by 2**lsb_bits
    lsb = codes & ((1 << lsb_bits) - 1)
    return msb, lsb


def combine_msb_lsb(
    msb: np.ndarray, lsb: np.ndarray, bits: int = 8, msb_bits: int = 4
) -> np.ndarray:
    """Inverse of :func:`split_msb_lsb`."""
    lsb_bits = bits - msb_bits
    return (np.asarray(msb) << lsb_bits) + np.asarray(lsb)


def quantize_scores(
    scores: np.ndarray, bits: int, axis: Optional[Tuple[int, ...]] = None
) -> np.ndarray:
    """Quantize attention scores to ``b`` bits, returning *real* values.

    This models ``Score^b_R`` in Eq. 3: the limited-precision in-memory
    score compared against the learned threshold.  The analog column
    current spans the observed score range, so quantization is *affine*
    over ``[min, max]`` with ``2**b`` uniformly spaced levels -- at
    ``b = 1`` the representable values collapse to the range endpoints,
    which over-prunes aggressively (the cliff on the left of Figure 5).

    ``axis=None`` takes the range of the whole tensor; otherwise the
    range is taken over ``axis`` only (``MATRIX_AXES``: per matrix of a
    stack), bitwise as if each slice were quantized on its own.  A
    constant tensor or slice is returned unchanged.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        return scores.copy()
    levels = 2 ** bits - 1
    lo = np.min(scores, axis=axis, keepdims=True)
    hi = np.max(scores, axis=axis, keepdims=True)
    flat = hi <= lo
    step = np.where(flat, 1.0, (hi - lo) / levels)
    # lo + round((scores - lo) / step) * step, without fresh temporaries.
    out = scores - lo
    out /= step
    np.round(out, out=out)
    out *= step
    out += lo
    return np.where(flat, scores, out) if flat.any() else out
