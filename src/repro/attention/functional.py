"""Exact (full-precision) self-attention primitives in numpy.

These functions are the reference implementation against which every
approximate path (quantized in-memory scores, pruned softmax, fixed-point
on-chip arithmetic) is validated.  Shapes follow the paper's notation:
``s`` is the sequence length and ``d`` the per-head embedding size
(d = 64 for every model in the paper's evaluation, Table I).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Value used to nullify masked / pruned scores before softmax.  The paper
#: calls this "a sufficiently large negative value" (-c in Eq. 3).
NEG_INFINITY = -1.0e9


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Rows consisting entirely of :data:`NEG_INFINITY` (fully masked rows in
    the padded region) return a uniform distribution rather than NaN, which
    mirrors hardware behaviour where those rows are simply never consumed.
    """
    x = np.asarray(x, dtype=np.float64)
    # In place after the first subtraction: the same values as fresh
    # temporaries, at a fraction of the allocation cost on large stacks.
    out = x - np.max(x, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def attention_probabilities(
    queries: np.ndarray,
    keys: np.ndarray,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute raw scores and softmax probabilities for ``Q x K^T``.

    Parameters
    ----------
    queries:
        ``(s, d)`` query matrix.
    keys:
        ``(s, d)`` key matrix.
    mask:
        Optional boolean ``(s, s)`` matrix; ``False`` entries are nullified
        with :data:`NEG_INFINITY` before the softmax (padding mask).
    scale:
        Score scaling factor; defaults to ``1/sqrt(d)``.

    Returns
    -------
    (scores, probabilities):
        Both ``(s, s)``; ``scores`` are the *masked* pre-softmax scores.
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if queries.ndim != 2 or keys.ndim != 2:
        raise ValueError("queries and keys must be rank-2 (s, d) matrices")
    if queries.shape[1] != keys.shape[1]:
        raise ValueError(
            f"embedding mismatch: queries d={queries.shape[1]}, "
            f"keys d={keys.shape[1]}"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(queries.shape[1])
    scores = (queries @ keys.T) * scale
    if mask is not None:
        scores = np.where(mask, scores, NEG_INFINITY)
    return scores, softmax(scores, axis=-1)


def scaled_dot_product_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    mask: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Full-precision ``softmax(Q K^T / sqrt(d)) V`` for a single head."""
    _, probabilities = attention_probabilities(queries, keys, mask, scale)
    return probabilities @ np.asarray(values, dtype=np.float64)


def multi_head_attention(
    x: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray,
    w_v: np.ndarray,
    w_o: np.ndarray,
    num_heads: int,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Multi-headed self-attention over input embeddings ``x``.

    Parameters
    ----------
    x:
        ``(s, e)`` input embeddings.
    w_q, w_k, w_v:
        ``(e, num_heads * d)`` projection matrices.
    w_o:
        ``(num_heads * d, e)`` output projection.
    num_heads:
        Number of attention heads; projections are split evenly.
    mask:
        Optional ``(s, s)`` boolean padding mask shared across heads.
    """
    x = np.asarray(x, dtype=np.float64)
    s = x.shape[0]
    proj_q = x @ w_q
    proj_k = x @ w_k
    proj_v = x @ w_v
    total = proj_q.shape[1]
    if total % num_heads:
        raise ValueError(
            f"projection width {total} not divisible by {num_heads} heads"
        )
    d = total // num_heads
    head_outputs = np.empty((s, total), dtype=np.float64)
    for h in range(num_heads):
        sl = slice(h * d, (h + 1) * d)
        head_outputs[:, sl] = scaled_dot_product_attention(
            proj_q[:, sl], proj_k[:, sl], proj_v[:, sl], mask=mask
        )
    return head_outputs @ w_o
