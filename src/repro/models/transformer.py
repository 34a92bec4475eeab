"""A small pure-numpy transformer encoder with pluggable attention policy.

The accuracy experiments (Figs. 5 and 9) need a model whose task accuracy
responds realistically to perturbations of the attention distribution.
This encoder accepts a :class:`repro.attention.policies.ScorePolicy`
at inference time, so the same forward pass evaluates the software
baseline, ideal runtime pruning, SPRINT, and the no-recompute ablation.
Each attention layer makes one policy call over all of its heads: the
scores go in as an ``(H, s, s)`` stack (with ``(H, s, d)`` query/key
operands and one ``(s, s)`` padding mask), and the policy treats every
head's matrix on its own.

Weights are *constructed*, not trained: inputs carry planted class-signal
directions and a salience component that query/key projections preserve,
so full-precision attention concentrates on the informative tokens and
the task is solvable with high accuracy -- see DESIGN.md section 2 for
the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.attention.functional import softmax
from repro.attention.heads import merge_heads, split_heads
from repro.attention.policies import ExactPolicy, ScorePolicy


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture of the evaluation transformer."""

    seq_len: int = 128
    embed_dim: int = 64
    num_heads: int = 4
    num_layers: int = 2
    num_classes: int = 4
    ffn_dim: int = 128
    seed: int = 7

    @property
    def head_dim(self) -> int:
        if self.embed_dim % self.num_heads:
            raise ValueError("embed_dim must be divisible by num_heads")
        return self.embed_dim // self.num_heads


def _orthogonal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random matrix with orthonormal columns (or rows if rows < cols)."""
    a = rng.normal(size=(rows, cols))
    q, _ = np.linalg.qr(a if rows >= cols else a.T)
    return q if rows >= cols else q.T


@dataclass
class _LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_ffn1: np.ndarray
    w_ffn2: np.ndarray


class TransformerClassifier:
    """Encoder + mean-pool + linear classifier, policy-parameterized.

    The class also exposes :meth:`score_matrices` so experiments can
    extract realistic pre-softmax score distributions for calibration.
    """

    def __init__(self, config: TransformerConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        e = config.embed_dim
        # Class prototype directions (orthonormal) used both to embed the
        # planted signal and to read it out.
        self.class_directions = _orthogonal(rng, e, config.num_classes)
        # Salience direction: signal tokens carry it; the constructed
        # Q/K projections preserve it so q.k is large for signal keys.
        self.salience = _orthogonal(rng, e, 1)[:, 0]
        self.layers: List[_LayerWeights] = []
        for _ in range(config.num_layers):
            near_identity = np.eye(e) + 0.05 * rng.normal(size=(e, e))
            self.layers.append(
                _LayerWeights(
                    w_q=near_identity.copy(),
                    w_k=near_identity.copy(),
                    w_v=np.eye(e) + 0.02 * rng.normal(size=(e, e)),
                    w_o=np.eye(e) + 0.02 * rng.normal(size=(e, e)),
                    w_ffn1=0.1 * rng.normal(size=(e, config.ffn_dim)),
                    w_ffn2=0.1 * rng.normal(size=(config.ffn_dim, e)),
                )
            )
        # (e + 1, num_classes): class prototypes plus a zero bias row;
        # tasks typically replace this via :meth:`fit_readout`.
        self.readout = np.vstack(
            [self.class_directions, np.zeros((1, config.num_classes))]
        )

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------
    def _attention_layer(
        self,
        x: np.ndarray,
        layer: _LayerWeights,
        policy: ScorePolicy,
        padding_mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """One policy call over the layer's ``(H, s, s)`` score stack."""
        heads = self.config.num_heads
        q = split_heads(x @ layer.w_q, heads)
        k = split_heads(x @ layer.w_k, heads)
        v = split_heads(x @ layer.w_v, heads)
        scale = 1.0 / np.sqrt(self.config.head_dim)
        scores = q @ k.transpose(0, 2, 1)
        scores *= scale
        probabilities, _ = policy.process(scores, padding_mask, q=q, k=k, scale=scale)
        return merge_heads(probabilities @ v) @ layer.w_o

    @staticmethod
    def _layer_norm(x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        std = x.std(axis=-1, keepdims=True) + 1e-6
        return (x - mean) / std

    def forward(
        self,
        x: np.ndarray,
        policy: Optional[ScorePolicy] = None,
        valid_len: Optional[int] = None,
    ) -> np.ndarray:
        """Return class logits for one ``(s, e)`` input sequence.

        CLS-style readout: position 0 carries no class information of
        its own, so the logits depend entirely on what its attention
        rows gathered -- the behaviour pruning must preserve.
        """
        return self.features(x, policy, valid_len) @ self.readout

    def features(
        self,
        x: np.ndarray,
        policy: Optional[ScorePolicy] = None,
        valid_len: Optional[int] = None,
    ) -> np.ndarray:
        """CLS hidden state (plus bias feature) after the encoder stack."""
        policy = policy or ExactPolicy()
        s = x.shape[0]
        valid_len = s if valid_len is None else valid_len
        valid = np.zeros(s, dtype=bool)
        valid[:valid_len] = True
        padding_mask = np.outer(valid, valid)
        h = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            attn = self._attention_layer(h, layer, policy, padding_mask)
            h = self._layer_norm(h + attn)
            ffn = np.tanh(h @ layer.w_ffn1) @ layer.w_ffn2
            h = self._layer_norm(h + ffn)
        return np.concatenate([h[0], [1.0]])

    def fit_readout(
        self,
        inputs,
        labels,
        valid_lens,
        ridge: float = 1.0,
    ) -> None:
        """Ridge-regress a classifier head on exact-attention features.

        Stands in for task fine-tuning: only the readout is learned, on
        features produced by *exact* attention, so every approximate
        policy is evaluated against the head the full-precision model
        would deploy (the paper's fine-tuned-then-quantized protocol).
        """
        feats = np.stack(
            [
                self.features(x, ExactPolicy(), vl)
                for x, vl in zip(inputs, valid_lens)
            ]
        )
        labels = np.asarray(labels, dtype=np.int64)
        onehot = np.eye(self.config.num_classes)[labels]
        gram = feats.T @ feats + ridge * np.eye(feats.shape[1])
        self.readout = np.linalg.solve(gram, feats.T @ onehot)

    def predict(
        self,
        x: np.ndarray,
        policy: Optional[ScorePolicy] = None,
        valid_len: Optional[int] = None,
    ) -> int:
        return int(np.argmax(self.forward(x, policy, valid_len)))

    def class_probabilities(
        self,
        x: np.ndarray,
        policy: Optional[ScorePolicy] = None,
        valid_len: Optional[int] = None,
    ) -> np.ndarray:
        return softmax(self.forward(x, policy, valid_len))

    def score_matrices(
        self, x: np.ndarray, layer_index: int = 0
    ) -> List[np.ndarray]:
        """Raw per-head score matrices of one layer (for calibration)."""
        if not 0 <= layer_index < len(self.layers):
            raise IndexError("layer_index out of range")
        h = np.asarray(x, dtype=np.float64)
        layer = self.layers[layer_index]
        q = split_heads(h @ layer.w_q, self.config.num_heads)
        k = split_heads(h @ layer.w_k, self.config.num_heads)
        return list((q @ k.transpose(0, 2, 1)) / np.sqrt(self.config.head_dim))
