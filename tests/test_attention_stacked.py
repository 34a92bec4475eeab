"""Stacked ``(..., s, s)`` policies against per-matrix 2-D calls, bitwise.

A transformer layer hands all its heads to one ``ScorePolicy.process``
call.  Every matrix of such a stack must come out exactly as a separate
2-D call on it would: same probabilities, same keep mask, to the bit.
The 2-D calls are in turn checked against a direct transcription of the
per-head formulas (``np.quantile`` thresholds, an int64 truncated
product, ``rng.normal`` noise), so the float64 rewrites cannot drift.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention.functional import NEG_INFINITY, softmax
from repro.attention.policies import (
    ExactPolicy,
    RuntimePruningPolicy,
    SprintPolicy,
    msb_truncated_scores,
)
from repro.attention.pruning import (
    calibrate_threshold,
    calibrate_thresholds,
    masked_quantile,
    prune_scores,
)
from repro.attention.quantization import (
    MATRIX_AXES,
    quantize_scores,
    split_msb_lsb,
    symmetric_quantize,
)

HEADS, SEQ, DIM = 3, 20, 8
SCALE = 1.0 / np.sqrt(DIM)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def padding_masks(valid_lens):
    masks = []
    for valid_len in valid_lens:
        valid = np.arange(SEQ) < valid_len
        masks.append(np.outer(valid, valid))
    return np.stack(masks)


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(42)
    q = rng.normal(size=(HEADS, SEQ, DIM)) * np.array([[[0.5]], [[1.0]], [[3.0]]])
    k = rng.normal(size=(HEADS, SEQ, DIM))
    return q, k, (q @ k.transpose(0, 2, 1)) * SCALE


def sprint_configs():
    for recompute in (True, False):
        for score_bits in (None, *range(1, 9)):
            for msb_bits in (4, 8):
                for noise_sigma in (0.0, 0.02):
                    yield SprintPolicy(
                        0.6,
                        msb_bits=msb_bits,
                        score_bits=score_bits,
                        noise_sigma=noise_sigma,
                        recompute=recompute,
                        threshold_margin=0.05 if score_bits == 3 else 0.0,
                        seed=score_bits or 0,
                    )


POLICIES = [ExactPolicy(), RuntimePruningPolicy(0.5), *sprint_configs()]


class TestStackEqualsSlices:
    @pytest.mark.parametrize("policy", POLICIES, ids=repr)
    @pytest.mark.parametrize("mask_kind", ["none", "shared", "per-head"])
    @pytest.mark.parametrize("with_operands", [True, False], ids=["qk", "scores"])
    def test_process(self, operands, policy, mask_kind, with_operands):
        q, k, scores = operands
        mask = {
            "none": None,
            "shared": padding_masks([14])[0],
            "per-head": padding_masks([SEQ, 9, 1]),
        }[mask_kind]
        qk = {"q": q, "k": k, "scale": SCALE} if with_operands else {}
        probs, keep = policy.process(scores, mask, **qk)
        assert probs.shape == keep.shape == scores.shape
        for h in range(HEADS):
            head_mask = mask if mask is None or mask.ndim == 2 else mask[h]
            head_qk = {"q": q[h], "k": k[h], "scale": SCALE}
            if not with_operands:
                head_qk = {}
            p_h, keep_h = policy.process(scores[h], head_mask, **head_qk)
            assert_bitwise(probs[h], p_h)
            assert_bitwise(keep[h], keep_h)

    @pytest.mark.parametrize("msb_bits", range(1, 9))
    def test_msb_truncated_scores(self, operands, msb_bits):
        q, k, _ = operands
        stacked = msb_truncated_scores(q, k, msb_bits=msb_bits, scale=SCALE)
        for h in range(HEADS):
            assert_bitwise(
                stacked[h], msb_truncated_scores(q[h], k[h], msb_bits, SCALE)
            )

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_quantizers(self, operands, bits):
        _, _, scores = operands
        stack = np.concatenate([scores, np.zeros((1, SEQ, SEQ))])
        quantized = quantize_scores(stack, bits, axis=MATRIX_AXES)
        codes = symmetric_quantize(stack, bits, axis=MATRIX_AXES)
        for h, matrix in enumerate(stack):
            assert_bitwise(quantized[h], quantize_scores(matrix, bits))
            single = symmetric_quantize(matrix, bits)
            assert_bitwise(codes.codes[h], single.codes)
            assert codes.scale[h, 0, 0] == single.scale

    def test_thresholds_and_pruning(self, operands):
        _, _, scores = operands
        masked = np.where(padding_masks([SEQ, 9, 1]), scores, NEG_INFINITY)
        thresholds = calibrate_thresholds(masked, 0.7)
        stacked = prune_scores(masked, thresholds)
        assert stacked.threshold.shape == (HEADS,)
        for h in range(HEADS):
            threshold = calibrate_threshold(masked[h], 0.7)
            assert thresholds[h] == threshold
            single = prune_scores(masked[h], threshold)
            assert_bitwise(stacked.keep_mask[h], single.keep_mask)
            assert_bitwise(stacked.probabilities[h], single.probabilities)
            assert_bitwise(stacked.unpruned_counts()[h], single.unpruned_counts())

    def test_empty_rows_fall_back_to_their_best_key(self):
        decision = np.full((2, 4, 4), -5.0)
        decision[1, 2, 3] = -1.0
        result = prune_scores(
            np.zeros((2, 4, 4)), 0.0, decision_scores=decision, keep_self=False
        )
        for h in range(2):
            single = prune_scores(
                np.zeros((4, 4)), 0.0, decision_scores=decision[h], keep_self=False
            )
            assert_bitwise(result.keep_mask[h], single.keep_mask)
        assert result.keep_mask[1, 2, 3] and result.keep_mask.sum() == 8

    def test_calibration_needs_finite_scores_in_every_matrix(self, operands):
        _, _, scores = operands
        stack = scores.copy()
        stack[1] = NEG_INFINITY
        with pytest.raises(ValueError, match="no finite scores"):
            calibrate_thresholds(stack, 0.5)


def reference_sprint(policy, scores, mask, q, k, scale):
    """The per-head SprintPolicy formulas, transcribed directly."""
    qq = symmetric_quantize(q, bits=8)
    kk = symmetric_quantize(k, bits=8)
    if policy.msb_bits == 8:
        product = qq.codes.astype(np.int64) @ kk.codes.astype(np.int64).T
    else:
        shift = 8 - policy.msb_bits
        q_m, _ = split_msb_lsb(qq.codes, bits=8, msb_bits=policy.msb_bits)
        k_m, _ = split_msb_lsb(kk.codes, bits=8, msb_bits=policy.msb_bits)
        q_m = q_m.astype(np.int64) << shift
        k_m = k_m.astype(np.int64) << shift
        product = q_m @ k_m.T
    approx = product * (qq.scale * kk.scale * scale)
    if policy.score_bits is not None:
        approx = quantize_scores(approx, policy.score_bits)
    if policy.noise_sigma > 0:
        rng = np.random.default_rng(policy.seed)
        sigma = policy.noise_sigma * float(np.std(scores))
        approx = approx + rng.normal(0.0, sigma, size=approx.shape)
    exact = np.where(mask, scores, NEG_INFINITY)
    decision = np.where(mask, approx, NEG_INFINITY)
    finite = exact[exact > NEG_INFINITY / 2]
    threshold = float(np.quantile(finite, policy.pruning_rate))
    threshold -= policy.threshold_margin
    keep = decision >= threshold
    np.fill_diagonal(keep, True)
    empty = ~keep.any(axis=1)
    keep[np.nonzero(empty)[0], np.argmax(decision[empty], axis=1)] = True
    values = exact if policy.recompute else decision
    return softmax(np.where(keep, values, NEG_INFINITY)), keep


@pytest.mark.parametrize(
    "policy", [p for p in sprint_configs() if p.score_bits in (None, 1, 3)], ids=repr
)
def test_sprint_matches_per_head_formulas(operands, policy):
    q, k, scores = operands
    mask = padding_masks([SEQ, 9, 1])
    probs, keep = policy.process(scores, mask, q=q, k=k, scale=SCALE)
    for h in range(HEADS):
        ref_probs, ref_keep = reference_sprint(
            policy, scores[h], mask[h], q[h], k[h], SCALE
        )
        assert_bitwise(probs[h], ref_probs)
        assert_bitwise(keep[h], ref_keep)


@st.composite
def ragged_rows(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    values = rng.normal(size=(rows, width)) * spread
    if draw(st.booleans()):  # ties
        values = np.round(values)
    valid = np.zeros((rows, width), dtype=bool)
    for row in range(rows):
        count = draw(st.integers(min_value=1, max_value=width))
        valid[row, rng.choice(width, size=count, replace=False)] = True
    return values, valid


class TestMaskedQuantile:
    @given(
        ragged_rows(),
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([0.0, 0.5, 0.6, 0.75, 0.9, 1.0]),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_np_quantile_bitwise(self, rows, q):
        values, valid = rows
        result = masked_quantile(values, valid, q)
        for row in range(values.shape[0]):
            sample = values[row][valid[row]]
            expected = np.quantile(sample, q)
            zero_signs = set(np.signbit(sample[sample == 0]))
            if expected == 0 and len(zero_signs) == 2:
                # +0 and -0 are equal keys: numpy's partition and a sort
                # may leave either one at the selected position.
                assert result[row] == 0
            else:
                assert_bitwise(result[row], expected)

    def test_leading_axes_are_kept(self):
        values = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        result = masked_quantile(values, np.ones_like(values, dtype=bool), 0.5)
        assert result.shape == (2, 3)
        assert_bitwise(result, np.quantile(values, 0.5, axis=-1))
