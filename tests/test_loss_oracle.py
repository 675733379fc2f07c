"""The training loss held bit for bit to the whole-array expression it replaced.

``SoftmaxCrossEntropyLoss.forward`` normalises one buffer in place and reduces
with ``np.add.reduce``.  :func:`reference_forward` is the expression it
replaced (a fresh array per step, ``np.clip`` and ``np.mean``), kept here as
the oracle: the loss, the cached probabilities (hence ``backward``) and the
label-range error must come out identical for 2-D batches and stacked 3-D
cohort operands.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropyLoss

pytestmark = pytest.mark.cohort


def reference_forward(predictions, targets):
    """The replaced forward: ``(loss, probs)`` or the ``ValueError`` it raised."""
    logits = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(targets).astype(np.int64, copy=False)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[-1]:
        raise ValueError(
            f"labels must lie in [0, {logits.shape[-1]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    grid = np.indices(labels.shape, sparse=True)
    picked = probs[(*grid, labels)]
    losses = -np.mean(np.log(np.clip(picked, 1e-12, None)), axis=-1)
    return (float(losses) if losses.ndim == 0 else losses), probs


def _operands(shape, scale, seed):
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal(shape)
    labels = rng.integers(0, shape[-1], size=shape[:-1])
    return logits, labels


def _assert_same(logits, labels):
    loss_fn = SoftmaxCrossEntropyLoss()
    got = loss_fn.forward(logits, labels)
    want, probs = reference_forward(logits, labels)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    reference_grad = probs.copy()
    reference_grad[(*np.indices(labels.shape, sparse=True), labels)] -= 1.0
    reference_grad /= labels.shape[-1]
    assert loss_fn.backward().tobytes() == reference_grad.tobytes()


@pytest.mark.parametrize("shape", [(1, 2), (32, 10), (7, 3), (4, 16, 10), (3, 1, 5), (2, 3, 8, 4)])
@pytest.mark.parametrize("scale", [1.0, 30.0])
@pytest.mark.parametrize("seed", range(3))
def test_random_operands_match_the_oracle(shape, scale, seed):
    _assert_same(*_operands(shape, scale, seed))


def test_ties_match_the_oracle():
    # Equal logits in a row, and repeated maxima, take the same path.
    logits = np.zeros((3, 6, 5))
    logits[1, :, 2:4] = 7.0
    logits[2] = np.arange(5.0)[::-1]
    labels = np.tile(np.arange(6) % 5, (3, 1))
    _assert_same(logits, labels)
    _assert_same(logits[0], labels[0])


@pytest.mark.parametrize("scale", [1e3, 1e150, 1e300])
def test_large_logits_match_the_oracle(scale):
    # The labelled class far below the row's maximum drives its probability
    # under the 1e-12 floor (or to 0), so the floor decides the loss.
    logits, labels = _operands((5, 12, 10), 1.0, 11)
    logits *= scale
    logits[..., 0] = -scale
    labels[:, ::2] = 0
    _assert_same(logits, labels)
    _assert_same(logits[2], labels[2])


@pytest.mark.parametrize("bad", [-1, 10, 99])
@pytest.mark.parametrize("shape", [(6, 10), (2, 6, 10)])
def test_out_of_range_labels_raise_the_oracle_error(bad, shape):
    logits, labels = _operands(shape, 1.0, 5)
    labels.flat[3] = bad
    with pytest.raises(ValueError) as want:
        reference_forward(logits, labels)
    with pytest.raises(ValueError) as got:
        SoftmaxCrossEntropyLoss().forward(logits, labels)
    assert str(got.value) == str(want.value)

