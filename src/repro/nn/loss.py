"""Loss functions and classification metrics."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_1d_int_array


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise, numerically stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits.

    Returns ``(loss, grad_logits)`` where ``grad_logits`` already includes the
    ``1/N`` averaging factor, so it can be fed straight into ``model.backward``.
    """
    labels = check_1d_int_array(labels, "labels")
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if len(labels) != len(logits):
        raise ValueError("labels and logits must align")
    if len(labels) == 0:
        return 0.0, np.zeros_like(logits)
    if labels.max() >= logits.shape[1]:
        raise ValueError("label id exceeds number of classes")
    probs = softmax(logits.astype(np.float64))
    n = len(labels)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(np.float32)


def accuracy(logits_or_preds: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy; accepts either logits or predicted class ids."""
    labels = check_1d_int_array(labels, "labels")
    if len(labels) == 0:
        return 0.0
    if logits_or_preds.ndim == 2:
        preds = np.argmax(logits_or_preds, axis=1)
    else:
        preds = logits_or_preds.astype(np.int64)
    return float(np.mean(preds == labels))
