"""Train-on-synthetic-test-on-real metrics: accuracy, ROC-AUC, empirical risk."""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, encode_xy
from .learn import LinearModel, predict


def accuracy(model: LinearModel, ds: Dataset) -> float:
    """Fraction of rows whose predicted sign matches the label."""
    if ds.n == 0:
        raise ValueError("accuracy needs a non-empty dataset")
    X, y = encode_xy(ds)
    labels, _ = predict(model, X)
    return float(np.mean(labels == y))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank span."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    ranks = np.empty(values.shape[0], dtype=np.float64)
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(scores, labels) -> float:
    """P(score_+ > score_-) + P(tie)/2, by rank summation with average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n_pos = int(np.sum(labels > 0))
    n_neg = int(np.sum(labels <= 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum_pos = float(ranks[labels > 0].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc_model(model: LinearModel, ds: Dataset) -> float:
    X, y = encode_xy(ds)
    _, scores = predict(model, X)
    return roc_auc(scores, y)


def empirical_risk(model: LinearModel, ds: Dataset) -> float:
    """Mean loss (1/n) sum phi(<w, x> y) under the model's loss spec."""
    if ds.n == 0:
        raise ValueError("empirical risk needs a non-empty dataset")
    X, y = encode_xy(ds)
    _, scores = predict(model, X)
    return float(np.mean(model.loss.value(scores * y)))


def excess_empirical_risk(model_syn: LinearModel, model_real: LinearModel,
                          ds: Dataset) -> float:
    """Signed risk gap L(w_s, D) - L(w_r, D) on the same evaluation data."""
    return empirical_risk(model_syn, ds) - empirical_risk(model_real, ds)
