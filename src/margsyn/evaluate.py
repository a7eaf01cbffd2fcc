"""Train-on-synthetic-test-on-real metrics: accuracy, ROC-AUC, empirical risk.

Each metric depends only on which rows occur and how often, so the model
scores the dataset's weighted distinct rows (`Dataset.weighted`) once and
each metric weights a row's result by its count.  Accuracy and ROC-AUC are
sums of integer (or half-integer) counts, exact in float64, so they equal
the row-by-row figures bit for bit.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, encode_weighted
from .learn import LinearModel, predict


def accuracy(model: LinearModel, ds: Dataset) -> float:
    """Fraction of rows whose predicted sign matches the label."""
    if ds.n == 0:
        raise ValueError("accuracy needs a non-empty dataset")
    X, y, counts = encode_weighted(ds)
    labels, _ = predict(model, X)
    return float(counts[labels == y].sum() / ds.n)


def _weighted_auc(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> float:
    """ROC-AUC of scored rows that hold pos positives and neg negatives each.

    Over the groups g of equal score, U = sum_g p_g * (negatives below g) +
    p_g * n_g / 2, and AUC = U / (n_pos * n_neg).  Every term is a whole or
    half count, so U is exact in float64.
    """
    _, group = np.unique(scores, return_inverse=True)
    p = np.bincount(group, weights=pos)
    q = np.bincount(group, weights=neg)
    n_pos, n_neg = p.sum(), q.sum()
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs both classes present")
    below = np.cumsum(q) - q
    return float(p @ (below + 0.5 * q)) / float(n_pos * n_neg)


def roc_auc_model(model: LinearModel, ds: Dataset) -> float:
    X, y, counts = encode_weighted(ds)
    _, scores = predict(model, X)
    return _weighted_auc(scores, np.where(y > 0, counts, 0), np.where(y <= 0, counts, 0))


def empirical_risk(model: LinearModel, ds: Dataset) -> float:
    """Mean loss (1/n) sum phi(<w, x> y) under the model's loss spec."""
    if ds.n == 0:
        raise ValueError("empirical risk needs a non-empty dataset")
    X, y, counts = encode_weighted(ds)
    _, scores = predict(model, X)
    return float(counts @ model.loss.value(scores * y)) / ds.n
