"""Synthetic demo datasets with a planted linear signal.

Written to disk by `margsyn demo` and used by the end-to-end tests; real
data enters the pipeline through the CSV path instead.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, Schema


def make_demo_dataset(m: int = 4, n: int = 2000, seed: int = 0,
                      sizes: tuple[int, ...] | None = None,
                      signal: float = 1.5) -> Dataset:
    """Independent categorical features and a label following a logistic model.

    The label is drawn with P(y=1 | x) = sigmoid(signal * <w, enc(x)>) for a
    fixed alternating-sign weight pattern, so linear models have something to
    learn at every desk scale.
    """
    if sizes is None:
        sizes = tuple([2] * m)
    if len(sizes) != m:
        raise ValueError("sizes must list one domain size per feature")
    rng = np.random.default_rng(seed)
    names = tuple(f"x{j}" for j in range(m)) + ("label",)
    schema = Schema(names, tuple(sizes) + (2,))
    feats = np.stack([rng.integers(0, s, size=n) for s in sizes], axis=1)
    w = np.array([(1.0 if j % 2 == 0 else -0.7) / np.sqrt(m) for j in range(m)])
    scores = np.zeros(n)
    for j in range(m):
        scores += w[j] * (2.0 * feats[:, j] / (sizes[j] - 1) - 1.0)
    p_pos = 1.0 / (1.0 + np.exp(-signal * scores))
    labels = (rng.random(n) < p_pos).astype(np.int64)
    return Dataset(schema, np.column_stack([feats, labels]))
