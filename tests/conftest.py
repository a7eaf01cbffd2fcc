import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from margsyn.dataset import Dataset, Schema
from margsyn.marginals import compute_marginal
from margsyn.synth import _largest_remainder_round

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def two_binary_rows():
    """Rows {(0,0),(0,1),(1,1),(1,1)} over one binary feature plus label."""
    schema = Schema(("a", "label"), (2, 2))
    return Dataset(schema, np.array([[0, 0], [0, 1], [1, 1], [1, 1]]))


@pytest.fixture
def three_binary_schema():
    return Schema(("a", "b", "c", "label"), (2, 2, 2, 2))


def random_dataset(schema: Schema, n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    codes = np.column_stack([rng.integers(0, s, size=n) for s in schema.sizes])
    return Dataset(schema, codes)


def dense_marginal_matrix(schema: Schema, queries) -> np.ndarray:
    """A as a dense matrix: column c is the marginal vector of the one-row dataset in cell c."""
    sizes = schema.sizes
    cells = np.stack(np.unravel_index(np.arange(int(np.prod(sizes))), sizes), axis=1)
    return np.column_stack([
        np.concatenate([compute_marginal(Dataset(schema, row[None, :]), q).counts for q in queries])
        for row in cells])


def reference_exhaustive_counts(n: int, nm) -> np.ndarray:
    """Cell counts of the exhaustive min-max scan, one candidate at a time."""
    cells = int(np.prod(nm.schema.sizes))
    op, target = nm.operator, nm.target
    best_counts = None
    best_obj = math.inf
    for combo in combinations_with_replacement(range(cells), n):
        counts = np.bincount(np.asarray(combo, dtype=np.int64), minlength=cells).astype(np.float64)
        obj = float(op.l1_to(counts, target).max())
        if obj < best_obj:
            best_obj = obj
            best_counts = counts
    return best_counts


def reference_greedy_counts(n: int, nm) -> np.ndarray:
    """Cell counts of the greedy min-max descent, every query scored at every step."""
    schema = nm.schema
    cells = int(np.prod(schema.sizes))
    op = nm.operator
    bin_maps = op.bin_maps
    eq_masks = [bm[:, None] == bm[None, :] for bm in bin_maps]
    max_steps = 200 + 40 * n

    def descend(counts: np.ndarray) -> tuple[np.ndarray, float]:
        counts = counts.astype(np.float64)
        resid = np.split(nm.target - op.forward(counts), op.offsets[1:])
        l1 = np.array([np.abs(r).sum() for r in resid])
        for _ in range(max_steps):
            obj = float(l1.max())
            cand = None
            for qi, (bm, r) in enumerate(zip(bin_maps, resid)):
                rb = r[bm]
                d_remove = np.abs(rb + 1.0) - np.abs(rb)  # take one row out of cell i
                d_add = np.abs(rb - 1.0) - np.abs(rb)     # put one row into cell j
                mq = l1[qi] + d_remove[:, None] + d_add[None, :]
                mq[eq_masks[qi]] = l1[qi]
                cand = mq if cand is None else np.maximum(cand, mq)
            cand[counts <= 0, :] = math.inf
            np.fill_diagonal(cand, math.inf)
            flat = int(np.argmin(cand))
            i, j = divmod(flat, cells)
            if not cand[i, j] < obj - 1e-12:
                break
            counts[i] -= 1.0
            counts[j] += 1.0
            for qi, bm in enumerate(bin_maps):
                bi, bj = bm[i], bm[j]
                if bi != bj:
                    r = resid[qi]
                    l1[qi] += (abs(r[bi] + 1.0) - abs(r[bi])) + (abs(r[bj] - 1.0) - abs(r[bj]))
                    r[bi] += 1.0
                    r[bj] -= 1.0
        return counts, float(l1.max())

    starts = [_largest_remainder_round(np.ones(cells), n)]
    one_way = {m.query.attrs[0]: m for m in nm.marginals if m.query.order == 1}
    if len(one_way) == schema.num_attributes:
        probs = np.ones(1)
        for j in range(schema.num_attributes):
            col = np.maximum(one_way[j].counts, 0.0)
            col = np.full(schema.sizes[j], 1.0 / schema.sizes[j]) if col.sum() <= 0 else col / col.sum()
            probs = np.multiply.outer(probs, col).ravel()
        starts.append(_largest_remainder_round(probs, n))

    best_counts, best_obj = None, math.inf
    for start in starts:
        counts, obj = descend(start)
        if obj < best_obj:
            best_counts, best_obj = counts, obj
    return best_counts
