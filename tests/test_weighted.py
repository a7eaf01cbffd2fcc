"""Training, scoring and marginal counts on weighted distinct rows match the row-by-row formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margsyn import evaluate, learn
from margsyn.dataset import Dataset, Schema
from margsyn.demo import make_demo_dataset
from margsyn.evaluate import accuracy, empirical_risk, roc_auc_model
from margsyn.learn import LinearModel, LossSpec, TrainConfig, train_projected
from margsyn.marginals import MarginalQuery, compute_marginal, enumerate_queries

from conftest import (reference_encode_xy as encode_xy, reference_risk_and_grad, reference_row_multiset,
                      reference_scores)

WIDE = Schema(tuple(f"f{j}" for j in range(70)) + ("label",), (2,) * 71)  # 2^71 cells


def make_schema(sizes) -> Schema:
    sizes = tuple(sizes) + (2,)
    return Schema(tuple(f"a{j}" for j in range(len(sizes) - 1)) + ("label",), sizes)


def pooled_dataset(schema: Schema, pool: int, n: int, seed: int) -> Dataset:
    """n rows whose features come from `pool` random feature rows, with random labels.

    Duplication grows as the pool shrinks, and rows with equal features but
    opposite labels tie in score.
    """
    rng = np.random.default_rng(seed)
    base = np.column_stack([rng.integers(0, s, size=pool) for s in schema.sizes[:-1]])
    return Dataset(schema, np.column_stack([base[rng.integers(0, pool, size=n)], rng.integers(0, 2, size=n)]))


def all_cells(schema: Schema, seed: int) -> Dataset:
    """Every cell of the domain once, in shuffled order: all rows distinct."""
    cells = np.stack(np.unravel_index(np.arange(math.prod(schema.sizes)), schema.sizes), axis=1)
    return Dataset(schema, np.random.default_rng(seed).permutation(cells))


@st.composite
def datasets(draw, max_features=4):
    schema = make_schema(draw(st.lists(st.integers(2, 5), min_size=1, max_size=max_features)))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return all_cells(schema, seed) if math.prod(schema.sizes) <= 400 else pooled_dataset(schema, 400, 400, seed)
    return pooled_dataset(schema, draw(st.integers(1, 8)), draw(st.integers(1, 120)), seed)


def fixed_datasets():
    return [
        pytest.param(pooled_dataset(make_schema((3, 2)), 1, 1, 0), id="n=1"),
        pytest.param(all_cells(make_schema((2, 3, 4)), 1), id="all-distinct"),
        pytest.param(pooled_dataset(make_schema((2, 2, 2, 2)), 3, 5000, 2), id="heavy-duplication"),
        pytest.param(pooled_dataset(make_schema((5, 3, 4)), 6, 301, 3), id="non-binary"),
        # 9 features and n = 4k + 3: a BLAS product rounds the last rows of a matrix differently
        pytest.param(pooled_dataset(make_schema((3,) * 9), 5, 403, 6), id="9-ternary-duplicated"),
        pytest.param(pooled_dataset(WIDE, 40, 400, 4), id="71-binary-duplicated"),
        pytest.param(pooled_dataset(WIDE, 300, 300, 5), id="71-binary-distinct"),
    ]


def train_row_by_row(ds: Dataset, spec: LossSpec, tau: float, cfg: TrainConfig) -> LinearModel:
    """train_projected with the risk and gradient taken over all n rows, one by one."""
    X, y = encode_xy(ds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learn, "_risk_and_grad", lambda w, *_: reference_risk_and_grad(w, X, y, spec))
        return train_projected(ds, spec, tau, cfg)


LOSSES = [
    (LossSpec.logistic(), lambda m: 0.5),
    (LossSpec.logistic(), lambda m: math.inf),
    (LossSpec.gamma_margin(0.5), lambda m: 0.9 / math.sqrt(m)),  # margins stay in [-1, 1]
    (LossSpec.from_table((-2.0, 0.0, 1.0), (3.0, 1.0, 0.0)), lambda m: 1.0),
]


def check_training(ds: Dataset, loss: int) -> None:
    spec, tau_of = LOSSES[loss]
    tau = tau_of(ds.schema.num_features)
    cfg = TrainConfig(max_iters=100)
    got = train_projected(ds, spec, tau, cfg).w
    want = train_row_by_row(ds, spec, tau, cfg).w
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def check_scores(ds: Dataset, seed: int) -> None:
    w = np.random.default_rng(seed).normal(0.0, 1.0, ds.schema.num_features)
    model = LinearModel(w, math.inf, LossSpec.logistic())
    want = reference_scores(model, ds)
    assert accuracy(model, ds) == want["accuracy"]
    if want["roc_auc"] is None:
        with pytest.raises(ValueError):
            roc_auc_model(model, ds)
    else:
        assert roc_auc_model(model, ds) == want["roc_auc"]
    assert empirical_risk(model, ds) == pytest.approx(want["empirical_risk"], rel=1e-12)


def row_by_row_marginal(ds: Dataset, q: MarginalQuery) -> np.ndarray:
    shape = ds.schema.shape(q.attrs)
    flat = np.ravel_multi_index(tuple(ds.codes[:, list(q.attrs)].T), shape)
    return np.bincount(flat, minlength=math.prod(shape)).astype(np.float64)


def check_marginals(ds: Dataset, queries) -> None:
    for q in queries:
        got = compute_marginal(ds, q)
        assert got.dtype == np.float64 and np.array_equal(got, row_by_row_marginal(ds, q))


def check_view(ds: Dataset) -> None:
    rows, counts = np.unique(ds.codes, axis=0, return_counts=True)  # lexicographic = cell order
    assert np.array_equal(ds.weighted.codes, rows)
    assert np.array_equal(ds.weighted.counts, counts)
    assert ds.weighted is ds.weighted  # built once


class TestReferenceEquivalence:
    @given(datasets())
    def test_weighted_view(self, ds):
        check_view(ds)

    @given(datasets(max_features=10), st.integers(0, len(LOSSES) - 1))
    @settings(max_examples=60)
    def test_training_matches_expanded_rows(self, ds, loss):
        check_training(ds, loss)

    @given(datasets(max_features=10), st.integers(0, 2**32 - 1))
    def test_scores_match_row_by_row(self, ds, seed):
        check_scores(ds, seed)

    @given(datasets())
    def test_marginals_bit_equal(self, ds):
        queries = enumerate_queries(ds.schema.num_features, min(3, ds.schema.num_attributes))
        check_marginals(ds, queries)

    @pytest.mark.parametrize("ds", fixed_datasets())
    def test_fixed_views(self, ds):
        check_view(ds)

    @pytest.mark.parametrize("ds", fixed_datasets())
    def test_fixed_cases(self, ds):
        codes, counts = ds.weighted
        assert dict(zip(map(tuple, codes.tolist()), counts.tolist())) == reference_row_multiset(ds)
        for loss in range(len(LOSSES)):
            check_training(ds, loss)
        check_scores(ds, seed=7)
        label = ds.schema.num_attributes - 1
        check_marginals(ds, [MarginalQuery(a) for a in [(0,), (label,), (0, 1), (0, label)]])


def test_empty_dataset_counts_as_zeros():
    ds = Dataset(make_schema((3,)), np.zeros((0, 2), dtype=np.int64))
    assert ds.weighted.codes.shape == (0, 2) and ds.weighted.counts.shape == (0,)
    assert np.array_equal(compute_marginal(ds, MarginalQuery((0, 1))), np.zeros(6))


def test_no_per_row_work_on_a_duplicated_dataset(monkeypatch):
    """32,000 rows over 4 binary features + label: training and scoring see only the distinct rows."""
    ds = make_demo_dataset(m=4, n=32000, seed=3)
    distinct = len(ds.weighted.counts)
    assert distinct <= 32
    seen = []

    def spy(fn):
        def wrapped(model_or_w, X, *args):
            seen.append((fn.__name__, X.shape[0]))
            return fn(model_or_w, X, *args)
        return wrapped

    monkeypatch.setattr(learn, "_risk_and_grad", spy(learn._risk_and_grad))
    monkeypatch.setattr(evaluate, "predict", spy(evaluate.predict))
    model = train_projected(ds, LossSpec.logistic(), 0.5, TrainConfig(max_iters=400))
    accuracy(model, ds)
    roc_auc_model(model, ds)
    empirical_risk(model, ds)
    assert {name for name, _ in seen} == {"_risk_and_grad", "predict"}
    assert max(rows for _, rows in seen) <= distinct


# (feature sizes, re-ranks): 200 binary features from a pool of 30 rows re-rank
# after 62 columns and then after each 58 (at most 30 distinct keys times 2^58
# fits in int64); 2^40 re-ranks before the second and third; 2^62 before the 3.
@pytest.mark.parametrize("sizes, reranks", [((2,) * 200, 3), ((2**40,) * 3, 2), ((2**62, 3, 5), 1)],
                         ids=["200-binary", "three-2^40", "2^62-3-5"])
def test_keys_re_rank_between_runs_of_columns(sizes, reranks, monkeypatch):
    ds = pooled_dataset(make_schema(sizes), 30, 200, seed=8)
    unique = np.unique
    calls = []

    def counted(key, **kwargs):
        calls.append(kwargs.get("return_inverse", False))
        return unique(key, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np, "unique", counted)
        ds.weighted
    assert calls.count(True) == reranks
    check_view(ds)
