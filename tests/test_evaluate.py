import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from margsyn.dataset import Dataset, Schema
from margsyn.evaluate import (_average_ranks, accuracy, empirical_risk,
                              excess_empirical_risk, roc_auc, roc_auc_model)
from margsyn.learn import LinearModel, LossSpec

from conftest import random_dataset

LN2 = math.log(2.0)


def model_with(w, tau=math.inf, loss=None):
    return LinearModel(np.asarray(w, dtype=np.float64), tau, loss or LossSpec.logistic())


def _predictions_and_labels(model, ds):
    from margsyn.dataset import encode_xy
    from margsyn.learn import predict
    X, y = encode_xy(ds)
    labels, _ = predict(model, X)
    return labels, y


class TestAccuracy:
    def test_perfect_classifier(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.array([[0, 0], [1, 1], [0, 0], [1, 1]]))
        assert accuracy(model_with([1.0]), ds) == 1.0

    def test_zero_weights_on_balanced_labels(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))
        assert accuracy(model_with([0.0]), ds) == 0.5

    def test_sign_flip_complements(self):
        # weights chosen so no encoded row scores exactly zero
        schema = Schema(("a", "b", "label"), (2, 3, 2))
        ds = random_dataset(schema, 60, seed=0)
        w = np.array([0.7, 0.39])
        acc = accuracy(model_with(w), ds)
        assert accuracy(model_with(-w), ds) == pytest.approx(1.0 - acc)

    def test_error_rate_complement(self):
        schema = Schema(("a", "b", "label"), (3, 2, 2))
        ds = random_dataset(schema, 41, seed=3)
        model = model_with([0.3, -0.9])
        acc = accuracy(model, ds)
        wrong = sum(1 for lab, y in zip(*_predictions_and_labels(model, ds)) if lab != y)
        assert acc + wrong / ds.n == 1.0

    def test_empty_dataset(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            accuracy(model_with([0.0]), ds)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, -1, -1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, -1, 1, -1]) == 0.5

    def test_three_of_four_pairs(self):
        # positives score (0.9, 0.4), negatives (0.5, 0.1): 3 of 4 pairs ordered
        assert roc_auc([0.9, 0.4, 0.5, 0.1], [1, 1, -1, -1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 1])

    @given(st.lists(st.tuples(st.integers(-50, 50), st.sampled_from([-1, 1])),
                    min_size=4, max_size=30))
    def test_invariant_under_increasing_transform(self, pairs):
        # scores on a 0.1 grid keep the float transform strictly increasing
        scores = np.array([p[0] / 10.0 for p in pairs])
        labels = np.array([p[1] for p in pairs])
        if len(set(labels.tolist())) < 2:
            return
        base = roc_auc(scores, labels)
        transformed = roc_auc(np.exp(0.7 * scores) + 3.0, labels)
        assert transformed == pytest.approx(base, abs=1e-12)


def reference_average_ranks(values: np.ndarray) -> np.ndarray:
    """Tie spans walked one by one: each gets the mean of its 1-based ranks."""
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


class TestAverageRanks:
    def test_ties_share_the_mean_rank(self):
        got = _average_ranks(np.array([0.3, -0.0, 0.3, 0.0, 1.0, 0.3]))
        assert got.tolist() == [4.0, 1.5, 4.0, 1.5, 6.0, 4.0]

    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0]), max_size=60)
           | st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=60))
    def test_matches_reference_loop(self, values):
        values = np.array(values, dtype=np.float64)
        assert np.array_equal(_average_ranks(values), reference_average_ranks(values))


class TestEmpiricalRisk:
    def test_zero_model_gives_ln2(self, three_binary_schema):
        ds = random_dataset(three_binary_schema, 17, seed=2)
        assert empirical_risk(model_with([0.0, 0.0, 0.0]), ds) == pytest.approx(LN2)

    def test_single_row(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.array([[1, 1]]))
        model = model_with([0.8])
        want = math.log1p(math.exp(-0.8))
        assert empirical_risk(model, ds) == pytest.approx(want, rel=1e-12)

    def test_mean_over_union(self, three_binary_schema):
        a = random_dataset(three_binary_schema, 20, seed=5)
        b = random_dataset(three_binary_schema, 20, seed=6)
        union = Dataset(three_binary_schema, np.vstack([a.codes, b.codes]))
        model = model_with([0.2, -0.5, 0.1])
        assert empirical_risk(model, union) == pytest.approx(
            0.5 * (empirical_risk(model, a) + empirical_risk(model, b)), rel=1e-12)

    def test_excess_risk_is_signed_gap(self, three_binary_schema):
        ds = random_dataset(three_binary_schema, 30, seed=7)
        m1 = model_with([0.4, 0.0, 0.0])
        m2 = model_with([0.0, 0.3, 0.0])
        gap = excess_empirical_risk(m1, m2, ds)
        assert gap == pytest.approx(empirical_risk(m1, ds) - empirical_risk(m2, ds))


def test_roc_auc_model_consistent(three_binary_schema):
    ds = random_dataset(three_binary_schema, 50, seed=8)
    model = model_with([0.5, -0.2, 0.9])
    from margsyn.dataset import encode_xy
    from margsyn.learn import predict
    X, y = encode_xy(ds)
    _, scores = predict(model, X)
    assert roc_auc_model(model, ds) == roc_auc(scores, y)
