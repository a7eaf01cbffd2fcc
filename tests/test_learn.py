import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from margsyn.dataset import Dataset, Schema
from margsyn.learn import (LinearModel, LossError, LossSpec, TrainConfig, gamma_margin_loss,
                           load_model, predict, save_model, train_projected)

from conftest import random_dataset, reference_encode_xy as encode_xy

LN2 = math.log(2.0)


class TestLossValues:
    def test_logistic_at_zero(self):
        assert LossSpec.logistic().value(0.0) == pytest.approx(LN2, rel=1e-15)

    def test_gamma_margin_at_gamma(self):
        for gamma in (0.2, 0.5, 0.9):
            assert gamma_margin_loss(gamma, gamma) == pytest.approx((1 - gamma) ** 2 / 8, rel=1e-12)

    def test_gamma_margin_at_zero(self):
        assert gamma_margin_loss(0.0, 0.5) == pytest.approx(9.0 / 8.0, rel=1e-12)
        spec = LossSpec.gamma_margin(0.5)
        assert spec.value(0.0) == pytest.approx(0.5 * 9.0 / 8.0, rel=1e-12)
        assert spec.value_at_zero == pytest.approx(0.5 * 9.0 / 8.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.1, 0.37, 0.8])
    def test_branch_continuity(self, gamma):
        eps = 1e-9
        for point in (0.0, gamma):
            left = gamma_margin_loss(point - eps, gamma)
            right = gamma_margin_loss(point + eps, gamma)
            assert abs(left - right) < 1e-7  # continuous; C^1 makes the gap O(eps)
        for point in (0.0, gamma):
            below = gamma_margin_loss(np.nextafter(point, -1.0), gamma)
            above = gamma_margin_loss(np.nextafter(point, 2.0), gamma)
            assert abs(below - gamma_margin_loss(point, gamma)) < 1e-12
            assert abs(above - gamma_margin_loss(point, gamma)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_scaled_gradient_bound(self, gamma):
        # the scaled loss has sup |phi'| = 2 + gamma/2 (at t = -1); LossSpec
        # carries the nominal gamma->0 constant 2
        spec = LossSpec.gamma_margin(gamma)
        assert spec.lipschitz_K == 2.0
        grid = np.linspace(-1.0, 1.0, 20001)
        grads = spec.grad(grid)
        assert np.max(np.abs(grads)) <= 2.0 + gamma / 2.0 + 1e-12
        assert np.max(np.abs(grads)) == pytest.approx(2.0 + gamma / 2.0, rel=1e-3)

    def test_gamma_margin_domain(self):
        spec = LossSpec.gamma_margin(0.5)
        with pytest.raises(LossError):
            spec.value(1.5)
        with pytest.raises(LossError):
            spec.grad(-1.1)

    def test_custom_table(self):
        spec = LossSpec.from_table((-1.0, 0.0, 1.0), (2.0, 1.0, 1.0))
        assert spec.lipschitz_K == 1.0
        assert spec.value_at_zero == 1.0
        assert spec.value(-0.5) == pytest.approx(1.5)
        assert spec.grad(-0.5) == pytest.approx(-1.0)

    def test_custom_table_validation(self):
        with pytest.raises(LossError):
            LossSpec.from_table((0.0, 1.0), (float("nan"), 1.0))
        with pytest.raises(LossError):
            LossSpec.from_table((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(LossError):
            LossSpec.from_table((0.0, 1.0), (1.0, 1.0))

    @given(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999))
    def test_convexity_midpoint(self, t1, t2):
        spec = LossSpec.gamma_margin(0.4)
        mid = spec.value(0.5 * (t1 + t2))
        assert mid <= 0.5 * (spec.value(t1) + spec.value(t2)) + 1e-12

    def test_serialization_round_trip(self):
        for spec in (LossSpec.logistic(), LossSpec.gamma_margin(0.3),
                     LossSpec.from_table((-1.0, 1.0), (1.0, 0.0))):
            assert LossSpec.from_dict(spec.to_dict()) == spec

    def test_constants_follow_from_the_loss(self):
        assert [f.name for f in dataclasses.fields(LossSpec)] == ["kind", "gamma", "knots_t", "knots_v"]
        with pytest.raises(TypeError):
            LossSpec("logistic", lipschitz_K=5.0, value_at_zero=0.0)
        spec = LossSpec.from_table((-2.0, 0.5, 1.0), (3.0, 0.5, 0.0))
        with pytest.raises(AttributeError):
            spec.lipschitz_K = 3.0
        assert spec.to_dict() == {"kind": "custom", "lipschitz_K": 1.0, "value_at_zero": 1.0,
                                  "knots_t": [-2.0, 0.5, 1.0], "knots_v": [3.0, 0.5, 0.0]}
        assert LossSpec.gamma_margin(0.5).to_dict() == {
            "kind": "gamma_margin", "lipschitz_K": 2.0, "value_at_zero": 0.5625, "gamma": 0.5}


class TestGradients:
    @pytest.mark.parametrize("kind", ["logistic", "gamma_margin"])
    def test_finite_differences(self, kind):
        spec = LossSpec.logistic() if kind == "logistic" else LossSpec.gamma_margin(0.6)
        rng = np.random.default_rng(3)
        h = 1e-5
        for trial in range(50):
            schema = Schema(("a", "b", "c", "label"), (2, 3, 2, 2))
            ds = random_dataset(schema, 20, seed=trial)
            X, y = encode_xy(ds)
            w = rng.normal(0, 0.15, size=3)

            def risk(wv):
                return float(np.mean(spec.value((X @ wv) * y)))

            analytic = (X.T @ (spec.grad((X @ w) * y) * y)) / X.shape[0]
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                numeric = (risk(w + e) - risk(w - e)) / (2 * h)
                denom = max(1e-8, abs(numeric))
                assert abs(analytic[j] - numeric) / denom < 1e-6 or \
                    abs(analytic[j] - numeric) < 1e-9


class TestTrainProjected:
    def test_separable_two_points(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.array([[0, 0], [1, 1]]))
        model = train_projected(ds, LossSpec.logistic(), 100.0,
                                TrainConfig(max_iters=300))
        X, y = encode_xy(ds)
        risk = float(np.mean(model.loss.value((X @ model.w) * y)))
        assert risk < LN2

    def test_zero_budget(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.array([[0, 0], [1, 1]]))
        model = train_projected(ds, LossSpec.logistic(), tau=0.0)
        assert np.array_equal(model.w, [0.0])

    @pytest.mark.parametrize("tau", [0.3, 1.0, 5.0])
    def test_one_dimensional_oracle(self, tau):
        schema = Schema(("a", "label"), (3, 2))
        ds = random_dataset(schema, 60, seed=8)
        spec = LossSpec.logistic()
        model = train_projected(ds, spec, tau,
                                cfg=TrainConfig(max_iters=2000, tolerance=1e-14))
        X, y = encode_xy(ds)

        def risk(wv):
            return float(np.mean(spec.value((X * wv) @ np.ones(1) * y)))

        grid = np.arange(-tau, tau + 1e-12, 1e-4)
        oracle = min(risk(w) for w in grid)
        got = float(np.mean(spec.value((X @ model.w) * y)))
        assert got <= oracle + 1e-4

    def test_projection_invariant(self):
        schema = Schema(("a", "b", "label"), (3, 2, 2))
        ds = random_dataset(schema, 50, seed=4)
        for tau in (0.05, 0.5, 2.0):
            model = train_projected(ds, LossSpec.logistic(), tau, TrainConfig(max_iters=100))
            assert np.linalg.norm(model.w) <= tau * (1.0 + 1e-9)

    def test_empty_dataset(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            train_projected(ds, LossSpec.logistic(), 1.0)

    @pytest.mark.parametrize("tau", [math.nan, -0.5, -math.inf])
    def test_bad_budget_is_rejected_before_any_work(self, tau, monkeypatch):
        from margsyn import learn

        def no_work(ds):
            raise AssertionError("training started with an invalid budget")

        monkeypatch.setattr(learn, "encode_weighted", no_work)
        ds = Dataset(Schema(("a", "label"), (2, 2)), np.array([[0, 0], [1, 1]]))
        with pytest.raises(ValueError, match="tau"):
            train_projected(ds, LossSpec.logistic(), tau)

    def test_nan_tolerance_is_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(tolerance=math.nan)


class TestPredict:
    def test_zero_weights_predict_positive(self):
        model = LinearModel(np.zeros(2), 1.0, LossSpec.logistic())
        labels, scores = predict(model, np.array([[1.0, -1.0], [-1.0, -1.0]]))
        assert labels.tolist() == [1.0, 1.0]
        assert scores.tolist() == [0.0, 0.0]

    def test_single_coordinate(self):
        model = LinearModel(np.array([1.0, 0.0]), 2.0, LossSpec.logistic())
        labels, scores = predict(model, np.array([[-1.0, 0.5]]))
        assert labels.tolist() == [-1.0] and scores.tolist() == [-1.0]

    def test_sign_invariance_under_scaling(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=4)
        X = rng.normal(size=(30, 4))
        l1, _ = predict(LinearModel(w, math.inf, LossSpec.logistic()), X)
        l2, _ = predict(LinearModel(2.0 * w, math.inf, LossSpec.logistic()), X)
        assert np.array_equal(l1, l2)

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros(2), 1.0, LossSpec.logistic())
        with pytest.raises(ValueError):
            predict(model, np.zeros((1, 3)))


def test_norm_invariant_enforced():
    with pytest.raises(ValueError):
        LinearModel(np.array([3.0, 4.0]), 1.0, LossSpec.logistic())


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_are_refused(weight):
    # an unconstrained model has no norm check to catch them, and NaN passes any comparison
    with pytest.raises(ValueError, match=f"model weight 1 is {weight}; weights must be finite"):
        LinearModel(np.array([0.5, weight]), math.inf, LossSpec.logistic())


def test_a_nan_weight_is_refused_under_a_finite_budget():
    # ||w|| is NaN, and NaN > tau is False, so the norm check alone would pass it
    with pytest.raises(ValueError, match="model weight 0 is nan; weights must be finite"):
        LinearModel(np.array([math.nan, 0.0]), 1.0, LossSpec.logistic())


def test_the_largest_finite_weights_round_trip(tmp_path, three_binary_schema):
    model = LinearModel(np.array([1.7976931348623157e308, -1.7976931348623157e308, 5e-324]),
                        math.inf, LossSpec.logistic())
    save_model(model, three_binary_schema, tmp_path / "m.json")
    assert np.array_equal(load_model(tmp_path / "m.json")[0].w, model.w)


@pytest.mark.parametrize("tau", [math.nan, -1.0])
def test_model_budget_must_be_non_negative(tau):
    with pytest.raises(ValueError, match="tau"):
        LinearModel(np.zeros(2), tau, LossSpec.logistic())
    assert LinearModel(np.array([3.0, 4.0]), math.inf, LossSpec.logistic()).tau == math.inf


@pytest.mark.parametrize("loss, tau", [
    (LossSpec.gamma_margin(0.4), 1.0 / math.sqrt(3)),
    (LossSpec.logistic(), math.inf),
    (LossSpec.from_table((-2.0, 0.5, 1.0), (3.0, 0.5, 0.0)), 0.5),
], ids=["gamma_margin", "logistic", "custom"])
def test_model_file_round_trip(tmp_path, three_binary_schema, loss, tau):
    ds = random_dataset(three_binary_schema, 40, seed=1)
    model = train_projected(ds, loss, tau, TrainConfig(max_iters=50))
    save_model(model, three_binary_schema, tmp_path / "m.json")
    back, schema_hash = load_model(tmp_path / "m.json")
    assert schema_hash == three_binary_schema.digest()
    assert np.array_equal(back.w, model.w)
    assert back.loss == model.loss and back.tau == model.tau
