import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from margsyn import learn
from margsyn.dataset import Dataset, Schema
from margsyn.demo import make_demo_dataset
from margsyn.learn import (DpSgdConfig, LinearModel, LossError, LossSpec, TrainConfig,
                           clip_rows, dp_sgd, dp_sgd_sigma_sq, gamma_margin_loss,
                           load_model, predict, save_model, train_projected)

from conftest import random_dataset, reference_encode_xy as encode_xy, reference_sgd

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


class TestDpSgd:
    def test_sigma_formula_frozen(self):
        cfg = DpSgdConfig(iterations=100, batch_size=10, learning_rate=1.0,
                          clip_norm=1.0, epsilon=1.0, delta=1e-5)
        assert dp_sgd_sigma_sq(cfg, 1000) == pytest.approx(0.018420680743952367, rel=1e-15)

    @given(st.floats(0.2, 4.0), st.integers(10, 500), st.integers(100, 5000),
           st.floats(0.1, 3.0), st.floats(1e-8, 0.1))
    def test_sigma_formula_randomized(self, C, T, n, eps, delta):
        cfg = DpSgdConfig(iterations=T, batch_size=5, learning_rate=1.0,
                          clip_norm=C, epsilon=eps, delta=delta)
        want = 16.0 * C * C * T * math.log(1.0 / delta) / (n * n * eps * eps)
        assert dp_sgd_sigma_sq(cfg, n) == pytest.approx(want, rel=1e-15)

    def test_sigma_scales_with_the_clip_norm_squared(self):
        # the per-sample gradient bound is the clip norm, so the noise follows it
        sigma_sq = {C: dp_sgd_sigma_sq(DpSgdConfig(iterations=300, batch_size=100, learning_rate=1.0,
                                                   clip_norm=C, epsilon=1.0, delta=1e-5), 32_000)
                    for C in (0.1, 1.0, 5.0)}
        assert sigma_sq[0.1] == pytest.approx(0.01 * sigma_sq[1.0], rel=1e-15)
        assert sigma_sq[5.0] == pytest.approx(25.0 * sigma_sq[1.0], rel=1e-15)

    @pytest.mark.parametrize("delta", [5e-309, 1e-320, 5e-324])
    def test_a_delta_whose_inverse_overflows_is_refused(self, delta):
        # ln(1/delta), so the noise, would be infinite, and the weights NaN
        with pytest.raises(ValueError, match=f"delta={delta} is too small: 1/delta overflows"):
            DpSgdConfig(iterations=5, batch_size=2, learning_rate=0.5, clip_norm=1.0,
                        epsilon=1.0, delta=delta)

    def test_the_smallest_deltas_keep_their_noise(self):
        for delta in (1e-308, 5.6e-309):
            cfg = DpSgdConfig(iterations=5, batch_size=2, learning_rate=0.5, clip_norm=1.0,
                              epsilon=1.0, delta=delta)
            assert dp_sgd_sigma_sq(cfg, 100) == 16.0 * 1.0 * 5 * math.log(1.0 / delta) / (100**2 * 1.0)

    @pytest.mark.parametrize("clip_norm", [math.inf, math.nan, 0.0, -1.0])
    def test_clip_norm_must_be_finite_and_positive(self, clip_norm):
        with pytest.raises(ValueError, match="clip norm must be finite and positive"):
            DpSgdConfig(iterations=5, batch_size=2, learning_rate=0.5, clip_norm=clip_norm,
                        epsilon=1.0, delta=1e-5)

    def test_clipping_caps_row_norms(self):
        rng = np.random.default_rng(0)
        g = rng.normal(0, 3.0, size=(40, 5))
        clipped = clip_rows(g, 0.7)
        norms = np.linalg.norm(clipped, axis=1)
        assert np.all(norms <= 0.7 + 1e-12)
        small = clip_rows(np.full((2, 2), 1e-3), 10.0)
        assert np.allclose(small, 1e-3)  # below the cap rows pass through

    def test_zero_noise_hook_matches_reference_sgd(self, three_binary_schema, monkeypatch):
        ds = random_dataset(three_binary_schema, 120, seed=5)
        spec = LossSpec.logistic()
        # every per-sample gradient norm is below sqrt(3) < 2 on three binary features, so
        # clipping divides each row by 1.0 and leaves the reference trajectory bit-exact
        cfg = DpSgdConfig(iterations=60, batch_size=20, learning_rate=0.5,
                          clip_norm=2.0, epsilon=1.0, delta=1e-5)
        monkeypatch.setattr(learn, "dp_sgd_sigma_sq", lambda cfg, n: 0.0)
        a = dp_sgd(ds, spec, cfg, np.random.default_rng(99))
        b = reference_sgd(ds, spec, 60, 20, 0.5, np.random.default_rng(99))
        assert np.array_equal(a.w, b.w)

    def test_encodes_only_the_rows_it_draws(self):
        # 10 binary features + label, n = 200,000: encoding every row would
        # allocate 17.6 MB of floats, one batch of 100 rows 8.8 kB
        ds = make_demo_dataset(m=10, n=200_000, seed=1)
        cfg = DpSgdConfig(iterations=50, batch_size=100, learning_rate=1.0,
                          clip_norm=1.0, epsilon=1.0, delta=1e-5)
        tracemalloc.start()
        try:
            dp_sgd(ds, LossSpec.logistic(), cfg, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_sigma_override_key_is_gone(self):
        # neither the noise nor the gradient bound it follows is set apart from the clip norm
        for key in ("sigma_override", "lipschitz_L"):
            with pytest.raises(TypeError, match=key):
                DpSgdConfig(iterations=5, batch_size=2, learning_rate=0.5, clip_norm=1.0,
                            epsilon=1.0, delta=1e-5, **{key: 1.0})

    def test_batch_size_gate(self, three_binary_schema):
        ds = random_dataset(three_binary_schema, 10, seed=5)
        cfg = DpSgdConfig(iterations=5, batch_size=11, learning_rate=0.5,
                          clip_norm=1.0, epsilon=1.0, delta=1e-5)
        with pytest.raises(ValueError):
            dp_sgd(ds, LossSpec.logistic(), cfg, np.random.default_rng(0))

    def test_noise_changes_trajectory(self, three_binary_schema):
        ds = random_dataset(three_binary_schema, 100, seed=6)
        cfg = DpSgdConfig(iterations=30, batch_size=20, learning_rate=0.5,
                          clip_norm=1.0, epsilon=1.0, delta=1e-5)
        noisy = dp_sgd(ds, LossSpec.logistic(), cfg, np.random.default_rng(7))
        clean = reference_sgd(ds, LossSpec.logistic(), 30, 20, 0.5, np.random.default_rng(7))
        assert not np.array_equal(noisy.w, clean.w)


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
