"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line.  Criterion 1
is split: the minimax *error* reference value is reproducible only by a
suboptimal approximant (see the expected-failure test at the bottom), while
every other clause passes.
"""

import math
import time

import numpy as np
import pytest

from margsyn.bounds import BoundInputs, excess_risk_bound
from margsyn.dataset import Dataset, Schema, SplitSpec, split, write_csv
from margsyn.demo import make_demo_dataset
from margsyn.evaluate import empirical_risk
from margsyn.experiment import ExperimentConfig, run_experiment
from margsyn.learn import LossSpec, TrainConfig, train_projected
from margsyn.marginals import compute_marginal, enumerate_queries
from margsyn.polyapprox import Interval, approx_report, bernstein, iterated_bernstein, remez_minimax
from margsyn.privacy import PrivacyParams, calibrate, synthesis_l1_bound
from margsyn.synth import DistributionEstimate, brute_force_synth, sample_dataset, synthesize

from conftest import (per_query, random_dataset, reference_encode_xy as encode_xy, release_of,
                      reference_l1_distance as l1_distance)

logistic_loss = LossSpec.logistic().value


def report_line(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {state}{suffix}")


# reference degree-4 approximations of ln(1+e^-x) on [-5, 5]
REFERENCE_ITERATED = {
    1: ((1.2377, -0.5, 0.0544, 0.0, -0.0001), 0.545),
    4: ((0.7934, -0.5, 0.0812, 0.0, -0.0005), 0.100),
    9: ((0.7504, -0.5, 0.0931, 0.0, -0.0009), 0.057),
}
REFERENCE_MINIMAX_COEFFS = (0.71, -0.5, 0.1096, 0.0, -0.0015)
REFERENCE_MINIMAX_ERROR = 0.061


def test_criterion_1_degree4_approximations():
    t0 = time.perf_counter()
    iv = Interval(-5.0, 5.0)
    for k, (want_coeffs, want_err) in REFERENCE_ITERATED.items():
        poly = iterated_bernstein(logistic_loss, 4, k, iv)
        err = approx_report(poly, logistic_loss).max_abs_error
        for got, want in zip(poly.coeffs, want_coeffs):
            assert abs(got - want) <= 0.005, (k, poly.coeffs)
        assert abs(poly.coeffs[3]) <= 0.005
        assert abs(err - want_err) <= 0.01, (k, err)

    minimax = remez_minimax(logistic_loss, 4, iv)
    for got, want in zip(minimax.coeffs, REFERENCE_MINIMAX_COEFFS):
        assert abs(got - want) <= 0.01, minimax.coeffs
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_line("criterion 1 (degree-4 table: iterated coefficients/errors, minimax coefficients)",
                True, f"{elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="the reference minimax error 0.061 corresponds to a suboptimal approximant "
           "(those reference coefficients themselves reproduce ~0.062); a converged "
           "equioscillation solution reaches ~0.020, and any polynomial actually "
           "attaining 0.061 would violate the optimality property minimax <= "
           "iterated-Bernstein (0.057)")
def test_criterion_1_minimax_error_matches_reference():
    minimax = remez_minimax(logistic_loss, 4, Interval(-5.0, 5.0))
    err = approx_report(minimax, logistic_loss).max_abs_error
    # consistency of the reference pair itself: the reference coefficients do
    # produce the reference error
    ref_poly_err = approx_report(
        type(minimax)(REFERENCE_MINIMAX_COEFFS, Interval(-5.0, 5.0)), logistic_loss).max_abs_error
    assert abs(ref_poly_err - REFERENCE_MINIMAX_ERROR) <= 0.01
    report_line("criterion 1 (minimax error matches reference 0.061)", False,
                f"implementation reaches {err:.4f}; see decisions ledger")
    assert abs(err - REFERENCE_MINIMAX_ERROR) <= 0.01


def test_criterion_2_bernstein_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n_knots = int(rng.integers(3, 9))
        a = -float(rng.uniform(0.0, 3.0))
        b = float(rng.uniform(1.0, 4.0))
        knots_t = np.linspace(a, b, n_knots)
        knots_v = rng.uniform(-2.0, 2.0, size=n_knots)
        slopes = np.diff(knots_v) / np.diff(knots_t)
        lip = float(np.max(np.abs(slopes)))
        sup = float(np.max(np.abs(knots_v)))
        d = int(rng.integers(1, 13))
        f = lambda x: np.interp(np.asarray(x, dtype=np.float64), knots_t, knots_v)
        rep = approx_report(bernstein(f, d, Interval(a, b)), f)
        assert rep.max_abs_error <= 1.25 * lip * (b - a) / math.sqrt(d) + 1e-12
        assert rep.coeff_abs_sum <= sup * (1.0 + 2.0 / (b - a)) ** d * 1.01 + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report_line("criterion 2 (error and coefficient-sum certificates, 100 instances)",
                True, f"{elapsed:.1f}s")


def test_criterion_3_brute_force_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    schema = Schema(("a", "label"), (2, 2))
    import itertools
    all_codes = list(itertools.product(range(2), range(2)))
    for seed in range(50):
        rng = np.random.default_rng([10, seed])
        n = int(rng.integers(2, 7))
        real = Dataset(schema, rng.integers(0, 2, size=(n, 2)))
        queries = enumerate_queries(1, 2)
        exact = [(q, compute_marginal(real, q)) for q in queries]
        nm = release_of(schema, exact, n, 1.2, seed)
        got = nm.operator.l1_to(nm.operator.forward(brute_force_synth(n, nm)), nm.target).max()
        best = math.inf
        for combo in itertools.combinations_with_replacement(range(4), n):
            cand = Dataset(schema, np.array([all_codes[c] for c in combo]))
            obj = max(l1_distance(h, compute_marginal(cand, q)) for q, h in per_query(nm))
            best = min(best, obj)
        assert got == pytest.approx(best, abs=1e-9), seed
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_line("criterion 3 (min-max synthesis optimal on 50 seeded inputs)",
                True, f"{elapsed:.1f}s")


def test_criterion_4_end_to_end_l1_coverage(three_binary_schema):
    t0 = time.perf_counter()
    real = random_dataset(three_binary_schema, 50, seed=404)
    queries = enumerate_queries(3, 2)
    exact = [(q, compute_marginal(real, q)) for q in queries]
    sigma = calibrate(3, 2, PrivacyParams(1.0, 1.0 / 50**2, lam=3.0))
    bound = synthesis_l1_bound(sigma, 2, 3, 2, 3.0)
    trials, violations = 500, 0
    for seed in range(trials):
        nm = release_of(three_binary_schema, exact, 50, sigma, seed)
        ds_s, _ = synthesize(nm, "brute")
        worst = max(l1_distance(h, compute_marginal(ds_s, q)) for q, h in exact)
        violations += worst > bound
    slack = 2.326 * math.sqrt(0.125 * 0.875 / trials)  # 99% binomial upper bound
    rate = violations / trials
    elapsed = time.perf_counter() - t0
    assert rate <= 0.125 + slack, f"violation rate {rate}"
    assert elapsed < 300.0
    report_line("criterion 4 (high-probability l1 coverage over 500 runs)",
                True, f"rate={rate:.3f} <= {0.125 + slack:.3f}, {elapsed:.0f}s")


def test_criterion_5_measured_nu_bound_dominates(three_binary_schema):
    t0 = time.perf_counter()
    real = random_dataset(three_binary_schema, 200, seed=505)
    tau = 1.0 / math.sqrt(3)
    tcfg = TrainConfig(max_iters=300, tolerance=1e-12)
    losses = {
        "lipschitz": LossSpec.gamma_margin(0.5),
        "logistic": LossSpec.logistic(),
    }
    real_models = {}
    for d in (2, 3):
        for name, spec in losses.items():
            real_models[(d, name)] = train_projected(real, spec, tau, tcfg)
    runs_per_d = 100
    for d in (2, 3):
        queries = enumerate_queries(3, d)
        exact = [(q, compute_marginal(real, q)) for q in queries]
        sigma = calibrate(3, d, PrivacyParams(1.0, 1.0 / 200**2, lam=3.0))
        for seed in range(runs_per_d):
            nm = release_of(three_binary_schema, exact, 200, sigma, seed)
            ds_s, _ = synthesize(nm, "brute")
            measured_nu = max(l1_distance(h, compute_marginal(ds_s, q)) for q, h in exact)
            for name, spec in losses.items():
                model_s = train_projected(ds_s, spec, tau, tcfg)
                gap = abs(empirical_risk(model_s, real) -
                          empirical_risk(real_models[(d, name)], real))
                inputs = BoundInputs(n=200, m=3, d=d, tau=tau, K=spec.lipschitz_K,
                                     phi0=spec.value_at_zero, nu=measured_nu)
                if name == "lipschitz":
                    limit = excess_risk_bound(inputs).total
                else:
                    limit = excess_risk_bound(inputs, "logistic").total
                assert gap <= limit, (d, name, seed, gap, limit)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report_line("criterion 5 (measured-nu bounds dominate in 200 runs, both losses)",
                True, f"{elapsed:.0f}s")


def _spearman(x, y):
    def ranks(v):
        order = np.argsort(np.asarray(v))
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r
    rx, ry = ranks(x) - (len(x) - 1) / 2.0, ranks(y) - (len(y) - 1) / 2.0
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def test_criterion_6_error_trends_with_privacy_budget(tmp_path):
    t0 = time.perf_counter()
    ds = make_demo_dataset(m=4, n=2000, seed=11)
    data = tmp_path / "demo.csv"
    schema = tmp_path / "schema.json"
    write_csv(ds, data)
    ds.schema.to_file(schema)
    eps_grid = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    cfg = ExperimentConfig(
        data_path=str(data), schema_path=str(schema), out_dir=str(tmp_path / "sweep"),
        epsilons=eps_grid, repeats=10, d=2, tau=1.0 / math.sqrt(4),
        loss={"kind": "logistic"}, mode="fitted", base_seed=42)
    result = run_experiment(cfg)
    assert result.all_ok
    l1_means = [a["normalized_l1_mean_mean"] for a in result.aggregates]
    excess_means = [a["excess_risk_train_mean"] for a in result.aggregates]
    rho_l1 = _spearman(eps_grid, l1_means)
    rho_excess = _spearman(eps_grid, excess_means)
    elapsed = time.perf_counter() - t0
    assert rho_l1 <= -0.7, l1_means
    assert rho_excess <= -0.7, excess_means
    assert elapsed < 900.0
    report_line("criterion 6 (normalized-l1 and excess risk decrease with budget)",
                True, f"rho_l1={rho_l1:.2f}, rho_excess={rho_excess:.2f}, {elapsed:.0f}s")


def test_criterion_7_solver_correctness():
    t0 = time.perf_counter()
    spec = LossSpec.logistic()
    rng = np.random.default_rng(777)
    h = 1e-5
    for trial in range(50):
        schema = Schema(("a", "b", "c", "label"), (2, 3, 2, 2))
        ds = random_dataset(schema, 25, seed=trial + 1)
        X, y = encode_xy(ds)
        w = rng.normal(0.0, 0.2, size=3)
        analytic = (X.T @ (spec.grad((X @ w) * y) * y)) / X.shape[0]
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            up = float(np.mean(spec.value((X @ (w + e)) * y)))
            dn = float(np.mean(spec.value((X @ (w - e)) * y)))
            numeric = (up - dn) / (2.0 * h)
            assert abs(analytic[j] - numeric) <= 1e-6 * max(1.0, abs(numeric))

    schema1 = Schema(("a", "label"), (3, 2))
    for tau in (0.4, 1.0, 3.0):
        ds = random_dataset(schema1, 80, seed=17)
        model = train_projected(ds, spec, tau, TrainConfig(max_iters=3000, tolerance=1e-15))
        X, y = encode_xy(ds)
        got = float(np.mean(spec.value((X @ model.w) * y)))
        grid = np.arange(-tau, tau + 1e-12, 1e-4)
        t_matrix = np.outer(grid, X[:, 0])
        oracle = float(np.min(np.mean(spec.value(t_matrix * y[None, :]), axis=1)))
        assert got <= oracle + 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_line("criterion 7 (gradients vs finite differences; 1-D oracle)",
                True, f"{elapsed:.1f}s")


def test_criterion_8_sampler_conservation():
    t0 = time.perf_counter()
    for seed in range(1000):
        rng = np.random.default_rng([8, seed])
        sizes = tuple(int(s) for s in rng.integers(2, 5, size=int(rng.integers(1, 4)))) + (2,)
        schema = Schema(tuple(f"x{j}" for j in range(len(sizes) - 1)) + ("label",), sizes)
        weights = rng.integers(0, 16, size=math.prod(sizes)) * (rng.random(math.prod(sizes)) < 0.7)
        if weights.sum() == 0:
            continue
        total = int(weights.sum())
        n = int(rng.integers(0, 4 * total))
        counts = sample_dataset(DistributionEstimate(schema, weights / total, (0.0,)), n)
        floors = (n * weights) // total  # floor(mu) for mu = n * w / total, exactly
        assert counts.sum() == n
        assert np.all(counts >= floors) and np.all(counts <= floors + 1)
        assert np.all(counts[weights == 0] == 0)
        for w in np.unique(weights):  # one weight, one remainder: ties go to the first cells
            assert np.all(np.diff(counts[weights == w] - floors[weights == w]) <= 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_line("criterion 8 (joint rounding floor/ceil, zero cells empty, ties first, 1000 inputs)",
                True, f"{elapsed:.1f}s")
