import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from margsyn import synth
from margsyn.cli import main
from margsyn.dataset import Dataset, Schema, write_csv
from margsyn.demo import make_demo_dataset
from margsyn.experiment import ExperimentConfig, run_experiment
from margsyn.marginals import (MarginalOperator, MarginalQuery, compute_marginal, enumerate_queries,
                               query_count)
from margsyn.privacy import (PrivacyParams, add_noise_to_set, calibrate, gaussian_sigma,
                             marginal_set_sensitivity, synthesis_l1_bound)

from conftest import (assert_refused, cell_counts, random_dataset, reference_add_noise_to_set,
                      reference_gaussian_delta)
from test_operator_owner import call_scopes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "margsyn"


def release_gap(a: Dataset, b: Dataset, d: int) -> np.ndarray:
    """The difference of two datasets' concatenated order-<=d marginal vectors,
    the vector the mechanism noises."""
    op = MarginalOperator(a.schema, enumerate_queries(a.schema.num_features, d))
    return op.forward(cell_counts(a)) - op.forward(cell_counts(b))


class TestGaussianSigma:
    def test_forced_value(self):
        # ln(1.25/delta) = 2 when delta = 1.25 e^-2, so sigma = sqrt(4) = 2
        sigma = gaussian_sigma(1.0, 1.25 * math.exp(-2.0), 1.0)
        assert sigma == pytest.approx(2.0, rel=1e-12)

    def test_linear_in_sensitivity(self):
        assert gaussian_sigma(1.0, 1e-5, 2.0) == pytest.approx(2 * gaussian_sigma(1.0, 1e-5, 1.0))

    def test_inverse_in_epsilon(self):
        assert gaussian_sigma(2.0, 1e-5, 1.0) == pytest.approx(0.5 * gaussian_sigma(1.0, 1e-5, 1.0))

    def test_input_validation(self):
        for bad in [(0.0, 1e-5, 1.0), (1.0, 0.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1e-5, 0.0)]:
            with pytest.raises(ValueError):
                gaussian_sigma(*bad)

    @pytest.mark.parametrize("delta", [1e-12, 1.0 / 32_000**2, 1e-6, 1e-3, 0.01, 1.0 / 9, 0.5, 0.9])
    def test_returned_sigma_meets_its_delta_and_only_such_are_refused(self, delta):
        for eps in np.geomspace(0.05, 20.0, 60).tolist():
            try:
                sigma = gaussian_sigma(eps, delta, 1.0)
            except ValueError:
                r = eps / math.sqrt(2.0 * math.log(1.25 / delta))
                assert reference_gaussian_delta(eps, r) > delta, (eps, delta)
            else:
                assert reference_gaussian_delta(eps, 1.0 / sigma) <= delta, (eps, delta)

    # the smallest refused eps per delta is 9.63, 8.78, 6.77 and 5.68
    @pytest.mark.parametrize("eps, delta, refused", [
        (9.6, 1.0 / 32_000**2, False), (9.7, 1.0 / 32_000**2, True),
        (8.7, 1e-6, False), (8.8, 1e-6, True), (20.0, 1e-6, True),
        (6.7, 0.01, False), (6.8, 0.01, True), (8.0, 0.01, True),
        (5.6, 1.0 / 9, False), (5.7, 1.0 / 9, True)])
    def test_refusal_thresholds(self, eps, delta, refused):
        if refused:
            with pytest.raises(ValueError, match="exact delta"):
                gaussian_sigma(eps, delta, 3.0)
        else:
            assert gaussian_sigma(eps, delta, 3.0) > 0.0

    @pytest.mark.parametrize("eps, n", [(0.25 * k, 32_000) for k in range(1, 9)]
                             + [(1.0, 5000), (2.0, 2000), (1.0, 3), (4.0, 30)])
    def test_accepts_the_sweep_and_benchmark_budgets(self, eps, n):
        # delta = 1/n^2 as in sweeps; n = 3 gives the exhaustive benchmark's 1/9
        assert gaussian_sigma(eps, 1.0 / n**2, 1.0) > 0.0

    @given(st.integers(1, 8), st.integers(1, 4), st.floats(0.05, 0.95), st.floats(1e-8, 0.5))
    def test_calibration_closed_form(self, m, d, eps, delta):
        # with sensitivity sqrt(2 |Q|) the calibrated sigma collapses to
        # 2 sqrt(|Q| ln(1.25/delta)) / eps
        if d > m + 1:
            return
        got = calibrate(m, d, PrivacyParams(eps, delta))
        want = 2.0 * math.sqrt(query_count(m, d) * math.log(1.25 / delta)) / eps
        assert got == pytest.approx(want, rel=1e-12)


class TestSensitivity:
    def test_exact_m2_d2(self):
        assert marginal_set_sensitivity(2, 2) == pytest.approx(math.sqrt(12.0))

    @given(st.integers(1, 14), st.data())
    def test_matches_query_count(self, m, data):
        d = data.draw(st.integers(1, m + 1))
        want = math.sqrt(2.0 * sum(math.comb(m + 1, k) for k in range(1, d + 1)))
        assert marginal_set_sensitivity(m, d) == pytest.approx(want)

    @pytest.mark.parametrize("m, d", [(3, 0), (3, 5)])
    def test_invalid_order_rejected(self, m, d):
        with pytest.raises(ValueError):
            marginal_set_sensitivity(m, d)

    @given(st.data())
    def test_one_replaced_row_moves_the_release_by_at_most_the_sensitivity(self, data):
        sizes = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4), label="sizes") + [2]
        m = len(sizes) - 1
        d = data.draw(st.integers(1, m + 1), label="d")
        n = data.draw(st.integers(1, 30), label="n")
        schema = Schema(tuple(f"x{i}" for i in range(m)) + ("label",), tuple(sizes))
        ds = random_dataset(schema, n, seed=data.draw(st.integers(0, 2 ** 16), label="seed"))
        codes = ds.codes.copy()
        codes[data.draw(st.integers(0, n - 1), label="row")] = [
            data.draw(st.integers(0, k - 1), label=f"code {a}") for a, k in enumerate(sizes)]
        gap = release_gap(ds, Dataset(schema, codes), d)
        assert math.sqrt(gap @ gap) <= marginal_set_sensitivity(m, d)

    @pytest.mark.parametrize("m, d", [(1, 1), (1, 2), (4, 2), (3, 3), (5, 1)])
    def test_the_complement_row_attains_it_on_binary_attributes(self, m, d):
        # a row and its complement share no bin of any query, so each of the |Q|
        # marginals loses one count in one bin and gains one in another
        ds = random_dataset(Schema(tuple(f"x{i}" for i in range(m)) + ("label",), (2,) * (m + 1)),
                            20, seed=m + d)
        for row in (0, 7, 19):
            codes = ds.codes.copy()
            codes[row] = 1 - codes[row]
            gap = release_gap(ds, Dataset(ds.schema, codes), d)
            assert math.sqrt(gap @ gap) == marginal_set_sensitivity(m, d)
        assert marginal_set_sensitivity(4, 2) == math.sqrt(30.0)


def test_synth_command_refuses_a_budget_its_sigma_does_not_protect(tmp_path, capsys):
    ds = make_demo_dataset(m=3, n=40, seed=1)
    write_csv(ds, tmp_path / "d.csv")
    ds.schema.to_file(tmp_path / "s.json")
    out = tmp_path / "syn.csv"
    assert_refused(capsys, ["synth", "--data", str(tmp_path / "d.csv"), "--schema",
                            str(tmp_path / "s.json"), "--out", str(out), "--epsilon", "20"],
                   "exact delta")
    assert not out.exists()


def test_synth_command_no_longer_takes_allow_large_epsilon(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["synth", "--data", "d.csv", "--schema", "s.json", "--out", str(tmp_path / "syn.csv"),
              "--allow-large-epsilon", "--epsilon", "2"])
    assert exit_info.value.code == 2
    assert "--allow-large-epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["brute", "fitted"])
def test_a_refused_budget_is_refused_before_the_data_is_read(monkeypatch, mode):
    def fail(*args):
        raise AssertionError("the real data was read")

    monkeypatch.setattr(synth, "compute_marginal", fail)
    ds = make_demo_dataset(m=3, n=40, seed=1)
    with pytest.raises(ValueError, match="exact delta"):
        synth.generate_synthetic(ds, 2, PrivacyParams(20.0, 1e-6), mode=mode)


def test_sweep_fails_only_the_cells_whose_sigma_is_not_private(tmp_path):
    ds = make_demo_dataset(m=3, n=60, seed=2)
    write_csv(ds, tmp_path / "d.csv")
    ds.schema.to_file(tmp_path / "s.json")
    result = run_experiment(ExperimentConfig(
        data_path=str(tmp_path / "d.csv"), schema_path=str(tmp_path / "s.json"),
        out_dir=str(tmp_path / "out"), epsilons=(2.0, 20.0), repeats=1, d=2, tau=math.inf))
    status = {r["epsilon"]: (r["status"], r["error"]) for r in result.runs}
    assert status[2.0] == ("ok", "")
    assert status[20.0][0] == "failed" and "exact delta" in status[20.0][1]
    # the failed cell keeps its traceback; the ok cell writes none
    failures = tmp_path / "out" / "failures"
    assert sorted(f.name for f in failures.iterdir()) == ["run_eps1_rep0.txt"]
    text = (failures / "run_eps1_rep0.txt").read_text()
    assert text.startswith("Traceback") and "gaussian_sigma" in text and "exact delta" in text


class TestRelease:
    def test_projection_on_the_neighbour_direction_is_gaussian(self):
        # D' replaces one row of D by its complement; each release is projected
        # onto u = v / |v|, v = forward(D') - forward(D), after subtracting
        # forward(D): N(0, sigma^2) under D and N(|v|, sigma^2) under D'.  A
        # correlated or reused per-query stream changes the variance along u.
        schema = Schema(("a", "b", "c", "e", "label"), (2,) * 5)
        ds = random_dataset(schema, 60, seed=21)
        codes = ds.codes.copy()
        codes[0] = 1 - codes[0]
        op = MarginalOperator(schema, enumerate_queries(4, 2))
        base, neighbour = op.forward(cell_counts(ds)), op.forward(cell_counts(Dataset(schema, codes)))
        v = neighbour - base
        norm = math.sqrt(v @ v)
        assert norm == math.sqrt(30.0)
        sigma = calibrate(4, 2, PrivacyParams(1.0, 1e-6))
        k = 2000
        # each check fails a correct mechanism with probability 7e-6 (|z| > 4.5;
        # the variance by the normal approximation of chi^2 with k - 1 dof)
        z = 4.5
        for counts, seeds, mean in ((base, range(k), 0.0), (neighbour, range(k, 2 * k), norm)):
            proj = np.array([(add_noise_to_set(counts, op.num_bins, sigma, s) - base) @ v / norm
                             for s in seeds])
            assert abs(proj.mean() - mean) <= z * sigma / math.sqrt(k)
            assert abs(proj.var(ddof=1) / sigma**2 - 1.0) <= z * math.sqrt(2.0 / (k - 1))


class TestPrivacyParams:
    def test_epsilon_above_one_needs_no_flag(self):
        # allow_large_epsilon is accepted and ignored: the exact-delta test in
        # gaussian_sigma is the one budget rule
        sigma = calibrate(4, 2, PrivacyParams(2.0, 1e-6))
        assert sigma == calibrate(4, 2, PrivacyParams(2.0, 1e-6, allow_large_epsilon=True))

    def test_other_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 1.5)
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 1e-6, lam=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_epsilon_must_be_finite(self, eps):
        # NaN compares False with every bound, and infinity calibrates sigma = 0:
        # either would release the marginals without noise
        with pytest.raises(ValueError, match="epsilon"):
            PrivacyParams(eps, 1e-6, allow_large_epsilon=True)

    def test_lambda_must_be_a_number(self):
        with pytest.raises(ValueError, match="lambda"):
            PrivacyParams(0.5, 1e-6, lam=math.nan)


class TestAddNoise:
    @pytest.mark.parametrize("sigma", [math.nan, -1.0])
    def test_nan_or_negative_sigma_rejected(self, two_binary_rows, sigma):
        m = compute_marginal(two_binary_rows, MarginalQuery((0,)))
        with pytest.raises(ValueError, match="sigma"):
            add_noise_to_set(m, [m.size], sigma, 0)

    def test_zero_sigma_is_a_copy_of_the_counts(self, two_binary_rows):
        m = compute_marginal(two_binary_rows, MarginalQuery((0,)))
        noisy = add_noise_to_set(m, [m.size], 0.0, 0)
        assert noisy.tobytes() == m.tobytes()
        assert not np.shares_memory(noisy, m)

    def test_seed_determinism(self, two_binary_rows):
        m = compute_marginal(two_binary_rows, MarginalQuery((0, 1)))
        a = add_noise_to_set(m, [m.size], 3.0, 42)
        b = add_noise_to_set(m, [m.size], 3.0, 42)
        assert np.array_equal(a, b) and not np.array_equal(a, m)

    def test_set_noising_is_order_independent(self, two_binary_rows):
        op = MarginalOperator(two_binary_rows.schema, enumerate_queries(1, 2))
        counts = np.concatenate([compute_marginal(two_binary_rows, q) for q in op.queries])
        noisy = add_noise_to_set(counts, op.num_bins, 2.0, seed=7)
        # entry k takes draw k of the seed's one stream, so re-noising a prefix agrees
        prefix = sum(op.num_bins[:2])
        again = add_noise_to_set(counts[:prefix], op.num_bins[:2], 2.0, seed=7)
        assert np.array_equal(noisy[:prefix], again)

    @pytest.mark.parametrize("bins", [[3], [2, 1], [4, 1]])
    def test_counts_must_hold_every_bin(self, bins):
        with pytest.raises(ValueError, match="bins"):
            add_noise_to_set(np.zeros(4), bins, 1.0, 0)

    def test_empirical_std_within_two_percent(self):
        sigma = 1.7
        noisy = add_noise_to_set(np.zeros(100_000), [100_000], sigma, 5)
        assert np.std(noisy) == pytest.approx(sigma, rel=0.02)

    def test_entries_uncorrelated(self):
        # 10,000 queries of 4 bins, one stream from default_rng(9): query t takes draws 4t to 4t + 3
        draws = add_noise_to_set(np.zeros(4 * 10_000), [4] * 10_000, 1.0, 9).reshape(10_000, 4)
        corr = np.corrcoef(draws.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.05


@st.composite
def marginal_lists(draw):
    """Exact marginals of a mixed-arity dataset (possibly empty) over a list of
    queries of orders 1 to 3, in any order."""
    sizes = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))) + (2,)
    schema = Schema(tuple(f"x{j}" for j in range(len(sizes) - 1)) + ("label",), sizes)
    queries = enumerate_queries(len(sizes) - 1, min(3, len(sizes)))
    picked = draw(st.lists(st.sampled_from(queries), min_size=1, max_size=len(queries), unique=True))
    ds = random_dataset(schema, draw(st.integers(0, 30)), draw(st.integers(0, 2**16)))
    return [compute_marginal(ds, q) for q in picked]


@given(marginal_lists(), st.sampled_from([0.0, 1e-3, 0.7, 3.0, 250.0]), st.integers(0, 2**63 - 1))
def test_noisy_vector_is_the_per_query_loop_bit_for_bit(marginals, sigma, seed):
    counts = np.concatenate(marginals)
    before = counts.copy()
    got = add_noise_to_set(counts, [h.size for h in marginals], sigma, seed)
    want = np.concatenate(reference_add_noise_to_set(marginals, sigma, seed))
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert counts.tobytes() == before.tobytes()


class TestTailBound:
    def test_zero_sigma(self):
        assert synthesis_l1_bound(0.0, 2, 3, 2, 3.0) == 0.0

    def test_frozen_fixture(self):
        # 2 * 2^2 * sqrt(2 (11 ln 2 + 2 ln 4)), evaluated in extended precision
        got = synthesis_l1_bound(1.0, 2, 2, 2, 10.0)
        assert got == pytest.approx(36.48071527088106, rel=1e-12)

    def test_monotonicity(self):
        base = synthesis_l1_bound(1.0, 2, 2, 2, 3.0)
        assert synthesis_l1_bound(2.0, 2, 2, 2, 3.0) > base
        assert synthesis_l1_bound(1.0, 3, 2, 2, 3.0) > base
        assert synthesis_l1_bound(1.0, 2, 2, 3, 3.0) > base
        assert synthesis_l1_bound(1.0, 2, 2, 2, 9.0) > base


def test_noisy_vs_real_coverage(three_binary_schema):
    """Max-over-queries l1 gap between noisy and exact marginals stays below the
    tail bound in all but ~2^-lambda of seeded trials (noise half only, so the
    full doubled bound has wide slack)."""
    ds = random_dataset(three_binary_schema, 50, seed=123)
    op = MarginalOperator(three_binary_schema, enumerate_queries(3, 2))
    exact = np.concatenate([compute_marginal(ds, q) for q in op.queries])
    sigma = calibrate(3, 2, PrivacyParams(1.0, 1 / 50**2, lam=3.0))
    bound = synthesis_l1_bound(sigma, 2, 3, 2, 3.0)
    trials, violations = 1000, 0
    for seed in range(trials):
        noisy = add_noise_to_set(exact, op.num_bins, sigma, seed)
        worst = op.l1_to(noisy, exact).max()
        violations += worst > bound
    slack = 2.326 * math.sqrt(0.125 * 0.875 / trials)  # 99% binomial upper bound
    assert violations / trials <= 0.125 + slack


def test_sigma_has_one_derivation():
    # the mechanism and the private bounds both take sigma from calibrate,
    # so a new derivation of sigma lands there
    found = {path.name: call_scopes(path.read_text(), "gaussian_sigma") for path in PACKAGE.glob("*.py")}
    assert {name: scopes for name, scopes in found.items() if scopes} == {"privacy.py": ["calibrate"]}


def test_the_release_has_one_builder():
    # only the mechanism noises the marginals and records them as a Release, so
    # a release's n and sigma are those of the noise actually added; the
    # private bounds take sigma from calibrate too
    def callers(name: str) -> list[str]:
        return sorted(f"{path.stem}.{scope}" for path in PACKAGE.glob("*.py")
                      for scope in call_scopes(path.read_text(), name))

    assert callers("Release") == callers("add_noise_to_set") == ["synth.generate_synthetic"]
    assert callers("calibrate") == ["bounds.private_excess_risk_bound", "synth.generate_synthetic"]


def test_calibration_is_recomputable():
    sigma = calibrate(4, 2, PrivacyParams(0.5, 1e-6))
    assert isinstance(sigma, float)
    assert sigma == pytest.approx(
        gaussian_sigma(0.5, 1e-6, marginal_set_sensitivity(4, 2)), rel=1e-15)
