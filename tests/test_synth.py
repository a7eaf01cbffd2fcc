import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margsyn.dataset import Dataset, Schema
from margsyn.marginals import MarginalQuery, compute_marginal, enumerate_queries, l1_distance
from margsyn.privacy import PrivacyParams, add_noise_to_set
from margsyn.synth import (DistributionEstimate, NoisyMarginalSet, SynthesisError,
                           brute_force_synth, fit_distribution, generate_synthetic,
                           num_joint_cells, sample_dataset, synthesize)

from conftest import random_dataset


def noisy_set_from(ds: Dataset, d: int, sigma: float, seed: int) -> NoisyMarginalSet:
    queries = enumerate_queries(ds.schema.num_features, d)
    exact = [compute_marginal(ds, q) for q in queries]
    noisy = add_noise_to_set(exact, sigma, seed)
    return NoisyMarginalSet(ds.schema, tuple(noisy), sigma, seed)


def oracle_best_objective(n: int, nm: NoisyMarginalSet) -> float:
    """Independent exhaustive recomputation of the optimal max-l1 objective."""
    schema = nm.schema
    cells = num_joint_cells(schema)
    all_codes = list(itertools.product(*[range(s) for s in schema.sizes]))
    best = math.inf
    for combo in itertools.combinations_with_replacement(range(cells), n):
        rows = np.array([all_codes[c] for c in combo], dtype=np.int64).reshape(n, len(schema.sizes))
        cand = Dataset(schema, rows)
        obj = max(l1_distance(m, compute_marginal(cand, m.query)) for m in nm.marginals)
        best = min(best, obj)
    return best


class TestBruteForce:
    def test_zero_noise_reaches_zero_objective(self, two_binary_rows):
        nm = noisy_set_from(two_binary_rows, 2, 0.0, seed=0)
        ds_s = brute_force_synth(4, nm)
        assert all(l1_distance(m, compute_marginal(ds_s, m.query)) == 0.0 for m in nm.marginals)

    def test_recovers_marginals_of_two_row_dataset(self):
        schema = Schema(("a", "label"), (2, 2))
        real = Dataset(schema, np.array([[0, 1], [1, 0]]))
        nm = noisy_set_from(real, 2, 0.0, seed=0)
        ds_s = brute_force_synth(2, nm)  # 10 candidate multisets
        for m in nm.marginals:
            assert np.array_equal(compute_marginal(ds_s, m.query).counts, m.counts)

    def test_objective_never_worse_than_real_dataset(self, two_binary_rows):
        for seed in range(10):
            nm = noisy_set_from(two_binary_rows, 2, 1.5, seed=seed)
            ds_s = brute_force_synth(4, nm)
            obj_s = max(l1_distance(m, compute_marginal(ds_s, m.query)) for m in nm.marginals)
            obj_r = max(l1_distance(m, compute_marginal(two_binary_rows, m.query))
                        for m in nm.marginals)
            assert obj_s <= obj_r + 1e-9

    def test_matches_exhaustive_oracle(self):
        schema = Schema(("a", "label"), (2, 2))
        real = random_dataset(schema, 3, seed=5)
        for seed in range(8):
            nm = noisy_set_from(real, 2, 1.0, seed=seed)
            ds_s = brute_force_synth(3, nm)  # C(6,3) = 20 candidates
            obj = max(l1_distance(m, compute_marginal(ds_s, m.query)) for m in nm.marginals)
            assert obj == pytest.approx(oracle_best_objective(3, nm), abs=1e-9)

    def test_cap_exceeded(self, two_binary_rows):
        nm = noisy_set_from(two_binary_rows, 2, 0.0, seed=0)
        with pytest.raises(SynthesisError):
            brute_force_synth(4, nm, cap=3)

    def test_empty_query_set(self, two_binary_rows):
        nm = NoisyMarginalSet(two_binary_rows.schema, (), 0.0, 0)
        with pytest.raises(SynthesisError):
            brute_force_synth(2, nm)

    def test_duplicate_queries_rejected(self, two_binary_rows):
        m = compute_marginal(two_binary_rows, MarginalQuery((0,)))
        with pytest.raises(SynthesisError):
            NoisyMarginalSet(two_binary_rows.schema, (m, m), 0.0, 0)


class TestGreedyFallback:
    def test_greedy_engages_beyond_cap_and_beats_real(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 60, seed=2)
        for seed in range(5):
            nm = noisy_set_from(real, 2, 8.0, seed=seed)
            ds_s, stats = synthesize(60, nm, "brute", cap=1000)
            assert ds_s.n == 60
            obj_r = max(l1_distance(m, compute_marginal(real, m.query)) for m in nm.marginals)
            assert stats["l1_to_noisy_max"] <= obj_r + 1e-9

    def test_deterministic(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 40, seed=3)
        nm = noisy_set_from(real, 2, 5.0, seed=11)
        a, _ = synthesize(40, nm, "brute", cap=10)
        b, _ = synthesize(40, nm, "brute", cap=10)
        assert np.array_equal(a.codes, b.codes)


class TestFitDistribution:
    def test_noiseless_marginals_are_matched(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 64, seed=9)
        nm = noisy_set_from(real, 2, 0.0, seed=0)
        dist = fit_distribution(nm, n=real.n)
        for m in nm.marginals:
            fitted = real.n * dist.marginal_probs(m.query)
            assert np.abs(fitted - m.counts).sum() <= 1e-3 * real.n

    def test_single_full_query_exact(self, two_binary_rows):
        nm = noisy_set_from(two_binary_rows, 2, 0.0, seed=0)
        full = [m for m in nm.marginals if m.query.order == 2]
        nm_full = NoisyMarginalSet(two_binary_rows.schema, tuple(full), 0.0, 0)
        dist = fit_distribution(nm_full, n=4)
        assert dist.objective_trace[-1] <= 1e-20
        assert np.allclose(dist.probs, full[0].counts / 4.0)

    def test_negative_entries_resolved(self, two_binary_rows):
        nm = noisy_set_from(two_binary_rows, 2, 6.0, seed=4)
        assert any(m.counts.min() < 0 for m in nm.marginals)  # noise drove some negative
        dist = fit_distribution(nm, n=4)
        assert np.all(dist.probs >= 0)
        assert float(dist.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_objective_monotone(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 50, seed=1)
        for seed in range(5):
            nm = noisy_set_from(real, 2, 4.0, seed=seed)
            dist = fit_distribution(nm, n=50)
            trace = np.asarray(dist.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0))

    def test_dense_cap(self):
        sizes = (6,) * 8 + (2,)
        schema = Schema(tuple(f"x{i}" for i in range(8)) + ("label",), sizes)
        ds = random_dataset(schema, 5, seed=0)
        nm = noisy_set_from(ds, 1, 0.0, seed=0)
        with pytest.raises(SynthesisError):
            fit_distribution(nm, n=5)


def cell_counts(ds: Dataset) -> np.ndarray:
    flat = np.ravel_multi_index(tuple(ds.codes.T), ds.schema.sizes)
    return np.bincount(flat, minlength=num_joint_cells(ds.schema))


def column_dist(mu) -> DistributionEstimate:
    """The fractional counts mu as a distribution over cells (a=t, label=0)."""
    mu = np.asarray(mu, dtype=np.float64)
    probs = np.zeros((max(2, mu.shape[0]), 2))
    probs[:mu.shape[0], 0] = mu / mu.sum()
    return DistributionEstimate(Schema(("a", "label"), probs.shape), probs.ravel(), (0.0,))


class TestSampleColumn:
    """Rounding one column of fractional counts, through sample_dataset."""

    def test_fractional_split(self):
        ds = sample_dataset(column_dist([1.5, 2.5]), 4, np.random.default_rng(0))
        counts = cell_counts(ds)[::2]
        assert counts.sum() == 4
        assert tuple(counts) in {(2, 2), (1, 3)}

    def test_integral_case_deterministic(self):
        ds = sample_dataset(column_dist([3.0, 1.0]), 4, np.random.default_rng(0))
        assert cell_counts(ds).tolist() == [3, 0, 1, 0]

    def test_remainder_frequency(self):
        hits = 0
        for seed in range(10_000):
            ds = sample_dataset(column_dist([1.5, 2.5]), 4, np.random.default_rng(seed))
            hits += cell_counts(ds)[0] == 2
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_all_zero_weights(self):
        dist = column_dist([0.0, 2.0, 0.0])
        ds = sample_dataset(dist, 5, np.random.default_rng(0))
        assert cell_counts(ds).tolist() == [0, 0, 5, 0, 0, 0]
        assert sample_dataset(dist, 0, np.random.default_rng(0)).codes.shape == (0, 2)

    @given(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8), st.integers(-1, 1),
           st.integers(0, 2**31 - 1))
    def test_conservation_envelope(self, mu_list, offset, seed):
        mu = np.asarray(mu_list)
        if mu.sum() <= 0:
            return
        n = max(1, int(round(mu.sum())) + offset)
        scaled = n * (mu / mu.sum())
        ds = sample_dataset(column_dist(mu), n, np.random.default_rng(seed))
        counts = cell_counts(ds)[::2][:len(mu_list)]
        assert counts.sum() == n
        floors = np.floor(scaled).astype(int)
        assert np.all(counts >= floors - 0)  # never below the floor
        assert np.all(counts <= floors + 1)  # at most one extra per value


class TestSampleDataset:
    def test_point_mass(self, three_binary_schema):
        probs = np.zeros(num_joint_cells(three_binary_schema))
        probs[5] = 1.0
        dist = DistributionEstimate(three_binary_schema, probs, (0.0,))
        ds = sample_dataset(dist, 12, np.random.default_rng(0))
        assert ds.n == 12
        assert len(ds.row_multiset()) == 1

    def test_uniform_two_cells_exact_split(self):
        schema = Schema(("a", "label"), (2, 2))
        probs = np.array([0.5, 0.0, 0.0, 0.5])
        dist = DistributionEstimate(schema, probs, (0.0,))
        ds = sample_dataset(dist, 100, np.random.default_rng(1))
        ms = ds.row_multiset()
        assert ms[(0, 0)] == 50 and ms[(1, 1)] == 50

    def test_large_sample_matches_marginals(self, three_binary_schema):
        rng = np.random.default_rng(42)
        raw = rng.random(num_joint_cells(three_binary_schema))
        dist = DistributionEstimate(three_binary_schema, raw / raw.sum(), (0.0,))
        n = 10_000
        ds = sample_dataset(dist, n, np.random.default_rng(7))
        for q in enumerate_queries(3, 2):
            emp = compute_marginal(ds, q).counts
            want = n * dist.marginal_probs(q)
            assert np.abs(emp - want).sum() / n <= 0.05

    @given(st.lists(st.integers(2, 4), min_size=1, max_size=3), st.data(),
           st.integers(0, 60), st.integers(0, 2**31 - 1))
    def test_rounding_guarantees(self, feature_sizes, data, n, seed):
        sizes = tuple(feature_sizes) + (2,)
        schema = Schema(tuple(f"x{j}" for j in range(len(sizes) - 1)) + ("label",), sizes)
        cells = num_joint_cells(schema)
        weights = np.array(data.draw(st.lists(st.integers(0, 5), min_size=cells, max_size=cells)
                                     .filter(lambda w: sum(w) > 0)))
        total = int(weights.sum())
        dist = DistributionEstimate(schema, weights / total, (0.0,))
        counts = cell_counts(sample_dataset(dist, n, np.random.default_rng(seed)))
        assert counts.sum() == n
        # integer arithmetic: floor(mu_c) = (n * w_c) // total with mu_c = n * w_c / total
        floors = (n * weights) // total
        assert np.all((counts == floors) | (counts == floors + 1))
        assert np.all(counts[weights == 0] == 0)
        # every group of fixed leading attributes is within < 1 row of its mass
        for depth in range(1, len(sizes) + 1):
            groups = math.prod(sizes[:depth])
            group_counts = counts.reshape(groups, -1).sum(axis=1)
            group_weights = weights.reshape(groups, -1).sum(axis=1)
            assert np.all(np.abs(group_counts * total - n * group_weights) < total)

    def test_cell_counts_unbiased(self):
        schema = Schema(("a", "label"), (3, 2))
        probs = np.array([0.13, 0.0, 0.27, 0.05, 0.35, 0.2])
        dist = DistributionEstimate(schema, probs, (0.0,))
        n, draws = 7, 10_000
        mean = sum(cell_counts(sample_dataset(dist, n, np.random.default_rng(seed)))
                   for seed in range(draws)) / draws
        # each count is floor(mu) or floor(mu)+1, so its standard deviation is <= 0.5
        assert np.all(np.abs(mean - n * probs) <= 4 * 0.5 / math.sqrt(draws))


class TestMechanism:
    def test_zero_noise_full_order_reproduces_marginals(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 30, seed=3)
        ds_s, report = generate_synthetic(real, 4, mode="brute", seed=1, sigma_override=0.0)
        assert report.nonprivate_l1_to_real_max == 0.0
        assert ds_s.row_multiset() == real.row_multiset()  # full-order marginals pin the multiset

    def test_fixed_seed_bit_identical(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 40, seed=4)
        a, ra = generate_synthetic(real, 2, PrivacyParams(1.0, 1e-6), mode="fitted", seed=9)
        b, rb = generate_synthetic(real, 2, PrivacyParams(1.0, 1e-6), mode="fitted", seed=9)
        assert np.array_equal(a.codes, b.codes)
        assert ra.to_dict() == rb.to_dict()

    def test_output_schema_and_size(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 25, seed=5)
        ds_s, report = generate_synthetic(real, 2, PrivacyParams(0.5, 1e-6), mode="brute", seed=0)
        assert ds_s.schema == real.schema
        assert ds_s.n == real.n == report.n
        assert report.query_count == 10
        assert report.sensitivity == math.sqrt(2 * 10)

    def test_sampler_stream_differs_from_every_noise_stream(self, three_binary_schema, monkeypatch):
        from margsyn import synth
        states = []

        def capture(dist, n, rng):
            states.append(rng.bit_generator.state)
            return sample_dataset(dist, n, rng)

        monkeypatch.setattr(synth, "sample_dataset", capture)
        real = random_dataset(three_binary_schema, 30, seed=8)
        for seed in (0, 1, 2, 7, 12345, 2**32 - 1):
            _, report = generate_synthetic(real, 2, mode="fitted", seed=seed, sigma_override=1.0,
                                           fit_iters=5)
            sampler_state = states.pop()
            for idx in range(report.query_count):
                assert sampler_state != np.random.default_rng([seed, idx]).bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_bound_certified_on_exhaustive_path(self, seed):
        # the real data is itself a candidate of the exhaustive search, so the
        # minimiser is certified whenever the real data would be
        schema = Schema(("a", "b", "label"), (2, 2, 2))
        real = random_dataset(schema, 3, seed=seed)
        privacy = PrivacyParams(1.0, 1e-3, lam=1.0)
        _, report = generate_synthetic(real, 2, privacy, mode="brute", seed=seed)
        exact = [compute_marginal(real, q) for q in enumerate_queries(2, 2)]
        noisy = add_noise_to_set(exact, report.sigma, seed)
        real_to_noisy = max(l1_distance(e, h) for e, h in zip(exact, noisy))
        assert report.bound_certified == (report.l1_to_noisy_max <= report.l1_bound_at_lam / 2)
        if real_to_noisy <= report.l1_bound_at_lam / 2:
            assert report.bound_certified is True

    def test_bound_certified_can_fail(self):
        # with almost no noise, half the bound is far below one row, so any
        # rounding error of the fitted sampler leaves the bound uncertified
        schema = Schema(("a", "b", "c", "label"), (2, 2, 2, 2))
        real = random_dataset(schema, 40, seed=3)
        privacy = PrivacyParams(1000.0, 0.5, allow_large_epsilon=True)
        flags = []
        for seed in range(5):
            _, report = generate_synthetic(real, 2, privacy, mode="fitted", seed=seed, fit_iters=50)
            assert report.bound_certified == (report.l1_to_noisy_max <= report.l1_bound_at_lam / 2)
            flags.append(report.bound_certified)
        assert False in flags

    def test_synthesizer_has_no_real_data_parameter(self):
        params = inspect.signature(synthesize).parameters
        assert "ds_real" not in params
        assert all("real" not in name for name in params)

    def test_zero_noise_excess_risk_vanishes(self, three_binary_schema):
        from margsyn.evaluate import empirical_risk
        from margsyn.learn import LossSpec, TrainConfig, train_projected
        real = random_dataset(three_binary_schema, 40, seed=12)
        ds_s, _ = generate_synthetic(real, 4, mode="brute", seed=2, sigma_override=0.0)
        tau = 1.0 / math.sqrt(3)
        cfg = TrainConfig(max_iters=200)
        w_s = train_projected(ds_s, LossSpec.logistic(), tau, cfg)
        w_r = train_projected(real, LossSpec.logistic(), tau, cfg)
        gap = abs(empirical_risk(w_s, real) - empirical_risk(w_r, real))
        assert gap <= 1e-3

    def test_report_serializes(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 20, seed=6)
        ds_s, report = generate_synthetic(real, 2, mode="brute", seed=0, sigma_override=0.5)
        doc = report.to_dict()
        assert doc["sigma"] == 0.5
        assert doc["epsilon"] is None
        assert doc["bound_certified"] is None  # no lambda, no bound
        assert doc["mode"] == "brute"
