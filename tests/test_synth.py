import inspect
import itertools
import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from margsyn.dataset import Dataset, Schema, write_csv
from margsyn.demo import make_demo_dataset
from margsyn.evaluate import accuracy, empirical_risk
from margsyn.learn import LossSpec, TrainConfig, train_projected
from margsyn.marginals import MarginalOperator, MarginalQuery, compute_marginal, enumerate_queries
from margsyn.privacy import (PrivacyParams, add_noise_to_set, calibrate, marginal_set_sensitivity,
                            synthesis_l1_bound)
from margsyn.synth import (_SCAN_BATCH, DEFAULT_CANDIDATE_CAP, DistributionEstimate, Release,
                           SynthesisError, _path, _simplex_projector, brute_force_synth,
                           fit_distribution, generate_synthetic, sample_dataset, synthesize)

from conftest import (cell_counts, dense_marginal_matrix, per_query, random_dataset, release_of,
                      reference_counts_to_rows, reference_encode_xy as encode_xy,
                      reference_exhaustive_counts, reference_l1_distance,
                      reference_fit, reference_project_simplex, reference_row_multiset)


def release_from(ds: Dataset, d: int, sigma: float, seed: int, n: int | None = None) -> Release:
    """The release of the order-<=d marginals of `ds`, of `ds.n` rows unless n is given."""
    return release_over(ds, enumerate_queries(ds.schema.num_features, d), sigma, seed, n)


def release_over(ds: Dataset, queries, sigma: float, seed: int, n: int | None = None) -> Release:
    return release_of(ds.schema, [(q, compute_marginal(ds, q)) for q in queries],
                      ds.n if n is None else n, sigma, seed)


def assert_brute_above_cap_is_fitted(nm: Release) -> None:
    """Brute mode above the cap gives the fitted path's counts and stats, bit for bit."""
    (ds_b, brute), (ds_f, fitted) = synthesize(nm, "brute", cap=0), synthesize(nm, "fitted")
    assert brute["path"] == "fitted"
    assert cell_counts(ds_b).tobytes() == cell_counts(ds_f).tobytes()
    assert brute.pop("marginals").tobytes() == fitted.pop("marginals").tobytes()
    assert brute == fitted


def l1_to_noisy(counts: np.ndarray, nm: Release) -> np.ndarray:
    """Each query's l1 distance from the marginal of a cell-count vector to its noisy marginal."""
    return nm.operator.l1_to(nm.operator.forward(counts), nm.target)


def oracle_best_objective(n: int, nm: Release) -> float:
    """Independent exhaustive recomputation of the optimal max-l1 objective."""
    schema = nm.schema
    cells = math.prod(schema.sizes)
    all_codes = list(itertools.product(*[range(s) for s in schema.sizes]))
    best = math.inf
    for combo in itertools.combinations_with_replacement(range(cells), n):
        rows = np.array([all_codes[c] for c in combo], dtype=np.int64).reshape(n, len(schema.sizes))
        cand = Dataset(schema, rows)
        obj = max(reference_l1_distance(h, compute_marginal(cand, q)) for q, h in per_query(nm))
        best = min(best, obj)
    return best


MISFIT_SCHEMA = Schema(("a", "b", "label"), (4, 2, 2))
# n=3 on 16 cells is 816 candidates: exhaustive under cap 10,000, fitted under cap 0;
# each id's mode, cap and the path that runs
SYNTH_PATHS = {"exhaustive": ("brute", 10_000, "exhaustive"), "brute-above-cap": ("brute", 0, "fitted"),
               "fitted": ("fitted", 10_000, "fitted")}


def misfit_target(case: str) -> tuple[MarginalOperator, np.ndarray]:
    """All order-<=2 queries of MISFIT_SCHEMA and the marginals of a 3-row dataset
    in their layout, changed so they no longer fit the queries."""
    op = MarginalOperator(MISFIT_SCHEMA, enumerate_queries(2, 2))
    target = op.forward(cell_counts(random_dataset(MISFIT_SCHEMA, 3, seed=0)))
    if case == "one bin short":
        target = target[:-1]
    elif case == "one bin extra":
        target = np.append(target, 0.0)
    elif case == "2-D counts":
        target = target.reshape(-1, 2)
    else:
        target[op.offsets[2]] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[case]
    return op, target


class TestRelease:
    @pytest.mark.parametrize("path", SYNTH_PATHS)
    @pytest.mark.parametrize("case", ["nan", "inf", "-inf", "one bin short", "one bin extra", "2-D counts"])
    def test_marginals_that_do_not_fit_their_queries_are_rejected(self, case, path):
        mode, cap, _ = SYNTH_PATHS[path]
        match = "non-finite" if "inf" in case or case == "nan" else "bins"
        with pytest.raises(SynthesisError, match=match):
            nm = Release(*misfit_target(case), 3, 0.0)
            synthesize(nm, mode, cap=cap)

    def test_target_is_a_read_only_copy(self, three_binary_schema):
        op = MarginalOperator(three_binary_schema, enumerate_queries(3, 2))
        counts = op.forward(cell_counts(random_dataset(three_binary_schema, 10, seed=1)))
        nm = Release(op, counts, 10, 0.0)
        assert nm.target.tobytes() == counts.tobytes() and not nm.target.flags.writeable
        counts[0] += 1.0
        assert nm.target[0] == counts[0] - 1.0
        assert nm.operator is op and nm.schema is op.schema

    def test_a_set_over_any_domain_builds_no_table(self):
        # 40 binary features + label: a bin table would take 17.6 TB per query
        op = MarginalOperator(make_demo_dataset(m=40, n=1, seed=0).schema, enumerate_queries(40, 1))
        nm = Release(op, np.zeros(sum(op.num_bins)), 1, 0.0)
        assert nm.operator.num_cells == 2 ** 41 and "bin_maps" not in vars(op)


class TestBruteForce:
    def test_zero_noise_reaches_zero_objective(self, two_binary_rows):
        nm = release_from(two_binary_rows, 2, 0.0, seed=0)
        assert all(l1_to_noisy(brute_force_synth(4, nm), nm) == 0.0)

    def test_recovers_marginals_of_two_row_dataset(self):
        schema = Schema(("a", "label"), (2, 2))
        real = Dataset(schema, np.array([[0, 1], [1, 0]]))
        nm = release_from(real, 2, 0.0, seed=0)
        counts = brute_force_synth(2, nm)  # 10 candidate multisets
        for (_, h), got in zip(per_query(nm), np.split(nm.operator.forward(counts), nm.operator.offsets[1:])):
            assert np.array_equal(got, h)

    def test_objective_never_worse_than_real_dataset(self, two_binary_rows):
        for seed in range(10):
            nm = release_from(two_binary_rows, 2, 1.5, seed=seed)
            obj_s = l1_to_noisy(brute_force_synth(4, nm), nm).max()
            obj_r = max(reference_l1_distance(h, compute_marginal(two_binary_rows, q))
                        for q, h in per_query(nm))
            assert obj_s <= obj_r + 1e-9

    def test_matches_exhaustive_oracle(self):
        schema = Schema(("a", "label"), (2, 2))
        real = random_dataset(schema, 3, seed=5)
        for seed in range(8):
            nm = release_from(real, 2, 1.0, seed=seed)
            obj = l1_to_noisy(brute_force_synth(3, nm), nm).max()  # C(6,3) = 20 candidates
            assert obj == pytest.approx(oracle_best_objective(3, nm), abs=1e-9)

    def test_cap_exceeded(self, two_binary_rows, monkeypatch):
        from margsyn import synth
        nm = release_from(two_binary_rows, 2, 0.0, seed=0)

        def no_scan(*args, **kwargs):
            raise AssertionError("the exhaustive scan ran past its cap")

        monkeypatch.setattr(synth, "brute_force_synth", no_scan)
        ds, stats = synthesize(nm, "brute", cap=3)  # 35 candidate multisets
        assert stats["path"] == "fitted" and ds.n == 4

    def test_empty_query_set(self, two_binary_rows):
        with pytest.raises(SynthesisError):
            Release(MarginalOperator(two_binary_rows.schema, []), np.zeros(0), 4, 0.0)

    def test_duplicate_queries_rejected(self, two_binary_rows):
        q = MarginalQuery((0,))
        pair = (q, compute_marginal(two_binary_rows, q))
        with pytest.raises(SynthesisError, match="duplicate queries"):
            release_of(two_binary_rows.schema, [pair, pair], 4)


class TestAboveTheCap:
    def test_engages_beyond_cap_and_beats_real(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 60, seed=2)
        for seed in range(5):
            nm = release_from(real, 2, 8.0, seed=seed)
            ds_s, stats = synthesize(nm, "brute", cap=1000)
            assert ds_s.n == 60
            obj_r = max(reference_l1_distance(h, compute_marginal(real, q)) for q, h in per_query(nm))
            assert stats["l1_to_noisy_max"] <= obj_r + 1e-9

    def test_empty_query_set(self, two_binary_rows):
        with pytest.raises(SynthesisError, match="empty query set"):
            Release(MarginalOperator(two_binary_rows.schema, ()), np.zeros(0), 4, 0.0)

    def test_deterministic(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 40, seed=3)
        nm = release_from(real, 2, 5.0, seed=11)
        a, _ = synthesize(nm, "brute", cap=10)
        b, _ = synthesize(nm, "brute", cap=10)
        assert np.array_equal(a.codes, b.codes)

    def test_brute_above_cap_runs_the_module_fit(self, three_binary_schema, monkeypatch):
        # the fit is looked up on the module at each call, so a wrapper set
        # there (as perfbench's tracer sets one) sees brute mode's fit above the cap
        from margsyn import synth
        nm = release_from(random_dataset(three_binary_schema, 40, seed=3), 2, 5.0, seed=11)
        seen = []

        def spy(*args, **kwargs):
            seen.append(fit_distribution(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(synth, "fit_distribution", spy)
        _, stats = synthesize(nm, "brute", cap=10)
        [dist] = seen
        assert stats["path"] == "fitted"
        assert stats["fit_iterations"] == len(dist.objective_trace) - 1 > 0
        assert stats["fit_converged"] is dist.converged
        _, stats = synthesize(replace(nm, n=2), "brute", cap=10_000)  # C(17, 2) = 136 candidates
        assert stats["path"] == "exhaustive" and len(seen) == 1

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 2, 2), (3, 2, 2), (2,) * 4, (5, 3, 2),
                                       (2,) * 10, (2,) * 17], ids=str)
    def test_brute_routes_by_the_candidate_count(self, sizes):
        # exhaustive iff C(cells + k - 1, k) <= cap with k = max(n, 1), so the
        # empty request goes where one row does; otherwise brute is fitted
        schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        op = MarginalOperator(schema, enumerate_queries(len(sizes) - 1, 1))
        for n in (0, 1, 2, 3, 5, 10, 50, 400, 100_000):
            count = math.comb(op.num_cells + max(n, 1) - 1, max(n, 1))
            for cap in {0, 1, 3, 4, 10, 816, 10_000, 10**7, count - 1, count, count + 1}:
                want = "exhaustive" if count <= cap else "fitted"
                assert _path(n, op, "brute", cap) == want, (n, cap)
                assert _path(n, op, "fitted", cap) == "fitted"

    def test_brute_routes_without_a_binomial(self, monkeypatch):
        # 16 binary features + label at n = 100,000: C(231,071, 100,000) has
        # about 65,000 digits, and the route needs only its first steps
        from margsyn import synth
        op = MarginalOperator(make_demo_dataset(m=16, n=1, seed=0).schema, enumerate_queries(16, 1))

        def refuse(*args):
            raise AssertionError("the route computed a binomial")

        monkeypatch.setattr(synth.math, "comb", refuse)
        assert _path(100_000, op, "brute", synth.DEFAULT_CANDIDATE_CAP) == "fitted"
        assert _path(0, op, "brute", op.num_cells) == "exhaustive"

    @pytest.mark.parametrize("eps", [0.25, 2.0])
    def test_at_least_as_close_as_the_real_data_at_sweep_scale(self, eps):
        # the real data is a candidate, so an output farther from the noisy
        # marginals than it breaks the premise of synthesis_l1_bound's triangle
        # inequality; 4 binary features + label at n=32,000 is the sweep's shape
        n = 32_000
        privacy = PrivacyParams(eps, 1.0 / n ** 2, allow_large_epsilon=True)
        for seed in range(1, 6):
            real = make_demo_dataset(m=4, n=n, seed=seed)
            _, report = generate_synthetic(real, 2, privacy, mode="brute", seed=seed)
            nm = release_from(real, 2, report.sigma, seed)
            assert report.path == "fitted"
            assert report.l1_to_noisy_max <= l1_to_noisy(cell_counts(real), nm).max() + 1e-9
            assert report.bound_certified



# Mixed arities, and (3, 3, 2) puts 9 bins in a query, past numpy's 8-term
# unrolled sum; sigma 0 makes many candidates tie exactly.
EQUIV_SCHEMAS = [(3, 2, 2), (2, 2, 2, 2), (3, 3, 2)]
EQUIV_SIGMAS = [0.0, 0.7, 3.0]
# Pairs of attributes without their one-way queries, and a three-way query
# whose pairs are missing.
OPEN_QUERIES = [MarginalQuery((0, 1)), MarginalQuery((1, 3)), MarginalQuery((2,)),
                MarginalQuery((0, 2, 3))]


class TestBruteMatchesTheLoop:
    """The batched exhaustive scan picks the same multiset as scoring every
    candidate and every query one at a time, and above the cap brute mode is
    the fitted path."""

    @pytest.mark.parametrize("sizes", EQUIV_SCHEMAS)
    @pytest.mark.parametrize("sigma", EQUIV_SIGMAS)
    def test_exhaustive(self, sizes, sigma):
        schema = Schema(tuple(f"a{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        # seed 3 at sigma 0.7 on (2, 2, 2, 2) and at sigma 3 on (3, 2, 2): summing
        # a query's bins in another order (np.add.reduceat) picks another multiset
        for seed in range(4):
            nm = release_from(random_dataset(schema, 3, seed=seed), 2, sigma, seed)
            assert np.array_equal(brute_force_synth(3, nm), reference_exhaustive_counts(3, nm))

    @pytest.mark.parametrize("sizes", EQUIV_SCHEMAS)
    @pytest.mark.parametrize("sigma", EQUIV_SIGMAS)
    def test_brute_above_cap(self, sizes, sigma):
        schema = Schema(tuple(f"a{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        for seed, n in ((0, 25), (1, 60)):
            nm = release_from(random_dataset(schema, n, seed=seed), 2, sigma, seed)
            assert_brute_above_cap_is_fitted(nm)

    @pytest.mark.parametrize("sigma", [0.0, 3.0])
    def test_brute_above_cap_at_the_benchmark_shape(self, sigma):
        # 6 binary features + label, d=2: 128 cells, 28 queries
        for seed in range(3):
            real = make_demo_dataset(m=6, n=200, seed=seed)
            assert_brute_above_cap_is_fitted(release_from(real, 2, sigma, seed))

    @pytest.mark.parametrize("sigma", EQUIV_SIGMAS)
    def test_query_list_not_closed_under_subsets(self, three_binary_schema, sigma):
        real = random_dataset(three_binary_schema, 30, seed=4)
        nm = release_over(real, OPEN_QUERIES, sigma, seed=9)
        assert np.array_equal(brute_force_synth(3, nm), reference_exhaustive_counts(3, nm))
        assert_brute_above_cap_is_fitted(nm)

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_sizes(self, n):
        schema = Schema(("a", "b", "label"), (3, 2, 2))
        nm = release_from(random_dataset(schema, 4, seed=1), 2, 1.0, seed=2, n=n)
        exhaustive = brute_force_synth(n, nm)
        assert exhaustive.dtype == np.int64
        assert exhaustive.sum() == n
        assert np.array_equal(exhaustive, reference_exhaustive_counts(n, nm))
        assert_brute_above_cap_is_fitted(nm)

    def test_zero_rows_give_all_zero_counts(self):
        for sizes in ((3, 2, 2), (2, 2, 2, 2)):
            schema = Schema(tuple(f"a{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
            nm = release_from(random_dataset(schema, 4, seed=0), 2, 1.0, seed=0)
            counts = brute_force_synth(0, nm)
            assert counts.dtype == np.int64 and counts.tolist() == [0] * math.prod(sizes)

    # Each shape at d and n, and the bins per query of the runs it scores per
    # candidate: those with more bins than a prefix has last cells on average,
    # (cells + n - 1) / n.  (2, 2, 2, 2, 2) at n = 3 has 34 / 3 last cells per
    # prefix; (7, 9, 2) at n = 2 has 63.5, just enough to table its 63-bin
    # query; 6 binary features + label at n = 2 has 64.5; (12, 12, 2) at n = 1
    # has 288, and its 144-bin query is summed as numpy sums more than 128.
    @pytest.mark.parametrize("sizes, d, n, per_candidate", [
        ((2, 2, 2, 2, 2), 5, 3, {16, 32}), ((7, 9, 2), 2, 2, set()), ((2,) * 7, 2, 2, set()),
        ((12, 12, 2), 2, 1, set())],
        ids=["five-binary-d5", "7x9x2", "six-binary-d2", "12x12x2"])
    @pytest.mark.parametrize("sigma", [0.0, 3.0])
    def test_tabled_and_per_candidate_runs(self, sizes, d, n, per_candidate, sigma):
        schema = Schema(tuple(f"a{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        nm = release_from(random_dataset(schema, 40, seed=5), d, sigma, seed=5, n=n)
        cells = nm.operator.num_cells
        runs = {bins for _, _, bins in nm.operator.runs}
        assert {bins for bins in runs if bins * n > cells + n - 1} == per_candidate
        assert 63 not in runs or 63 * n <= cells + n - 1 < 64 * n
        assert np.array_equal(brute_force_synth(n, nm), reference_exhaustive_counts(n, nm))

    @pytest.mark.parametrize("seed", [9, 15])
    def test_tabled_sums_add_in_numpys_order(self, seed):
        # (3, 3, 2) at n = 2 tables its 9-bin query (9 <= 19 / 2); adding those
        # bins one by one, not in numpy's pairwise order, picks another multiset
        schema = Schema(("a", "b", "label"), (3, 3, 2))
        nm = release_from(random_dataset(schema, 6, seed=seed), 2, 0.7, seed, n=2)
        assert np.array_equal(brute_force_synth(2, nm), reference_exhaustive_counts(2, nm))

    def test_candidates_fill_whole_batches(self):
        # 9 binary features + label at n = 1: the one empty prefix's 1,024 last
        # cells are two whole chunks
        real = make_demo_dataset(m=9, n=40, seed=3)
        nm = release_from(real, 2, 2.0, seed=3)
        assert nm.operator.num_cells == 2 * _SCAN_BATCH
        assert np.array_equal(brute_force_synth(1, nm), reference_exhaustive_counts(1, nm))

    # 2 binary features + label at n = 3: C(10, 3) = 120 candidates behind the
    # C(9, 2) = 36 two-cell prefixes, each followed by 1 to 8 last cells.  Chunks
    # of 1 or 7 candidates split the last cells of a prefix, and 8 hold the
    # first prefix's exactly; the prefix batches fill whole or leave one prefix
    # for the last; at 120 one batch and one chunk hold every candidate.  The
    # 2-bin queries are tabled and the 4-bin ones, wider than the 10 / 3 last
    # cells of a prefix on average, scored per candidate; at chunks of 1 every
    # query is, being wider than a chunk.
    @pytest.mark.parametrize("batch", [1, 7, 8, 12, 17, 40, 119, 120])
    def test_batch_boundaries(self, monkeypatch, batch):
        from margsyn import synth
        schema = Schema(("a", "b", "label"), (2, 2, 2))
        monkeypatch.setattr(synth, "_SCAN_BATCH", batch)
        batches = record_prefix_batches(monkeypatch)
        for seed in range(3):
            nm = release_from(random_dataset(schema, 3, seed=seed), 2, 0.7, seed)
            assert np.array_equal(brute_force_synth(3, nm), reference_exhaustive_counts(3, nm))
        scan = batches[:len(batches) // 3]  # each seed's scan reads the same batches
        assert sum(scan) == 36 and set(scan[:-1]) <= {scan[0]} and scan[-1] in (scan[0], 1)

    @pytest.mark.parametrize("batch", [4, 15])
    def test_a_run_wider_than_a_chunk_is_scored_per_candidate(self, monkeypatch, batch):
        # n = 1 on (3, 5, 2): the (0, 1) query's 15 bins are tabled at chunks of
        # 15 and scored per candidate at 4, with the 6- and 10-bin queries
        from margsyn import synth
        schema = Schema(("a", "b", "label"), (3, 5, 2))
        monkeypatch.setattr(synth, "_SCAN_BATCH", batch)
        for sigma in (0.0, 3.0):
            nm = release_from(random_dataset(schema, 5, seed=2), 2, sigma, seed=2, n=1)
            assert max(nm.operator.num_bins) == 15
            assert np.array_equal(brute_force_synth(1, nm), reference_exhaustive_counts(1, nm))

    def test_optimum_and_tie_in_later_batches(self, three_binary_schema, monkeypatch):
        # one-way queries only, zero noise: the optimum is first met after the
        # first batch of prefixes and met again in a later batch
        from margsyn import synth
        monkeypatch.setattr(synth, "_SCAN_BATCH", 64)
        batches = record_prefix_batches(monkeypatch)
        real = Dataset(three_binary_schema, np.array([[0, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 0]]))
        nm = release_over(real, enumerate_queries(3, 1), 0.0, seed=0)
        combos = list(itertools.combinations_with_replacement(range(16), 3))
        op = nm.operator
        objs = np.array([op.l1_to(op.forward(np.bincount(c, minlength=16).astype(np.float64)),
                                  nm.target).max() for c in combos])
        ties = np.flatnonzero(objs == objs.min())
        got = brute_force_synth(3, nm)
        # each candidate's batch: the batch of its two-cell prefix
        prefixes = list(itertools.combinations_with_replacement(range(16), 2))
        batch_of = np.repeat(np.arange(len(batches)), batches)
        at = [batch_of[prefixes.index(combos[t][:2])] for t in ties]
        assert len(batches) > 2 and 0 < at[0] < at[-1]
        assert np.array_equal(got, np.bincount(combos[ties[0]], minlength=16))
        assert np.array_equal(got, reference_exhaustive_counts(3, nm))

    def test_scan_memory_does_not_grow_with_the_candidates(self):
        schema = Schema(("a", "b", "c", "d", "label"), (2, 2, 2, 2, 2))
        nm = release_from(random_dataset(schema, 3, seed=0), 2, 1.0, seed=0)
        nm.operator.bin_maps  # built once, before either measurement
        peaks = []
        for n in (3, 4):  # 5,984 and 52,360 candidates, each filling batches
            tracemalloc.start()
            try:
                brute_force_synth(n, nm)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.5 * min(peaks)
        # 12 binary features + label at n = 1: the one empty prefix has all
        # 8,192 cells as last cells; gathering every query's bin of every cell
        # at once would allocate one queries x cells table of float64 (6.0 MB)
        nm = release_from(make_demo_dataset(m=12, n=50, seed=0), 2, 1.0, seed=0, n=1)
        op = nm.operator
        op.bin_maps
        assert (len(op.queries), op.num_cells) == (91, 8192)
        tracemalloc.start()
        try:
            brute_force_synth(1, nm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(op.queries) * op.num_cells * 8


def record_prefix_batches(monkeypatch) -> list[int]:
    """The number of prefixes in each batch the exhaustive scan reads, appended as it reads them."""
    from margsyn import synth
    sizes, prefixes = [], synth._prefixes

    def recorded(*args):
        for rows in prefixes(*args):
            sizes.append(rows.shape[0])
            yield rows

    monkeypatch.setattr(synth, "_prefixes", recorded)
    return sizes


def reference_pgd_objective(nm: Release, iters: int = 2000, tol: float = 1e-10) -> float:
    """Final objective of plain projected gradient with the fixed step 1/L,
    L = 2 n^2 sum_q cells/|bins_q| (the all-ones curvature), from uniform."""
    op, n = nm.operator, nm.n
    targets = np.split(nm.target, op.offsets[1:])
    cells = op.num_cells
    step = 1.0 / (2.0 * n * n * sum(cells / t.shape[0] for t in targets))

    def objective_and_grad(p):
        diffs = [n * seg - t for seg, t in zip(np.split(op.forward(p), op.offsets[1:]), targets)]
        return sum(float(d @ d) for d in diffs), op.adjoint(np.concatenate([2.0 * n * d for d in diffs]))

    project = _simplex_projector(cells)
    p = np.full(cells, 1.0 / cells)
    obj, grad = objective_and_grad(p)
    for _ in range(iters):
        p = project(p - step * grad)
        obj_new, grad = objective_and_grad(p)
        if obj - obj_new <= tol * max(obj, 1.0):
            return obj_new
        obj = obj_new
    return obj


def dense_start(a: np.ndarray, h: np.ndarray, n: float) -> np.ndarray:
    """The minimum-norm minimizer of ||n a p - h||^2 on the plane sum p = 1:
    uniform plus the pseudo-inverse correction on the sum-zero subspace."""
    cells = a.shape[1]
    u = np.full(cells, 1.0 / cells)
    centre = np.eye(cells) - 1.0 / cells
    # the spectrum is a sum of whole numbers, so every non-zero singular value of
    # n a centre is at least n: the cut-off drops only rounding
    return u + np.linalg.pinv(n * a @ centre, rcond=1e-10) @ (h - n * a @ u)


def reference_fista_trace(nm: Release, iters: int, tol: float = 1e-10) -> tuple[list[float], int]:
    """The fit's iteration on a dense A, objective and gradient from A itself: FISTA
    from the projected `dense_start` with function-value restart, gradient restart
    ((y - p_new).(p_new - p) > 0 on an accepted step) and step 1/L, L = 2 n^2 times
    the top eigenvalue of A^T A on the sum-zero subspace; a momentum-free step that
    does not lower the objective, or one lowering it by at most tol relative, stops it.
    Returns the objective trace and the number of gradient restarts."""
    a = dense_marginal_matrix(nm.schema, nm.operator.queries)
    h, n = nm.target, nm.n
    cells = a.shape[1]
    centre = np.eye(cells) - 1.0 / cells
    lipschitz = 2.0 * n * n * np.linalg.eigvalsh(centre @ a.T @ a @ centre)[-1]

    def objective(p):
        r = n * a @ p - h
        return float(r @ r)

    project = _simplex_projector(cells)
    p = p_prev = project(dense_start(a, h, n))
    obj, t = objective(p), 1.0
    trace, restarts = [obj], 0
    for _ in range(iters):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = p + beta * (p - p_prev)
        p_new = project(y - 2.0 * n * a.T @ (n * a @ y - h) / lipschitz)
        obj_new = objective(p_new)
        if obj_new > obj or (obj_new == obj and beta == 0.0):
            trace.append(obj)
            if beta == 0.0:
                break
            p_prev, t = p, 1.0
            continue
        restart = (y - p_new) @ (p_new - p) > 0.0
        restarts += restart
        p_prev, p, t = p, p_new, 1.0 if restart else t_next
        trace.append(obj_new)
        if obj - obj_new <= tol * obj:
            break
        obj = obj_new
    return trace, restarts


def demo_d3_set(seed: int) -> Release:
    """6 binary features + label (128 cells), n=2000, all 63 queries of order <= 3, eps=1."""
    real = make_demo_dataset(m=6, n=2000, seed=seed)
    sigma = calibrate(6, 3, PrivacyParams(1.0, 1.0 / real.n**2))
    return release_from(real, 3, sigma, seed)


def direct_objective(nm: Release, probs: np.ndarray) -> float:
    """||n A p - h||^2 from the operator's forward map, not from its spectrum."""
    r = nm.n * nm.operator.forward(probs) - nm.target
    return float(r @ r)


class TestFitDistribution:
    def test_noiseless_marginals_are_matched(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 64, seed=9)
        nm = release_from(real, 2, 0.0, seed=0)
        dist = fit_distribution(nm)
        op = nm.operator
        for (_, h), probs in zip(per_query(nm), np.split(op.forward(dist.probs), op.offsets[1:])):
            fitted = real.n * probs
            assert np.abs(fitted - h).sum() <= 1e-3 * real.n

    def test_single_full_query_exact(self, two_binary_rows):
        nm = release_from(two_binary_rows, 2, 0.0, seed=0)
        full = [(q, h) for q, h in per_query(nm) if len(q.attrs) == 2]
        nm_full = release_of(two_binary_rows.schema, full, 4)
        dist = fit_distribution(nm_full)
        assert dist.objective_trace[-1] <= 1e-20
        assert np.allclose(dist.probs, full[0][1] / 4.0)

    def test_negative_entries_resolved(self, two_binary_rows):
        nm = release_from(two_binary_rows, 2, 6.0, seed=4)
        assert nm.target.min() < 0  # noise drove some entries negative
        dist = fit_distribution(nm)
        assert np.all(dist.probs >= 0)
        assert float(dist.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_objective_monotone(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 50, seed=1)
        for seed in range(5):
            nm = release_from(real, 2, 4.0, seed=seed)
            dist = fit_distribution(nm)
            trace = np.asarray(dist.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0))

    @pytest.mark.parametrize("sizes, d", [((3, 2, 4, 2), 2), ((3, 3, 2), 1), ((2, 5, 3, 2), 3),
                                          ((2, 2, 2, 2), 2)])
    def test_step_covers_the_curvature_on_the_simplex(self, sizes, d):
        schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        queries = enumerate_queries(schema.num_features, d)
        cells = math.prod(schema.sizes)
        a = dense_marginal_matrix(schema, queries)
        centre = np.eye(cells) - 1.0 / cells
        top = np.linalg.eigvalsh(centre @ a.T @ a @ centre)[-1]
        n = 37
        nm = release_of(schema, [(q, compute_marginal(random_dataset(schema, n, 0), q)) for q in queries], n)
        # the fit's step 1/L: L = 2 n^2 max of the spectrum off the constant direction
        lipschitz = 2.0 * n * n * nm.operator.spectrum[1:].max()
        # the lower bound allows eigvalsh's own rounding (a few ulps); the upper is exactness
        assert lipschitz >= 2.0 * n * n * top * (1.0 - 1e-12)
        assert lipschitz <= 2.0 * n * n * sum(cells / np.prod(schema.shape(q.attrs)) for q in queries)
        assert lipschitz <= 2.0 * n * n * top * (1.0 + 1e-9)
        # and the fit's first iterate is the projected gradient step 1/L from its
        # start, the projected minimum-norm minimizer on the plane sum p = 1
        project = _simplex_projector(cells)
        start = project(dense_start(a, nm.target, n))
        grad = 2.0 * n * a.T @ (n * a @ start - nm.target)
        first = project(start - grad / (2.0 * n * n * top))
        assert np.allclose(fit_distribution(nm, iters=1).probs, first, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_below_plain_projected_gradient(self, seed):
        nm = demo_d3_set(seed)
        dist = fit_distribution(nm)
        assert dist.converged is True
        assert len(dist.objective_trace) - 1 < 2000
        assert dist.objective_trace[-1] <= reference_pgd_objective(nm)

    def test_exactly_fittable_marginals_fit_to_rounding(self, three_binary_schema):
        # the stopping test is relative, with no absolute floor, so a fit whose
        # optimum is zero runs down to floating-point rounding
        real = random_dataset(three_binary_schema, 64, seed=9)
        dist = fit_distribution(release_from(real, 2, 0.0, seed=0))
        assert dist.converged is True
        assert dist.objective_trace[-1] <= 1e-20

    def test_iteration_cap_is_not_convergence(self):
        nm = demo_d3_set(0)
        dist = fit_distribution(nm, iters=5)
        assert len(dist.objective_trace) == 6
        assert dist.converged is False

    def test_deterministic_and_draws_no_global_randomness(self):
        nm = demo_d3_set(1)
        np.random.seed(2024)
        before = np.random.get_state()
        a = fit_distribution(nm)
        b = fit_distribution(nm)
        after = np.random.get_state()
        assert a.probs.tobytes() == b.probs.tobytes()
        assert a.objective_trace == b.objective_trace
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_final_objective_is_the_direct_objective(self, seed):
        nm = demo_d3_set(seed)
        dist = fit_distribution(nm)
        assert dist.objective_trace[-1] == pytest.approx(direct_objective(nm, dist.probs), rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 4, 7])  # the seeds below 8 whose minimizer is non-negative
    def test_a_non_negative_closed_form_start_is_the_fit(self, seed):
        # sweep scale: 4 binary features + label, n = 32,000, d = 2, eps = 1
        real = make_demo_dataset(m=4, n=32_000, seed=seed)
        n = real.n
        nm = release_from(real, 2, calibrate(4, 2, PrivacyParams(1.0, 1.0 / n**2)), seed)
        # the least-squares minimizer on the plane sum p = 1, from the dense A by
        # np.linalg.lstsq over an orthonormal basis of the sum-zero subspace
        a = dense_marginal_matrix(nm.schema, nm.operator.queries)
        cells = a.shape[1]
        u = np.full(cells, 1.0 / cells)
        basis = np.linalg.qr(np.eye(cells) - 1.0 / cells)[0][:, :cells - 1]
        z = np.linalg.lstsq(n * a @ basis, nm.target - n * a @ u, rcond=1e-10)[0]
        p_ls = u + basis @ z
        assert p_ls.min() >= 0.0  # so it minimizes on the simplex too
        dist = fit_distribution(nm)
        assert len(dist.objective_trace) - 1 <= 2 and dist.converged
        assert np.allclose(dist.probs, p_ls, rtol=0.0, atol=1e-12)
        assert dist.objective_trace[-1] == pytest.approx(direct_objective(nm, p_ls), rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_iterates_like_the_loop_on_the_dense_operator(self, seed):
        # the whole run, gradient restarts and the stop included (no step is
        # rejected on these instances; the wide-attribute case of the test below
        # covers a rejected step)
        nm = demo_d3_set(seed)
        got = fit_distribution(nm).objective_trace
        want, restarts = reference_fista_trace(nm, iters=2000)
        assert len(got) == len(want) < 2000
        assert restarts > 0
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("case", ["d3 seed 0", "d3 seed 1", "wide attribute"])
    def test_bit_equal_to_the_allocating_loop(self, case):
        # the whole run, restarts and the stop included: trace and iterate
        if case == "wide attribute":
            # noise seed 2, the smallest whose fit on this data rejects a step
            real = random_dataset(Schema(("a", "b", "label"), (1500, 3, 2)), 4000, seed=5)
            nm = release_from(real, 2, 3.0, seed=2)
        else:
            nm = demo_d3_set(int(case[-1]))
        probs, trace = reference_fit(nm)
        if case == "wide attribute":  # a rejected step: a repeated value before the last
            assert any(a == b for a, b in zip(trace[:-2], trace[1:-1]))
        dist = fit_distribution(nm)
        assert dist.objective_trace == tuple(trace)
        assert dist.probs.tobytes() == probs.tobytes()

    @pytest.mark.parametrize("iters", [0, 5, 2000])
    def test_applies_the_operator_at_most_twice(self, iters, monkeypatch):
        nm = demo_d3_set(0)
        calls = []
        for name in ("forward", "adjoint"):
            def counted(op, x, apply=getattr(MarginalOperator, name), name=name):
                calls.append(name)
                return apply(op, x)
            monkeypatch.setattr(MarginalOperator, name, counted)
        fit_distribution(nm, iters=iters)
        assert len(calls) <= 2

    def test_attribute_wider_than_a_dense_factor(self):
        schema = Schema(("a", "b", "label"), (1500, 3, 2))
        real = random_dataset(schema, 4000, seed=5)
        nm = release_from(real, 2, 3.0, seed=5)
        dist = fit_distribution(nm)
        assert dist.objective_trace[-1] == pytest.approx(direct_objective(nm, dist.probs),
                                                         rel=1e-9)
        assert dist.objective_trace[-1] <= reference_pgd_objective(nm)
        op = nm.operator
        assert max(f.size for f in op._factors) <= op.num_cells
        assert any(f.shape == (1500,) for f in op._factors)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_estimate_rejects_non_finite_probs(self, bad):
        with pytest.raises(SynthesisError):
            DistributionEstimate(Schema(("a", "label"), (2, 2)), [bad, 0.5, 0.25, 0.25], (0.0,))

    def test_dense_cap(self, monkeypatch):
        from margsyn import synth
        sizes = (6,) * 8 + (2,)
        schema = Schema(tuple(f"x{i}" for i in range(8)) + ("label",), sizes)
        ds = random_dataset(schema, 5, seed=0)
        nm = release_from(ds, 1, 0.0, seed=0)

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran past the dense-mode cap")

        monkeypatch.setattr(synth, "fit_distribution", no_fit)
        with pytest.raises(SynthesisError, match="dense-mode cap"):
            synthesize(nm, "fitted")


# every kind of input the fit hands the projection: ties, negatives, and
# spreads from 1e-12 to 1e6 around several offsets
simplex_inputs = st.builds(
    lambda units, scale, shift: np.array(units) * scale + shift,
    st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0)), min_size=1, max_size=300),
    st.sampled_from([1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6]),
    st.sampled_from([0.0, 1.0 / 7.0, -2.5, 1e3]))


class TestProjectSimplex:
    @given(simplex_inputs)
    @example(np.array([0.3]))
    @example(np.full(64, 1.0 / 64))
    @example(np.full(5, -4.0))
    @example(np.array([2.0, 2.0, -1.0, 2.0, 0.5]))
    def test_bit_equal_to_the_allocating_projection(self, v):
        want = reference_project_simplex(v)
        before = v.copy()
        project = _simplex_projector(v.shape[0])
        assert project(v).tobytes() == want.tobytes()
        project(v[::-1] * 3.0 - 1.0)  # work arrays left dirty by an earlier call
        assert project(v).tobytes() == want.tobytes()
        assert project(v).tobytes() == want.tobytes()
        assert v.tobytes() == before.tobytes()
        assert float(want.sum()) == pytest.approx(1.0, abs=1e-9) and want.min() >= 0.0


def column_dist(mu) -> DistributionEstimate:
    """The fractional counts mu as a distribution over cells (a=t, label=0)."""
    mu = np.asarray(mu, dtype=np.float64)
    probs = np.zeros((max(2, mu.shape[0]), 2))
    probs[:mu.shape[0], 0] = mu / mu.sum()
    return DistributionEstimate(Schema(("a", "label"), probs.shape), probs.ravel(), (0.0,))


class TestSampleColumn:
    """Rounding one column of fractional counts, through sample_dataset."""

    def test_fractional_split(self):
        counts = sample_dataset(column_dist([1.5, 2.5]), 4)[::2]
        assert counts.sum() == 4
        assert tuple(counts) in {(2, 2), (1, 3)}

    def test_integral_case_deterministic(self):
        counts = sample_dataset(column_dist([3.0, 1.0]), 4)
        assert counts.tolist() == [3, 0, 1, 0]

    @pytest.mark.parametrize("mu, n, want", [([1.5, 2.5], 4, [2, 2]), ([2.5, 1.5], 4, [3, 1]),
                                             ([1.5, 1.5, 1.5, 1.5], 6, [2, 2, 1, 1])])
    def test_ties_go_to_the_first_cells(self, mu, n, want):
        # equal remainders of one half: the extra rows go to the first cells
        assert sample_dataset(column_dist(mu), n)[::2][:len(mu)].tolist() == want

    def test_all_zero_weights(self):
        dist = column_dist([0.0, 2.0, 0.0])
        for n in (5, 0):
            counts = sample_dataset(dist, n)
            assert counts.dtype == np.int64
            assert counts.tolist() == [0, 0, n, 0, 0, 0]

    @given(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8), st.integers(-1, 1))
    def test_conservation_envelope(self, mu_list, offset):
        mu = np.asarray(mu_list)
        if mu.sum() <= 0:
            return
        n = max(1, int(round(mu.sum())) + offset)
        scaled = n * (mu / mu.sum())
        counts = sample_dataset(column_dist(mu), n)[::2][:len(mu_list)]
        assert counts.sum() == n
        floors = np.floor(scaled).astype(int)
        assert np.all(counts >= floors - 0)  # never below the floor
        assert np.all(counts <= floors + 1)  # at most one extra per value


def reference_largest_remainder(dist: DistributionEstimate, n: int) -> np.ndarray:
    """The largest-remainder rounding of n*p by a full stable sort of the remainders."""
    probs = np.maximum(dist.probs, 0.0)
    mu = probs * (n / probs.sum())
    floors = np.floor(mu).astype(np.int64)
    floors[np.argsort(floors - mu, kind="stable")[:n - int(floors.sum())]] += 1
    return floors


class TestSampleDataset:
    @pytest.mark.parametrize("kind", ["random", "uniform", "repeated values", "with zeros"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_the_stable_sort(self, kind, seed):
        rng = np.random.default_rng(seed)
        schema = Schema(("a", "b", "label"), (37, 7, 2))  # 518 cells
        cells = math.prod(schema.sizes)
        weights = {"random": lambda: rng.random(cells),
                   "uniform": lambda: np.ones(cells),
                   "repeated values": lambda: rng.choice([1.0, 2.0, 3.0, 7.0], cells),
                   "with zeros": lambda: rng.choice([0.0, 0.0, 1.0, 1.0 / 3.0], cells)}[kind]()
        dist = DistributionEstimate(schema, weights / weights.sum(), (0.0,))
        for n in (0, 1, 7, cells - 1, cells, cells + 1, 3 * cells + 5, 40_000, int(rng.integers(1, 10**6))):
            got = sample_dataset(dist, n)
            assert got.dtype == np.int64 and got.sum() == n
            assert got.tobytes() == reference_largest_remainder(dist, n).tobytes(), n

    def test_point_mass(self, three_binary_schema):
        probs = np.zeros(math.prod(three_binary_schema.sizes))
        probs[5] = 1.0
        dist = DistributionEstimate(three_binary_schema, probs, (0.0,))
        counts = sample_dataset(dist, 12)
        assert counts.sum() == 12
        assert np.count_nonzero(counts) == 1

    def test_uniform_two_cells_exact_split(self):
        schema = Schema(("a", "label"), (2, 2))
        probs = np.array([0.5, 0.0, 0.0, 0.5])
        dist = DistributionEstimate(schema, probs, (0.0,))
        counts = sample_dataset(dist, 100)
        assert counts[0] == 50 and counts[3] == 50  # cells (0, 0) and (1, 1)

    def test_large_sample_matches_marginals(self, three_binary_schema):
        rng = np.random.default_rng(42)
        raw = rng.random(math.prod(three_binary_schema.sizes))
        dist = DistributionEstimate(three_binary_schema, raw / raw.sum(), (0.0,))
        n = 10_000
        counts = sample_dataset(dist, n)
        op = MarginalOperator(three_binary_schema, enumerate_queries(3, 2))
        for emp, probs in zip(np.split(op.forward(counts), op.offsets[1:]),
                              np.split(op.forward(dist.probs), op.offsets[1:])):
            want = n * probs
            assert np.abs(emp - want).sum() / n <= 0.05

    @given(st.lists(st.integers(2, 4), min_size=1, max_size=3), st.data(), st.integers(0, 60))
    def test_rounding_guarantees(self, feature_sizes, data, n):
        sizes = tuple(feature_sizes) + (2,)
        schema = Schema(tuple(f"x{j}" for j in range(len(sizes) - 1)) + ("label",), sizes)
        cells = math.prod(schema.sizes)
        weights = np.array(data.draw(st.lists(st.integers(0, 5), min_size=cells, max_size=cells)
                                     .filter(lambda w: sum(w) > 0)))
        total = int(weights.sum())
        dist = DistributionEstimate(schema, weights / total, (0.0,))
        counts = sample_dataset(dist, n)
        assert counts.sum() == n
        # integer arithmetic: floor(mu_c) = (n * w_c) // total with mu_c = n * w_c / total,
        # and the remainder mu_c - floor(mu_c) is ((n * w_c) % total) / total
        floors, rems = np.divmod(n * weights, total)
        assert np.all((counts == floors) | (counts == floors + 1))
        assert np.all(counts[weights == 0] == 0)
        extra = counts - floors
        if 0 < extra.sum() < cells:  # no cell passed over for a smaller remainder
            assert rems[extra == 1].min() >= rems[extra == 0].max()
        for w in np.unique(weights):  # ties go to the first cells of one weight
            assert np.all(np.diff(extra[weights == w]) <= 0)


class TestMechanism:
    def test_zero_noise_full_order_reproduces_marginals(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 30, seed=3)
        ds_s, stats = synthesize(release_from(real, 4, 0.0, 1), "brute")
        assert stats["l1_to_noisy_max"] == 0.0  # the release is the exact one
        # full-order marginals pin the multiset
        assert reference_row_multiset(ds_s) == reference_row_multiset(real)

    def test_fixed_seed_bit_identical(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 40, seed=4)
        a, ra = generate_synthetic(real, 2, PrivacyParams(1.0, 1e-6), mode="fitted", seed=9)
        b, rb = generate_synthetic(real, 2, PrivacyParams(1.0, 1e-6), mode="fitted", seed=9)
        assert np.array_equal(a.codes, b.codes)
        assert asdict(ra) == asdict(rb)

    def test_output_schema_and_size(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 25, seed=5)
        ds_s, report = generate_synthetic(real, 2, PrivacyParams(0.5, 1e-6), mode="brute", seed=0)
        assert ds_s.schema == real.schema
        assert ds_s.n == real.n == report.n
        assert report.query_count == 10
        assert report.sensitivity == math.sqrt(2 * 10)

    @pytest.mark.parametrize("path, n", [("exhaustive", 3), ("brute-above-cap", 30), ("fitted", 30)])
    def test_synthesis_reads_no_randomness(self, three_binary_schema, path, n, monkeypatch):
        # with the release pinned to one vector, neither the seed nor the state
        # of numpy's global generator changes the output: the noise is the
        # mechanism's only randomness
        from margsyn import synth
        real = random_dataset(three_binary_schema, n, seed=8)
        op = MarginalOperator(three_binary_schema, enumerate_queries(3, 2))
        released = add_noise_to_set(op.forward(cell_counts(real)), 2.0, 3)
        monkeypatch.setattr(synth, "add_noise_to_set", lambda *args: released.copy())
        mode, cap, ran = SYNTH_PATHS[path]
        codes = []
        for seed, draws in ((0, 3), (1, 1000)):
            np.random.random(draws)
            ds_s, report = generate_synthetic(real, 2, PrivacyParams(1.0, 1e-4), mode=mode,
                                              seed=seed, cap=cap)
            assert report.path == ran
            codes.append(ds_s.codes.tobytes())
        assert codes[0] == codes[1]

    def test_fitted_output_is_the_rounding_of_the_fit(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 30, seed=3)
        nm = release_from(real, 2, 1.0, 4)
        ds_s, _ = synthesize(nm, "fitted")
        assert np.array_equal(cell_counts(ds_s), sample_dataset(fit_distribution(nm), real.n))

    @pytest.mark.parametrize("mode", ["brute", "fitted"])
    def test_only_nonprivate_fields_read_the_real_data(self, monkeypatch, mode):
        # with the release pinned to one vector, two real datasets of the same
        # n must give the same output and the same report, except for the
        # evaluation-only diagnostics, whose names carry the nonprivate_ prefix
        from margsyn import synth
        op = MarginalOperator(make_demo_dataset(m=4, n=500, seed=1).schema, enumerate_queries(4, 2))
        released = add_noise_to_set(np.full(sum(op.num_bins), 100.0), 30.0, 3)
        monkeypatch.setattr(synth, "add_noise_to_set", lambda *args: released.copy())
        runs = [generate_synthetic(make_demo_dataset(m=4, n=500, seed=s), 2, PrivacyParams(1.0, 4e-6),
                                   mode=mode, seed=5) for s in (1, 2)]
        (ds_a, report_a), (ds_b, report_b) = runs
        assert np.array_equal(ds_a.codes, ds_b.codes)
        a, b = asdict(report_a), asdict(report_b)
        differ = [k for k in a if a[k] != b[k]]
        assert differ and all(k.startswith("nonprivate_") for k in differ)

    @pytest.mark.parametrize("seed", range(8))
    def test_bound_certified_on_exhaustive_path(self, seed):
        # the real data is itself a candidate of the exhaustive search, so the
        # minimiser is certified whenever the real data would be
        schema = Schema(("a", "b", "label"), (2, 2, 2))
        real = random_dataset(schema, 3, seed=seed)
        privacy = PrivacyParams(1.0, 1e-3, lam=1.0)
        _, report = generate_synthetic(real, 2, privacy, mode="brute", seed=seed)
        exact = [(q, compute_marginal(real, q)) for q in enumerate_queries(2, 2)]
        noisy = per_query(release_of(schema, exact, real.n, report.sigma, seed))
        real_to_noisy = max(reference_l1_distance(e, h) for (_, e), (_, h) in zip(exact, noisy))
        assert report.bound_certified == (report.l1_to_noisy_max <= report.l1_bound_at_lam / 2)
        if real_to_noisy <= report.l1_bound_at_lam / 2:
            assert report.bound_certified is True

    def test_normalized_l1_is_the_real_l1_over_n(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 30, seed=9)
        ds_s, report = generate_synthetic(real, 2, PrivacyParams(1.0, 1e-6), mode="fitted", seed=4)
        l1 = [reference_l1_distance(compute_marginal(real, q), compute_marginal(ds_s, q))
              for q in enumerate_queries(3, 2)]
        assert report.nonprivate_l1_to_real_max == max(l1) > 0.0
        assert report.nonprivate_normalized_l1_max == max(l1) / 30
        assert report.nonprivate_normalized_l1_mean == pytest.approx(np.mean(l1) / 30, rel=1e-12)

    def test_bound_certified_can_fail(self, monkeypatch):
        # with almost no noise, half the bound is far below one row, so any
        # rounding error of the fitted path leaves the bound uncertified.
        # The classical sigma at (1000, 0.5) is not (1000, 0.5)-DP, so the
        # mechanism refuses the pair; the test injects that sigma instead
        from margsyn import synth
        schema = Schema(("a", "b", "c", "label"), (2, 2, 2, 2))
        real = random_dataset(schema, 40, seed=3)
        privacy = PrivacyParams(1000.0, 0.5, allow_large_epsilon=True)
        with pytest.raises(ValueError, match="exact delta"):
            calibrate(3, 2, privacy)
        sens = marginal_set_sensitivity(3, 2)
        tiny = sens * math.sqrt(2.0 * math.log(1.25 / 0.5)) / 1000.0
        monkeypatch.setattr(synth, "calibrate", lambda m, d, p: tiny)
        flags = []
        for seed in range(5):
            _, report = generate_synthetic(real, 2, privacy, mode="fitted", seed=seed)
            assert report.bound_certified == (report.l1_to_noisy_max <= report.l1_bound_at_lam / 2)
            flags.append(report.bound_certified)
        assert False in flags

    def test_synthesizer_has_no_real_data_parameter(self):
        params = inspect.signature(synthesize).parameters
        assert "ds_real" not in params
        assert all("real" not in name for name in params)

    def test_zero_noise_excess_risk_vanishes(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 40, seed=12)
        ds_s, _ = synthesize(release_from(real, 4, 0.0, 2), "brute")
        tau = 1.0 / math.sqrt(3)
        cfg = TrainConfig(max_iters=200)
        w_s = train_projected(ds_s, LossSpec.logistic(), tau, cfg)
        w_r = train_projected(real, LossSpec.logistic(), tau, cfg)
        gap = abs(empirical_risk(w_s, real) - empirical_risk(w_r, real))
        assert gap <= 1e-3

    def test_report_serializes(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 20, seed=6)
        ds_s, report = generate_synthetic(real, 2, PrivacyParams(0.5, 1e-6, lam=2.0), mode="brute", seed=0)
        doc = asdict(report)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["sigma"] == report.sigma > 0.0
        assert (doc["epsilon"], doc["delta"], doc["lam"]) == (0.5, 1e-6, 2.0)
        assert isinstance(doc["bound_certified"], bool)
        assert doc["mode"] == "brute"

    @pytest.mark.parametrize("mode, cap, path", [("brute", 10_000, "exhaustive"), ("brute", 0, "fitted"),
                                                 ("fitted", 10_000, "fitted")],
                             ids=["exhaustive", "brute-above-cap", "fitted"])
    def test_report_records_the_fit(self, three_binary_schema, mode, cap, path):
        real = random_dataset(three_binary_schema, 3, seed=7)
        _, report = generate_synthetic(real, 2, PrivacyParams(1.0, 1e-4), mode=mode, seed=5, cap=cap)
        doc = asdict(report)
        assert doc["path"] == path
        if path == "exhaustive":
            assert (doc["fit_iterations"], doc["fit_converged"]) == (0, None)
        else:  # brute mode above the cap runs the same fit that fitted mode rounds
            nm = release_from(real, 2, report.sigma, 5)
            dist = fit_distribution(nm)
            assert doc["fit_iterations"] == len(dist.objective_trace) - 1 > 0
            assert doc["fit_converged"] is dist.converged is True

    @pytest.mark.parametrize("mode, cap", [("brute", 10_000), ("brute", 0), ("fitted", 10_000)],
                             ids=["exhaustive", "brute-above-cap", "fitted"])
    def test_the_report_reads_the_release(self, three_binary_schema, mode, cap, monkeypatch):
        # the release synthesis sees holds the noise actually added, and the
        # report's size, sigma, query count and l1 bound are read off it
        from margsyn import synth
        released = []

        def capture(release, *args, **kwargs):
            released.append(release)
            return synthesize(release, *args, **kwargs)

        monkeypatch.setattr(synth, "synthesize", capture)
        real = random_dataset(three_binary_schema, 3, seed=7)
        privacy = PrivacyParams(0.7, 1e-4, lam=2.0)
        _, report = generate_synthetic(real, 2, privacy, mode=mode, seed=5, cap=cap)
        [release] = released
        op = release.operator
        assert report.n == release.n == real.n
        assert report.sigma == release.sigma == calibrate(3, 2, privacy)
        assert report.query_count == len(op.queries) == 10
        assert report.l1_bound_at_lam == synthesis_l1_bound(release.sigma, 2, 3, 2, 2.0)
        noise = add_noise_to_set(op.forward(cell_counts(real)), release.sigma, 5)
        assert release.target.tobytes() == noise.tobytes()
        assert not release.target.flags.writeable
        with pytest.raises(ValueError):
            release.target[0] = 0.0
        with pytest.raises(SynthesisError, match="non-negative"):
            Release(op, release.target, -1, release.sigma)

    @pytest.mark.parametrize("mode, cap", [("brute", 10_000), ("brute", 0), ("fitted", 10_000)],
                             ids=["exhaustive", "brute-above-cap", "fitted"])
    def test_negative_size_is_rejected_before_any_work(self, three_binary_schema, mode, cap,
                                                       monkeypatch):
        from margsyn import synth
        nm = release_from(random_dataset(three_binary_schema, 3, seed=7), 2, 1.0, 5)

        def no_work(*args, **kwargs):
            raise AssertionError("a synthesis path ran for a negative size")

        for name in ("brute_force_synth", "fit_distribution"):
            monkeypatch.setattr(synth, name, no_work)
        with pytest.raises(SynthesisError, match="non-negative"):
            synthesize(Release(nm.operator, nm.target, -1, nm.sigma), mode, cap=cap)

    @pytest.mark.parametrize("mode, cap, path", [("brute", 10_000, "exhaustive"), ("brute", 0, "fitted"),
                                                 ("fitted", 10_000, "fitted")],
                             ids=["exhaustive", "brute-above-cap", "fitted"])
    def test_output_rows_are_never_counted(self, three_binary_schema, mode, cap, path, monkeypatch):
        # the output's marginals come from the synthesizer's cell counts, not from its rows
        nm = release_from(random_dataset(three_binary_schema, 3, seed=7), 2, 1.0, 5)

        def no_count(ds):
            raise AssertionError("synthesize counted the rows of its output")

        with monkeypatch.context() as mp:
            mp.setattr(Dataset, "weighted", property(no_count))
            ds_s, stats = synthesize(nm, mode, cap=cap)
        assert stats["path"] == path
        want = np.concatenate([compute_marginal(ds_s, q) for q in nm.operator.queries])
        assert np.array_equal(stats["marginals"], want)

    def test_stats_hold_the_output_marginals(self, three_binary_schema):
        real = random_dataset(three_binary_schema, 30, seed=3)
        nm = release_from(real, 2, 1.0, 4)
        ds_s, stats = synthesize(nm, "fitted")
        want = np.concatenate([compute_marginal(ds_s, q) for q in nm.operator.queries])
        assert np.array_equal(stats["marginals"], want)
        assert stats["l1_to_noisy_max"] == float(nm.operator.l1_to(want, nm.target).max())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["brute", "fitted"])
    def test_empty_dataset_gives_an_empty_dataset(self, three_binary_schema, mode):
        empty = Dataset(three_binary_schema, np.zeros((0, 4), dtype=np.int64))
        ds_s, report = generate_synthetic(empty, 2, PrivacyParams(1.0, 1e-6), mode=mode)
        assert ds_s.n == report.n == 0 and ds_s.schema == three_binary_schema
        assert report.fit_iterations == 0
        assert report.fit_converged is (None if mode == "brute" else True)

    @pytest.mark.parametrize("mode, cap", [("brute", 10_000), ("brute", 0), ("fitted", 10_000)],
                             ids=["exhaustive", "brute-above-cap", "fitted"])
    def test_sigma_is_calibrated_from_privacy(self, three_binary_schema, mode, cap):
        params = inspect.signature(generate_synthetic).parameters
        assert params["privacy"].default is inspect.Parameter.empty
        assert "sigma_override" not in params
        # n=3 on 16 cells is 816 candidates: exhaustive under cap 10,000, fitted under cap 0
        real = random_dataset(three_binary_schema, 3, seed=7)
        privacy = PrivacyParams(0.7, 1e-4, lam=2.0)
        _, report = generate_synthetic(real, 2, privacy, mode=mode, seed=5, cap=cap)
        assert report.sigma == calibrate(three_binary_schema.num_features, 2, privacy)
        assert report.sensitivity == marginal_set_sensitivity(three_binary_schema.num_features, 2)
        assert (report.epsilon, report.delta, report.lam) == (0.7, 1e-4, 2.0)

    @pytest.mark.parametrize("sizes, n", [((2, 2, 2, 2), 0), ((2, 2, 2, 2), 1), ((3, 2, 4, 2), 57),
                                          ((5, 3, 2), 400), ((2,) * 7, 2000)], ids=str)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_noise_gets_the_real_marginals_counted_query_by_query(self, sizes, n, d, monkeypatch):
        from margsyn import synth
        schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        real = random_dataset(schema, n, seed=n + d)
        seen = []

        def capture(counts, sigma, seed):
            seen.append(counts.copy())
            return add_noise_to_set(counts, sigma, seed)

        monkeypatch.setattr(synth, "add_noise_to_set", capture)
        generate_synthetic(real, d, PrivacyParams(1.0, 1e-6), mode="fitted", seed=3)
        want = [compute_marginal(real, q) for q in enumerate_queries(schema.num_features, d)]
        [counts] = seen
        assert counts.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("mode", ["brute", "fitted"])
    def test_a_domain_too_large_is_refused_before_measuring(self, mode):
        # 40 binary features + label: 2.2e12 cells, so one joint count or one
        # bin table row would take 17.6 TB; synthesize refuses the request
        real = make_demo_dataset(m=40, n=20, seed=0)
        nm = release_from(real, 1, 1.0, seed=0)
        with pytest.raises(SynthesisError) as refused:
            synthesize(nm, mode)
        tracemalloc.start()
        try:
            with pytest.raises(SynthesisError) as got:
                generate_synthetic(real, 1, PrivacyParams(1.0, 1e-6), mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(got.value) == str(refused.value)
        assert peak < 8 * math.prod(real.schema.sizes) / 1e6

    def test_an_empty_brute_request_is_refused_where_one_row_is(self):
        # 40 binary features + label: one row has 2.2e12 candidate cells, past the
        # cap, and so has the empty request; neither may reach the exhaustive scan,
        # and both take the fitted path's dense-cap refusal
        schema = make_demo_dataset(m=40, n=1, seed=0).schema
        empty = Dataset(schema, np.zeros((0, 41), dtype=np.int64))
        tracemalloc.start()
        try:
            with pytest.raises(SynthesisError, match="^joint domain of 2199023255552 cells exceeds "
                                                     "dense-mode cap 1000000$"):
                generate_synthetic(empty, 1, PrivacyParams(1.0, 1e-6), mode="brute")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * math.prod(schema.sizes) / 1e6
        small = Dataset(Schema(("a", "b", "label"), (3, 2, 2)), np.zeros((0, 3), dtype=np.int64))
        _, report = generate_synthetic(small, 2, PrivacyParams(1.0, 1e-6), mode="brute")
        assert report.path == "exhaustive"

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_bin_table_too_large_is_refused_on_the_exhaustive_path(self, n):
        # 20 binary features + label at d=2: 2,097,152 cells, so one row or none
        # fits the candidate cap, but the bin table the scan reads holds 231
        # queries x 2,097,152 cells = 484,442,112 entries (3.6 GiB)
        schema = make_demo_dataset(m=20, n=1, seed=0).schema
        real = Dataset(schema, np.zeros((n, 21), dtype=np.int64))
        tracemalloc.start()
        try:
            with pytest.raises(SynthesisError, match="bin table of 484442112 entries too large"):
                generate_synthetic(real, 2, PrivacyParams(1.0, 1e-6), mode="brute")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < math.prod(schema.sizes)  # an eighth of one float64 vector over the cells

    @pytest.mark.parametrize("m, d", [(16, 4), (18, 3)])
    @pytest.mark.parametrize("mode", ["fitted", "brute"])
    def test_a_wide_domain_within_the_dense_cap_takes_the_fitted_path(self, m, d, mode):
        # 3,213 x 131,072 (m=16) and 1,159 x 524,288 (m=18) queries x cells, a
        # bin table of 3.1 and 4.5 GiB, which the fitted path does not read;
        # C(cells + 4, 5) candidates are past the cap, so brute mode goes there too
        op = MarginalOperator(make_demo_dataset(m=m, n=1, seed=0).schema, enumerate_queries(m, d))
        assert _path(5, op, mode, DEFAULT_CANDIDATE_CAP) == "fitted"
        assert "bin_maps" not in vars(op)

    def test_the_fitted_operator_reads_no_bin_table(self):
        # 16 binary features + label at d=4: forward and adjoint allocate a few
        # float64 vectors over the 131,072 cells, not the 3.1 GiB table
        op = MarginalOperator(make_demo_dataset(m=16, n=1, seed=0).schema, enumerate_queries(16, 4))
        rng = np.random.default_rng(0)
        counts = rng.multinomial(5000, np.full(op.num_cells, 1.0 / op.num_cells)).astype(np.float64)
        op.forward(counts)  # the query groups, built once, before the measurement
        target = op.forward(counts) + rng.normal(0.0, 3.0, sum(op.num_bins))
        tracemalloc.start()
        try:
            op.forward(counts)
            op.adjoint(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "bin_maps" not in vars(op)
        assert peak < 4 * 8 * op.num_cells  # four float64 vectors over the cells

    def test_the_exhaustive_bin_table_refusal_advises_no_other_mode(self):
        # 20 binary features + label at d=2 with one row: the exhaustive path is
        # refused on its bin table, and fitted mode is refused on the dense cap,
        # so the exhaustive refusal names its path and points to no other mode
        schema = make_demo_dataset(m=20, n=1, seed=0).schema
        real = Dataset(schema, np.zeros((1, 21), dtype=np.int64))
        with pytest.raises(SynthesisError) as brute:
            generate_synthetic(real, 2, PrivacyParams(1.0, 1e-6), mode="brute")
        assert str(brute.value) == "bin table of 484442112 entries too large for the exhaustive path"
        with pytest.raises(SynthesisError, match="^joint domain of 2097152 cells exceeds dense-mode cap 1000000$"):
            generate_synthetic(real, 2, PrivacyParams(1.0, 1e-6), mode="fitted")

    @pytest.mark.parametrize("m", [63, 70])
    @pytest.mark.parametrize("mode", ["brute", "fitted"])
    def test_joint_cells_past_int64_are_refused(self, m, mode):
        real = make_demo_dataset(m=m, n=20, seed=0)
        assert math.prod(real.schema.sizes) == 2 ** (m + 1)
        with pytest.raises(SynthesisError) as got:
            generate_synthetic(real, 1, PrivacyParams(1.0, 1e-6), mode=mode)
        assert str(got.value) == f"joint domain of {2 ** (m + 1)} cells exceeds dense-mode cap 1000000"

    def test_joint_cells_are_counted_exactly(self):
        schema = Schema(tuple(f"x{i}" for i in range(40)) + ("label",), (3,) * 40 + (2,))
        assert MarginalOperator(schema, enumerate_queries(40, 1)).num_cells == 2 * 3 ** 40 > 2 ** 64


@st.composite
def schemas_and_counts(draw):
    """A mixed-arity schema and cell counts: some cells empty, one cell occupied, or n = 0."""
    sizes = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))) + (2,)
    schema = Schema(tuple(f"x{j}" for j in range(len(sizes) - 1)) + ("label",), sizes)
    cells = math.prod(schema.sizes)
    counts = np.zeros(cells, dtype=np.int64)
    kind = draw(st.sampled_from(["mixed", "one cell", "n = 0"]))
    if kind == "mixed":
        counts[:] = draw(st.lists(st.integers(0, 6), min_size=cells, max_size=cells))
    elif kind == "one cell":
        counts[draw(st.integers(0, cells - 1))] = draw(st.integers(1, 40))
    return schema, counts


@given(schemas_and_counts())
def test_rows_from_counts_match_the_row_by_row_expansion(case):
    schema, counts = case
    got = Dataset.from_counts(schema, counts).codes
    want = reference_counts_to_rows(counts, schema)
    assert got.shape == want.shape == (counts.sum(), schema.num_attributes)
    assert np.array_equal(got, want)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@given(schemas_and_counts(), st.integers(0, 2**31 - 1))
def test_counts_form_matches_its_row_built_twin(tmp_path_factory, case, seed):
    schema, counts = case
    ds = Dataset.from_counts(schema, counts)
    twin = Dataset(schema, reference_counts_to_rows(counts, schema))
    assert ds.n == twin.n == counts.sum()
    for got, want in zip(ds.weighted, twin.weighted):
        assert_same_array(got, want)
    held_out = random_dataset(schema, 20, seed)
    loss, cfg = LossSpec.logistic(), TrainConfig(max_iters=50)
    if ds.n:
        model, model_twin = train_projected(ds, loss, 0.5, cfg), train_projected(twin, loss, 0.5, cfg)
        assert_same_array(model.w, model_twin.w)
        assert accuracy(model, held_out) == accuracy(model_twin, held_out)
        assert empirical_risk(model, held_out) == empirical_risk(model_twin, held_out)
    else:
        for empty in (ds, twin):
            with pytest.raises(ValueError, match="empty"):
                train_projected(empty, loss, 0.5, cfg)
    assert "codes" not in vars(ds)  # n, weighted and training built no rows
    assert_same_array(ds.codes, twin.codes)
    assert not ds.codes.flags.writeable
    for got, want in zip(encode_xy(ds), encode_xy(twin)):
        assert_same_array(got, want)
    out = tmp_path_factory.mktemp("twin")
    write_csv(ds, out / "counts.csv")
    write_csv(twin, out / "rows.csv")
    assert (out / "counts.csv").read_bytes() == (out / "rows.csv").read_bytes()
