import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from margsyn.dataset import Dataset, ParseError, Schema
from margsyn.marginals import (Marginal, MarginalOperator, MarginalQuery, QueryError,
                               compute_marginal, enumerate_queries, l1_distance,
                               load_marginals, normalized_l1, project_marginal,
                               query_count, save_marginals)

from conftest import cell_counts, dense_marginal_matrix, random_dataset


class TestEnumerate:
    def test_m2_d2(self):
        qs = enumerate_queries(2, 2)
        assert [q.attrs for q in qs] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    def test_m2_d3_adds_full_set(self):
        qs = enumerate_queries(2, 3)
        assert len(qs) == 7
        assert qs[-1].attrs == (0, 1, 2)

    def test_d_out_of_range(self):
        with pytest.raises(QueryError):
            enumerate_queries(2, 0)
        with pytest.raises(QueryError):
            enumerate_queries(2, 4)

    @given(st.integers(1, 10), st.data())
    def test_count_formula(self, m, data):
        d = data.draw(st.integers(1, m + 1))
        qs = enumerate_queries(m, d)
        expected = sum(math.comb(m + 1, k) for k in range(1, d + 1))
        assert len(qs) == expected == query_count(m, d)
        assert len(set(qs)) == len(qs)


class TestComputeMarginal:
    def test_known_counts(self, two_binary_rows):
        marg = compute_marginal(two_binary_rows, MarginalQuery((0, 1)))
        assert marg.counts.tolist() == [1.0, 1.0, 0.0, 2.0]
        assert marg.exact and marg.total == 4.0

    def test_single_attribute(self, two_binary_rows):
        marg = compute_marginal(two_binary_rows, MarginalQuery((1,)))
        assert marg.counts.tolist() == [1.0, 3.0]

    def test_degenerate_identical_rows(self):
        schema = Schema(("a", "b", "label"), (3, 2, 2))
        ds = Dataset(schema, np.tile([2, 1, 0], (7, 1)))
        marg = compute_marginal(ds, MarginalQuery((0, 2)))
        assert marg.counts.sum() == 7
        assert marg.counts.max() == 7  # all mass in one cell

    def test_invalid_attribute(self, two_binary_rows):
        with pytest.raises(QueryError):
            compute_marginal(two_binary_rows, MarginalQuery((0, 5)))

    @given(st.integers(0, 40), st.integers(0, 2**31 - 1), st.integers(0, 5))
    def test_counts_sum_to_n(self, n, seed, qpick):
        schema = Schema(("a", "b", "label"), (3, 4, 2))
        ds = random_dataset(schema, n, seed)
        q = enumerate_queries(2, 3)[qpick]
        assert compute_marginal(ds, q).counts.sum() == n


class TestDistances:
    def test_identity_zero(self, two_binary_rows):
        m = compute_marginal(two_binary_rows, MarginalQuery((0, 1)))
        assert l1_distance(m, m) == 0.0

    def test_direct_sum(self):
        q = MarginalQuery((0, 1))
        a = Marginal(q, np.array([1.0, 1.0, 0.0, 2.0]), exact=True)
        b = Marginal(q, np.array([1.0, 0.0, 1.0, 2.0]), exact=True)
        assert l1_distance(a, b) == 2.0

    def test_half_shift(self):
        q = MarginalQuery((0,))
        a = Marginal(q, np.array([2.0, 2.0]), exact=True)
        b = Marginal(q, np.array([1.5, 2.0]), exact=False)
        assert l1_distance(a, b) == 0.5

    def test_query_mismatch(self):
        a = Marginal(MarginalQuery((0,)), np.array([1.0, 1.0]), exact=True)
        b = Marginal(MarginalQuery((1,)), np.array([1.0, 1.0]), exact=True)
        with pytest.raises(QueryError):
            l1_distance(a, b)

    def test_normalized(self):
        q = MarginalQuery((0,))
        a = Marginal(q, np.array([3.0, 1.0]), exact=True)
        b = Marginal(q, np.array([2.0, 2.0]), exact=True)
        assert normalized_l1(a, b, 4) == 0.5
        assert normalized_l1(a, a, 4) == 0.0
        with pytest.raises(ValueError):
            normalized_l1(a, b, 0)

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=4),
           st.lists(st.floats(-50, 50), min_size=4, max_size=4),
           st.lists(st.floats(-50, 50), min_size=4, max_size=4))
    def test_metric_properties(self, xs, ys, zs):
        q = MarginalQuery((0, 1))
        a = Marginal(q, np.array(xs), exact=False)
        b = Marginal(q, np.array(ys), exact=False)
        c = Marginal(q, np.array(zs), exact=False)
        assert l1_distance(a, b) == pytest.approx(l1_distance(b, a))
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-9
        assert l1_distance(a, b) >= 0.0


class TestProjection:
    def test_project_pair_onto_single(self, two_binary_rows):
        pair = compute_marginal(two_binary_rows, MarginalQuery((0, 1)))
        proj = project_marginal(pair, MarginalQuery((1,)), two_binary_rows.schema)
        assert proj.counts.tolist() == [1.0, 3.0]

    def test_project_full_is_identity(self, two_binary_rows):
        pair = compute_marginal(two_binary_rows, MarginalQuery((0, 1)))
        proj = project_marginal(pair, MarginalQuery((0, 1)), two_binary_rows.schema)
        assert np.array_equal(proj.counts, pair.counts)

    def test_total_preserved(self, two_binary_rows):
        pair = compute_marginal(two_binary_rows, MarginalQuery((0, 1)))
        proj = project_marginal(pair, MarginalQuery((0,)), two_binary_rows.schema)
        assert proj.total == pair.total == 4.0

    def test_not_a_subset(self, two_binary_rows):
        pair = compute_marginal(two_binary_rows, MarginalQuery((0,)))
        with pytest.raises(QueryError):
            project_marginal(pair, MarginalQuery((1,)), two_binary_rows.schema)

    @given(st.integers(1, 35), st.integers(0, 2**31 - 1))
    def test_commutes_with_computation(self, n, seed):
        schema = Schema(("a", "b", "c", "label"), (3, 2, 4, 2))
        ds = random_dataset(schema, n, seed)
        big = compute_marginal(ds, MarginalQuery((0, 2, 3)))
        for sub_attrs in [(0,), (2,), (3,), (0, 2), (0, 3), (2, 3)]:
            want = compute_marginal(ds, MarginalQuery(sub_attrs))
            got = project_marginal(big, MarginalQuery(sub_attrs), schema)
            assert np.array_equal(got.counts, want.counts)


# mixed arities, and one attribute (40 values) wider than a dense transform factor
SPECTRAL_SIZES = [(3, 2, 4, 2), (3, 3, 2), (2, 5, 3, 2), (2, 2, 2, 2), (40, 3, 2)]

OPERATOR_SCHEMAS = [
    Schema(("a", "b", "c", "label"), (2, 2, 2, 2)),
    Schema(("a", "b", "c", "label"), (3, 2, 4, 2)),
]


class TestMarginalOperator:
    @pytest.mark.parametrize("schema", OPERATOR_SCHEMAS, ids=["binary", "mixed"])
    @given(st.integers(0, 35), st.integers(0, 2**31 - 1))
    @example(n=0, seed=0)
    def test_forward_matches_compute_marginal(self, schema, n, seed):
        ds = random_dataset(schema, n, seed)
        queries = enumerate_queries(3, 4)
        op = MarginalOperator(schema, queries)
        cells = cell_counts(ds)
        assert cells.shape == (int(np.prod(schema.sizes)),)
        assert cells.sum() == n
        for q, vec in zip(queries, np.split(op.forward(cells), op.offsets[1:])):
            assert np.array_equal(vec, compute_marginal(ds, q).counts)

    @pytest.mark.parametrize("schema", OPERATOR_SCHEMAS, ids=["binary", "mixed"])
    @given(st.integers(0, 35), st.integers(0, 2**31 - 1))
    @example(n=0, seed=0)
    def test_l1_to_matches_l1_distance(self, schema, n, seed):
        ds = random_dataset(schema, n, seed)
        queries = enumerate_queries(3, 2)
        op = MarginalOperator(schema, queries)
        rng = np.random.default_rng(seed)
        noisy = [Marginal(q, compute_marginal(ds, q).counts + rng.normal(0.0, 2.0, k), exact=False)
                 for q, k in zip(queries, op.num_bins)]
        got = op.l1_to(op.forward(cell_counts(ds)), np.concatenate([m.counts for m in noisy]))
        want = [l1_distance(m, compute_marginal(ds, m.query)) for m in noisy]
        assert got.tolist() == want

    @pytest.mark.parametrize("schema", OPERATOR_SCHEMAS, ids=["binary", "mixed"])
    @given(st.integers(0, 2**31 - 1))
    def test_adjoint_is_transpose(self, schema, seed):
        rng = np.random.default_rng(seed)
        op = MarginalOperator(schema, enumerate_queries(3, 3))
        x = rng.normal(size=op.num_cells)
        r = np.concatenate([rng.normal(size=k) for k in op.num_bins])
        lhs = float(op.forward(x) @ r)
        assert lhs == pytest.approx(float(x @ op.adjoint(r)), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("sizes", SPECTRAL_SIZES, ids=str)
    @pytest.mark.parametrize("pick", ["all order<=2", "random, not subset-closed", "attribute 1 unused"])
    def test_spectrum_and_transform_diagonalize_the_gram(self, sizes, pick):
        schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        every = enumerate_queries(schema.num_features, min(3, len(sizes)))
        if pick == "all order<=2":
            queries = [q for q in every if q.order <= 2]
        elif pick == "random, not subset-closed":
            rng = np.random.default_rng(len(sizes) + sum(sizes))
            top, missing = every[-1], MarginalQuery(every[-1].attrs[:1])
            queries = [every[i] for i in sorted(rng.choice(len(every), len(every) // 2, replace=False))
                       if every[i] not in (top, missing)] + [top]
        else:
            queries = [q for q in every if 1 not in q.attrs]
        op = MarginalOperator(schema, queries)
        a = dense_marginal_matrix(schema, queries)
        gram = a.T @ a
        t = np.column_stack([op.transform(e) for e in np.eye(op.num_cells)])
        assert np.allclose(t, t.T, rtol=0.0, atol=1e-13)
        assert np.allclose(t @ t, np.eye(op.num_cells), rtol=0.0, atol=1e-12)
        assert np.allclose(t[:, 0], 1.0 / math.sqrt(op.num_cells), rtol=0.0, atol=1e-15)
        assert np.all(op.spectrum >= 0.0)
        assert np.allclose(t @ np.diag(op.spectrum) @ t, gram, rtol=0.0, atol=1e-12 * gram.max())

    # every query of each schema: segments of 2-9 bins (a domain has at least
    # 2 values), 127-129, 3,999-4,001, 4,095 and 4,097 bins and twice those;
    # numpy's pairwise sum adds blocks of 128
    @pytest.mark.parametrize("sizes", [(2, 3, 5, 2), (7, 9, 2), (4, 2, 2), (8, 2), (127, 2), (128, 2),
                                       (129, 2), (3999, 2), (4000, 2), (4001, 2), (4095, 2), (4097, 2)],
                             ids=str)
    @pytest.mark.parametrize("lead", [(), (5,)], ids=["1-D", "2-D"])
    def test_query_sums_equal_each_query_summed_alone(self, sizes, lead):
        schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        op = MarginalOperator(schema, enumerate_queries(len(sizes) - 1, len(sizes)))
        rng = np.random.default_rng(sum(sizes))
        shape = lead + (sum(op.num_bins),)
        # magnitudes from 1e-3 to 1e6 in one vector, so the order of addition shows
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 6.0, shape)
        for v in (x, np.abs(x)):
            want = []
            for row in v.reshape(-1, shape[-1]):
                start = 0
                for k in op.num_bins:
                    want.append(np.sum(np.array(row[start:start + k])))  # a 1-D copy per query
                    start += k
            got = op.query_sums(v)
            assert got.shape == lead + (len(op.num_bins),)
            assert got.ravel().tolist() == want

    def test_rejects_query_outside_schema(self):
        with pytest.raises(QueryError):
            MarginalOperator(OPERATOR_SCHEMAS[0], [MarginalQuery((0, 4))])


def test_query_validation():
    with pytest.raises(QueryError):
        MarginalQuery(())
    with pytest.raises(QueryError):
        MarginalQuery((2, 1))
    with pytest.raises(QueryError):
        MarginalQuery((1, 1))


def test_save_load_round_trip(tmp_path, two_binary_rows):
    schema = two_binary_rows.schema
    margs = [compute_marginal(two_binary_rows, MarginalQuery(a)) for a in [(0,), (1,), (0, 1)]]
    noisy = Marginal(MarginalQuery((0,)), np.array([1.25, -0.5]), exact=False)
    margs.append(noisy)
    save_marginals(margs, schema, tmp_path / "m.csv", tmp_path / "m.json")
    loaded = load_marginals(tmp_path / "m.csv", tmp_path / "m.json")
    assert len(loaded) == len(margs)
    for orig, back in zip(margs, loaded):
        assert orig.query == back.query
        assert orig.exact == back.exact
        assert np.array_equal(orig.counts, back.counts)


@pytest.mark.parametrize("row", ["0,-1,5.0",     # negative flat_index
                                 "1,0,3.0",      # (query_id, flat_index) given twice
                                 "7,0,1.0",      # query_id absent from the manifest
                                 "0,2,1.0"])     # flat_index past the query's 2 cells
def test_load_rejects_bad_cell_ids(tmp_path, two_binary_rows, row):
    margs = [compute_marginal(two_binary_rows, MarginalQuery(a)) for a in [(0,), (0, 1)]]
    save_marginals(margs, two_binary_rows.schema, tmp_path / "m.csv", tmp_path / "m.json")
    lines = (tmp_path / "m.csv").read_text().splitlines() + [row]
    (tmp_path / "m.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{tmp_path / 'm.csv'}:{len(lines)}:")):
        load_marginals(tmp_path / "m.csv", tmp_path / "m.json")


@pytest.mark.parametrize("case", ["repeated id", "shape of another query", "domain size below 2"])
def test_load_rejects_a_manifest_that_does_not_fit_its_queries(tmp_path, two_binary_rows, case):
    margs = [compute_marginal(two_binary_rows, MarginalQuery(a)) for a in [(0,), (0, 1)]]
    save_marginals(margs, two_binary_rows.schema, tmp_path / "m.csv", tmp_path / "m.json")
    manifest = json.loads((tmp_path / "m.json").read_text())
    first, second = manifest["queries"]
    if case == "repeated id":
        second["id"] = first["id"]  # the earlier query would be dropped
    elif case == "shape of another query":
        first["shape"] = [3, 5]  # 15 bins for the one-attribute query (0,)
    else:
        second["shape"] = [4, 1]  # still 4 bins, but no attribute has a domain of 1 value
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match=re.escape(f"{tmp_path / 'm.json'}:")):
        load_marginals(tmp_path / "m.csv", tmp_path / "m.json")
