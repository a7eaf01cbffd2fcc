import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from margsyn.dataset import Dataset, Schema
from margsyn.marginals import (_GROUP_DIM, MarginalOperator, MarginalQuery, QueryError, bin_sums,
                               compute_marginal, enumerate_queries, order_operator, query_count, save_marginals)

from conftest import (cell_counts, dense_marginal_matrix, random_dataset, reference_bin_maps,
                      reference_encode_xy as encode_xy, reference_l1_distance, reference_spectrum)


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
        assert marg.dtype == np.float64
        assert marg.tolist() == [1.0, 1.0, 0.0, 2.0]
        assert marg.sum() == 4.0

    def test_single_attribute(self, two_binary_rows):
        marg = compute_marginal(two_binary_rows, MarginalQuery((1,)))
        assert marg.tolist() == [1.0, 3.0]

    def test_degenerate_identical_rows(self):
        schema = Schema(("a", "b", "label"), (3, 2, 2))
        ds = Dataset(schema, np.tile([2, 1, 0], (7, 1)))
        marg = compute_marginal(ds, MarginalQuery((0, 2)))
        assert marg.sum() == 7
        assert marg.max() == 7  # all mass in one cell

    def test_invalid_attribute(self, two_binary_rows):
        with pytest.raises(QueryError):
            compute_marginal(two_binary_rows, MarginalQuery((0, 5)))

    @given(st.integers(0, 40), st.integers(0, 2**31 - 1), st.integers(0, 5))
    def test_counts_sum_to_n(self, n, seed, qpick):
        schema = Schema(("a", "b", "label"), (3, 4, 2))
        ds = random_dataset(schema, n, seed)
        q = enumerate_queries(2, 3)[qpick]
        assert compute_marginal(ds, q).sum() == n


class TestDistances:
    """`MarginalOperator.l1_to`, the per-query l1 that synthesis and its reports use."""

    def test_identity_zero(self, two_binary_rows):
        op = MarginalOperator(two_binary_rows.schema, [MarginalQuery(a) for a in [(0,), (1,), (0, 1)]])
        v = op.forward(cell_counts(two_binary_rows))
        assert op.l1_to(v, v).tolist() == [0.0, 0.0, 0.0]

    def test_direct_sum(self, two_binary_rows):
        op = MarginalOperator(two_binary_rows.schema, [MarginalQuery((0, 1))])
        assert op.l1_to(np.array([1.0, 1.0, 0.0, 2.0]), np.array([1.0, 0.0, 1.0, 2.0])).tolist() == [2.0]

    def test_half_shift(self, two_binary_rows):
        op = MarginalOperator(two_binary_rows.schema, [MarginalQuery((0,))])
        assert op.l1_to(np.array([2.0, 2.0]), np.array([1.5, 2.0])).tolist() == [0.5]

    def test_each_query_counts_only_its_own_bins(self, two_binary_rows):
        op = MarginalOperator(two_binary_rows.schema, [MarginalQuery(a) for a in [(0,), (1,), (0, 1)]])
        v = op.forward(cell_counts(two_binary_rows))  # bins 0-1, 2-3 and 4-7
        target = v.copy()
        target[2:4] += [0.25, -1.0]
        assert op.l1_to(v, target).tolist() == [0.0, 1.25, 0.0]

    @given(st.lists(st.floats(-50, 50), min_size=6, max_size=6),
           st.lists(st.floats(-50, 50), min_size=6, max_size=6),
           st.lists(st.floats(-50, 50), min_size=6, max_size=6))
    def test_metric_properties(self, xs, ys, zs):
        op = MarginalOperator(Schema(("a", "label"), (2, 2)), [MarginalQuery((0,)), MarginalQuery((0, 1))])
        a, b, c = np.array(xs), np.array(ys), np.array(zs)
        assert op.l1_to(a, b).tolist() == op.l1_to(b, a).tolist()
        assert np.all(op.l1_to(a, c) <= op.l1_to(a, b) + op.l1_to(b, c) + 1e-9)
        assert np.all(op.l1_to(a, b) >= 0.0)


class TestProjection:
    """`MarginalOperator.forward` projects joint-cell counts onto each query's attributes."""

    def test_project_pair_onto_single(self, two_binary_rows):
        op = MarginalOperator(two_binary_rows.schema, [MarginalQuery((1,))])
        assert op.forward(cell_counts(two_binary_rows)).tolist() == [1.0, 3.0]
        pair = compute_marginal(two_binary_rows, MarginalQuery((0, 1)))
        assert pair.reshape(2, 2).sum(axis=0).tolist() == [1.0, 3.0]

    def test_project_full_is_identity_on_counts(self):
        schema = OPERATOR_SCHEMAS[1]
        op = MarginalOperator(schema, [MarginalQuery(tuple(range(schema.num_attributes)))])
        x = np.random.default_rng(0).integers(0, 50, op.num_cells).astype(np.float64)
        assert np.array_equal(op.forward(x), x)

    def test_project_full_is_identity_within_rounding(self):
        # a fractional vector goes through T twice, so it comes back within rounding
        schema = OPERATOR_SCHEMAS[1]
        op = MarginalOperator(schema, [MarginalQuery(tuple(range(schema.num_attributes)))])
        x = np.random.default_rng(0).normal(size=op.num_cells)
        assert np.abs(op.forward(x) - x).max() <= FRACTIONAL_REL * np.abs(x).max()

    def test_total_preserved(self, two_binary_rows):
        op = MarginalOperator(two_binary_rows.schema, [MarginalQuery(a) for a in [(0,), (1,), (0, 1)]])
        counts = op.forward(cell_counts(two_binary_rows))
        assert op.l1_to(counts, np.zeros_like(counts)).tolist() == [4.0, 4.0, 4.0]

    def test_last_attribute_varies_fastest(self):
        schema = OPERATOR_SCHEMAS[1]  # sizes (3, 2, 4, 2)
        op = MarginalOperator(schema, [MarginalQuery((0, 2))])
        x = np.zeros(op.num_cells)
        x[np.ravel_multi_index((2, 1, 3, 0), schema.sizes)] = 1.0
        assert np.flatnonzero(op.forward(x)).tolist() == [2 * 4 + 3]

    @given(st.integers(1, 35), st.integers(0, 2**31 - 1))
    def test_commutes_with_computation(self, n, seed):
        schema = Schema(("a", "b", "c", "label"), (3, 2, 4, 2))
        ds = random_dataset(schema, n, seed)
        big = compute_marginal(ds, MarginalQuery((0, 2, 3))).reshape(3, 4, 2)
        subs = [(0,), (2,), (3,), (0, 2), (0, 3), (2, 3)]
        op = MarginalOperator(schema, [MarginalQuery(s) for s in subs])
        for sub, got in zip(subs, np.split(op.forward(cell_counts(ds)), op.offsets[1:])):
            summed = big.sum(axis=tuple(i for i, a in enumerate((0, 2, 3)) if a not in sub))
            assert np.array_equal(got, summed.ravel())
            assert np.array_equal(got, compute_marginal(ds, MarginalQuery(sub)))


# Most relative difference, to the largest reference entry, of `forward` and
# `transform(adjoint_coef(.))` on fractional input from the bin-table
# reference; up to 1.1e-14 is seen.
FRACTIONAL_REL = 1e-13


def table_forward(bin_maps: np.ndarray, num_bins, x: np.ndarray) -> np.ndarray:
    """A x by one bincount per query over the queries x cells bin table."""
    return np.concatenate([np.bincount(bm, weights=x, minlength=k) for bm, k in zip(bin_maps, num_bins)])


def table_adjoint(bin_maps: np.ndarray, offsets, r: np.ndarray) -> np.ndarray:
    """A^T r by one gather per query over the queries x cells bin table."""
    out = np.zeros(bin_maps.shape[1])
    for bm, o in zip(bin_maps, offsets):
        out += r[o:][bm]
    return out


# every query of order <= d: binary, mixed, an attribute (100 values) wider
# than a dense factor, and every order of 5 binary attributes
EIGENBASIS_DOMAINS = [((2,) * 11, 3), ((3, 4, 5, 2), 2), ((3, 4, 5, 2), 3), ((10, 10, 10, 10, 2), 3),
                      ((100, 17, 2), 2), ((7, 9, 2), 2), ((2,) * 5, 5)]


class TestEigenbasisOperator:
    """`forward` and `adjoint_coef` work in the basis of `transform`; `forward` and A^T r =
    `transform(adjoint_coef(r))` equal the bin-table reference."""

    @pytest.fixture(params=EIGENBASIS_DOMAINS, ids=str)
    def domain(self, request):
        sizes, d = request.param
        schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        op = MarginalOperator(schema, enumerate_queries(len(sizes) - 1, d))
        return op, reference_bin_maps(schema, op.queries)

    def test_whole_counts_are_byte_equal(self, domain):
        op, table = domain
        rng = np.random.default_rng(op.num_cells)
        one = np.zeros(op.num_cells)
        one[rng.integers(op.num_cells)] = 1.0
        for x in (rng.multinomial(5000, np.full(op.num_cells, 1.0 / op.num_cells)).astype(np.float64),
                  rng.integers(0, 3, op.num_cells), np.zeros(op.num_cells), one):
            got = op.forward(x)
            assert got.tobytes() == table_forward(table, op.num_bins, x).tobytes()
            assert not np.signbit(got).any()
        for r in (rng.integers(-40, 40, sum(op.num_bins)).astype(np.float64), np.zeros(sum(op.num_bins))):
            # rounded with no negative zero, as `forward` rounds whole counts
            got = np.rint(op.transform(op.adjoint_coef(r))) + 0.0
            assert got.tobytes() == table_adjoint(table, op.offsets, r).tobytes()
        assert "bin_maps" not in vars(op)

    def test_fractional_input_within_the_bound(self, domain):
        op, table = domain
        rng = np.random.default_rng(op.num_cells + 1)
        x, r = rng.normal(size=op.num_cells), rng.normal(size=sum(op.num_bins))
        want = table_forward(table, op.num_bins, x)
        assert np.abs(op.forward(x) - want).max() <= FRACTIONAL_REL * np.abs(want).max()
        want = table_adjoint(table, op.offsets, r)
        assert np.abs(op.transform(op.adjoint_coef(r)) - want).max() <= FRACTIONAL_REL * np.abs(want).max()

    def test_groups_share_sizes_and_no_dense_factor_is_wide(self, domain):
        op, _ = domain
        shapes = []
        for g in op._groups:
            members = {op.schema.shape(op.queries[q].attrs) for q in np.searchsorted(op.offsets, g.pos[:, 0])}
            assert len(members) == 1 and g.pos.shape[1] == math.prod(*members)
            shapes += members
        assert len(shapes) == len(set(shapes)) == len({op.schema.shape(q.attrs) for q in op.queries})
        assert sorted(np.concatenate([g.pos.ravel() for g in op._groups]).tolist()) == \
            list(range(sum(op.num_bins)))
        assert all(f.shape[0] <= _GROUP_DIM for g in op._groups for f in g.factors if f.ndim == 2)
        assert all(f.shape[0] <= _GROUP_DIM for f in op._factors if f.ndim == 2)

    def test_a_billion_rows_are_counted_exactly(self):
        # 16 binary features + label, 2^17 cells: about 10^9 rows, spread
        # unevenly, against an int64 reshape-and-sum per query
        sizes = (2,) * 17
        schema = Schema(tuple(f"x{i}" for i in range(16)) + ("label",), sizes)
        op = MarginalOperator(schema, enumerate_queries(16, 2))
        rng = np.random.default_rng(9)
        counts = rng.multinomial(10**9, rng.dirichlet(np.full(op.num_cells, 0.3)))
        counts[rng.integers(op.num_cells)] += 3 * 10**8
        grid = counts.reshape(sizes)
        want = np.concatenate([grid.sum(axis=tuple(a for a in range(17) if a not in q.attrs)).ravel()
                               for q in op.queries]).astype(np.float64)
        assert op.forward(counts.astype(np.float64)).tobytes() == want.tobytes()
        assert op.forward(counts).tobytes() == want.tobytes()


# mixed arities, and one attribute (40 values) wider than a dense transform factor
SPECTRAL_SIZES = [(3, 2, 4, 2), (3, 3, 2), (2, 5, 3, 2), (2, 2, 2, 2), (40, 3, 2)]

QUERY_PICKS = ["all order<=2", "random, not subset-closed", "attribute 1 unused"]


def picked_queries(sizes, pick) -> tuple[Schema, list[MarginalQuery]]:
    """A schema of these domain sizes and a query list over it, of orders 1 to 3."""
    schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
    every = enumerate_queries(schema.num_features, min(3, len(sizes)))
    if pick == "all order<=2":
        return schema, [q for q in every if len(q.attrs) <= 2]
    if pick == "random, not subset-closed":
        rng = np.random.default_rng(len(sizes) + sum(sizes))
        top, missing = every[-1], MarginalQuery(every[-1].attrs[:1])
        return schema, [every[i] for i in sorted(rng.choice(len(every), len(every) // 2, replace=False))
                        if every[i] not in (top, missing)] + [top]
    return schema, [q for q in every if 1 not in q.attrs]


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
            assert np.array_equal(vec, compute_marginal(ds, q))

    @pytest.mark.parametrize("schema", OPERATOR_SCHEMAS, ids=["binary", "mixed"])
    @given(st.integers(0, 35), st.integers(0, 2**31 - 1))
    @example(n=0, seed=0)
    def test_l1_to_matches_l1_distance(self, schema, n, seed):
        ds = random_dataset(schema, n, seed)
        queries = enumerate_queries(3, 2)
        op = MarginalOperator(schema, queries)
        rng = np.random.default_rng(seed)
        exact = [compute_marginal(ds, q) for q in queries]
        noisy = [h + rng.normal(0.0, 2.0, h.size) for h in exact]
        got = op.l1_to(op.forward(cell_counts(ds)), np.concatenate(noisy))
        want = [reference_l1_distance(h, e) for h, e in zip(noisy, exact)]
        assert got.tolist() == want

    @pytest.mark.parametrize("schema", OPERATOR_SCHEMAS, ids=["binary", "mixed"])
    @given(st.integers(0, 2**31 - 1))
    def test_adjoint_is_transpose(self, schema, seed):
        rng = np.random.default_rng(seed)
        op = MarginalOperator(schema, enumerate_queries(3, 3))
        c = rng.normal(size=op.num_cells)
        r = np.concatenate([rng.normal(size=k) for k in op.num_bins])
        back = op.adjoint_coef(r)
        assert float(op.forward_coef(c) @ r) == pytest.approx(float(c @ back), rel=1e-9, abs=1e-9)
        # forward on cells is forward_coef of their coefficients
        lhs = float(op.forward(c) @ r)
        assert lhs == pytest.approx(float(op.transform(c) @ back), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("sizes", SPECTRAL_SIZES, ids=str)
    @pytest.mark.parametrize("pick", QUERY_PICKS)
    def test_spectrum_and_transform_diagonalize_the_gram(self, sizes, pick):
        schema, queries = picked_queries(sizes, pick)
        op = MarginalOperator(schema, queries)
        a = dense_marginal_matrix(schema, queries)
        gram = a.T @ a
        t = np.column_stack([op.transform(e) for e in np.eye(op.num_cells)])
        assert np.allclose(t, t.T, rtol=0.0, atol=1e-13)
        assert np.allclose(t @ t, np.eye(op.num_cells), rtol=0.0, atol=1e-12)
        assert np.allclose(t[:, 0], 1.0 / math.sqrt(op.num_cells), rtol=0.0, atol=1e-15)
        assert np.all(op.spectrum >= 0.0)
        assert np.allclose(t @ np.diag(op.spectrum) @ t, gram, rtol=0.0, atol=1e-12 * gram.max())

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_even_margin_moments_are_fixed_on_the_null_space(self, d, seed):
        # t = y<w, x> with y = +-1: t^k for even k is <w, x>^k, a polynomial in
        # feature marginals of order <= k, and odd k carries y and needs order
        # k + 1.  So moving p along the null space of the order-<=d operator
        # fixes E[t^k] for every k <= 2 floor(d/2), and not the cubic.  A
        # ternary feature keeps x_i^2 from hiding differences by parity.
        sizes = (2, 3, 2, 3, 2)
        schema = Schema(("a", "b", "c", "e", "label"), sizes)
        op = MarginalOperator(schema, enumerate_queries(4, d))
        rng = np.random.default_rng(seed)
        z = op.transform(np.where(op.spectrum == 0.0, rng.normal(size=op.num_cells), 0.0))
        assert np.abs(z).max() > 0.1
        assert np.abs(op.forward(z)).max() <= 1e-13
        p = rng.uniform(0.5, 1.5, op.num_cells)
        p /= p.sum()
        q = p + 0.5 * np.min(p[z < 0] / -z[z < 0]) * z
        assert q.min() > 0.0
        x, y = encode_xy(Dataset(schema, np.indices(sizes).reshape(len(sizes), -1).T))
        t = y * (x @ rng.normal(size=4))
        for k in range(1, 2 * (d // 2) + 1):
            assert q @ t**k == pytest.approx(p @ t**k, rel=1e-12)
        assert abs(q @ t**3 - p @ t**3) > 1e-4 * abs(p @ t**3)

    def test_order_operator_is_shared_and_read_only(self):
        # sizes 2 and 3 share a dense factor; 40, wider than one, is a reflector's vector
        schema = Schema(("a", "b", "c", "label"), (2, 3, 40, 2))
        order_operator.cache_clear()
        op = order_operator(schema, 2)
        assert op.queries == tuple(enumerate_queries(3, 2))
        assert order_operator(Schema(schema.names, schema.sizes), 2) is op
        assert [f.ndim for f in op._factors] == [2, 1, 2]
        arrays = [op.offsets, op.bin_maps, op.spectrum, *op._factors,
                  *(a for g in op._groups for a in (g.pos, g.coef, *g.factors))]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
        # two entries: asking for A, B, A, C keeps A and evicts B, the least recently asked
        b = order_operator(schema, 3)
        assert b.queries == tuple(enumerate_queries(3, 3))
        assert order_operator(schema, 2) is op
        assert order_operator(schema, 1).queries == tuple(enumerate_queries(3, 1))
        assert order_operator(schema, 2) is op
        assert order_operator(schema, 3) is not b

    @pytest.mark.parametrize("sizes", SPECTRAL_SIZES + [(1500, 3, 2), (300, 300, 2), (2,) * 11], ids=str)
    @pytest.mark.parametrize("pick", QUERY_PICKS)
    def test_bin_maps_and_spectrum_equal_the_query_loop(self, sizes, pick):
        schema, queries = picked_queries(sizes, pick)
        op = MarginalOperator(schema, queries)
        assert op.bin_maps.dtype == np.intp and not op.bin_maps.flags.writeable
        assert op.bin_maps.tobytes() == reference_bin_maps(schema, queries).tobytes()
        assert op.spectrum.dtype == np.float64 and not op.spectrum.flags.writeable
        assert op.spectrum.tobytes() == reference_spectrum(schema, queries).tobytes()

    def test_the_spectrum_allocates_one_vector_over_the_cells(self):
        # 18 binary features + label at d=2: 524,288 cells and 190 queries; the
        # spectrum is read off the query groups, with no array over the 2^19
        # support patterns and no support grid over the cells
        schema = Schema(tuple(f"x{i}" for i in range(18)) + ("label",), (2,) * 19)
        op = MarginalOperator(schema, enumerate_queries(18, 2))
        op._groups  # built once, before the measurement
        tracemalloc.start()
        try:
            op.spectrum
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * op.num_cells  # two float64 vectors over the cells

    # every query of each schema: segments of 2-9 bins (a domain has at least
    # 2 values), 127-129, 3,999-4,001, 4,095 and 4,097 bins and twice those;
    # numpy's pairwise sum adds blocks of 128
    SUM_SIZES = [(2, 3, 5, 2), (7, 9, 2), (4, 2, 2), (8, 2), (127, 2), (128, 2), (129, 2), (3999, 2),
                 (4000, 2), (4001, 2), (4095, 2), (4097, 2)]

    @staticmethod
    def full_operator(sizes) -> MarginalOperator:
        schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
        return MarginalOperator(schema, enumerate_queries(len(sizes) - 1, len(sizes)))

    @staticmethod
    def spread(rng, shape) -> np.ndarray:
        """Signed values of magnitudes 1e-3 to 1e6, so the order of addition shows."""
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 6.0, shape)

    @staticmethod
    def run_sums(op: MarginalOperator, x: np.ndarray) -> np.ndarray:
        """Each query's sum over its bins in each row of x (rows, concatenated
        bins), by one `bin_sums` per run of equal-sized queries, bins first."""
        out = np.zeros((len(op.num_bins), x.shape[0]))
        q = 0
        for first, count, bins in op.runs:
            bin_sums(x[:, first:first + count * bins].T.reshape(count, bins, -1), out[q:q + count])
            q += count
        return out.T

    @pytest.mark.parametrize("sizes", SUM_SIZES, ids=str)
    def test_l1_to_equals_each_query_summed_alone(self, sizes):
        op = self.full_operator(sizes)
        rng = np.random.default_rng(sum(sizes))
        marginals, target = self.spread(rng, (2, sum(op.num_bins)))
        diff = np.abs(target - marginals)
        want = [np.sum(np.array(diff[o:o + k])) for o, k in zip(op.offsets, op.num_bins)]  # a 1-D copy per query
        assert op.l1_to(marginals, target).tolist() == want

    @pytest.mark.parametrize("sizes", SUM_SIZES, ids=str)
    def test_bin_sums_equal_each_query_summed_alone(self, sizes):
        op = self.full_operator(sizes)
        rng = np.random.default_rng(sum(sizes))
        x = self.spread(rng, (5, sum(op.num_bins)))
        for v in (x, np.abs(x)):
            want = [[np.sum(np.array(row[o:o + k])) for o, k in zip(op.offsets, op.num_bins)] for row in v]
            assert self.run_sums(op, v).tolist() == want

    # bin counts 2, 2, 2 | 6 | 4, 4 | 12, 12 | 6 | 2 | 6, 6: runs of one and of
    # more, equal counts that are not adjacent, and a run of 12 bins, one block
    # of 8 and four more
    RUN_QUERIES = [MarginalQuery(attrs) for attrs in [(1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 1, 2),
                                                      (0, 1, 3), (0, 2), (4,), (0, 3), (0, 4)]]

    def run_operator(self) -> MarginalOperator:
        op = MarginalOperator(Schema(("a", "b", "c", "d", "label"), (3, 2, 2, 2, 2)), self.RUN_QUERIES)
        assert op.num_bins == (2, 2, 2, 6, 4, 4, 12, 12, 6, 2, 6, 6)
        return op

    def test_l1_to_over_runs_of_equal_bin_counts(self):
        op = self.run_operator()
        marginals, target = self.spread(np.random.default_rng(0), (2, sum(op.num_bins)))
        diff = np.abs(target - marginals)
        want = np.array([np.sum(np.array(diff[o:o + k])) for o, k in zip(op.offsets, op.num_bins)])
        assert op.l1_to(marginals, target).tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(7,), (3, 5)], ids=["2-D", "3-D"])
    def test_bin_sums_over_runs_of_equal_bin_counts(self, lead):
        op = self.run_operator()
        shape = lead + (sum(op.num_bins),)
        x = self.spread(np.random.default_rng(len(lead)), shape)
        for v in (x, np.abs(x)):
            want = np.array([[np.sum(np.array(row[o:o + k])) for o, k in zip(op.offsets, op.num_bins)]
                             for row in v.reshape(-1, shape[-1])])
            # bins last in memory, and bins first
            for layout in (v, np.moveaxis(np.moveaxis(v, -1, 0).copy(), 0, -1)):
                got = self.run_sums(op, layout.reshape(-1, shape[-1]))
                assert got.tobytes() == want.tobytes()

    # two queries of k bins over 70 rows: added by columns below 8 bins, where
    # numpy adds one by one, and summed along the bins from 8 on, in numpy's
    # pairwise order (blocks of 8 running sums up to 128 bins, halves beyond)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129])
    def test_bin_sums_equal_numpys_order(self, k):
        rng = np.random.default_rng(k)
        x = self.spread(rng, (70, 2 * k))
        want = [[np.sum(np.array(row[:k])), np.sum(np.array(row[k:]))] for row in x]
        for layout in (x, np.asfortranarray(x)):
            out = np.zeros((2, 70))
            bin_sums(layout.T.reshape(2, k, 70), out)
            assert out.T.tolist() == want

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
    """The dump holds every cell of every query in order, and counts survive `repr` exactly."""
    op = MarginalOperator(two_binary_rows.schema, [MarginalQuery(a) for a in [(0,), (1,), (0, 1), (0,)]])
    vector = np.concatenate([compute_marginal(two_binary_rows, q) for q in op.queries[:3]]
                            + [np.array([2.0 / 3.0, -0.1])])
    save_marginals(op, vector, tmp_path / "m.csv", tmp_path / "m.json")
    with open(tmp_path / "m.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["query_id", "flat_index", "count"]
    assert [(int(q), int(i)) for q, i, _ in rows] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
                                                       (2, 2), (2, 3), (3, 0), (3, 1)]
    assert [float(c) for _, _, c in rows] == [2.0, 2.0, 1.0, 3.0, 1.0, 1.0, 0.0, 2.0, 2.0 / 3.0, -0.1]
    text = (tmp_path / "m.json").read_text()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2) + "\n"
    assert manifest == {"queries": [
        {"id": 0, "attrs": [0], "shape": [2]},
        {"id": 1, "attrs": [1], "shape": [2]},
        {"id": 2, "attrs": [0, 1], "shape": [2, 2]},
        {"id": 3, "attrs": [0], "shape": [2]},
    ]}


@pytest.mark.parametrize("sizes, d", [((2, 2, 2), 2), ((3, 2, 4, 2), 3), ((40, 3, 2), 2), ((5, 2), 2)],
                         ids=["binary", "mixed", "wide attribute", "full order"])
def test_dump_lists_every_cell_of_every_query_once(tmp_path, sizes, d):
    """Ids run 0.., each query's cells run 0..bins-1 in order, and `shape` is the schema's."""
    schema = Schema(tuple(f"x{i}" for i in range(len(sizes) - 1)) + ("label",), sizes)
    op = MarginalOperator(schema, enumerate_queries(len(sizes) - 1, d))
    rng = np.random.default_rng(sum(sizes))
    real = random_dataset(schema, 7, 0)
    vector = np.concatenate([compute_marginal(real, q) for q in op.queries])
    vector += rng.normal(0.0, 3.0, vector.size)
    save_marginals(op, vector, tmp_path / "m.csv", tmp_path / "m.json")
    with open(tmp_path / "m.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(int(q), int(i)) for q, i, _ in rows] == [(qid, i) for qid, k in enumerate(op.num_bins)
                                                       for i in range(k)]
    assert [float(c) for _, _, c in rows] == vector.tolist()
    manifest = json.loads((tmp_path / "m.json").read_text())["queries"]
    assert all(e.keys() == {"id", "attrs", "shape"} for e in manifest)
    assert [e["id"] for e in manifest] == list(range(len(op.queries)))
    assert [tuple(e["attrs"]) for e in manifest] == [q.attrs for q in op.queries]
    assert [tuple(e["shape"]) for e in manifest] == [schema.shape(q.attrs) for q in op.queries]
