"""Queries for marginals, their count vectors and the operator that computes them.

A marginal query is a subset of attribute indices (0-based, label at index m)
of size at most d.  Its marginal is the vector of occurrence counts over all
value combinations of those attributes, stored in row-major order with the
last attribute in the query varying fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

from .dataset import Dataset, Schema, _write_csv, _write_json


class QueryError(ValueError):
    """Invalid marginal query or mismatched query pair."""


@dataclass(frozen=True, order=True)
class MarginalQuery:
    """Strictly increasing, non-empty tuple of attribute indices."""

    attrs: tuple[int, ...]

    def __post_init__(self):
        attrs = tuple(int(a) for a in self.attrs)
        if not attrs:
            raise QueryError("empty query carries no information; size-0 marginals are excluded")
        if any(b <= a for a, b in zip(attrs, attrs[1:])):
            raise QueryError(f"attribute indices must be strictly increasing, got {attrs}")
        if attrs[0] < 0:
            raise QueryError(f"negative attribute index in {attrs}")
        object.__setattr__(self, "attrs", attrs)

    def validate(self, schema: Schema) -> None:
        if self.attrs[-1] >= schema.num_attributes:
            raise QueryError(f"attribute index {self.attrs[-1]} invalid for schema with "
                             f"{schema.num_attributes} attributes")


def enumerate_queries(m: int, d: int) -> list[MarginalQuery]:
    """All attribute subsets of size 1..d over the m features plus label.

    Deterministic (size, lexicographic) order; the count is
    sum_{k=1}^{d} C(m+1, k).
    """
    if d < 1 or d > m + 1:
        raise QueryError(f"marginal order d={d} out of range [1, {m + 1}]")
    out: list[MarginalQuery] = []
    for k in range(1, d + 1):
        for attrs in combinations(range(m + 1), k):
            out.append(MarginalQuery(attrs))
    return out


def query_count(m: int, d: int) -> int:
    return sum(math.comb(m + 1, k) for k in range(1, d + 1))


def compute_marginal(ds: Dataset, q: MarginalQuery) -> np.ndarray:
    """Exact occurrence counts of every value combination of q's attributes,
    as a float64 vector.

    Counted over the dataset's distinct rows, each weighted by its count:
    whole-number sums, so the same floats as counting row by row.
    """
    q.validate(ds.schema)
    shape = ds.schema.shape(q.attrs)
    codes, counts = ds.weighted
    flat = np.ravel_multi_index(tuple(codes[:, list(q.attrs)].T), shape)
    return np.bincount(flat, weights=counts, minlength=math.prod(shape))


# Largest side of a dense factor of a Kronecker transform (`_kron_factors`).
# It bounds each factor's memory; on 2,048-8,192 binary cells wider factors
# were slower.
_GROUP_DIM = 32


def _kron_factors(sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The factors, over consecutive attributes in order and read-only, of the
    Kronecker product of one Householder reflector per domain size.

    Attribute a's reflector H_a = I - w w^T maps e_0 to the constant
    1/sqrt(k_a); it is symmetric and orthogonal, so its first row is that
    constant too.  A 2-D factor is the Kronecker product of the reflectors of
    a run of attributes whose domain sizes multiply to at most _GROUP_DIM.
    An attribute larger than that is the 1-D vector w of its reflector.  So
    no dense factor is wider than _GROUP_DIM, whatever the domain sizes.
    """
    out = []
    for k in sizes:
        w = np.full(k, -1.0 / math.sqrt(k))
        w[0] += 1.0
        w *= math.sqrt(2.0 / (w @ w))
        if k > _GROUP_DIM:
            out.append(w)
            continue
        h = np.eye(k) - np.outer(w, w)
        if out and out[-1].ndim == 2 and out[-1].shape[0] * k <= _GROUP_DIM:
            out[-1] = np.kron(out[-1], h)
        else:
            out.append(h)
    for f in out:
        f.setflags(write=False)
    return tuple(out)


def _apply_factors(factors: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """The Kronecker product of `factors` applied to x (N,) or to each column
    of x (N, batch), N the product of the factors' sides: the results, one
    after another in C order, so reshaped to (batch, N) row b is column b's.

    Each (symmetric) factor acts on the leading axis, which is then moved
    last, so after all factors the grid axes are back in order, behind the
    batch axis that trailed them: one small matrix product per factor over
    the whole batch, and no transpose of the batch on its own.
    """
    for f in factors:
        x = x.reshape(f.shape[0], -1).T
        x = x @ f if f.ndim == 2 else x - np.outer(x @ f, f)
    return x


@dataclass(frozen=True)
class _QueryGroup:
    """The queries of one operator that share their attributes' domain sizes.

    `pos` (queries x bins) holds each query's bins' places in the
    concatenated layout and `coef` (queries x bins) the flat indices of the
    coefficients of `transform` whose support lies inside the query, in the
    query's bin order; `scale` is sqrt(cells / bins) and `factors` those of
    the query's own Kronecker transform (`_kron_factors` of its sizes).
    """

    pos: np.ndarray
    coef: np.ndarray
    scale: float
    factors: tuple[np.ndarray, ...]


class MarginalOperator:
    """The linear map A from joint-cell counts to the marginals of a query list.

    Joint cells are the row-major flat indices of the full domain
    (schema.sizes).  The marginals of all queries are one concatenated
    vector, query q's `num_bins[q]` bins from `offsets[q]` on; `forward`
    and `forward_coef` return it, and `adjoint_coef` and `l1_to` take it.
    Building an operator reads only sizes, so it is cheap over any domain.

    A is applied in a fixed basis: T, the Kronecker product of one
    Householder reflector H_a per attribute (`transform`), symmetric,
    orthogonal and its own inverse.  H_a's first column is the constant
    1/sqrt(k_a), so 1^T H_a = sqrt(k_a) e_0^T, and for each query Q
        A_Q T = (kron_{a in Q} H_a) kron (kron_{a not in Q} sqrt(k_a) e_0^T):
    Q's marginal of x is sqrt(cells / bins_Q) times Q's own Kronecker
    transform of the bins_Q coefficients of T x whose support lies inside Q
    (`_groups`).  `forward_coef` (A T c), its transpose `adjoint_coef`
    (T A^T r) and `spectrum` read A off those groups of queries of equal
    domain sizes, with no loop over the queries and no table over the cells.
    They work on coefficients, not cells; `forward`, `forward_coef` of
    `transform` rounded, is the one map of cell counts, such as a
    synthesizer's output.  The cell -> bin table `bin_maps`, which only the
    exhaustive scan reads, is built on first read.
    """

    def __init__(self, schema: Schema, queries):
        self.schema = schema
        self.queries = tuple(queries)
        for q in self.queries:
            q.validate(schema)
        self.num_cells = math.prod(schema.sizes)
        self.num_bins = tuple(math.prod(schema.shape(q.attrs)) for q in self.queries)
        self.offsets = np.cumsum((0,) + self.num_bins[:-1])
        self.offsets.setflags(write=False)

    @cached_property
    def bin_maps(self) -> np.ndarray:
        """The cell -> bin table, queries x cells, read-only: row q holds each
        cell's bin of query q, the row-major index of its codes on q's
        attributes.

        Row q is np.arange(bins) shaped over q's attributes (size 1 on the
        others) and broadcast over the cell grid: integers throughout.
        """
        sizes = self.schema.sizes
        maps = np.empty((len(self.queries), self.num_cells), dtype=np.intp)
        for row, q, bins in zip(maps, self.queries, self.num_bins):
            shape = [1] * len(sizes)
            for a in q.attrs:
                shape[a] = sizes[a]
            row.reshape(sizes)[...] = np.arange(bins).reshape(shape)
        maps.setflags(write=False)
        return maps

    @cached_property
    def _groups(self) -> tuple[_QueryGroup, ...]:
        """The queries grouped by their attributes' domain sizes, in order of
        first appearance, with read-only arrays.

        Query Q's coefficient at bin omega (its codes on Q's attributes) is
        T x's at the cell with those codes on Q and 0 elsewhere: the sum of
        omega_a times attribute a's stride in the cell grid.
        """
        sizes = self.schema.sizes
        strides = np.cumprod((1,) + sizes[:0:-1], dtype=np.intp)[::-1]
        members: dict[tuple[int, ...], list[int]] = {}
        for i, q in enumerate(self.queries):
            members.setdefault(self.schema.shape(q.attrs), []).append(i)
        groups = []
        for shape, qs in members.items():
            bins = math.prod(shape)
            codes = np.indices(shape).reshape(len(shape), bins)
            pos = self.offsets[qs, None] + np.arange(bins)
            coef = strides[[self.queries[i].attrs for i in qs]] @ codes
            for a in (pos, coef):
                a.setflags(write=False)
            groups.append(_QueryGroup(pos, coef, math.sqrt(self.num_cells // bins), _kron_factors(shape)))
        return tuple(groups)

    def forward(self, counts: np.ndarray) -> np.ndarray:
        """All queries' marginals of a (possibly fractional) cell-count vector.

        One `transform`, then `forward_coef`.  Whole-number counts give
        their exact marginals: the result is rounded to whole numbers, with
        no negative zero, which is exact while every entry's error is below
        1/2.  To first order that error is at most
        2^-53 * n * sqrt(cells / 2) * C, n = sum |x| >= ||x||_2, with C the
        sum over the factors of T of k^1.5 for a dense factor of side k and
        2k for a reflector's vector, and as much again for the query's own
        transform.  Within `synth.DENSE_CELL_CAP` (1e6 cells) that is below
        1e-10 * n on binary domains, so exact far beyond 10^9 rows, and
        weakest, about 1.6e-7 * n, for one attribute of half the cells.
        Measured errors are far smaller: at most 1e-15 * n on binary and
        mixed domains and 1.3e-13 * n on sizes (250000, 2).
        """
        x = np.asarray(counts)
        out = self.forward_coef(self.transform(x))
        if x.dtype.kind in "biu" or (np.rint(x) == x).all():
            np.rint(out, out=out)
            out += 0.0  # no negative zero
        return out

    def forward_coef(self, c: np.ndarray) -> np.ndarray:
        """A T c, the marginals of the cells whose coefficients (`transform`) are c, unrounded:
        per group a gather of its queries' coefficients, the scale and the group's small transform."""
        c = np.asarray(c, dtype=np.float64)
        out = np.empty(sum(self.num_bins))
        for g in self._groups:
            part = c[g.coef.T]
            part *= g.scale
            out[g.pos] = _apply_factors(g.factors, part).reshape(g.pos.shape)
        return out

    def adjoint_coef(self, r: np.ndarray) -> np.ndarray:
        """T A^T r, the transpose of `forward_coef` (A^T r is `transform` of it): per group
        the small transform and the scale, then one bincount of every group's values at their coefficients."""
        r = np.asarray(r, dtype=np.float64)
        parts = np.concatenate([_apply_factors(g.factors, r[g.pos.T]).ravel() * g.scale for g in self._groups])
        return np.bincount(self._coef, weights=parts, minlength=self.num_cells)

    @cached_property
    def _coef(self) -> np.ndarray:
        """Every group's `coef`, flattened and concatenated in group order, read-only."""
        coef = np.concatenate([g.coef.ravel() for g in self._groups])
        coef.setflags(write=False)
        return coef

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of A^T A over the coefficients of `transform`, in cell order.

        A_Q T is sqrt(cells / bins_Q) times an orthogonal transform of the
        coefficients whose support lies inside Q (`_groups`), so
        A^T A = T diag(lambda) T with lambda(omega) the sum of cells / bins_Q
        over the queries Q whose coefficients hold omega: one bincount of
        whole numbers, so exact.  Flat index 0 (omega = 0) is the constant
        direction; every other coefficient has sum zero over the cells.
        """
        weights = np.concatenate([np.full(g.coef.size, float(self.num_cells // g.coef.shape[1]))
                                  for g in self._groups])
        lam = np.bincount(self._coef, weights=weights, minlength=self.num_cells)
        lam.setflags(write=False)
        return lam

    @cached_property
    def _factors(self) -> tuple[np.ndarray, ...]:
        """T's factors (`_kron_factors` of the schema's sizes)."""
        return _kron_factors(self.schema.sizes)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """T x over the cells: T is orthogonal, symmetric and its own inverse."""
        return _apply_factors(self._factors, np.asarray(x, dtype=np.float64)).ravel()

    @cached_property
    def runs(self) -> tuple[tuple[int, int, int], ...]:
        """(first bin, queries, bins per query) of each run of consecutive
        queries with equal bin counts, in query order."""
        runs = []
        for first, bins in zip(self.offsets.tolist(), self.num_bins):
            if runs and runs[-1][2] == bins:
                runs[-1][1] += 1
            else:
                runs.append([first, 1, bins])
        return tuple(map(tuple, runs))

    def l1_to(self, marginals: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-query l1 distance between two concatenated marginal vectors.

        Each run of equal-sized queries (`runs`) is one numpy sum along its
        bins, so every distance is bit-equal to np.sum of that query's
        absolute differences alone (np.add.reduceat adds in another order).
        """
        diff = np.abs(target - marginals)
        return np.concatenate([diff[first:first + count * bins].reshape(count, bins).sum(-1)
                               for first, count, bins in self.runs])


def bin_sums(cols: np.ndarray, out: np.ndarray) -> None:
    """Sum `cols` (queries, bins, ...) over its bins axis into `out` (queries,
    ...), which holds zeros, each sum bit-equal to np.sum of those bins alone.

    numpy adds fewer than 8 floats one by one; below 8 bins so do these
    column adds, each over every query and every other index at once, which
    on many rows beats one reduction per row.  From 8 bins on it is one
    np.sum over a copy with the bins last, so that numpy's inner loop runs
    along them, in its pairwise order, whatever the layout of `cols`.
    """
    bins = cols.shape[1]
    if bins >= 8:
        np.sum(np.ascontiguousarray(np.moveaxis(cols, 1, -1)), axis=-1, out=out)
        return
    for j in range(bins):
        out += cols[:, j]


@lru_cache(maxsize=2)
def order_operator(schema: Schema, d: int) -> MarginalOperator:
    """The operator over every query of order <= d on `schema` (`enumerate_queries`).

    It reads only the schema and d, so every release over them can share it:
    the last two (schema, d) asked keep their operators, with the query
    groups and spectra they have built, so a sweep's releases build one
    between them and a workload that alternates two shapes builds two.  Only
    an operator used by an exhaustive scan holds a bin table, so at most two
    are held, and brute mode takes that path only when the table fits
    `synth._TABLE_ENTRIES`.  Its arrays are read-only, so no release can
    change what a later one reads.
    """
    return MarginalOperator(schema, enumerate_queries(schema.num_features, d))


# ---------------------------------------------------------------------------
# Serialization: one CSV of (query id, flattened index, count) plus a manifest
# describing each query's attribute set and domain shape.


def save_marginals(op: MarginalOperator, vector: np.ndarray,
                   csv_path: str | Path, manifest_path: str | Path) -> None:
    """Write a marginal vector in `op`'s layout, one slice per query."""
    qid = np.repeat(np.arange(len(op.queries)), op.num_bins)
    idx = np.arange(len(qid)) - np.repeat(op.offsets, op.num_bins)
    _write_csv(csv_path, ["query_id", "flat_index", "count"],
               zip(qid.tolist(), idx.tolist(), map(repr, vector.tolist())))
    manifest = {
        "queries": [
            {"id": qid, "attrs": list(q.attrs), "shape": list(op.schema.shape(q.attrs))}
            for qid, q in enumerate(op.queries)
        ]
    }
    _write_json(manifest, manifest_path)
