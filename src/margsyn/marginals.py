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


# Largest side of a dense factor of MarginalOperator.transform.  It bounds
# each factor's memory; on 2,048-8,192 binary cells wider factors were slower.
_GROUP_DIM = 32
# Most bins numpy's pairwise float sum adds as one block, by 8 running sums.
_PAIRWISE_BLOCK = 128


class MarginalOperator:
    """The linear map A from joint-cell counts to the marginals of a query list.

    Joint cells are the row-major flat indices of the full domain
    (schema.sizes).  The marginals of all queries are one concatenated
    vector, query q's `num_bins[q]` bins from `offsets[q]` on; `forward`
    returns it, `adjoint` and `l1_to` take it, and `query_sums` reduces it to
    one value per query.  It maps cell counts, such as a synthesizer's output.
    Building an operator reads only sizes, so it is cheap over any domain;
    the cell -> bin table `bin_maps` is built on first read.

    A^T A is diagonal in a fixed basis: with T the Kronecker product of one
    Householder reflector per attribute (`transform`), A^T A = T diag(spectrum) T
    for any list of queries (see `spectrum`).  Both are built on first use.
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

    def forward(self, counts: np.ndarray) -> np.ndarray:
        """All queries' marginals of a (possibly fractional) cell-count vector."""
        return np.concatenate([np.bincount(bm, weights=counts, minlength=k)
                               for bm, k in zip(self.bin_maps, self.num_bins)])

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """Transpose of forward: spread each query's bin values back onto the cells."""
        out = np.zeros(self.num_cells)
        for bm, o in zip(self.bin_maps, self.offsets):
            out += r[o:][bm]
        return out

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of A^T A over the coefficients of `transform`, in cell order.

        A^T A = sum_Q kron_a (I if a in Q else J), J the all-ones matrix of
        side k_a (attribute a's domain size).  Each attribute's reflector has
        the constant first column u, and J = k_a u u^T, so every term is
        diagonal in the basis T: it is prod_{a not in Q} k_a on the
        coefficients omega with omega_a = 0 for each a outside Q, and 0
        elsewhere.  Flat index 0 (omega = 0) is the constant direction; every
        other coefficient has sum zero over the cells.

        So lambda(omega) is the sum of cells/bins_Q over the queries Q that hold
        every attribute of omega's support {a : omega_a != 0}: one sum per
        support pattern, of which there are 2^A <= cells (A attributes, each
        of at least 2 values), taken as superset sums over the patterns.
        """
        sizes = self.schema.sizes
        # per[s]: the sum of cells/bins over the queries whose attribute set,
        # as a bit mask, is s; after the superset sums, per[s] is the sum over
        # the queries that hold every attribute of s.  Integer sums, so exact.
        per = np.zeros(2 ** len(sizes), dtype=np.int64)
        for q, bins in zip(self.queries, self.num_bins):
            per[sum(1 << a for a in q.attrs)] += self.num_cells // bins
        for a in range(len(sizes)):
            view = per.reshape(-1, 2, 1 << a)
            view[:, 0] += view[:, 1]
        # each cell's support omega_a != 0 as a bit mask, over the cell grid
        support = np.zeros(1, dtype=np.intp)
        for a, k in enumerate(sizes):
            support = np.add.outer(support, (np.arange(k) > 0) << a).ravel()
        lam = per[support].astype(np.float64)
        lam.setflags(write=False)
        return lam

    @cached_property
    def _factors(self) -> tuple[np.ndarray, ...]:
        """T's factors over consecutive attributes, in order, read-only.

        A 2-D factor is the Kronecker product of the reflectors of a run of
        attributes whose domain sizes multiply to at most _GROUP_DIM.  An
        attribute larger than that is the 1-D vector w of its reflector
        I - w w^T.  So a factor holds at most _GROUP_DIM times as many entries
        as there are cells, whatever the domain sizes.
        """
        out = []
        for k in self.schema.sizes:
            w = np.full(k, -1.0 / math.sqrt(k))
            w[0] += 1.0
            w *= math.sqrt(2.0 / (w @ w))  # I - w w^T maps e_0 to the constant 1/sqrt(k)
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

    def transform(self, x: np.ndarray) -> np.ndarray:
        """T x over the cells: T is orthogonal, symmetric and its own inverse.

        Each (symmetric) factor acts on the leading axis of the cell grid, which
        is then moved last, so after all factors the axes are back in order:
        one small matrix product per factor.
        """
        x = np.asarray(x, dtype=np.float64)
        for f in self._factors:
            x = x.reshape(f.shape[0], -1).T
            x = x @ f if f.ndim == 2 else x - np.outer(x @ f, f)
        return x.ravel()

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

    def query_sums(self, x: np.ndarray) -> np.ndarray:
        """Each query's sum over its bins, along the last axis of concatenated vectors x.

        Every sum is bit-equal to np.sum of that query's bins alone
        (np.add.reduceat adds in another order).  The queries are reduced one
        run of equal bin counts (`runs`) at a time, by `bin_sums`.
        """
        flat = x.reshape(-1, x.shape[-1])
        rows = flat.shape[0]
        out = np.zeros((len(self.num_bins), rows))
        q = 0
        for first, count, bins in self.runs:
            run = flat[:, first:first + count * bins]
            bin_sums(run.T.reshape(count, bins, rows), out[q:q + count])
            q += count
        return out.T.reshape(x.shape[:-1] + (len(self.num_bins),))

    def l1_to(self, marginals: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-query l1 distance between two concatenated marginal vectors."""
        return self.query_sums(np.abs(target - marginals))


def bin_sums(cols: np.ndarray, out: np.ndarray) -> None:
    """Sum `cols` (queries, bins, ...) over its bins axis into `out` (queries,
    ...), which holds zeros, each sum bit-equal to np.sum of those bins alone.

    numpy adds k floats as 0 + their pairwise sum: for k < 8 one by one; for
    k <= _PAIRWISE_BLOCK as 8 running sums over the whole blocks of 8,
    combined as ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), then the
    other k mod 8 one by one; longer sums are split in halves.  Up to
    _PAIRWISE_BLOCK bins the bins are added in that order, each add over
    every query and every other index at once: about k / 8 + 8 numpy calls,
    where one reduction per sum costs numpy's per-row overhead each.  More
    bins are one np.sum over a copy with the bins last, so that numpy's inner
    loop runs along them whatever the layout of `cols`.
    """
    bins = cols.shape[1]
    if bins > _PAIRWISE_BLOCK:
        np.sum(np.ascontiguousarray(np.moveaxis(cols, 1, -1)), axis=-1, out=out)
        return
    rest = 0
    if bins >= 8:
        rest = bins - bins % 8
        acc = cols[:, :8].copy()
        for i in range(8, rest, 8):
            acc += cols[:, i:i + 8]
        acc = acc[:, 0::2] + acc[:, 1::2]
        acc = acc[:, 0::2] + acc[:, 1::2]
        out += acc[:, 0] + acc[:, 1]
    for j in range(rest, bins):
        out += cols[:, j]


@lru_cache(maxsize=2)
def order_operator(schema: Schema, d: int) -> MarginalOperator:
    """The operator over every query of order <= d on `schema` (`enumerate_queries`).

    It reads only the schema and d, so every release over them can share it:
    the last two (schema, d) asked keep their operators, with the bin
    tables, spectra and transform factors they have built, so a sweep's
    releases build one between them and a workload that alternates two
    shapes builds two.  That holds at most two bin tables; each synthesis
    path refuses one of more than `synth._TABLE_ENTRIES` entries before it
    is built.  Its arrays are read-only, so no release can change what a
    later one reads.
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
