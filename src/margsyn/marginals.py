"""Marginal queries and marginal count vectors.

A marginal query is a subset of attribute indices (0-based, label at index m)
of size at most d.  Its marginal is the vector of occurrence counts over all
value combinations of those attributes, stored in row-major order with the
last attribute in the query varying fastest.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from .dataset import Dataset, Schema


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

    @property
    def order(self) -> int:
        return len(self.attrs)

    def validate(self, schema: Schema) -> None:
        if self.attrs[-1] >= schema.num_attributes:
            raise QueryError(f"attribute index {self.attrs[-1]} invalid for schema with "
                             f"{schema.num_attributes} attributes")


@dataclass(frozen=True)
class Marginal:
    """Count vector over the query's domain; noisy marginals may hold negative reals."""

    query: MarginalQuery
    counts: np.ndarray
    exact: bool

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.float64).copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def shape(self, schema: Schema) -> tuple[int, ...]:
        return schema.shape(self.query.attrs)


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


def compute_marginal(ds: Dataset, q: MarginalQuery) -> Marginal:
    """Exact occurrence counts of every value combination of q's attributes."""
    q.validate(ds.schema)
    shape = ds.schema.shape(q.attrs)
    ncells = int(np.prod(shape))
    if ds.n == 0:
        return Marginal(q, np.zeros(ncells), exact=True)
    sub = ds.codes[:, list(q.attrs)]
    flat = np.ravel_multi_index(tuple(sub.T), shape)
    counts = np.bincount(flat, minlength=ncells).astype(np.float64)
    return Marginal(q, counts, exact=True)


# Largest side of a dense factor of MarginalOperator.transform.  It bounds
# each factor's memory; on 2,048-8,192 binary cells wider factors were slower.
_GROUP_DIM = 32


class MarginalOperator:
    """The linear map A from joint-cell counts to the marginals of a query list.

    Joint cells are the row-major flat indices of the full domain
    (schema.sizes).  `bin_maps` is the one cell -> bin table, built here:
    row q holds each cell's bin of query q.  The marginals of all queries are
    one concatenated vector, query q's bins from `offsets[q]` on; `forward`
    returns it, `adjoint` and `l1_to` take it, and `query_sums` reduces it to
    one value per query.

    A^T A is diagonal in a fixed basis: with T the Kronecker product of one
    Householder reflector per attribute (`transform`), A^T A = T diag(spectrum) T
    for any list of queries (see `spectrum`).  Both are built on first use.
    """

    def __init__(self, schema: Schema, queries):
        self.schema = schema
        self.queries = tuple(queries)
        for q in self.queries:
            q.validate(schema)
        self.num_cells = int(np.prod(schema.sizes))
        codes = np.unravel_index(np.arange(self.num_cells), schema.sizes)
        # filled row by row: stacking a list of rows holds every row twice
        self.bin_maps = np.empty((len(self.queries), self.num_cells), dtype=np.intp)
        for row, q in zip(self.bin_maps, self.queries):
            row[:] = np.ravel_multi_index(tuple(codes[a] for a in q.attrs), schema.shape(q.attrs))
        self.bin_maps.setflags(write=False)
        self.num_bins = tuple(int(np.prod(schema.shape(q.attrs))) for q in self.queries)
        self.offsets = np.cumsum((0,) + self.num_bins[:-1])
        self.offsets.setflags(write=False)

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
        """
        lam = np.zeros(self.schema.sizes)
        for q, bins in zip(self.queries, self.num_bins):
            inside = tuple(slice(None) if a in q.attrs else 0 for a in range(lam.ndim))
            lam[inside] += self.num_cells // bins
        lam = lam.ravel()
        lam.setflags(write=False)
        return lam

    @cached_property
    def _factors(self) -> tuple[np.ndarray, ...]:
        """T's factors over consecutive attributes, in order.

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

    def query_sums(self, x: np.ndarray) -> np.ndarray:
        """Each query's sum over its bins, along the last axis of concatenated vectors x.

        One slice sum per query, so each equals np.sum of that query's bins
        alone (np.add.reduceat adds in another order)."""
        return np.stack([x[..., o:o + k].sum(axis=-1)
                         for o, k in zip(self.offsets, self.num_bins)], axis=-1)

    def l1_to(self, counts: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-query l1 distance between forward(counts) and a concatenated target."""
        return self.query_sums(np.abs(target - self.forward(counts)))

    def cell_counts(self, ds: Dataset) -> np.ndarray:
        """Number of the dataset's rows in each joint cell."""
        flat = np.ravel_multi_index(tuple(ds.codes.T), self.schema.sizes)
        return np.bincount(flat, minlength=self.num_cells).astype(np.float64)


def l1_distance(a: Marginal, b: Marginal) -> float:
    if a.query != b.query:
        raise QueryError(f"query mismatch: {a.query.attrs} vs {b.query.attrs}")
    return float(np.abs(a.counts - b.counts).sum())


def normalized_l1(a: Marginal, b: Marginal, n: int) -> float:
    """l1 distance divided by the dataset size."""
    if n <= 0:
        raise ValueError("normalization requires n > 0")
    return l1_distance(a, b) / n


def project_marginal(h: Marginal, q_sub: MarginalQuery, schema: Schema) -> Marginal:
    """Sum the marginal over the attributes not in q_sub (q_sub must be a subset)."""
    if not set(q_sub.attrs) <= set(h.query.attrs):
        raise QueryError(f"{q_sub.attrs} is not a subset of {h.query.attrs}")
    shape = schema.shape(h.query.attrs)
    keep = [i for i, a in enumerate(h.query.attrs) if a in set(q_sub.attrs)]
    drop = tuple(i for i in range(len(h.query.attrs)) if i not in keep)
    counts = h.counts.reshape(shape)
    if drop:
        counts = counts.sum(axis=drop)
    return Marginal(q_sub, counts.ravel(), exact=h.exact)


# ---------------------------------------------------------------------------
# Serialization: one CSV of (query id, flattened index, count) plus a manifest
# describing each query's attribute set and domain shape.


def save_marginals(marginals: list[Marginal], schema: Schema,
                   csv_path: str | Path, manifest_path: str | Path) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "flat_index", "count"])
        for qid, marg in enumerate(marginals):
            for idx, c in enumerate(marg.counts):
                writer.writerow([qid, idx, repr(float(c))])
    manifest = {
        "queries": [
            {
                "id": qid,
                "attrs": list(marg.query.attrs),
                "shape": list(marg.shape(schema)),
                "exact": marg.exact,
            }
            for qid, marg in enumerate(marginals)
        ]
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_marginals(csv_path: str | Path, manifest_path: str | Path) -> list[Marginal]:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    entries = {e["id"]: e for e in manifest["queries"]}
    values: dict[int, dict[int, float]] = {qid: {} for qid in entries}
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            values[int(row["query_id"])][int(row["flat_index"])] = float(row["count"])
    out = []
    for qid in sorted(entries):
        entry = entries[qid]
        ncells = int(np.prod(entry["shape"]))
        counts = np.zeros(ncells)
        for idx, c in values[qid].items():
            counts[idx] = c
        out.append(Marginal(MarginalQuery(tuple(entry["attrs"])), counts, exact=bool(entry["exact"])))
    return out
