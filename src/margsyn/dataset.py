"""Discrete tabular datasets: schema, CSV I/O, preprocessing, encoding, splitting.

A dataset is a multiset of rows over a fixed schema of categorical attributes.
Every attribute stores integer codes 0..size-1; the last attribute is always
the binary class label.  The numeric encoding maps code c of an attribute with
domain size s to 2*c/(s-1) - 1, so features live in [-1, 1] and labels in
{-1, +1}.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class SchemaError(ValueError):
    """Schema construction or validation failure."""


class ParseError(ValueError):
    """Malformed CSV content (bad cell, row length, header)."""


class DomainError(ValueError):
    """Integer code outside its attribute's domain."""


MISSING_TOKENS = frozenset({"", "?", "na", "n/a", "nan", "none", "null"})


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names and domain sizes; label is the last attribute."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.sizes):
            raise SchemaError("names and sizes must have equal length")
        if len(self.names) < 2:
            raise SchemaError("need at least one feature and a label")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("attribute names must be unique")
        for name, size in zip(self.names, self.sizes):
            if int(size) < 2:
                raise SchemaError(f"attribute {name!r} has domain size {size} < 2")
        if self.sizes[-1] != 2:
            raise SchemaError("label (last attribute) must have domain size 2")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def num_attributes(self) -> int:
        return len(self.names)

    @property
    def num_features(self) -> int:
        return len(self.names) - 1

    @property
    def label_index(self) -> int:
        return len(self.names) - 1

    @property
    def max_domain_size(self) -> int:
        return max(self.sizes)

    def shape(self, attrs: tuple[int, ...] | None = None) -> tuple[int, ...]:
        """Domain sizes for the given attribute indices (all attributes if None)."""
        if attrs is None:
            return self.sizes
        return tuple(self.sizes[j] for j in attrs)

    def to_dict(self) -> dict:
        return {"attributes": [{"name": n, "size": s} for n, s in zip(self.names, self.sizes)]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Schema":
        attrs = doc["attributes"]
        return cls(tuple(a["name"] for a in attrs), tuple(int(a["size"]) for a in attrs))

    @classmethod
    def from_file(cls, path: str | Path) -> "Schema":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_file(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def digest(self) -> str:
        """Stable hash of the schema, recorded in model files."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Dataset:
    """Immutable multiset of coded rows.  Row order carries no meaning."""

    schema: Schema
    codes: np.ndarray  # shape (n, num_attributes), integer codes

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != self.schema.num_attributes:
            raise DomainError(
                f"codes must have shape (n, {self.schema.num_attributes}), got {codes.shape}"
            )
        for j, size in enumerate(self.schema.sizes):
            if codes.shape[0] and ((codes[:, j] < 0).any() or (codes[:, j] >= size).any()):
                raise DomainError(f"attribute {self.schema.names[j]!r} has codes outside [0, {size})")
        codes = codes.copy()
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    def row_multiset(self) -> dict[tuple[int, ...], int]:
        """Rows with multiplicities, for multiset comparisons."""
        out: dict[tuple[int, ...], int] = {}
        for row in self.codes:
            key = tuple(int(c) for c in row)
            out[key] = out.get(key, 0) + 1
        return out


def encode(ds: Dataset) -> np.ndarray:
    """Numeric view of a dataset: shape (n, m+1), features in [-1,1], label in {-1,1}."""
    sizes = np.asarray(ds.schema.sizes, dtype=np.float64)
    return 2.0 * ds.codes.astype(np.float64) / (sizes - 1.0) - 1.0


def encode_xy(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Split numeric view into the feature matrix and the +-1 label vector."""
    mat = encode(ds)
    return mat[:, :-1], mat[:, -1]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly in (0, 1)")


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic random partition; |train| = round(train_fraction * n)."""
    if ds.n < 2:
        raise ValueError("need at least 2 rows to split")
    n_train = int(math.floor(spec.train_fraction * ds.n + 0.5))
    if n_train == 0 or n_train == ds.n:
        raise ValueError(f"split of n={ds.n} at fraction {spec.train_fraction} leaves an empty part")
    perm = np.random.default_rng(spec.seed).permutation(ds.n)
    return (
        Dataset(ds.schema, ds.codes[perm[:n_train]]),
        Dataset(ds.schema, ds.codes[perm[n_train:]]),
    )


# ---------------------------------------------------------------------------
# Coded CSV I/O


def load_csv(path: str | Path, schema: Schema) -> Dataset:
    """Read an already-coded CSV whose header matches the schema exactly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: missing header row") from None
        if tuple(h.strip() for h in header) != schema.names:
            raise ParseError(f"{path}: header {header} does not match schema {list(schema.names)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != schema.num_attributes:
                raise ParseError(f"{path}:{lineno}: expected {schema.num_attributes} cells, got {len(row)}")
            try:
                coded = [int(cell) for cell in row]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            for j, c in enumerate(coded):
                if not 0 <= c < schema.sizes[j]:
                    raise DomainError(
                        f"{path}:{lineno}: code {c} out of range for {schema.names[j]!r} (size {schema.sizes[j]})"
                    )
            rows.append(coded)
    codes = np.asarray(rows, dtype=np.int64).reshape(len(rows), schema.num_attributes)
    return Dataset(schema, codes)


def write_csv(ds: Dataset, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.schema.names)
        writer.writerows(ds.codes.tolist())


# ---------------------------------------------------------------------------
# Preprocessing of raw (string-valued) tables


@dataclass(frozen=True)
class RawTable:
    """Header plus string cells, as read from an unprocessed CSV."""

    names: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]


def load_raw_csv(path: str | Path) -> RawTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: missing header row") from None
        names = tuple(h.strip() for h in header)
        cells = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise ParseError(f"{path}:{lineno}: expected {len(names)} cells, got {len(row)}")
            cells.append(tuple(c.strip() for c in row))
    return RawTable(names, tuple(cells))


@dataclass(frozen=True)
class PreprocessRule:
    """How one raw column becomes integer codes.

    kind:
      "categorical"  distinct values -> codes, in ascending value order
                     (numeric order when every value parses as a number,
                     else lexicographic; `order` overrides)
      "continuous"   equal-width, left-closed buckets over [lo, hi]
                     (data min/max when unset); requires buckets >= 2
      "integer"      integer values rebased so the smallest becomes code 0
      "identity"     values already coded 0..size-1; size inferred from the
                     data maximum when unset
    """

    kind: str
    buckets: int | None = None
    lo: float | None = None
    hi: float | None = None
    size: int | None = None
    order: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("categorical", "continuous", "integer", "identity"):
            raise SchemaError(f"unknown preprocessing kind {self.kind!r}")
        if self.kind == "continuous" and (self.buckets is None or self.buckets < 2):
            raise SchemaError("continuous rule needs buckets >= 2")

    @classmethod
    def from_dict(cls, doc: dict) -> "PreprocessRule":
        return cls(
            kind=doc["kind"],
            buckets=doc.get("buckets"),
            lo=doc.get("lo"),
            hi=doc.get("hi"),
            size=doc.get("size"),
            order=tuple(doc["order"]) if "order" in doc else None,
        )


def rules_from_dict(doc: dict) -> dict[str, PreprocessRule]:
    """Parse the `preprocess` section of a schema document: {column: rule}."""
    return {name: PreprocessRule.from_dict(rule) for name, rule in doc.items()}


def _is_missing(cell: str) -> bool:
    return cell.lower() in MISSING_TOKENS


def _code_column(values: list[str], rule: PreprocessRule, name: str) -> tuple[list[int], int]:
    if rule.kind == "categorical":
        distinct = sorted(set(values), key=_category_key(values))
        if rule.order is not None:
            missing = set(values) - set(rule.order)
            if missing:
                raise SchemaError(f"column {name!r}: values {sorted(missing)} absent from explicit order")
            distinct = [v for v in rule.order if v in set(values)]
        if len(distinct) < 2:
            raise SchemaError(f"column {name!r}: needs at least 2 distinct values")
        index = {v: i for i, v in enumerate(distinct)}
        return [index[v] for v in values], len(distinct)

    if rule.kind == "continuous":
        vals = [float(v) for v in values]
        lo = rule.lo if rule.lo is not None else min(vals)
        hi = rule.hi if rule.hi is not None else max(vals)
        if not hi > lo:
            raise SchemaError(f"column {name!r}: degenerate range [{lo}, {hi}]")
        k = int(rule.buckets)
        width = (hi - lo) / k
        codes = [min(k - 1, max(0, int(math.floor((v - lo) / width)))) for v in vals]
        return codes, k

    if rule.kind == "integer":
        vals = [int(v) for v in values]
        base = min(vals)
        size = max(vals) - base + 1
        if size < 2:
            raise SchemaError(f"column {name!r}: needs at least 2 distinct values")
        return [v - base for v in vals], size

    # identity
    vals = [int(v) for v in values]
    if min(vals) < 0:
        raise DomainError(f"column {name!r}: identity rule forbids negative codes")
    size = rule.size if rule.size is not None else max(vals) + 1
    if size < 2:
        raise SchemaError(f"column {name!r}: needs domain size >= 2")
    if max(vals) >= size:
        raise DomainError(f"column {name!r}: code {max(vals)} out of range for size {size}")
    return vals, size


def _category_key(values: list[str]):
    try:
        for v in set(values):
            float(v)
        return lambda v: (0, float(v), v)
    except ValueError:
        return lambda v: (1, 0.0, v)


def preprocess(raw: RawTable, rules: dict[str, PreprocessRule]) -> Dataset:
    """Drop rows with missing cells, then code every column per its rule.

    Rules must name exactly the raw columns.  Bucketing and rebasing preserve
    the ascending order of original values; the resulting schema is derived
    from the coded columns.
    """
    unknown = set(rules) - set(raw.names)
    if unknown:
        raise SchemaError(f"rules name unknown attributes: {sorted(unknown)}")
    absent = set(raw.names) - set(rules)
    if absent:
        raise SchemaError(f"no rule given for attributes: {sorted(absent)}")

    kept = [row for row in raw.cells if not any(_is_missing(c) for c in row)]
    if not kept:
        raise ParseError("all rows dropped by missing-value cleaning")

    columns: list[list[int]] = []
    sizes: list[int] = []
    for j, name in enumerate(raw.names):
        values = [row[j] for row in kept]
        codes, size = _code_column(values, rules[name], name)
        columns.append(codes)
        sizes.append(size)
    schema = Schema(raw.names, tuple(sizes))
    codes = np.asarray(columns, dtype=np.int64).T
    return Dataset(schema, codes)
