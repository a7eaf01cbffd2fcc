"""Discrete tabular datasets: schema, CSV I/O, preprocessing, encoding, splitting.

A dataset is a multiset of rows over a fixed schema of categorical attributes.
Every attribute stores integer codes 0..size-1; the last attribute is always
the binary class label.  The numeric encoding maps code c of an attribute with
domain size s to 2*c/(s-1) - 1, so features live in [-1, 1] and labels in
{-1, +1}.  A plain coded CSV (digits and commas) is parsed by numpy's C
reader and any other by the csv module, with the same accepted files and
errors; the `Dataset` constructor is the only check of the code domains.
A coded CSV is written with the csv module's bytes, its body built by numpy
as one buffer rather than one Python int per cell, from a dataset's
distinct rows when it holds counts.
Rows exist only at that boundary: a dataset built from cell counts, as
synthetic datasets and the parts of a split are, keeps the counts and builds
rows only when read.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import types
import typing
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np


class SchemaError(ValueError):
    """Schema construction or validation failure."""


class ParseError(ValueError):
    """Malformed CSV content (bad cell, row length, header) or malformed JSON."""


class DomainError(ValueError):
    """Integer code outside its attribute's domain; `row` is the first bad row, when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


MISSING_TOKENS = frozenset({"", "?", "na", "n/a", "nan", "none", "null"})

# Largest value a row key may reach before it is re-ranked (int64 max).
_KEY_LIMIT = np.iinfo(np.int64).max
# `split` takes fewer rows than this: numpy's multivariate hypergeometric
# draw ("marginals" method) refuses a total of 10**9 or more.
_SPLIT_ROWS = 10**9


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
            if int(size) != size:
                raise SchemaError(f"attribute {name!r} has domain size {size}, not a whole number")
            if size < 2:
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
    def max_domain_size(self) -> int:
        return max(self.sizes)

    def shape(self, attrs: tuple[int, ...]) -> tuple[int, ...]:
        """Domain sizes of the given attribute indices."""
        return tuple(self.sizes[j] for j in attrs)

    def to_dict(self) -> dict:
        return {"attributes": [{"name": n, "size": s} for n, s in zip(self.names, self.sizes)]}

    @classmethod
    def from_dict(cls, doc) -> "Schema":
        """The schema of a JSON document; its optional `preprocess` section is read by `prep` only."""
        attrs = _check_document(doc, "schema key", {"attributes": list}, {"preprocess": dict})["attributes"]
        attrs = [_check_document(a, "attribute key", {"name": str, "size": int}) for a in attrs]
        return cls(tuple(a["name"] for a in attrs), tuple(a["size"] for a in attrs))

    @classmethod
    def from_file(cls, path: str | Path) -> "Schema":
        return cls.from_dict(_read_json(path))

    def to_file(self, path: str | Path) -> None:
        _write_json(self.to_dict(), path)

    def digest(self) -> str:
        """Stable hash of the schema, recorded in model files."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class WeightedRows(NamedTuple):
    """A dataset's distinct rows in cell order and how often each occurs."""

    codes: np.ndarray   # shape (k, num_attributes), k distinct rows
    counts: np.ndarray  # shape (k,), int64 multiplicities summing to n


class Dataset:
    """Immutable multiset of coded rows.  Row order carries no meaning.

    `Dataset(schema, codes)` holds the rows it is given.  `from_counts` and
    `split` hold counts instead: their `weighted` view is set from the
    counts, and their rows (`codes`) are built only when first read.  No step
    of the pipeline reads them: it reads `weighted`, and `write_csv` writes
    rows from the counts.
    """

    def __init__(self, schema: Schema, codes):
        codes = np.array(codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != schema.num_attributes:
            raise DomainError(
                f"codes must have shape (n, {schema.num_attributes}), got {codes.shape}"
            )
        bad = (codes < 0) | (codes >= np.asarray(schema.sizes))
        if bad.any():
            row, j = divmod(int(bad.argmax()), codes.shape[1])
            raise DomainError(f"attribute {schema.names[j]!r} has code {codes[row, j]} "
                              f"outside [0, {schema.sizes[j]}) at row {row}", row)
        codes.setflags(write=False)
        # in the instance dict, where `codes` shadows the cached property of that name
        vars(self).update(schema=schema, n=codes.shape[0], codes=codes)

    @classmethod
    def from_counts(cls, schema: Schema, counts: np.ndarray) -> "Dataset":
        """The dataset with counts[c] rows in joint cell c, row-major over schema.sizes.

        `counts` is an int64 count per joint cell, as every synthesizer
        returns.  The `weighted` view is the occupied cells in cell order with
        their counts, and `codes` are those rows, each repeated count times.
        """
        occupied = np.flatnonzero(counts)
        return cls._from_weighted(schema, WeightedRows(
            np.stack(np.unravel_index(occupied, schema.sizes), axis=1), counts[occupied]))

    @classmethod
    def _from_weighted(cls, schema: Schema, weighted: WeightedRows) -> "Dataset":
        """The dataset whose `weighted` view is `weighted`: distinct in-domain
        rows in cell order, each with a positive count.  The arrays are made
        read-only and held as given; rows are built only when read."""
        for array in weighted:
            array.setflags(write=False)
        ds = cls.__new__(cls)
        vars(ds).update(schema=schema, n=int(weighted.counts.sum()), weighted=weighted)
        return ds

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Dataset is immutable")

    @cached_property
    def codes(self) -> np.ndarray:
        """The rows, shape (n, num_attributes), int64 and read-only.

        The constructor sets them; a dataset made by `from_counts` or `split`
        builds them from `weighted` on first read, each distinct row repeated
        its count times, in cell order.  They serve callers that need every
        row, such as perfbench's output digests.
        """
        codes, counts = self.weighted
        rows = np.repeat(codes, counts, axis=0)
        rows.setflags(write=False)
        return rows

    @cached_property
    def weighted(self) -> WeightedRows:
        """Distinct rows in cell order (row-major over schema.sizes) with their counts.

        `from_counts` and `split` set it.  Built from rows, each row's key is its
        mixed-radix cell index in int64, extended by one run of columns at a
        time: key * prod(run sizes) + codes[:, run] @ radix, the run's
        row-major strides as radix, so one integer product per run.  A run
        takes columns while the key bound times their sizes stays within
        _KEY_LIMIT; before the next run the key is replaced by its rank among
        the keys so far, which keeps their order, so every schema works,
        however many cells it has.  Every quantity of the empirical
        distribution (risk, scores, marginals) reads this view.
        """
        sizes = self.schema.sizes
        key = np.zeros(self.n, dtype=np.int64)
        bound = 1  # every key lies in [0, bound)
        start = 0
        while start < len(sizes):
            if bound > _KEY_LIMIT // sizes[start]:
                distinct, key = np.unique(key, return_inverse=True)
                bound = len(distinct)
            stop = start + 1
            bound *= sizes[start]
            while stop < len(sizes) and bound <= _KEY_LIMIT // sizes[stop]:
                bound *= sizes[stop]
                stop += 1
            run = sizes[start:stop]
            radix = np.array([math.prod(run[k + 1:]) for k in range(len(run))], dtype=np.int64)
            key = key * math.prod(run) + self.codes[:, start:stop] @ radix
            start = stop
        _, first, counts = np.unique(key, return_index=True, return_counts=True)
        codes = self.codes[first]
        codes.setflags(write=False)
        counts.setflags(write=False)
        return WeightedRows(codes, counts)


def encode_weighted(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features in [-1, 1], +-1 labels and counts of the dataset's distinct rows
    (`Dataset.weighted`).

    Each distinct row encodes to the same values as each of its copies, so a
    count-weighted sum over these rows is a sum over all n.
    """
    codes, counts = ds.weighted
    sizes = np.asarray(ds.schema.sizes, dtype=np.float64)
    mat = 2.0 * codes.astype(np.float64) / (sizes - 1.0) - 1.0
    return mat[:, :-1], mat[:, -1], counts


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly in (0, 1)")


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic random partition; |train| = round(train_fraction * n).

    The train part is a uniformly random size-n_train sub-multiset of the
    rows, drawn as counts: how many copies of each distinct row it takes is
    one multivariate hypergeometric draw over `ds.weighted`, the same
    distribution as the first n_train rows of a random permutation.  Both
    parts are held as counts on the parent's distinct rows, so a split reads
    no rows and costs O(distinct rows), not O(n).  numpy's draw takes fewer
    than _SPLIT_ROWS rows; a larger dataset is refused before any draw.
    """
    if ds.n < 2:
        raise ValueError("need at least 2 rows to split")
    if ds.n >= _SPLIT_ROWS:
        raise ValueError(f"cannot split {ds.n} rows; the split takes fewer than {_SPLIT_ROWS}")
    n_train = int(math.floor(spec.train_fraction * ds.n + 0.5))
    if n_train == 0 or n_train == ds.n:
        raise ValueError(f"split of n={ds.n} at fraction {spec.train_fraction} leaves an empty part")
    codes, counts = ds.weighted
    train = np.random.default_rng(spec.seed).multivariate_hypergeometric(counts, n_train)
    return tuple(Dataset._from_weighted(ds.schema, WeightedRows(codes[part > 0], part[part > 0]))
                 for part in (train, counts - train))


# ---------------------------------------------------------------------------
# JSON and coded CSV I/O


def _read_json(path: str | Path):
    """The JSON value in the file at `path`, or a ParseError that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def _write_json(doc, path: str | Path) -> None:
    """Write doc as indented JSON with a final newline: every JSON file the program writes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _check_document(doc, noun: str, keys, optional: dict | None = None) -> dict:
    """`doc`, a parsed JSON value, if it is a JSON object of `noun`s with the
    given keys: the one check of every JSON document the program reads.

    `keys` maps each required key to a type hint for its JSON type (int an
    integer, float any number, str a string, dict an object, list[hint] or
    tuple[hint, ...] an array, None null, a union any member), or is a
    dataclass, whose fields are the keys, required unless they have a
    default.  `optional` maps the keys that may be left out; None for `keys`
    takes any key (a map keyed by data, such as column names).  A value that
    is not an object, an unknown key, a missing key and a value of another
    JSON type are each refused with a ValueError that names them.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object of {noun}s, got {_shown(doc)}")
    if keys is None:
        return doc
    optional = dict(optional or {})
    if dataclasses.is_dataclass(keys):
        fields, hints, keys = dataclasses.fields(keys), typing.get_type_hints(keys), {}
        for f in fields:
            has_default = f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
            (optional if has_default else keys)[f.name] = hints[f.name]
    hints = {**keys, **optional}
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise ValueError(f"unknown {noun}s: {unknown}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"missing {noun}s: {missing}")
    for key, value in doc.items():
        if not _json_fits(value, hints[key]):
            raise ValueError(f"{noun} {key!r} must be {_json_name(hints[key])}, got {_shown(value)}")
    return doc


def _json_fits(value, hint) -> bool:
    """Whether a parsed JSON value has the JSON type that `hint` names (`_check_document`)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_json_fits(value, arg) for arg in args)
    if origin in (list, tuple):
        return isinstance(value, list) and all(_json_fits(v, args[0]) for v in value)
    if isinstance(value, bool):  # JSON true and false: no document takes one, and Python counts them as ints
        return False
    return isinstance(value, (int, float) if hint is float else hint)


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object",
               list: "an array", type(None): "null"}


def _json_name(hint) -> str:
    """The JSON type that `hint` names, in words."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_json_name, args))
    if origin in (list, tuple):
        return f"an array with each entry {_json_name(args[0])}"
    return _JSON_NAMES[hint]


def _shown(value) -> str:
    """A JSON value as an error message quotes it, cut to 60 characters."""
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:56] + " ..."


def _write_csv(path: str | Path, header, rows) -> None:
    """Write a header row and then rows as CSV: every CSV file the program writes.

    The header, and rows given as Python values, go through the csv module,
    which quotes a cell where needed.  Rows given as a non-negative integer
    matrix, or as distinct rows with counts (`WeightedRows`), as `write_csv`
    gives them, are written as one buffer of the same bytes (`_code_bytes`):
    no cell of such a matrix needs quoting.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, (np.ndarray, WeightedRows)):
            body = _code_bytes(*rows) if isinstance(rows, WeightedRows) else _code_bytes(rows)
            fh.flush()
            fh.buffer.write(body)
        else:
            writer.writerows(rows)


def _code_bytes(codes: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    r"""The bytes `csv.writer` writes for the rows of a non-negative integer
    matrix: each row's codes in decimal, joined by "," and ended by "\r\n".
    With `counts`, row i is written counts[i] times.

    The rows are laid out side by side in one uint8 array, each column as
    wide as its largest code.  Digit p of code v (from the right) is
    v // 10**p % 10, written for a whole run of equal-width columns by one
    strided assignment, so a binary matrix takes one add; the leading zeros
    of shorter codes are dropped by one mask, made only when some column is
    wider than one digit.  Counted rows are formatted once and their bytes,
    and their rows of the mask, repeated.
    """
    n, k = codes.shape
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    widths = [len(str(top)) for top in codes.max(axis=0).tolist()]
    out = np.empty((n, sum(widths) + k + 1), dtype=np.uint8)  # each column's digits and a comma, then \n
    keep = np.ones(out.shape, dtype=bool) if max(widths) > 1 else None
    start = pos = 0  # the run's first column, and its first byte in a row
    for width, run in itertools.groupby(widths):
        stop = start + len(list(run))
        block, end = codes[:, start:stop], pos + (stop - start) * (width + 1)
        for p in range(width):
            digit = block // 10**p if p else block
            at = np.s_[:, pos + width - 1 - p:end:width + 1]
            np.add(digit % 10 if p < width - 1 else digit, ord("0"), out=out[at], casting="unsafe")
            if p:
                keep[at] = block >= 10**p
        out[:, pos + width:end:width + 1] = ord(",")
        start, pos = stop, end
    out[:, -2] = ord("\r")  # over the last column's comma
    out[:, -1] = ord("\n")
    if counts is not None:
        out = np.repeat(out, counts, axis=0)
        keep = None if keep is None else np.repeat(keep, counts, axis=0)
    return out.ravel() if keep is None else out[keep]


def _read_rows(path: str | Path, names: tuple[str, ...] | None = None):
    """Stripped header and data rows of a CSV; the header must equal `names` when given."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: missing header row")
    header = tuple(h.strip() for h in rows[0])
    if names is not None and header != names:
        raise ParseError(f"{path}: header {rows[0]} does not match {list(names)}")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
    return header, rows[1:]


def _plain_codes(path: str | Path, schema: Schema) -> np.ndarray | None:
    r"""The codes of a plain coded CSV by numpy's C reader, or None for any other file.

    Plain means: an ASCII header without quotes whose stripped cells are
    schema.names, then rows of ASCII digits and commas, every line ending in
    \n or \r\n (the last may end the file instead), the first line a row.
    On such a file the C reader and the cell-by-cell path read the same rows,
    except that the C reader skips blank lines, which are errors: so a row
    count other than the line count returns None, as does any row it rejects.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header, _, body = data.partition(b"\n")
    if (not header.isascii() or b'"' in header
            or tuple(h.strip() for h in header.decode("ascii").split(",")) != schema.names
            or not body[:1].isdigit() or body.translate(None, b"0123456789,\r\n")):
        return None
    # line ends by numpy's byte compares on one view, faster than bytes.count scans
    raw = np.frombuffer(data, dtype=np.uint8)
    lf = raw == 10
    if b"\r" in data and np.count_nonzero(cr := raw == 13) != np.count_nonzero(cr[:-1] & lf[1:]):
        return None  # a \r not followed by \n
    try:
        codes = np.loadtxt(path, dtype=np.int64, comments=None, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:  # an empty cell, a ragged row or a code beyond int64
        return None
    # the body's lines: every \n but the header's, and a last line without one
    lines = np.count_nonzero(lf) - 1 + (not data.endswith(b"\n"))
    return codes if codes.shape == (lines, schema.num_attributes) else None


def load_csv(path: str | Path, schema: Schema) -> Dataset:
    """Read an already-coded CSV whose header matches the schema exactly.

    A plain file (`_plain_codes`) is parsed by numpy's C reader; any other
    is read by `_read_rows` and parsed by one int64 conversion of all its
    cells, which finds the first bad line when it fails.  Both accept the
    same files with the same rows.  `Dataset` is the only domain check.
    """
    codes = _plain_codes(path, schema)
    if codes is None:
        _, rows = _read_rows(path, schema.names)
        try:
            codes = np.array(rows, dtype=np.int64).reshape(len(rows), schema.num_attributes)
        except (ValueError, OverflowError):  # error path: find the first line that does not convert
            for lineno, row in enumerate(rows, start=2):
                try:
                    np.array(row, dtype=np.int64)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                except OverflowError as exc:  # beyond int64, so outside every domain
                    raise DomainError(f"{path}:{lineno}: code out of range ({exc})") from None
            raise
    try:
        return Dataset(schema, codes)
    except DomainError as exc:
        raise DomainError(f"{path}:{exc.row + 2}: {exc}", exc.row) from None


def write_csv(ds: Dataset, path: str | Path) -> None:
    r"""Write the dataset as a coded CSV: the schema's names, then one line of codes per row.

    The body is one byte buffer built by numpy (`_code_bytes`), byte for
    byte what the csv module writes, with "\r\n" line ends.  A dataset held
    as counts whose rows were never read writes its distinct rows, each
    formatted once and repeated its count times, and builds no rows.
    """
    rows = vars(ds).get("codes")  # set by the constructor or by a first read
    _write_csv(path, ds.schema.names, ds.weighted if rows is None else rows)


# ---------------------------------------------------------------------------
# Preprocessing of raw (string-valued) tables


@dataclass(frozen=True)
class RawTable:
    """Header plus string cells, as read from an unprocessed CSV."""

    names: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]


def load_raw_csv(path: str | Path) -> RawTable:
    header, rows = _read_rows(path)
    return RawTable(header, tuple(tuple(c.strip() for c in row) for row in rows))


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
        if not all(math.isfinite(v) for v in (self.lo, self.hi) if v is not None):
            raise SchemaError(f"rule bounds must be finite, got lo={self.lo}, hi={self.hi}")
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))

    @classmethod
    def from_dict(cls, doc) -> "PreprocessRule":
        """The rule of a JSON object: `kind` and, optionally, the keys that kind
        reads (`_RULE_KEYS`)."""
        kind = doc.get("kind") if isinstance(doc, dict) else None
        hints = typing.get_type_hints(cls)
        keys = _RULE_KEYS.get(kind, ()) if isinstance(kind, str) else ()
        return cls(**_check_document(doc, "rule key", {"kind": str}, {key: hints[key] for key in keys}))


# The fields each preprocessing kind reads besides `kind`.
_RULE_KEYS = {"categorical": ("order",), "continuous": ("buckets", "lo", "hi"), "integer": (),
              "identity": ("size",)}


def rules_from_dict(doc) -> dict[str, PreprocessRule]:
    """The rules of a rules document: {column: rule}, alone or as the `preprocess`
    section of a schema document."""
    if isinstance(doc, dict) and "preprocess" in doc:
        doc = _check_document(doc, "schema key", {"preprocess": dict}, {"attributes": list})["preprocess"]
    rules = _check_document(doc, "column rule", None)
    return {name: PreprocessRule.from_dict(rule) for name, rule in rules.items()}


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
    size = rule.size if rule.size is not None else max(vals) + 1
    if size < 2:
        raise SchemaError(f"column {name!r}: needs domain size >= 2")
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
