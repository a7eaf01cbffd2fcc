import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from margsyn import dataset
from margsyn.dataset import (Dataset, DomainError, ParseError,
                             PreprocessRule, RawTable, Schema, SchemaError,
                             SplitSpec, encode_weighted, load_csv, load_raw_csv,
                             preprocess, split, write_csv)

from conftest import (cell_counts, random_dataset, reference_encode_xy, reference_load_csv,
                      reference_row_multiset)


def weighted_cells(ds: Dataset) -> np.ndarray:
    """Rows per joint cell read from the `weighted` view, which builds no rows."""
    codes, counts = ds.weighted
    flat = np.ravel_multi_index(tuple(codes.T), ds.schema.sizes)
    return np.bincount(flat, weights=counts, minlength=int(np.prod(ds.schema.sizes))).astype(np.int64)


class TestSchema:
    def test_basic_properties(self):
        s = Schema(("a", "b", "label"), (3, 4, 2))
        assert s.num_features == 2
        assert s.num_attributes - 1 == 2
        assert s.max_domain_size == 4
        assert s.shape((0, 2)) == (3, 2)

    def test_label_must_be_binary(self):
        with pytest.raises(SchemaError):
            Schema(("a", "label"), (2, 3))

    def test_domain_sizes_at_least_two(self):
        with pytest.raises(SchemaError):
            Schema(("a", "label"), (1, 2))

    def test_domain_sizes_are_whole_numbers(self):
        with pytest.raises(SchemaError, match="domain size 2.7, not a whole number"):
            Schema(("a", "label"), (2.7, 2))
        assert Schema(("a", "label"), (np.int64(3), 2.0)).sizes == (3, 2)

    def test_unique_names(self):
        with pytest.raises(SchemaError):
            Schema(("a", "a", "label"), (2, 2, 2))

    def test_json_round_trip(self, tmp_path):
        s = Schema(("a", "b", "label"), (3, 4, 2))
        s.to_file(tmp_path / "schema.json")
        assert Schema.from_file(tmp_path / "schema.json") == s
        assert s.digest() == Schema.from_dict(s.to_dict()).digest()
        # the optional `preprocess` section, which only `prep` reads
        assert Schema.from_dict({**s.to_dict(), "preprocess": {"a": {"kind": "identity"}}}) == s


# Ways to write a valid code that Python's int() accepts, and one-defect edits of a coded file.
_CELL_FORMS = (str, lambda c: f" {c}\t", lambda c: f"+{c}", lambda c: f"0_{c}", lambda c: f'"{c}"',
               lambda c: f'" {c} "', lambda c: str(c).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")))
_BAD_CELLS = ("1.0", "x", "", "-1", "#0", "size", "99999999999999999999", "-99999999999999999999")


@st.composite
def coded_files(draw):
    """(schema, file text, line of the defect or None) for a coded CSV with at most one defect.

    Half the files write every cell plainly, the form numpy's C reader parses.
    """
    sizes = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))) + (2,)
    schema = Schema(tuple(f"a{j}" for j in range(len(sizes) - 1)) + ("label",), sizes)
    defect = draw(st.sampled_from((None, "ragged", "blank", "trailing blank") + _BAD_CELLS))
    n = draw(st.integers(0 if defect in (None, "trailing blank") else 1, 6))
    forms = (str,) if draw(st.booleans()) else _CELL_FORMS
    rows = [[draw(st.sampled_from(forms))(draw(st.integers(0, s - 1))) for s in sizes] for _ in range(n)]
    where = None if defect is None else n if defect == "trailing blank" else draw(st.integers(0, n - 1))
    if defect == "ragged":
        rows[where] = rows[where][:-1] if draw(st.booleans()) else rows[where] + ["0"]
    elif defect == "blank":
        rows[where] = []
    elif defect == "trailing blank":
        rows.append([])
    elif defect is not None:
        j = draw(st.integers(0, len(sizes) - 1))
        rows[where][j] = str(sizes[j]) if defect == "size" else defect
    eol = draw(st.sampled_from(("\n", "\r\n", "\r")))
    # a blank last line needs its line end; otherwise the last row may end the file
    last = eol if defect in ("blank", "trailing blank") or draw(st.booleans()) else ""
    text = eol.join([",".join(schema.names)] + [",".join(row) for row in rows]) + last
    return schema, text, None if where is None else where + 2


def assert_loads_like_the_reference(path, schema: Schema, line: int | None) -> None:
    """load_csv gives the reference's rows, or its error type naming the same line."""
    if line is None:
        assert np.array_equal(load_csv(path, schema).codes, reference_load_csv(path, schema).codes)
        return
    with pytest.raises(ValueError) as want:
        reference_load_csv(path, schema)
    with pytest.raises(ValueError) as got:
        load_csv(path, schema)
    assert type(got.value) is type(want.value)
    assert f"{path}:{line}:" in str(want.value) and f"{path}:{line}:" in str(got.value)


class TestLoadCsv:
    @given(coded_files())
    def test_matches_the_cell_by_cell_loader(self, tmp_path_factory, case):
        schema, text, line = case
        path = tmp_path_factory.mktemp("parity") / "d.csv"
        path.write_bytes(text.encode())
        assert_loads_like_the_reference(path, schema, line)

    @pytest.mark.parametrize("body, line", [("1,0\n\n0,1\n", 3), ("1,0\r\n0,1\r\n\r\n", 4),
                                            ("1,0\r\r\n0,1\n", 3), ("1,0\r\n\r0,1\n", 3),
                                            ("1,0\r0,1\n", None), ("1,0\n0,1\r", None)])
    def test_blank_lines_and_mixed_line_ends_match_the_cell_by_cell_loader(self, tmp_path, body, line):
        # numpy's C reader skips blank lines and opens the file with universal
        # newlines, so a lone \r ends a line there too
        path = tmp_path / "d.csv"
        path.write_bytes(("a,label\n" + body).encode())
        assert_loads_like_the_reference(path, Schema(("a", "label"), (2, 2)), line)

    def test_read_back(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n0,1,0\n1,0,1\n0,0,0\n1,1,1\n")
        ds = load_csv(path, Schema(("a", "b", "label"), (2, 2, 2)))
        assert ds.n == 4
        assert ds.schema.num_features == 2

    def test_domain_violation(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n7,0\n")
        with pytest.raises(DomainError):
            load_csv(path, Schema(("a", "label"), (4, 2)))

    def test_header_only_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n")
        assert load_csv(path, Schema(("a", "label"), (2, 2))).n == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["a,label\n", "a,label\r\n", "a,label"])
    def test_header_only_file_loads_without_a_warning(self, tmp_path, text):
        # numpy's C reader warns on a file with no rows, so such a file must not reach it
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert load_csv(path, Schema(("a", "label"), (2, 2))).codes.shape == (0, 2)

    def test_a_quote_in_the_header_opens_a_csv_cell(self, tmp_path):
        # csv reads all of '"x,label\n0,1\n' as one unterminated quoted cell
        path = tmp_path / "d.csv"
        path.write_text('"x,label\n0,1\n')
        with pytest.raises(ParseError, match="header"):
            load_csv(path, Schema(('"x', "label"), (2, 2)))

    def test_written_files_take_the_c_reader(self, tmp_path, monkeypatch):
        schema = Schema(("a", "b", "label"), (3, 5, 2))
        ds = random_dataset(schema, 50, seed=3)
        write_csv(ds, tmp_path / "d.csv")

        def cell_by_cell(*args):
            raise AssertionError("a written file went through the cell-by-cell reader")

        monkeypatch.setattr(dataset, "_read_rows", cell_by_cell)
        assert np.array_equal(load_csv(tmp_path / "d.csv", schema).codes, ds.codes)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,label\n0,0\n")
        with pytest.raises(ParseError):
            load_csv(path, Schema(("a", "label"), (2, 2)))

    def test_bad_cell_and_row_length(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\nfoo,0\n")
        with pytest.raises(ParseError):
            load_csv(path, Schema(("a", "label"), (2, 2)))
        path.write_text("a,label\n0,0,1\n")
        with pytest.raises(ParseError):
            load_csv(path, Schema(("a", "label"), (2, 2)))

    def test_raw_reader_strips_cells_and_names_the_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(" age ,label\n 31 , yes\n")
        assert load_raw_csv(path) == RawTable(("age", "label"), (("31", "yes"),))
        path.write_text(" age ,label\n 31 , yes\n45\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: expected 2 cells, got 1")):
            load_raw_csv(path)

    @given(st.integers(0, 60), st.integers(0, 2**31 - 1))
    def test_write_read_round_trip(self, tmp_path_factory, n, seed):
        schema = Schema(("a", "b", "label"), (3, 5, 2))
        ds = random_dataset(schema, n, seed)
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_csv(ds, path)
        assert reference_row_multiset(load_csv(path, schema)) == reference_row_multiset(ds)


# Schemas whose largest codes take 1 to 13 digits, beside binary and mixed ones.
WRITE_SIZES = [(2, 2), (2,) * 11, (11, 2), (100, 3, 2), (12345, 7, 2), (2**40, 2),
               *((10**w, 7, 2) for w in range(1, 14))]
# held as counts: codes of one digit, and of one to three and one to five
COUNTS_SIZES = [(3, 5, 2), (2,) * 11, (100, 3, 2), (12345, 7, 2)]


def written_dataset(sizes, n: int, form: str, names: str) -> Dataset:
    """n rows over `sizes`, with codes of every length up to each domain's widest
    (a uniform draw cut by a random power of ten), held as rows or as counts."""
    rng = np.random.default_rng(n)
    k = len(sizes)
    header = [f"x{j}" for j in range(k - 1)] + ["label"]
    if names == "quoted":  # cells the csv module quotes
        header[:2] = ["a,b", 'say "c"']
    schema = Schema(tuple(header), sizes)
    if form == "counts":
        cells = int(np.prod(sizes))
        return Dataset.from_counts(schema, rng.multinomial(n, np.full(cells, 1 / cells)))
    widths = [len(str(s - 1)) for s in sizes]
    return Dataset(schema, rng.integers(0, sizes, size=(n, k)) // 10 ** rng.integers(0, widths, size=(n, k)))


def reference_csv_bytes(ds: Dataset) -> bytes:
    """The file `csv.writer` writes for the dataset, one Python int per cell."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(ds.schema.names)
    writer.writerows(ds.codes.tolist())
    return text.getvalue().encode()


class TestWriteCsv:
    @pytest.mark.parametrize("names", ["plain", "quoted"])
    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("sizes, form", [*((sizes, "rows") for sizes in WRITE_SIZES),
                                             *((sizes, "counts") for sizes in COUNTS_SIZES)],
                             ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_writes_the_bytes_of_the_csv_module(self, tmp_path, sizes, form, n, names):
        ds = written_dataset(sizes, n, form, names)
        write_csv(ds, tmp_path / "d.csv")
        assert form == "rows" or "codes" not in vars(ds)  # counts are written without building rows
        assert (tmp_path / "d.csv").read_bytes() == reference_csv_bytes(ds)

    @pytest.mark.parametrize("sizes", WRITE_SIZES, ids=lambda v: "x".join(map(str, v)))
    def test_written_codes_read_back_by_the_c_reader(self, tmp_path, sizes):
        ds = written_dataset(sizes, 1000, "rows", "plain")
        write_csv(ds, tmp_path / "d.csv")
        assert np.array_equal(dataset._plain_codes(tmp_path / "d.csv", ds.schema), ds.codes)
        assert np.array_equal(load_csv(tmp_path / "d.csv", ds.schema).codes, ds.codes)


class TestDatasetCheck:
    SCHEMA = Schema(("a", "b", "label"), (3, 2, 2))
    CODES = np.array([[0, 0, 0], [2, 1, 1], [1, 0, 1], [2, 0, 0]])

    @pytest.mark.parametrize("row, col, code, name", [(1, 1, 2, "b"), (2, 0, -1, "a"), (0, 2, 5, "label")])
    def test_names_attribute_and_first_bad_row(self, row, col, code, name):
        codes = self.CODES.copy()
        codes[row, col] = code
        codes[3, 0] = 7  # a later bad row is not the one reported
        with pytest.raises(DomainError, match=rf"attribute '{name}' has code {code} .* at row {row}$") as info:
            Dataset(self.SCHEMA, codes)
        assert info.value.row == row

    def test_codes_are_a_read_only_copy(self):
        codes = self.CODES.copy()
        ds = Dataset(self.SCHEMA, codes)
        codes[0, 0] = 2
        assert ds.codes[0, 0] == 0
        assert not ds.codes.flags.writeable
        with pytest.raises(ValueError):
            ds.codes[0, 0] = 1

    def test_counts_form_builds_its_rows_once(self):
        ds = Dataset.from_counts(self.SCHEMA, np.bincount([0, 11, 11, 5], minlength=18).astype(np.int64))
        assert "codes" not in vars(ds)
        rows = ds.codes
        assert rows.tolist() == [[0, 0, 0], [1, 0, 1], [2, 1, 1], [2, 1, 1]]  # cell order
        assert ds.codes is rows

    def test_other_integer_dtype_accepted(self):
        ds = Dataset(self.SCHEMA, self.CODES.astype(np.int32))
        assert ds.codes.dtype == np.int64
        assert np.array_equal(ds.codes, self.CODES)


class TestPreprocess:
    def test_continuous_two_buckets(self):
        raw = RawTable(("v", "label"), (("0.1", "0"), ("0.9", "1"), ("0.5", "0")))
        rules = {"v": PreprocessRule("continuous", buckets=2, lo=0.0, hi=1.0),
                 "label": PreprocessRule("identity", size=2)}
        ds = preprocess(raw, rules)
        assert ds.codes[:, 0].tolist() == [0, 1, 1]

    def test_identity_unchanged(self):
        raw = RawTable(("v", "label"), (("0", "0"), ("2", "1"), ("1", "0")))
        ds = preprocess(raw, {"v": PreprocessRule("identity", size=3),
                              "label": PreprocessRule("identity", size=2)})
        assert ds.codes[:, 0].tolist() == [0, 2, 1]

    def test_missing_row_dropped(self):
        raw = RawTable(("v", "label"), (("1", "0"), ("?", "1"), ("0", "1")))
        ds = preprocess(raw, {"v": PreprocessRule("identity", size=2),
                              "label": PreprocessRule("identity", size=2)})
        assert ds.n == 2

    def test_categorical_orders_values(self):
        raw = RawTable(("c", "label"), (("blue", "0"), ("amber", "1"), ("cyan", "0")))
        ds = preprocess(raw, {"c": PreprocessRule("categorical"),
                              "label": PreprocessRule("identity", size=2)})
        assert ds.codes[:, 0].tolist() == [1, 0, 2]  # amber < blue < cyan

    def test_integer_rebased(self):
        raw = RawTable(("v", "label"), (("5", "0"), ("7", "1"), ("6", "0")))
        ds = preprocess(raw, {"v": PreprocessRule("integer"),
                              "label": PreprocessRule("identity", size=2)})
        assert ds.codes[:, 0].tolist() == [0, 2, 1]
        assert ds.schema.sizes[0] == 3

    def test_unknown_attribute_in_rules(self):
        raw = RawTable(("v", "label"), (("0", "1"),))
        with pytest.raises(SchemaError):
            preprocess(raw, {"v": PreprocessRule("identity"), "ghost": PreprocessRule("identity"),
                             "label": PreprocessRule("identity")})

    def test_all_rows_dropped(self):
        raw = RawTable(("v", "label"), (("?", "0"),))
        with pytest.raises(ParseError):
            preprocess(raw, {"v": PreprocessRule("identity"),
                             "label": PreprocessRule("identity")})

    def test_bucketing_preserves_order(self):
        vals = ["0.05", "0.2", "0.33", "0.61", "0.8", "0.97"]
        raw = RawTable(("v", "label"), tuple((v, str(i % 2)) for i, v in enumerate(vals)))
        ds = preprocess(raw, {"v": PreprocessRule("continuous", buckets=3),
                              "label": PreprocessRule("identity", size=2)})
        codes = ds.codes[:, 0]
        assert all(codes[i] <= codes[i + 1] for i in range(len(vals) - 1))

    @pytest.mark.parametrize("bound", [{"lo": -math.inf}, {"hi": math.inf}, {"lo": math.nan}],
                             ids=["lo -inf", "hi inf", "lo nan"])
    def test_continuous_rule_refuses_a_non_finite_bound(self, bound):
        # a bucket edge at infinity puts every finite value in one end bucket
        with pytest.raises(SchemaError, match="rule bounds must be finite"):
            PreprocessRule("continuous", buckets=3, **bound)


class TestEncoding:
    def test_binary_maps_to_plus_minus_one(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.array([[0, 0], [1, 1]]))
        X, y, _ = encode_weighted(ds)
        assert np.column_stack([X, y]).tolist() == [[-1.0, -1.0], [1.0, 1.0]]

    def test_three_level_midpoint(self):
        schema = Schema(("a", "label"), (3, 2))
        ds = Dataset(schema, np.array([[0, 0], [1, 0], [2, 1]]))
        assert encode_weighted(ds)[0][:, 0].tolist() == [-1.0, 0.0, 1.0]

    def test_label_map(self, two_binary_rows):
        _, y, _ = encode_weighted(two_binary_rows)
        assert set(y.tolist()) == {-1.0, 1.0}

    @given(st.integers(2, 12))
    def test_order_preserving(self, size):
        schema = Schema(("a", "label"), (size, 2))
        codes = np.stack([np.arange(size), np.zeros(size, dtype=np.int64)], axis=1)
        vals = encode_weighted(Dataset(schema, codes))[0][:, 0].tolist()
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
        assert vals[0] == -1.0 and vals[-1] == 1.0

    @given(st.integers(1, 50), st.integers(0, 2**31 - 1))
    def test_encode_range(self, n, seed):
        schema = Schema(("a", "b", "label"), (4, 7, 2))
        X, y, _ = encode_weighted(random_dataset(schema, n, seed))
        assert np.all(X >= -1.0) and np.all(X <= 1.0)
        assert np.all(np.isin(y, (-1.0, 1.0)))

    def test_counts_form_encodes_without_building_rows(self):
        # each distinct row once, weighted by its count: the row-by-row sums over all n
        schema = Schema(("a", "b", "label"), (3, 4, 2))
        ds = Dataset.from_counts(schema, np.arange(24, dtype=np.int64) % 5)
        X, y, counts = encode_weighted(ds)
        assert "codes" not in vars(ds)
        X_all, y_all = reference_encode_xy(ds)
        assert counts.sum() == ds.n == len(y_all)
        assert np.allclose(counts @ X, X_all.sum(axis=0), rtol=0, atol=1e-9)
        assert counts @ y == y_all.sum()
        assert np.allclose((counts * y) @ X, y_all @ X_all, rtol=0, atol=1e-9)


class TestSplit:
    def test_eighty_twenty(self):
        ds = random_dataset(Schema(("a", "label"), (2, 2)), 10, 0)
        train, test = split(ds, SplitSpec(0.8, seed=5))
        assert (train.n, test.n) == (8, 2)

    def test_deterministic(self):
        ds = random_dataset(Schema(("a", "label"), (3, 2)), 30, 1)
        a = split(ds, SplitSpec(0.8, seed=9))
        b = split(ds, SplitSpec(0.8, seed=9))
        assert np.array_equal(a[0].codes, b[0].codes)
        assert np.array_equal(a[1].codes, b[1].codes)

    def test_different_seeds_permute(self):
        ds = random_dataset(Schema(("a", "label"), (4, 2)), 40, 2)
        a = split(ds, SplitSpec(0.5, seed=0))
        b = split(ds, SplitSpec(0.5, seed=1))
        assert not np.array_equal(a[0].codes, b[0].codes)

    def test_too_small(self):
        ds = random_dataset(Schema(("a", "label"), (2, 2)), 1, 0)
        with pytest.raises(ValueError):
            split(ds, SplitSpec(0.8, seed=0))

    def test_parts_are_counts_over_the_parent_cells(self):
        ds = random_dataset(Schema(("a", "b", "label"), (3, 4, 2)), 500, 3)
        for fraction, n_train in ((0.7, 350), (0.8, 400), (0.002, 1), (0.998, 499), (0.503, 252)):
            train, test = split(ds, SplitSpec(fraction, seed=11))
            assert (train.n, test.n) == (n_train, 500 - n_train)
            for part in (train, test):
                assert "codes" not in vars(part)  # no rows were built
                assert part.weighted.counts.min() > 0 and part.weighted.counts.sum() == part.n
            assert np.array_equal(weighted_cells(train) + weighted_cells(test), cell_counts(ds))
            again = split(ds, SplitSpec(fraction, seed=11))
            for part, same in zip((train, test), again):
                assert all(x.tobytes() == y.tobytes() for x, y in zip(part.weighted, same.weighted))

    def test_train_count_is_hypergeometric(self):
        # 50 of 200 rows in cell (1, 0); the train part takes 160
        codes = np.array([[1, 0]] * 50 + [[0, 0]] * 70 + [[0, 1]] * 80)
        ds = Dataset(Schema(("a", "label"), (2, 2)), codes)
        got = np.array([weighted_cells(split(ds, SplitSpec(0.8, seed=seed))[0])[2]
                        for seed in range(2000)])
        mean = 160 * 50 / 200
        var = 160 * (50 / 200) * (150 / 200) * (200 - 160) / (200 - 1)
        assert abs(got.mean() - mean) <= 4.0 * np.sqrt(var / got.size)
        assert abs(got.var(ddof=1) / var - 1.0) <= 4.0 * np.sqrt(2.0 / (got.size - 1))

    def test_a_billion_rows_are_refused_before_any_draw(self, monkeypatch):
        schema = Schema(("a", "label"), (2, 2))
        assert split(Dataset.from_counts(schema, np.array([10**9 - 4, 1, 1, 1])),
                     SplitSpec(0.5, seed=0))[0].n == 500_000_000

        def no_draw(*args, **kwargs):
            raise AssertionError("split drew before refusing")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="cannot split 1000000000 rows"):
            split(Dataset.from_counts(schema, np.array([10**9 - 3, 1, 1, 1])), SplitSpec(0.5, seed=0))

    @given(st.integers(2, 40), st.integers(0, 2**31 - 1))
    def test_partition_is_multiset_cover(self, n, seed):
        ds = random_dataset(Schema(("a", "b", "label"), (3, 2, 2)), n, seed)
        try:
            train, test = split(ds, SplitSpec(0.8, seed=seed))
        except ValueError:
            return  # a part would be empty at this n
        assert reference_row_multiset(train) + reference_row_multiset(test) == reference_row_multiset(ds)
