import numpy as np
import pytest
from hypothesis import given, strategies as st

from margsyn.dataset import (Dataset, DomainError, ParseError,
                             PreprocessRule, RawTable, Schema, SchemaError,
                             SplitSpec, encode, encode_xy, load_csv, load_raw_csv,
                             preprocess, split, write_csv)

from conftest import random_dataset


class TestSchema:
    def test_basic_properties(self):
        s = Schema(("a", "b", "label"), (3, 4, 2))
        assert s.num_features == 2
        assert s.label_index == 2
        assert s.max_domain_size == 4
        assert s.shape((0, 2)) == (3, 2)

    def test_label_must_be_binary(self):
        with pytest.raises(SchemaError):
            Schema(("a", "label"), (2, 3))

    def test_domain_sizes_at_least_two(self):
        with pytest.raises(SchemaError):
            Schema(("a", "label"), (1, 2))

    def test_unique_names(self):
        with pytest.raises(SchemaError):
            Schema(("a", "a", "label"), (2, 2, 2))

    def test_json_round_trip(self, tmp_path):
        s = Schema(("a", "b", "label"), (3, 4, 2))
        s.to_file(tmp_path / "schema.json")
        assert Schema.from_file(tmp_path / "schema.json") == s
        assert s.digest() == Schema.from_dict(s.to_dict()).digest()


class TestLoadCsv:
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

    @given(st.integers(0, 60), st.integers(0, 2**31 - 1))
    def test_write_read_round_trip(self, tmp_path_factory, n, seed):
        schema = Schema(("a", "b", "label"), (3, 5, 2))
        ds = random_dataset(schema, n, seed)
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_csv(ds, path)
        assert load_csv(path, schema).row_multiset() == ds.row_multiset()


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


class TestEncoding:
    def test_binary_maps_to_plus_minus_one(self):
        schema = Schema(("a", "label"), (2, 2))
        ds = Dataset(schema, np.array([[0, 0], [1, 1]]))
        mat = encode(ds)
        assert mat.tolist() == [[-1.0, -1.0], [1.0, 1.0]]

    def test_three_level_midpoint(self):
        schema = Schema(("a", "label"), (3, 2))
        ds = Dataset(schema, np.array([[0, 0], [1, 0], [2, 1]]))
        assert encode(ds)[:, 0].tolist() == [-1.0, 0.0, 1.0]

    def test_label_map(self, two_binary_rows):
        _, y = encode_xy(two_binary_rows)
        assert set(y.tolist()) == {-1.0, 1.0}

    @given(st.integers(2, 12))
    def test_order_preserving(self, size):
        schema = Schema(("a", "label"), (size, 2))
        codes = np.stack([np.arange(size), np.zeros(size, dtype=np.int64)], axis=1)
        vals = encode(Dataset(schema, codes))[:, 0].tolist()
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
        assert vals[0] == -1.0 and vals[-1] == 1.0

    @given(st.integers(1, 50), st.integers(0, 2**31 - 1))
    def test_encode_range(self, n, seed):
        schema = Schema(("a", "b", "label"), (4, 7, 2))
        X, y = encode_xy(random_dataset(schema, n, seed))
        assert np.all(X >= -1.0) and np.all(X <= 1.0)
        assert np.all(np.isin(y, (-1.0, 1.0)))


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

    @given(st.integers(2, 40), st.integers(0, 2**31 - 1))
    def test_partition_is_multiset_cover(self, n, seed):
        ds = random_dataset(Schema(("a", "b", "label"), (3, 2, 2)), n, seed)
        try:
            train, test = split(ds, SplitSpec(0.8, seed=seed))
        except ValueError:
            return  # a part would be empty at this n
        combined = {}
        for part in (train, test):
            for row, cnt in part.row_multiset().items():
                combined[row] = combined.get(row, 0) + cnt
        assert combined == ds.row_multiset()
