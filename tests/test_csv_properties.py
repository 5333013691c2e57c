"""Property tests of the feature and labeled CSV formats: a table written,
read and written again gives the same bytes, and the learnable matrix read
back holds exactly float() of each written cell."""

import csv
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens.dataset import (BENIGN, FeatureTable, LabeledDataset, read_feature_csv,
                              read_labeled_csv, write_feature_csv, write_labeled_csv)
from flowlens.schema import load_schema

SCHEMAS = [s for name in ("netflow_v2", "cic")
           for s in (load_schema(name), load_schema(name).learnable_only())]

# Some text cells look like numbers that a number parse would rewrite.
TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.sampled_from(["007", "1.50", "+5", " 3", "1_000", "-0", "1e3", "nan"]),
)
INTS = st.integers(min_value=-(2**70), max_value=2**70)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
WHOLE = FLOATS.map(lambda f: float(math.trunc(f)))
# A number column holds ints only, floats only, or both (features whose
# float values are sometimes integral are written as a mix of the two).
NUMBER_COLUMNS = st.sampled_from([INTS, FLOATS, st.one_of(INTS, FLOATS, WHOLE)])


@st.composite
def tables(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    n = draw(st.integers(min_value=0, max_value=4))
    columns = [draw(st.lists(TEXT if c.unit == "text" else draw(NUMBER_COLUMNS),
                             min_size=n, max_size=n))
               for c in schema.columns]
    return FeatureTable(schema, columns)


@st.composite
def labeled(draw):
    table = draw(tables())
    labels = draw(st.lists(st.integers(0, 1), min_size=len(table), max_size=len(table)))
    categories = [draw(TEXT.filter(lambda c: c != BENIGN)) if lab else BENIGN
                  for lab in labels]
    return LabeledDataset(table, labels, categories)


def _written_learnable(path, schema):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[2:]  # provenance line, header
    idx = schema.learnable_indices
    return np.array([[float(row[j]) for j in idx] for row in rows],
                    dtype=float).reshape(len(rows), len(idx))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60)
@given(table=tables())
def test_feature_csv_round_trip(tmp_path_factory, table):
    tmp = tmp_path_factory.mktemp("features")
    first, second = tmp / "first.csv", tmp / "second.csv"
    write_feature_csv(first, table.schema, zip(*table.columns), meta={"seed": 3})
    back, meta = read_feature_csv(first)
    write_feature_csv(second, back.schema, zip(*back.columns), meta=meta)
    assert second.read_bytes() == first.read_bytes()
    assert _same_bits(back.learnable_matrix(), _written_learnable(first, table.schema))


@settings(max_examples=60)
@given(ds=labeled())
def test_labeled_csv_round_trip(tmp_path_factory, ds):
    tmp = tmp_path_factory.mktemp("labeled")
    first, second = tmp / "first.csv", tmp / "second.csv"
    write_labeled_csv(first, ds, meta={"seed": 3})
    back, meta = read_labeled_csv(first)
    write_labeled_csv(second, back, meta=meta)
    assert second.read_bytes() == first.read_bytes()
    assert back.labels == ds.labels and back.categories == ds.categories
    assert _same_bits(back.X(), _written_learnable(first, ds.schema))
