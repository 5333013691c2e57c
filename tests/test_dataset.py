"""Labeling, identifier dropping, scaling, folds, and CSV round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlens import dataset
from flowlens.dataset import (BENIGN, FeatureTable, GroundTruthEvent,
                              LabeledDataset, LabelStats, MinMaxScaler,
                              drop_identifiers, kfold_split, label_table,
                              read_events_csv, read_feature_csv,
                              read_labeled_csv, read_labeled_matrix, write_events_csv,
                              write_feature_csv, write_labeled_csv)
from flowlens.features import compute_features
from flowlens.flows import assemble_flows
from flowlens.schema import IDENTIFIER, SchemaError, load_schema
from conftest import udp_packet

CIC = load_schema("cic")
NF = load_schema("netflow_v2")


def _feature_table(schema, flows):
    """The features of ``flows`` as a table: one list per schema column."""
    rows = [compute_features(f, schema) for f in flows]
    return FeatureTable(schema, [[row[j] for row in rows] for j in range(schema.width())])


def _flow(src, dst, start_s, end_s, proto=17):
    pkts = [udp_packet(int(start_s * 1e6), src, 1111, dst, 2222),
            udp_packet(int(end_s * 1e6), src, 1111, dst, 2222)]
    return assemble_flows(pkts)[0]


def _labels(flows, events, stats=None):
    """``label_table``'s labels and categories for ``flows`` under the cic
    schema, whose microsecond durations rebuild each flow's interval exactly."""
    ds = label_table(_feature_table(CIC, flows), events, stats)
    return ds.labels, ds.categories


def test_no_events_all_benign():
    flows = [_flow("10.0.0.1", "10.0.0.2", 0, 1)]
    labels, cats = _labels(flows, [])
    assert labels == [0] and cats == [BENIGN]


def test_interval_overlap_match():
    flow = _flow("10.0.0.1", "10.0.0.2", 10, 12)
    ev = GroundTruthEvent("10.0.0.1", "10.0.0.2", None, 0, 60_000_000, "DDoS")
    labels, cats = _labels([flow], [ev])
    assert labels == [1] and cats == ["DDoS"]


def test_orientation_insensitive_match():
    # flow seen B -> A while the event records A -> B
    flow = _flow("10.0.0.2", "10.0.0.1", 10, 12)
    ev = GroundTruthEvent("10.0.0.1", "10.0.0.2", None, 0, 60_000_000, "DDoS")
    labels, cats = _labels([flow], [ev])
    assert labels == [1] and cats == ["DDoS"]


def test_no_time_overlap_no_match():
    flow = _flow("10.0.0.1", "10.0.0.2", 100, 102)
    ev = GroundTruthEvent("10.0.0.1", "10.0.0.2", None, 0, 60_000_000, "DDoS")
    labels, _ = _labels([flow], [ev])
    assert labels == [0]


def test_wildcard_and_protocol_filter():
    flow = _flow("10.0.0.1", "10.0.0.2", 10, 12, proto=17)
    anywhere = GroundTruthEvent(None, "10.0.0.2", None, 0, 60_000_000, "Scan")
    wrong_proto = GroundTruthEvent(None, "10.0.0.2", 6, 0, 60_000_000, "Scan")
    assert _labels([flow], [anywhere])[0] == [1]
    assert _labels([flow], [wrong_proto])[0] == [0]


def test_first_match_wins_and_conflicts_counted():
    flow = _flow("10.0.0.1", "10.0.0.2", 10, 12)
    ev1 = GroundTruthEvent("10.0.0.1", None, None, 0, 60_000_000, "First")
    ev2 = GroundTruthEvent("10.0.0.1", None, None, 0, 60_000_000, "Second")
    stats = LabelStats()
    _, cats = _labels([flow], [ev1, ev2], stats)
    assert cats == ["First"]
    assert stats.conflicts == 1


def test_label_table_labels_alike_under_both_schemas():
    pkts = [udp_packet(1_000_000, "10.0.0.1", 5, "10.0.0.9", 6, payload=10),
            udp_packet(2_000_000, "10.0.0.1", 5, "10.0.0.9", 6, payload=10),
            udp_packet(9_000_000, "10.0.0.3", 7, "10.0.0.4", 8, payload=10)]
    flows = assemble_flows(pkts)
    events = [GroundTruthEvent(None, "10.0.0.9", None, 0, 5_000_000, "Dos")]
    for schema in (NF, CIC):
        ds = label_table(_feature_table(schema, flows), events)
        assert ds.labels == [1, 0]
        assert ds.categories == ["Dos", BENIGN]


def _interval_labels(flows, events):
    """Each flow's label and category from its own endpoints and interval:
    the first event that matches it, else benign."""
    categories = []
    for fl in flows:
        hits = [ev.category for ev in events
                if ev.matches(fl.key.ip_a, fl.key.ip_b, fl.key.protocol, fl.first_ts, fl.last_ts)]
        categories.append(hits[0] if hits else BENIGN)
    return [0 if cat == BENIGN else 1 for cat in categories], categories


HOSTS = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]


@st.composite
def flows_and_events(draw):
    # Microsecond packet times over 3 s, and event boundaries within 1 ms of
    # a packet, so that flow durations and event edges fall inside a
    # millisecond.
    times = draw(st.lists(st.integers(0, 3_000_000), min_size=1, max_size=8))
    pkts = [udp_packet(ts, draw(st.sampled_from(HOSTS)), 1, draw(st.sampled_from(HOSTS)), 2)
            for ts in times]
    near_packet = st.builds(int.__add__, st.sampled_from(times), st.integers(-1000, 1000))
    events = []
    for _ in range(draw(st.integers(0, 3))):
        start, end = sorted((draw(near_packet), draw(near_packet)))
        events.append(GroundTruthEvent(
            draw(st.sampled_from([None, *HOSTS])), draw(st.sampled_from([None, *HOSTS])),
            draw(st.sampled_from([None, 6, 17])), start, end,
            draw(st.sampled_from(["DoS", "Scan"]))))
    return assemble_flows(pkts, idle_timeout=1.0), events


@settings(max_examples=100)
@given(case=flows_and_events())
def test_label_table_on_written_table_agrees_with_flow_intervals(tmp_path_factory, case):
    flows, events = case
    labels, categories = _interval_labels(flows, events)
    tmp = tmp_path_factory.mktemp("label")
    for schema in (CIC, NF):
        path = tmp / f"{schema.name}.csv"
        write_feature_csv(path, schema, [compute_features(f, schema) for f in flows])
        table, _ = read_feature_csv(path)
        ds = label_table(table, events)
        if schema is CIC:  # microsecond duration: the exact interval
            assert (ds.labels, ds.categories) == (labels, categories)
        else:  # whole milliseconds: widened, so no overlap is missed
            assert all(got >= want for got, want in zip(ds.labels, labels))


def test_feature_table_checks_its_columns():
    schema = CIC.learnable_only()
    with pytest.raises(SchemaError, match="table has 76 columns, schema expects 77"):
        FeatureTable(schema, [[0.0] for _ in range(76)])
    columns = [[0.0] for _ in range(77)]
    columns[5] = [0.0, 1.0]
    with pytest.raises(SchemaError, match="columns differ in length"):
        FeatureTable(schema, columns)
    assert len(FeatureTable(schema, [[0.0, 1.0] for _ in range(77)])) == 2
    assert len(FeatureTable(schema, [[] for _ in range(77)])) == 0


def test_label_category_consistency_enforced():
    table = FeatureTable(CIC.learnable_only(), [[0.0] for _ in range(77)])
    with pytest.raises(ValueError):
        LabeledDataset(table, [1], [BENIGN])
    with pytest.raises(ValueError):
        LabeledDataset(table, [0], ["DDoS"])


def _tiny_labeled(schema=CIC):
    pkts = [udp_packet(1_000_000, "10.0.0.1", 5, "10.0.0.9", 6, payload=10),
            udp_packet(2_000_000, "10.0.0.1", 5, "10.0.0.9", 6, payload=20),
            udp_packet(9_000_000, "10.0.0.3", 7, "10.0.0.4", 8, payload=30)]
    flows = assemble_flows(pkts)
    events = [GroundTruthEvent(None, "10.0.0.9", None, 0, 5_000_000, "Dos")]
    return label_table(_feature_table(schema, flows), events)


def test_drop_identifiers_width_and_order():
    ds = _tiny_labeled()
    out = drop_identifiers(ds)
    assert out.schema.width() == 83 - 6
    assert out.schema.column_names == [c.name for c in CIC.columns if c.kind != IDENTIFIER]
    # survivors keep their values
    j_src = CIC.index_of("Protocol")
    assert out.table.columns[out.schema.index_of("Protocol")] == ds.table.columns[j_src]


def test_drop_identifiers_no_identifiers_is_identity():
    ds = drop_identifiers(_tiny_labeled())
    again = drop_identifiers(ds)
    assert again.schema.column_names == ds.schema.column_names
    assert again.table.columns == ds.table.columns


def test_minmax_basic_and_conventions():
    scaler = MinMaxScaler.fit(np.array([[2.0], [4.0], [6.0]]))
    out = scaler.transform(np.array([[2.0], [4.0], [6.0]]))
    assert out[:, 0].tolist() == [0.0, 0.5, 1.0]

    const = MinMaxScaler.fit(np.array([[7.0], [7.0]]))
    assert const.transform(np.array([[7.0], [7.0]]))[:, 0].tolist() == [0.0, 0.0]

    clip = MinMaxScaler.fit(np.array([[0.0], [5.0]]))
    assert clip.transform(np.array([[10.0]]))[0, 0] == 1.0
    assert clip.transform(np.array([[-3.0]]))[0, 0] == 0.0


def test_minmax_row_path_agrees_with_batch():
    rng = np.random.Generator(np.random.PCG64(2))
    train = rng.random((20, 7)) * 100
    scaler = MinMaxScaler.fit(train)
    rows = rng.random((5, 7)) * 150 - 20
    batch = scaler.transform(rows)
    for i in range(len(rows)):
        assert np.allclose(scaler.transform_row(rows[i].tolist()), batch[i])


def test_minmax_column_wider_than_the_float_range():
    """max - min of the first column overflows: it is scaled in halves, and
    the other column's quotients are those of the plain formula, bit for bit."""
    big = np.finfo(float).max
    scaler = MinMaxScaler.fit(np.array([[-big, 0.0], [big, 3.0]]))
    rows = np.array([[-big, 0.0], [0.0, 1.0], [big, 3.0], [5e-324, 7.0]])
    out = scaler.transform(rows)
    assert out[:, 0].tolist() == [0.0, 0.5, 1.0, 0.5]
    assert out[:, 1].tobytes() == np.clip(rows[:, 1] / 3.0, 0.0, 1.0).tobytes()
    for row, expected in zip(rows, out):
        assert scaler.transform_row(row.tolist()) == expected.tolist()


def _plain_transform(scaler, rows):
    """The scaling formula written out, as ``transform`` computed it before it
    worked in one buffer."""
    h, mins, span = scaler._halved()
    safe = np.where(span == 0, 1.0, span)
    with np.errstate(over="ignore"):
        out = (rows * h - mins) / safe
    out = np.where(span == 0, 0.0, out)
    return np.clip(out, 0.0, 1.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
BIG = np.finfo(float).max


@st.composite
def scaler_and_rows(draw):
    width = draw(st.integers(1, 5))
    fit = np.array(draw(st.lists(st.lists(FINITE, min_size=width, max_size=width),
                                 min_size=2, max_size=5)))
    for j in range(width):
        kind = draw(st.sampled_from(["any", "constant", "overflow"]))
        if kind == "constant":
            fit[:, j] = fit[0, j]
        elif kind == "overflow":  # max - min is past the float range: halved
            fit[0, j], fit[1, j] = -draw(st.floats(1e308, BIG)), draw(st.floats(1e308, BIG))
    # Rows anywhere in the float range, so most cells fall outside the fitted one.
    rows = np.array(draw(st.lists(st.lists(FINITE, min_size=width, max_size=width),
                                  min_size=1, max_size=6)))
    return MinMaxScaler.fit(fit), rows


@settings(max_examples=200)
@given(case=scaler_and_rows())
def test_minmax_transform_is_the_plain_formula_bit_for_bit(case):
    scaler, rows = case
    before = rows.tobytes()
    out = scaler.transform(rows)
    assert rows.tobytes() == before
    assert out.tobytes() == _plain_transform(scaler, rows).tobytes()


def test_scaler_fit_on_train_only_detects_leakage():
    train = np.array([[0.0], [5.0]])
    test = np.array([[9.0]])
    fit_train = MinMaxScaler.fit(train)
    fit_all = MinMaxScaler.fit(np.vstack([train, test]))
    assert fit_train.maxs[0] != fit_all.maxs[0]


def test_kfold_stratified_balanced():
    labels = [1] * 5 + [0] * 5
    splits = kfold_split(labels, k=5, seed=0)
    seen = []
    for train, test in splits:
        assert len(test) == 2
        y = np.array(labels)[test]
        assert y.sum() == 1  # one attack + one benign per fold
        seen.extend(test.tolist())
        assert set(train) | set(test) == set(range(10))
        assert not set(train) & set(test)
    assert sorted(seen) == list(range(10))


def test_kfold_two_folds_cover_all_rows():
    splits = kfold_split([0, 1, 0, 1], k=2, seed=1)
    tests = [set(t.tolist()) for _, t in splits]
    assert all(len(t) == 2 for t in tests)
    assert tests[0] | tests[1] == {0, 1, 2, 3}
    assert not tests[0] & tests[1]


def test_kfold_deterministic():
    labels = np.arange(40) % 2
    a = kfold_split(labels, k=5, seed=9)
    b = kfold_split(labels, k=5, seed=9)
    for (tr1, te1), (tr2, te2) in zip(a, b):
        assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)


def test_kfold_rejects_class_with_fewer_rows_than_folds():
    # with one attack row, four of five test folds would hold no attack
    with pytest.raises(ValueError, match="class 1 has 1 rows, fewer than k=5"):
        kfold_split([0] * 9 + [1], k=5, seed=0)
    # a single class keeps plain folds over all rows
    covered = sorted(i for _, test in kfold_split([0] * 10, k=5, seed=0) for i in test)
    assert covered == list(range(10))


def test_labeled_csv_round_trip(tmp_path):
    ds = _tiny_labeled()
    path = tmp_path / "labeled.csv"
    write_labeled_csv(path, ds, meta={"seed": 1})
    back, meta = read_labeled_csv(path)
    assert meta["seed"] == "1"
    assert back.labels == ds.labels
    assert back.categories == ds.categories
    assert back.schema.column_names == ds.schema.column_names
    a = ds.table.learnable_matrix()
    b = back.table.learnable_matrix()
    assert np.max(np.abs(a - b)) <= 1e-6  # float cells carry 6 decimals
    raw = path.read_text().splitlines()
    assert raw[0].startswith("#")
    assert raw[1].split(",")[-2:] == ["Label", "Attack"]


@pytest.mark.parametrize("label", ["0.7", "2", "-1"])
def test_label_outside_0_1_rejected(tmp_path, label):
    path = tmp_path / "labeled.csv"
    write_labeled_csv(path, _tiny_labeled())
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")  # no provenance line: header, then rows
    cells[-2] = label
    lines[1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(SchemaError, match=r"row 1, column 'Label'"):
        read_labeled_csv(path)


def _assert_same_matrix(path, typed, meta):
    schema, X, y, got_meta = read_labeled_matrix(path)
    assert X.tobytes() == typed.X().tobytes() and X.shape == typed.X().shape
    assert y.dtype == typed.y().dtype and y.tolist() == typed.labels
    assert schema == typed.schema and got_meta == meta


def test_labeled_matrix_parses_a_plain_table_with_numpy(tmp_path, monkeypatch):
    path = tmp_path / "labeled.csv"
    write_labeled_csv(path, _tiny_labeled(), meta={"seed": 1})
    typed, meta = read_labeled_csv(path)

    def typed_reader(path):
        raise AssertionError("a plain table went to the typed reader")

    monkeypatch.setattr(dataset, "read_labeled_csv", typed_reader)
    _assert_same_matrix(path, typed, meta)


def test_labeled_matrix_keeps_negative_zero_in_a_column_past_2_53(tmp_path):
    # From 2**53 on the typed reader parses a column cell by cell, and a
    # "-0.0" cell stays -0.0; below it, every zero becomes int 0.
    path = tmp_path / "labeled.csv"
    write_labeled_csv(path, _tiny_labeled())
    lines = path.read_text().splitlines(keepends=True)
    j = CIC.learnable_indices[0]
    for r, cell in ((1, str(2**53 + 2)), (2, "-0.0")):
        cells = lines[r].rstrip("\n").split(",")
        cells[j] = cell
        lines[r] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    typed, meta = read_labeled_csv(path)
    assert np.signbit(typed.X()[1, 0])
    _assert_same_matrix(path, typed, meta)


_EVENTS_HEADER = "src_ip,dst_ip,protocol,start_ts,end_ts,category\n"


def test_events_csv_round_trip_keeps_wildcards(tmp_path):
    events = [GroundTruthEvent(None, "10.0.0.2", None, 0, 5, "Scan"),
              GroundTruthEvent("10.0.0.1", None, 0, 7, 7, "a,b")]
    path = tmp_path / "gt.csv"
    write_events_csv(path, events, meta={"seed": 1})
    assert read_events_csv(path) == events


@pytest.mark.parametrize("row, message", [
    (",,,abc,5,Scan", r"row 2, column 'start_ts': 'abc' is not a finite number"),
    (",,,1.5,5,Scan", r"row 2: event timestamps must be whole microseconds"),
    (",,,9,5,Scan", r"row 2: event start after end"),
    (",,,0,5,", r"row 2: event category must be non-empty"),
    (",,tcp,0,5,Scan", r"row 2: invalid literal"),
    (",,,0,5", r"row 2 has 5 cells"),
])
def test_malformed_event_rejected_naming_row(tmp_path, row, message):
    path = tmp_path / "gt.csv"
    path.write_text(_EVENTS_HEADER + ",10.0.0.2,6,0,5,DoS\n" + row + "\n")
    with pytest.raises(SchemaError, match=message):
        read_events_csv(path)
