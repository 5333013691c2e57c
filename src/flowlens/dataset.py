"""Dataset plumbing: labeling from ground-truth events, identifier dropping,
min-max scaling, stratified k-fold splits, and CSV persistence.

All operations are pure transforms; CSV files are UTF-8 with LF endings and
may start with one ``#`` provenance line, which readers skip.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .flows import FlowRecord
from .schema import CIC, NETFLOW_V2, FeatureSchema, SchemaError, load_schema
from .util import format_value, meta_line, parse_meta_line, parse_value

BENIGN = "Benign"

LABEL_COLUMN = "Label"
CATEGORY_COLUMN = "Attack"

# Column roles needed to recover a flow's endpoints and time interval from a
# feature row, per schema: (src ip, dst ip, protocol, start ts, duration, us per
# duration unit).
_FLOW_VIEW = {
    NETFLOW_V2: ("IPV4_SRC_ADDR", "IPV4_DST_ADDR", "PROTOCOL", "TIMESTAMP",
                 "FLOW_DURATION_MILLISECONDS", 1000),
    CIC: ("Src IP", "Dst IP", "Protocol", "Timestamp", "Flow Duration", 1),
}


@dataclass
class FeatureTable:
    """Feature vectors aligned to a schema, one row per flow."""

    schema: FeatureSchema
    rows: list[list]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != self.schema.width():
                raise SchemaError(
                    f"row {i} has width {len(row)}, schema expects {self.schema.width()}"
                )

    def learnable_matrix(self) -> np.ndarray:
        idx = self.schema.learnable_indices
        return np.array(
            [[float(row[j]) for j in idx] for row in self.rows], dtype=float
        ).reshape(len(self.rows), len(idx))


@dataclass
class LabeledDataset:
    """Feature table plus per-row binary label and category string."""

    table: FeatureTable
    labels: list[int]
    categories: list[str]

    def __post_init__(self):
        n = len(self.table.rows)
        if len(self.labels) != n or len(self.categories) != n:
            raise ValueError("labels/categories length mismatch")
        for lab, cat in zip(self.labels, self.categories):
            if (lab == 1) != (cat != BENIGN):
                raise ValueError("label must be 1 exactly when category is not Benign")

    @property
    def schema(self) -> FeatureSchema:
        return self.table.schema

    def X(self) -> np.ndarray:
        return self.table.learnable_matrix()

    def y(self) -> np.ndarray:
        return np.array(self.labels, dtype=int)


# --- ground truth -----------------------------------------------------------

@dataclass(frozen=True)
class GroundTruthEvent:
    """Time-bounded attacker/victim record; None fields are wildcards."""

    src_ip: str | None
    dst_ip: str | None
    protocol: int | None
    start_ts: int
    end_ts: int
    category: str

    def __post_init__(self):
        if self.start_ts > self.end_ts:
            raise ValueError("event start after end")
        if not self.category:
            raise ValueError("event category must be non-empty")

    def matches(self, ip_a: str, ip_b: str, protocol: int, first_ts: int, last_ts: int) -> bool:
        if self.protocol is not None and self.protocol != protocol:
            return False
        if last_ts < self.start_ts or first_ts > self.end_ts:
            return False

        def hit(pattern: str | None, ip: str) -> bool:
            return pattern is None or pattern == ip

        # Events are usually recorded attacker->victim; flows are
        # bidirectional, so match either orientation.
        return (hit(self.src_ip, ip_a) and hit(self.dst_ip, ip_b)) or (
            hit(self.src_ip, ip_b) and hit(self.dst_ip, ip_a)
        )


@dataclass
class LabelStats:
    attacks: int = 0
    conflicts: int = 0


def _first_match(
    events: list[GroundTruthEvent],
    ip_a: str,
    ip_b: str,
    protocol: int,
    first_ts: int,
    last_ts: int,
    stats: LabelStats,
) -> str:
    winner = None
    for ev in events:
        if ev.matches(ip_a, ip_b, protocol, first_ts, last_ts):
            if winner is None:
                winner = ev.category
            elif ev.category != winner:
                stats.conflicts += 1
                break
    if winner is None:
        return BENIGN
    stats.attacks += 1
    return winner


def label_flows(
    flows: list[FlowRecord],
    events: list[GroundTruthEvent],
    stats: LabelStats | None = None,
) -> tuple[list[int], list[str]]:
    """Per-flow (label, category) from interval-overlap + endpoint matching."""
    if stats is None:
        stats = LabelStats()
    labels, categories = [], []
    for fl in flows:
        cat = _first_match(
            events, fl.key.ip_a, fl.key.ip_b, fl.key.protocol, fl.first_ts, fl.last_ts, stats
        )
        categories.append(cat)
        labels.append(0 if cat == BENIGN else 1)
    return labels, categories


def label_table(
    table: FeatureTable,
    events: list[GroundTruthEvent],
    stats: LabelStats | None = None,
) -> LabeledDataset:
    """Label feature rows by reconstructing flow endpoints/interval from
    identifier and duration columns."""
    if stats is None:
        stats = LabelStats()
    view = _FLOW_VIEW.get(table.schema.name)
    if view is None:
        raise SchemaError(f"schema {table.schema.name!r} has no flow view for labeling")
    src_c, dst_c, proto_c, ts_c, dur_c, dur_us = (
        table.schema.index_of(view[0]),
        table.schema.index_of(view[1]),
        table.schema.index_of(view[2]),
        table.schema.index_of(view[3]),
        table.schema.index_of(view[4]),
        view[5],
    )
    labels, categories = [], []
    for row in table.rows:
        first = int(row[ts_c])
        last = first + int(row[dur_c]) * dur_us
        cat = _first_match(
            events, str(row[src_c]), str(row[dst_c]), int(row[proto_c]), first, last, stats
        )
        categories.append(cat)
        labels.append(0 if cat == BENIGN else 1)
    return LabeledDataset(table, labels, categories)


# --- preprocessing ----------------------------------------------------------

def drop_identifiers(ds: LabeledDataset) -> LabeledDataset:
    """Remove identifier columns; survivor order is preserved exactly."""
    idx = ds.schema.learnable_indices
    schema = ds.schema.learnable_only()
    rows = [[row[j] for j in idx] for row in ds.table.rows]
    return LabeledDataset(FeatureTable(schema, rows), list(ds.labels), list(ds.categories))


@dataclass
class MinMaxScaler:
    """Per-column min/max fitted on training rows; transforms clip to [0, 1]."""

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "MinMaxScaler":
        if rows.size == 0:
            raise ValueError("cannot fit a scaler on an empty matrix")
        return cls(mins=rows.min(axis=0), maxs=rows.max(axis=0))

    def transform(self, rows: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        safe = np.where(span == 0, 1.0, span)
        out = (rows - self.mins) / safe
        out = np.where(span == 0, 0.0, out)  # constant columns map to 0
        return np.clip(out, 0.0, 1.0)

    def transform_row(self, row) -> list[float]:
        """Single-sample path: plain Python beats array overhead at this width."""
        params = getattr(self, "_row_params", None)
        if params is None:
            params = list(zip(self.mins.tolist(), (self.maxs - self.mins).tolist()))
            self._row_params = params
        if len(row) != len(params):
            raise ValueError(f"expected {len(params)} values, got {len(row)}")
        out = []
        for v, (mn, span) in zip(row, params):
            if span == 0.0:
                out.append(0.0)
            else:
                scaled = (v - mn) / span
                out.append(0.0 if scaled < 0.0 else 1.0 if scaled > 1.0 else scaled)
        return out


def kfold_split(
    labels: np.ndarray | list[int], k: int = 5, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold index pairs, deterministic for a fixed seed.

    Falls back to unstratified folds (with a warning) when some class has
    fewer than k rows.
    """
    y = np.asarray(labels, dtype=int)
    n = len(y)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} rows")
    rng = np.random.Generator(np.random.PCG64(seed))

    classes, counts = np.unique(y, return_counts=True)
    test_folds: list[list[int]] = [[] for _ in range(k)]
    if counts.min() >= k and len(classes) > 1:
        for cls in classes:
            idx = np.flatnonzero(y == cls)
            rng.shuffle(idx)
            for i, chunk in enumerate(np.array_split(idx, k)):
                test_folds[i].extend(chunk.tolist())
    else:
        warnings.warn("too few rows of a class for stratification; using plain folds")
        idx = np.arange(n)
        rng.shuffle(idx)
        for i, chunk in enumerate(np.array_split(idx, k)):
            test_folds[i].extend(chunk.tolist())

    splits = []
    for i in range(k):
        test = np.array(sorted(test_folds[i]), dtype=int)
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        splits.append((np.flatnonzero(mask), test))
    return splits


# --- CSV persistence ---------------------------------------------------------

def write_feature_csv(path: str | Path, table: FeatureTable, meta: dict | None = None):
    _write_csv(path, table.schema.column_names, table.rows, meta)


def write_labeled_csv(path: str | Path, ds: LabeledDataset, meta: dict | None = None):
    header = ds.schema.column_names + [LABEL_COLUMN, CATEGORY_COLUMN]
    rows = [
        row + [lab, cat]
        for row, lab, cat in zip(ds.table.rows, ds.labels, ds.categories)
    ]
    _write_csv(path, header, rows, meta)


def _write_csv(path: str | Path, header: list[str], rows: list[list], meta: dict | None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if meta:
            fh.write(meta_line(meta) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def _read_csv(path: str | Path) -> tuple[list[str], list[list], dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        meta: dict = {}
        if first.startswith("#"):
            meta = parse_meta_line(first)
            first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: empty CSV")
        reader = csv.reader([first.rstrip("\n")])
        header = next(reader)
        rows = [[parse_value(cell) for cell in row] for row in csv.reader(fh)]
    return header, rows, meta


def _schema_for_header(header: list[str]) -> tuple[FeatureSchema, bool]:
    """Match a CSV header against the bundled schemas (full or learnable-only,
    optionally with trailing label columns). Returns (schema, labeled)."""
    for name in (NETFLOW_V2, CIC):
        schema = load_schema(name)
        for candidate in (schema, schema.learnable_only()):
            cols = candidate.column_names
            if header == cols:
                return candidate, False
            if header == cols + [LABEL_COLUMN, CATEGORY_COLUMN]:
                return candidate, True
    raise SchemaError("CSV header does not match any known schema")


def read_feature_csv(path: str | Path) -> tuple[FeatureTable, dict]:
    header, rows, meta = _read_csv(path)
    schema, labeled = _schema_for_header(header)
    if labeled:
        raise SchemaError(f"{path}: labeled CSV passed where features expected")
    return FeatureTable(schema, rows), meta


def read_labeled_csv(path: str | Path) -> tuple[LabeledDataset, dict]:
    header, rows, meta = _read_csv(path)
    schema, labeled = _schema_for_header(header)
    if not labeled:
        raise SchemaError(f"{path}: CSV has no {LABEL_COLUMN}/{CATEGORY_COLUMN} columns")
    table = FeatureTable(schema, [row[:-2] for row in rows])
    labels = [int(row[-2]) for row in rows]
    categories = [str(row[-1]) for row in rows]
    return LabeledDataset(table, labels, categories), meta


def read_events_csv(path: str | Path) -> list[GroundTruthEvent]:
    """Ground truth CSV: src_ip,dst_ip,protocol,start_ts,end_ts,category.
    Empty cells are wildcards; timestamps are integer microseconds."""
    header, rows, _ = _read_csv(path)
    expected = ["src_ip", "dst_ip", "protocol", "start_ts", "end_ts", "category"]
    if header != expected:
        raise SchemaError(f"{path}: ground truth header must be {expected}")
    events = []
    for row in rows:
        src, dst, proto, start, end, cat = (str(c) if c != "" else "" for c in row)
        events.append(
            GroundTruthEvent(
                src_ip=src or None,
                dst_ip=dst or None,
                protocol=int(proto) if proto else None,
                start_ts=int(start),
                end_ts=int(end),
                category=cat,
            )
        )
    return events


def write_events_csv(path: str | Path, events: list[GroundTruthEvent], meta: dict | None = None):
    header = ["src_ip", "dst_ip", "protocol", "start_ts", "end_ts", "category"]
    rows = [
        [
            ev.src_ip or "",
            ev.dst_ip or "",
            "" if ev.protocol is None else ev.protocol,
            ev.start_ts,
            ev.end_ts,
            ev.category,
        ]
        for ev in events
    ]
    _write_csv(path, header, rows, meta)
