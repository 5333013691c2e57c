"""Dataset plumbing: labeling from ground-truth events, identifier dropping,
min-max scaling, stratified k-fold splits, and CSV persistence.

All operations are pure transforms. Every CSV flowlens writes or reads back
(feature, labeled, ground truth, report, ranking) goes through
:func:`write_csv` and :func:`open_csv` / :func:`typed_columns`: UTF-8 with
LF endings, one optional ``#`` provenance line, a header, and typed columns.
A :class:`FeatureTable` keeps the typed columns as they were read.
:func:`read_labeled_matrix` reads the same labeled files for model stages,
parsing their numbers with ``np.loadtxt`` where that decides as the typed
reader does.

Numpy is imported only by the code that builds matrices
(:meth:`FeatureTable.learnable_matrix`, ``LabeledDataset.X``/``y``,
:func:`read_labeled_matrix`, :class:`MinMaxScaler`, :func:`kfold_split`), so
reading, labeling and writing tables runs without it.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from .schema import CIC, NETFLOW_V2, FeatureSchema, SchemaError, load_schema
from .util import format_value, meta_line, parse_meta_line

if TYPE_CHECKING:
    import numpy as np

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
    """Feature values aligned to a schema: one typed list per schema column,
    one entry per flow."""

    schema: FeatureSchema
    columns: list[list]

    def __post_init__(self):
        if len(self.columns) != self.schema.width():
            raise SchemaError(
                f"table has {len(self.columns)} columns, schema expects {self.schema.width()}"
            )
        if len({len(column) for column in self.columns}) > 1:
            raise SchemaError("table columns differ in length")

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def learnable_matrix(self) -> np.ndarray:
        import numpy as np

        idx = self.schema.learnable_indices
        matrix = np.empty((len(self), len(idx)))
        for k, j in enumerate(idx):
            matrix[:, k] = self.columns[j]
        return matrix


@dataclass
class LabeledDataset:
    """Feature table plus per-row binary label and category string."""

    table: FeatureTable
    labels: list[int]
    categories: list[str]

    def __post_init__(self):
        n = len(self.table)
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
        import numpy as np

        return np.array(self.labels, dtype=int)


@dataclass
class LabeledMatrix:
    """What fitting, scoring and explaining a model read of a labeled table:
    the learnable columns as one float64 matrix and the 0/1 labels. ``X()``
    and ``y()`` equal those of the :class:`LabeledDataset` of the same rows."""

    schema: FeatureSchema
    matrix: np.ndarray
    labels: np.ndarray

    def X(self) -> np.ndarray:
        return self.matrix

    def y(self) -> np.ndarray:
        return self.labels


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
        if self.start_ts != int(self.start_ts) or self.end_ts != int(self.end_ts):
            raise ValueError("event timestamps must be whole microseconds")
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
    columns = [table.columns[table.schema.index_of(name)] for name in view[:5]]
    dur_us = view[5]
    labels, categories = [], []
    for src, dst, proto, ts, dur in zip(*columns):
        first = int(ts)
        # Durations are whole units rounded down: end at the last unit's end,
        # so the rebuilt interval holds the true one (exact for 1 us units).
        last = first + int(dur) * dur_us + dur_us - 1
        cat = _first_match(events, str(src), str(dst), int(proto), first, last, stats)
        categories.append(cat)
        labels.append(0 if cat == BENIGN else 1)
    return LabeledDataset(table, labels, categories)


# --- preprocessing ----------------------------------------------------------

def drop_identifiers(ds: LabeledDataset) -> LabeledDataset:
    """Remove identifier columns; survivor order is preserved exactly."""
    columns = [list(ds.table.columns[j]) for j in ds.schema.learnable_indices]
    return LabeledDataset(FeatureTable(ds.schema.learnable_only(), columns),
                          list(ds.labels), list(ds.categories))


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

    def _halved(self):
        """Per column, the factor its values are scaled by before the min is
        subtracted, the min so scaled, and the span. The factor is 0.5 where
        ``maxs - mins`` overflows, which leaves the span finite; halving is
        exact for normal floats. Elsewhere it is 1.0, which changes no bit."""
        import numpy as np

        with np.errstate(over="ignore"):
            h = np.where(np.isinf(self.maxs - self.mins), 0.5, 1.0)
        mins = self.mins * h
        return h, mins, self.maxs * h - mins

    def transform(self, rows: np.ndarray) -> np.ndarray:
        import numpy as np

        h, mins, span = self._halved()
        safe = np.where(span == 0, 1.0, span)
        # One output buffer, worked on in place; ``rows`` is not changed.
        out = rows * h
        with np.errstate(over="ignore"):  # a quotient past the float range clips to 1
            out -= mins
            out /= safe
        out[..., span == 0] = 0.0  # constant columns map to 0
        return np.clip(out, 0.0, 1.0, out=out)

    def transform_row(self, row) -> list[float]:
        """Single-sample path: plain Python beats array overhead at this width."""
        params = getattr(self, "_row_params", None)
        if params is None:
            h, mins, span = self._halved()
            params = (list(zip(mins.tolist(), span.tolist())),
                      h.tolist() if (h != 1.0).any() else None)
            self._row_params = params
        columns, h = params
        if len(row) != len(columns):
            raise ValueError(f"expected {len(columns)} values, got {len(row)}")
        if h is not None:
            row = [v * f for v, f in zip(row, h)]
        out = []
        for v, (mn, span) in zip(row, columns):
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

    Every class needs at least k rows: with fewer, some test fold would hold
    none of that class, and its AUC would be undefined.
    """
    import numpy as np

    y = np.asarray(labels, dtype=int)
    n = len(y)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} rows")
    rng = np.random.Generator(np.random.PCG64(seed))

    classes, counts = np.unique(y, return_counts=True)
    if counts.min() < k:
        rare = int(counts.argmin())
        raise ValueError(f"class {classes[rare]} has {counts[rare]} rows, "
                         f"fewer than k={k} folds")
    groups = [np.flatnonzero(y == c) for c in classes]
    test_folds: list[list[int]] = [[] for _ in range(k)]
    for idx in groups:
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

def write_feature_csv(path: str | Path, schema: FeatureSchema, rows: Iterable[list],
                      meta: dict | None = None):
    """Feature rows, one per flow, each aligned to ``schema``."""
    write_csv(path, schema.column_names, rows, meta)


def write_labeled_csv(path: str | Path, ds: LabeledDataset, meta: dict | None = None):
    header = ds.schema.column_names + [LABEL_COLUMN, CATEGORY_COLUMN]
    write_csv(path, header, zip(*ds.table.columns, ds.labels, ds.categories), meta)


# Rows formatted per writerows call: the cell strings of one block are alive
# at a time, never those of the whole table.
_WRITE_BLOCK_ROWS = 64


def write_csv(path: str | Path, header: list[str], rows: Iterable[list], meta: dict | None):
    """The provenance line (if ``meta``), the header, then each row's cells
    through :func:`format_value`; a string cell is written as it is."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if meta:
            fh.write(meta_line(meta) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        rows = iter(rows)
        while block := [list(map(format_value, row)) for row in islice(rows, _WRITE_BLOCK_ROWS)]:
            if "\r" in "".join(map("".join, block)):
                fh.writelines(map(_cr_quoted_line, block))
            else:
                writer.writerows(block)


def _cr_quoted_line(cells: list[str]) -> str:
    """One CSV line that quotes a cell holding a carriage return.

    ``csv.writer`` quotes a cell for the characters of its line terminator
    only; under ``"\n"`` a bare ``\r`` would reach the file unquoted and a
    reader would end the row there. Written under ``"\r\n"``, the line is the
    same except for that quoting and its terminator.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


@contextmanager
def _open_body(path: str | Path) -> Iterator[tuple[list[str], dict, TextIO]]:
    """The header, the fields of the provenance line, and the file, positioned
    at the first row. Bytes that are not UTF-8, or a line the csv module
    refuses, met here or while the caller reads the rows, are a
    :class:`SchemaError` naming the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            first = fh.readline()
            meta: dict = {}
            if first.startswith("#"):
                meta = parse_meta_line(first)
                first = fh.readline()
            if not first:
                raise SchemaError(f"{path}: empty CSV")
            header = next(csv.reader([first.rstrip("\n")]))
            yield header, meta, fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise SchemaError(f"{path}: malformed CSV: {exc}") from exc


@contextmanager
def open_csv(path: str | Path) -> Iterator[tuple[list[str], dict, Iterator[list[str]]]]:
    """The header, the fields of the provenance line, and a reader of the
    remaining rows as lists of cell strings."""
    with _open_body(path) as (header, meta, fh):
        yield header, meta, csv.reader(fh)


def check_widths(path: str | Path, header: list[str], rows: list[list[str]], first_row: int = 0):
    for r, row in enumerate(rows, first_row + 1):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {r} has {len(row)} cells, header has {len(header)}")


# From this magnitude on, a float no longer holds every integer exactly.
_FLOAT_EXACT = 2.0**53


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _parse_column(cells: tuple[str, ...]) -> list:
    """Ints if every cell is one; else numbers if every cell is one, with
    integral values as ints (as the writer wrote them); else the strings. A
    column reaching 2**53 is parsed cell by cell, so that its integer cells
    keep their exact value."""
    try:
        return list(map(int, cells))
    except ValueError:
        pass
    try:
        values = list(map(float, cells))
    except ValueError:
        return list(cells)
    if values and max(map(abs, values)) >= _FLOAT_EXACT:
        return [_number(c) for c in cells]
    return [int(v) if v.is_integer() else v for v in values]


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _number_column(path: str | Path, name: str, cells: tuple[str, ...], first_row: int) -> list:
    """A column that must hold finite numbers. Any other cell is an input
    error that names its row and column."""
    values = _parse_column(cells)
    try:
        if all(map(math.isfinite, values)):
            return values
    except (TypeError, OverflowError):  # a string, or an int past the float range
        pass
    r, cell = next((r, c) for r, c in enumerate(cells, first_row + 1)
                   if not _is_finite_number(c))
    raise SchemaError(f"{path}: row {r}, column {name!r}: {cell!r} is not a finite number")


# Rows parsed together: bounds how many cell strings are held at once.
_CHUNK_ROWS = 256


def _text_columns(schema: FeatureSchema) -> set[int]:
    return {j for j, c in enumerate(schema.columns) if c.unit == "text"}


def typed_columns(
    path: str | Path,
    header: list[str],
    reader: Iterator[list[str]],
    text: set[int],
) -> list[list]:
    """The cells of each column, typed a column at a time in chunks of rows:
    ``text`` columns stay strings, and every other column must hold finite
    numbers. A ragged row is a :class:`SchemaError` naming the file and row,
    a bad number one naming its row and column."""
    columns: list[list] = [[] for _ in header]
    done = 0  # rows read before this chunk
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        check_widths(path, header, chunk, done)
        for j, (column, cells) in enumerate(zip(columns, zip(*chunk))):
            column += cells if j in text else _number_column(path, header[j], cells, done)
        done += len(chunk)
    return columns


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
    with open_csv(path) as (header, meta, reader):
        schema, labeled = _schema_for_header(header)
        if labeled:
            raise SchemaError(f"{path}: labeled CSV passed where features expected")
        columns = typed_columns(path, header, reader, _text_columns(schema))
    return FeatureTable(schema, columns), meta


def read_labeled_csv(path: str | Path) -> tuple[LabeledDataset, dict]:
    with open_csv(path) as (header, meta, reader):
        schema, labeled = _schema_for_header(header)
        if not labeled:
            raise SchemaError(f"{path}: CSV has no {LABEL_COLUMN}/{CATEGORY_COLUMN} columns")
        # The label and category columns follow the schema's.
        *columns, labels, categories = typed_columns(
            path, header, reader, _text_columns(schema) | {schema.width() + 1})
    bad = next((r for r, v in enumerate(labels, 1) if v not in (0, 1)), None)
    if bad is not None:
        raise SchemaError(f"{path}: row {bad}, column {LABEL_COLUMN!r}: label must be 0 or 1")
    try:
        return LabeledDataset(FeatureTable(schema, columns), labels, categories), meta
    except ValueError as exc:  # a label that disagrees with its category
        raise SchemaError(f"{path}: {exc}") from exc


def read_labeled_matrix(path: str | Path) -> tuple[LabeledMatrix, dict]:
    """The labeled CSV at ``path`` as a model reads it, and its provenance:
    what :func:`read_labeled_csv` then ``X()`` and ``y()`` give, and the same
    errors.

    The numbers are parsed by ``np.loadtxt``'s C reader, which reads a subset
    of the cells :func:`typed_columns` reads, to the same values. Where it
    could decide otherwise, the file goes to :func:`read_labeled_csv`, which
    raises its error or returns its result: a body that is empty or holds a
    quote or a carriage return (the csv module splits those otherwise), and
    any row or cell that fails a check.
    """
    with _open_body(path) as (header, meta, fh):
        schema, labeled = _schema_for_header(header)
        try:
            body = fh.read() if labeled else ""
        except UnicodeDecodeError:
            body = ""
    matrix = _loadtxt_matrix(schema, body) if body else None
    if matrix is None:
        ds, meta = read_labeled_csv(path)
        matrix = LabeledMatrix(ds.schema, ds.X(), ds.y())
    return matrix, meta


def _loadtxt_matrix(schema: FeatureSchema, body: str) -> LabeledMatrix | None:
    """The rows of ``body`` through ``np.loadtxt``, or None wherever
    :func:`read_labeled_csv` could decide otherwise."""
    import numpy as np

    if '"' in body or "\r" in body:
        return None
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    # Unquoted, a csv row is its line split on ","; no cell of a line within
    # the csv module's field limit can exceed it. The label and category
    # columns follow the schema's.
    commas = schema.width() + 1
    if (any(line.count(",") != commas for line in lines)
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    learnable = schema.learnable_indices
    skip = _text_columns(schema).union(learnable)
    others = [j for j in range(schema.width()) if j not in skip]
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                            usecols=[*learnable, *others, schema.width()])
    except ValueError:  # a cell that is not a number to numpy
        return None
    # From 2**53 on, the typed reader keeps integers exact and the sign of a
    # float zero; the test also fails on NaN and infinities.
    if not (np.abs(values) < _FLOAT_EXACT).all():
        return None
    labels = values[:, -1]
    attack = np.array([line[line.rfind(",") + 1:] != BENIGN for line in lines])
    if not (labels == attack).all():  # a label not 0 or 1, or not its category's
        return None
    matrix = values[:, :len(learnable)].copy()
    matrix[matrix == 0] = 0.0  # below 2**53 the typed reader holds zero as int 0, never -0.0
    return LabeledMatrix(schema, matrix, labels.astype(int))


_EVENT_HEADER = ["src_ip", "dst_ip", "protocol", "start_ts", "end_ts", "category"]


def read_events_csv(path: str | Path) -> list[GroundTruthEvent]:
    """Ground truth CSV: src_ip,dst_ip,protocol,start_ts,end_ts,category.
    Empty address and protocol cells are wildcards; timestamps are integer
    microseconds. An event that does not parse is an input error naming its
    row."""
    with open_csv(path) as (header, _, reader):
        if header != _EVENT_HEADER:
            raise SchemaError(f"{path}: ground truth header must be {_EVENT_HEADER}")
        columns = typed_columns(path, header, reader, {0, 1, 2, 5})
    events = []
    for r, (src, dst, proto, start, end, cat) in enumerate(zip(*columns), 1):
        try:
            events.append(GroundTruthEvent(src or None, dst or None,
                                           int(proto) if proto else None, start, end, cat))
        except ValueError as exc:
            raise SchemaError(f"{path}: row {r}: {exc}") from exc
    return events


def write_events_csv(path: str | Path, events: list[GroundTruthEvent], meta: dict | None = None):
    rows = ([ev.src_ip or "", ev.dst_ip or "", "" if ev.protocol is None else ev.protocol,
             ev.start_ts, ev.end_ts, ev.category] for ev in events)
    write_csv(path, _EVENT_HEADER, rows, meta)
