"""Feature schemas as data: ordered, named column lists loaded from manifests.

The two shipped schemas, ``netflow_v2_style`` and ``cic_style``, are defined
by versioned TSV manifest files bundled with the package. The manifest is the
single source of truth for column order; adding a column never changes code
paths, only the manifest and the corresponding entry in the feature builder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources

IDENTIFIER = "identifier"
LEARNABLE = "learnable"

NETFLOW_V2 = "netflow_v2_style"
CIC = "cic_style"

_MANIFEST_FILES = {
    NETFLOW_V2: "netflow_v2.tsv",
    CIC: "cic.tsv",
}


class SchemaError(ValueError):
    """Raised for malformed manifests or schema misuse."""


# Errors of the model modules live here, in a module without numpy, so that
# the CLI can catch them without importing those modules.
class FingerprintMismatch(ValueError):
    """Model and data were built against different feature columns."""


class ModelFormatError(ValueError):
    """A model file that cannot be read back as a flowlens model."""


@dataclass(frozen=True)
class ColumnDef:
    name: str
    kind: str  # identifier | learnable
    unit: str


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column list with per-column kind (identifier vs learnable)."""

    name: str
    version: int
    columns: tuple[ColumnDef, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema {self.name!r}")
        for c in self.columns:
            if c.kind not in (IDENTIFIER, LEARNABLE):
                raise SchemaError(f"unknown column kind {c.kind!r} for {c.name!r}")

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def identifier_names(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == IDENTIFIER]

    @property
    def learnable_names(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == LEARNABLE]

    @property
    def learnable_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.kind == LEARNABLE]

    def width(self) -> int:
        return len(self.columns)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"schema {self.name!r} has no column {name!r}")

    def learnable_only(self) -> "FeatureSchema":
        """Schema containing only the learnable columns, order preserved."""
        cols = tuple(c for c in self.columns if c.kind == LEARNABLE)
        return FeatureSchema(self.name, self.version, cols)

    def fingerprint(self) -> str:
        """Hash of the learnable column names, in order.

        Trained models store this so that a model and a dataset can be
        checked for column compatibility before prediction or explanation.
        """
        joined = "\n".join(self.learnable_names)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _parse_manifest(text: str, fallback_name: str) -> FeatureSchema:
    name = fallback_name
    version = 1
    cols: list[ColumnDef] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("name:"):
                name = body.split(":", 1)[1].strip()
            elif body.startswith("version:"):
                version = int(body.split(":", 1)[1].strip())
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SchemaError(f"manifest line {lineno}: expected 3 tab-separated fields")
        cols.append(ColumnDef(parts[0], parts[1], parts[2]))
    if not cols:
        raise SchemaError("manifest defines no columns")
    return FeatureSchema(name, version, tuple(cols))


def load_schema(name: str) -> FeatureSchema:
    """Load one of the bundled schemas by name (or short alias)."""
    alias = {"netflow_v2": NETFLOW_V2, "cic": CIC}
    key = alias.get(name, name)
    if key not in _MANIFEST_FILES:
        raise SchemaError(f"unknown schema {name!r}; known: {sorted(_MANIFEST_FILES)}")
    ref = resources.files("flowlens.schemas").joinpath(_MANIFEST_FILES[key])
    return _parse_manifest(ref.read_text(encoding="utf-8"), key)
