"""Shared domain types, the factor grid, seeded RNG streams, JSONL io, and
the TABENC_THREADS parser and run-time BLAS thread setter.

This module loads no numpy at import: the command line imports it before it
applies TABENC_THREADS, which only takes effect if numpy is not loaded yet.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

# The factor grid, in grid order: results-CSV column -> (FactorConfig field,
# levels). The field name is also the command-line flag (--tokens, ...).
FACTORS = {
    "T": ("tokens", ("T0", "T1", "T2")),
    "M": ("mask", ("M0", "M1", "M2", "M3", "M4", "M5", "M6")),
    "PE": ("pe", ("TPE", "CPE")),
    "B": ("bias", ("B0", "B1")),
    "E": ("emb", ("E0", "E1")),
}
TOKEN_SCHEMES, MASK_SCHEMES, PE_SCHEMES, BIAS_SETTINGS, EMB_SETTINGS = (
    levels for _field, levels in FACTORS.values()
)

# masks that route attention through [TAB]/[ROW]/[COL]/[CELL] markers, hence need T2
STRUCTURAL_MASKS = frozenset({"M4", "M5", "M6"})


class TabencError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(TabencError):
    """A domain object or a factor combination failed validation."""


@dataclass(frozen=True)
class Table:
    """Rectangular grid of non-empty cell strings with a single header row.

    Cells are kept as strings; numeric interpretation is left to consumers.
    """

    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        headers = tuple(str(h) for h in self.headers)
        rows = tuple(tuple(str(c) for c in row) for row in self.rows)
        object.__setattr__(self, "headers", headers)
        object.__setattr__(self, "rows", rows)
        if not headers:
            raise ValidationError("table needs at least one column")
        if not rows:
            raise ValidationError("table needs at least one data row")
        width = len(headers)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValidationError(
                    f"row {i} has {len(row)} cells, expected {width}"
                )
        for cell in headers + tuple(c for row in rows for c in row):
            if cell == "":
                raise ValidationError("empty cell strings are not allowed")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    def column_index(self, name: str) -> int:
        try:
            return self.headers.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None

    def column(self, name: str) -> tuple[str, ...]:
        j = self.column_index(name)
        return tuple(row[j] for row in self.rows)

    def to_json(self) -> dict:
        return {"header": list(self.headers), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "Table":
        return cls(tuple(obj["header"]), tuple(tuple(r) for r in obj["rows"]))


@dataclass(frozen=True)
class QAExample:
    """One benchmark item: a table, a query string, and the gold denotation.

    The answer is an ordered list of value strings (table-row order); multiset
    semantics are applied at scoring time, not here.
    """

    table: Table
    query: str
    answer: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "answer", tuple(str(a) for a in self.answer))

    def to_json(self) -> dict:
        # key order is part of the on-disk contract (byte-stable golden files)
        return {"table": self.table.to_json(), "query": self.query, "answer": list(self.answer)}

    @classmethod
    def from_json(cls, obj: dict) -> "QAExample":
        return cls(Table.from_json(obj["table"]), str(obj["query"]), tuple(obj["answer"]))


@dataclass(frozen=True)
class FactorConfig:
    """One point of the factor grid: tokens x mask x positions x bias x embeddings."""

    tokens: str = TOKEN_SCHEMES[0]
    mask: str = MASK_SCHEMES[0]
    pe: str = PE_SCHEMES[0]
    bias: str = BIAS_SETTINGS[0]
    emb: str = EMB_SETTINGS[0]

    def __post_init__(self) -> None:
        for field_name, allowed in FACTORS.values():
            value = getattr(self, field_name)
            if value not in allowed:
                raise ValidationError(f"{field_name}={value!r} not in {allowed}")
        if not is_legal_combination(self.tokens, self.mask):
            raise ValidationError(
                f"mask {self.mask} relies on structural marker tokens and is only "
                f"defined for T2 inputs (got tokens={self.tokens})"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "FactorConfig":
        return cls(**{k: obj[k] for k, _levels in FACTORS.values() if k in obj})

    def csv_fields(self) -> dict:
        """The levels keyed by results-CSV column, in FACTORS order."""
        return {column: getattr(self, k) for column, (k, _levels) in FACTORS.items()}

    @property
    def key(self) -> str:
        """The levels in FACTORS order joined by "/", e.g. T2/M5/CPE/B1/E1."""
        return "/".join(self.csv_fields().values())

    @staticmethod
    def parse_key(text: str) -> tuple[str, ...]:
        """The levels of a key, in FACTORS order; only their number is checked."""
        parts = tuple(text.strip().split("/"))
        if len(parts) != len(FACTORS):
            raise ValidationError(f"config must look like T0/M1/TPE/B0/E1, got {text!r}")
        return parts

    @classmethod
    def from_key(cls, text: str) -> "FactorConfig":
        return cls(*cls.parse_key(text))


def is_legal_combination(tokens: str, mask: str) -> bool:
    """The one cross-factor rule: masks M4-M6 need T2 inputs."""
    return not (mask in STRUCTURAL_MASKS and tokens != "T2")


@dataclass(frozen=True)
class Seed:
    """Master seed for an experiment; substreams are addressed by (tag, index).

    Streams derived from distinct (tag, index) labels are statistically
    independent and reproducible across platforms (counter-based generator,
    fixed key derivation, fixed byte order).
    """

    master: int

    def __post_init__(self) -> None:
        if not (0 <= int(self.master) < 2**64):
            raise ValidationError("seed master must be a 64-bit unsigned integer")
        object.__setattr__(self, "master", int(self.master))


def derive_rng(seed: Seed | int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the RNG stream for (seed, tag, index).

    The Philox key is blake2b(master || tag || index), so streams never
    overlap and the mapping is stable across runs, platforms, and process
    counts.
    """
    # imported here, not at the top, so that importing core leaves numpy
    # unloaded until the command line has applied TABENC_THREADS
    import numpy as np

    master = seed.master if isinstance(seed, Seed) else Seed(seed).master
    if index < 0:
        raise ValidationError("stream index must be non-negative")
    material = (
        master.to_bytes(8, "little")
        + tag.encode("utf-8")
        + int(index).to_bytes(8, "little")
    )
    digest = hashlib.blake2b(material, digest_size=16).digest()
    key = int.from_bytes(digest, "little")
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(master: int, tag: str) -> int:
    """A 64-bit seed for (master, tag): an 8-byte blake2b(master || tag). Grid
    data files and runs are seeded this way, so it must never change."""
    material = int(master).to_bytes(8, "little", signed=False) + tag.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "little")


def env_threads() -> int | None:
    """The BLAS thread count TABENC_THREADS asks for, or None when it is
    unset; a value that is not an integer >= 1 raises ValidationError."""
    raw = os.environ.get("TABENC_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"TABENC_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValidationError(f"TABENC_THREADS must be >= 1, got {n}")
    return n


def set_blas_threads(n: int) -> int | None:
    """Set the thread count of the OpenBLAS that a loaded numpy bundles
    (numpy.libs) through its exported scipy_openblas_set_num_threads64_, and
    return the count it had before (scipy_openblas_get_num_threads64_).
    Nothing happens, and None is returned, without numpy loaded or without
    such a library or symbols."""
    import ctypes

    if "numpy" not in sys.modules:
        return None
    libs = Path(sys.modules["numpy"].__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            getter = lib.scipy_openblas_get_num_threads64_
            setter = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        before = getter()
        setter(n)
        return before
    return None


def example_to_line(example: QAExample) -> str:
    return json.dumps(example.to_json(), ensure_ascii=False)


def write_jsonl(examples: Iterable[QAExample], path: str | Path) -> int:
    """Write examples one JSON object per line; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ex in examples:
            fh.write(example_to_line(ex))
            fh.write("\n")
            n += 1
    return n


@contextmanager
def open_text(path: str | Path, newline: str | None = None):
    """The UTF-8 text file at `path`, open for reading. Bytes that are not
    UTF-8 raise ValidationError naming the path and their line."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:  # its position is the file's, not a chunk's
                line = data.count(b"\n", 0, exc.start) + 1
                raise ValidationError(f"{path}:{line}: not UTF-8 text ({exc})") from None
            raise


def read_jsonl(path: str | Path) -> list[QAExample]:
    return [ex for _line_no, ex in iter_jsonl(path)]


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, QAExample]]:
    """(line number, example) for every non-blank line of a JSONL file."""
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, QAExample.from_json(json.loads(line))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValidationError(f"{path}:{line_no}: bad example line: {exc}") from exc
