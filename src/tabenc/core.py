"""Shared domain types, factor-grid validation, seeded RNG streams, and JSONL io."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

TOKEN_SCHEMES = ("T0", "T1", "T2")
MASK_SCHEMES = ("M0", "M1", "M2", "M3", "M4", "M5", "M6")
PE_SCHEMES = ("TPE", "CPE")
BIAS_SETTINGS = ("B0", "B1")
EMB_SETTINGS = ("E0", "E1")

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

    tokens: str = "T0"
    mask: str = "M0"
    pe: str = "TPE"
    bias: str = "B0"
    emb: str = "E0"

    def __post_init__(self) -> None:
        checks = (
            ("tokens", self.tokens, TOKEN_SCHEMES),
            ("mask", self.mask, MASK_SCHEMES),
            ("pe", self.pe, PE_SCHEMES),
            ("bias", self.bias, BIAS_SETTINGS),
            ("emb", self.emb, EMB_SETTINGS),
        )
        for field_name, value, allowed in checks:
            if value not in allowed:
                raise ValidationError(f"{field_name}={value!r} not in {allowed}")
        if self.mask in STRUCTURAL_MASKS and self.tokens != "T2":
            raise ValidationError(
                f"mask {self.mask} relies on structural marker tokens and is only "
                f"defined for T2 inputs (got tokens={self.tokens})"
            )

    def to_dict(self) -> dict:
        return {
            "tokens": self.tokens,
            "mask": self.mask,
            "pe": self.pe,
            "bias": self.bias,
            "emb": self.emb,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FactorConfig":
        return cls(**{k: obj[k] for k in ("tokens", "mask", "pe", "bias", "emb") if k in obj})

    def csv_fields(self) -> dict:
        """Field names used by the results CSV schema (T,M,PE,B,E)."""
        return {"T": self.tokens, "M": self.mask, "PE": self.pe, "B": self.bias, "E": self.emb}


def is_legal_combination(tokens: str, mask: str) -> bool:
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


def read_jsonl(path: str | Path) -> list[QAExample]:
    return [ex for _line_no, ex in iter_jsonl(path)]


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, QAExample]]:
    """(line number, example) for every non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, QAExample.from_json(json.loads(line))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValidationError(f"{path}:{line_no}: bad example line: {exc}") from exc
