"""Table linearization: closed vocabulary, token schemes T0/T1/T2, and positional ids.

The three schemes share the same layout skeleton (question tokens, SEP, table
side) and differ only in which structural markers are emitted:

  T0  no markers; header cells then data cells row-major, joined with SEP
  T1  header cells SEP-joined, then per data row an indexed [ROW r] marker and
      per cell a [CELL] marker followed by the cell's content tokens
  T2  [TAB], then per column [COL] + header content, then per data row [ROW]
      and per cell [CELL] + content

Every token carries parallel channels: role, row_idx, col_idx, cell_ord,
segment, and (after assign_positions) pos_idx.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .core import PE_SCHEMES, TOKEN_SCHEMES, FactorConfig, Table, ValidationError

logger = logging.getLogger(__name__)

MAX_INDEXED_ROWS = 64  # T1 has one indexed token per data row
MAX_COLUMNS = 16       # column-name symbols c1..c16

SQL_KEYWORDS = (
    "select", "where", "from", "table", "and", "or", "in", "limit",
    "=", "!=", "(", ")", ",",
)

# row_idx convention: 0 for tokens outside the table AND for the header row
# (header tokens are told apart by role/col_idx); data rows are 1..R.
HEADER_ROW = 0


class TokenRole(IntEnum):
    QUESTION = 0
    TABLE_TOK = 1
    ROW_TOK = 2
    COL_TOK = 3
    CELL_TOK = 4
    CELL_CONTENT = 5
    BOUNDARY = 6


STRUCTURAL_ROLES = frozenset(
    {TokenRole.TABLE_TOK, TokenRole.ROW_TOK, TokenRole.COL_TOK, TokenRole.CELL_TOK}
)

_TOKEN_RE = re.compile(r"!=|[=(),]|[^\s=!(),]+")


class TruncationError(ValidationError):
    """Input longer than the allowed context; carries the required length."""

    def __init__(self, required: int, limit: int):
        super().__init__(f"encoding needs {required} tokens but the limit is {limit}")
        self.required = required
        self.limit = limit

    def __reduce__(self):
        return type(self), (self.required, self.limit)


class Vocabulary:
    """Closed symbol set with a fixed, contiguous id assignment (PAD = 0).

    Numbers are always tokenized digit by digit; any word outside the set maps
    to UNK.
    """

    def __init__(self) -> None:
        symbols = ["PAD", "BOS", "EOS", "SEP", "UNK", "[TAB]", "[ROW]", "[COL]", "[CELL]"]
        symbols += [f"[ROW {n}]" for n in range(1, MAX_INDEXED_ROWS + 1)]
        symbols += [str(d) for d in range(10)]
        symbols += list(SQL_KEYWORDS)
        symbols += [f"c{n}" for n in range(1, MAX_COLUMNS + 1)]
        self._symbols = tuple(symbols)
        self._ids = {s: i for i, s in enumerate(symbols)}
        if len(self._ids) != len(symbols):
            raise AssertionError("duplicate vocabulary symbol")
        self.pad = self._ids["PAD"]
        self.bos = self._ids["BOS"]
        self.eos = self._ids["EOS"]
        self.sep = self._ids["SEP"]
        self.unk = self._ids["UNK"]

    @property
    def size(self) -> int:
        return len(self._symbols)

    def id(self, symbol: str) -> int | None:
        return self._ids.get(symbol)

    def symbol(self, token_id: int) -> str:
        return self._symbols[token_id]

    def row_token(self, n: int) -> int:
        if not (1 <= n <= MAX_INDEXED_ROWS):
            raise ValidationError(f"indexed row tokens cover 1..{MAX_INDEXED_ROWS}, got {n}")
        return self._ids[f"[ROW {n}]"]

    def piece_ids(self, piece: str) -> tuple[list[int], int]:
        """Map one whitespace-free piece to ids; returns (ids, n_unk)."""
        if piece.isdigit():
            return [self._ids[d] for d in piece], 0
        known = self._ids.get(piece)
        if known is not None:
            return [known], 0
        return [self.unk], 1

    @staticmethod
    def split_text(text: str) -> list[str]:
        """Split a query or cell string into vocabulary-shaped pieces."""
        return _TOKEN_RE.findall(text)


_DEFAULT_VOCAB: Vocabulary | None = None


def default_vocab() -> Vocabulary:
    global _DEFAULT_VOCAB
    if _DEFAULT_VOCAB is None:
        _DEFAULT_VOCAB = Vocabulary()
    return _DEFAULT_VOCAB


@dataclass(frozen=True)
class EncodedInput:
    """Parallel channels of one linearized (question, table) pair.

    pos_idx is None until assign_positions has run; all other channels are
    fixed at linearization time. Arrays are int32 and should be treated as
    immutable.
    """

    token_ids: np.ndarray
    roles: np.ndarray
    row_idx: np.ndarray
    col_idx: np.ndarray
    cell_ord: np.ndarray
    segment: np.ndarray
    pos_idx: np.ndarray | None
    tokens_scheme: str
    pe_scheme: str | None
    n_rows: int
    n_cols: int
    question_len: int
    unk_count: int

    def __len__(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def length(self) -> int:
        return len(self)


class _Builder:
    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.ids: list[int] = []
        self.roles: list[int] = []
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.ords: list[int] = []
        self.segs: list[int] = []
        self.unk = 0

    def emit(self, token_id: int, role: TokenRole, row=0, col=0, ord_=0, seg=1) -> None:
        self.ids.append(token_id)
        self.roles.append(int(role))
        self.rows.append(row)
        self.cols.append(col)
        self.ords.append(ord_)
        self.segs.append(seg)

    def emit_text(self, text: str, role: TokenRole, row=0, col=0, seg=1) -> None:
        # cell_ord counts positions within a cell; it stays 0 for non-cell tokens
        in_cell = role == TokenRole.CELL_CONTENT
        k = 0
        for piece in Vocabulary.split_text(text):
            ids, n_unk = self.vocab.piece_ids(piece)
            self.unk += n_unk
            for tid in ids:
                self.emit(tid, role, row, col, k if in_cell else 0, seg)
                k += 1

    def emit_cell(self, text: str, row: int, col: int) -> None:
        self.emit_text(text, TokenRole.CELL_CONTENT, row, col)


def linearize(
    question: str,
    table: Table,
    scheme: str,
    vocab: Vocabulary | None = None,
    max_len: int | None = None,
) -> EncodedInput:
    """Linearize (question, table) under a token scheme; positions unassigned."""
    if scheme not in TOKEN_SCHEMES:
        raise ValidationError(f"unknown token scheme {scheme!r}")
    if table.n_cols > MAX_COLUMNS:
        raise ValidationError(f"at most {MAX_COLUMNS} columns supported, got {table.n_cols}")
    if scheme == "T1" and table.n_rows > MAX_INDEXED_ROWS:
        raise ValidationError(
            f"T1 indexes rows with dedicated tokens and supports at most "
            f"{MAX_INDEXED_ROWS} data rows, got {table.n_rows}"
        )
    vocab = vocab or default_vocab()
    b = _Builder(vocab)

    b.emit_text(question, TokenRole.QUESTION, seg=0)
    question_len = len(b.ids)
    b.emit(vocab.sep, TokenRole.BOUNDARY)

    if scheme == "T0":
        cells = [(HEADER_ROW, c + 1, h) for c, h in enumerate(table.headers)]
        cells += [
            (r + 1, c + 1, cell)
            for r, row in enumerate(table.rows)
            for c, cell in enumerate(row)
        ]
        for i, (r, c, text) in enumerate(cells):
            if i > 0:
                b.emit(vocab.sep, TokenRole.BOUNDARY)
            b.emit_cell(text, r, c)
    elif scheme == "T1":
        for c, h in enumerate(table.headers):
            if c > 0:
                b.emit(vocab.sep, TokenRole.BOUNDARY)
            b.emit_cell(h, HEADER_ROW, c + 1)
        for r, row in enumerate(table.rows, start=1):
            b.emit(vocab.row_token(r), TokenRole.ROW_TOK, row=r)
            for c, cell in enumerate(row, start=1):
                b.emit(vocab.id("[CELL]"), TokenRole.CELL_TOK, row=r, col=c)
                b.emit_cell(cell, r, c)
    else:  # T2
        b.emit(vocab.id("[TAB]"), TokenRole.TABLE_TOK)
        for c, h in enumerate(table.headers, start=1):
            b.emit(vocab.id("[COL]"), TokenRole.COL_TOK, col=c)
            b.emit_cell(h, HEADER_ROW, c)
        for r, row in enumerate(table.rows, start=1):
            b.emit(vocab.id("[ROW]"), TokenRole.ROW_TOK, row=r)
            for c, cell in enumerate(row, start=1):
                b.emit(vocab.id("[CELL]"), TokenRole.CELL_TOK, row=r, col=c)
                b.emit_cell(cell, r, c)

    length = len(b.ids)
    if max_len is not None and length > max_len:
        raise TruncationError(required=length, limit=max_len)
    if b.unk:
        logger.warning("linearize: %d token(s) outside the vocabulary mapped to UNK", b.unk)

    as_arr = lambda xs: np.asarray(xs, dtype=np.int32)
    return EncodedInput(
        token_ids=as_arr(b.ids),
        roles=as_arr(b.roles),
        row_idx=as_arr(b.rows),
        col_idx=as_arr(b.cols),
        cell_ord=as_arr(b.ords),
        segment=as_arr(b.segs),
        pos_idx=None,
        tokens_scheme=scheme,
        pe_scheme=None,
        n_rows=table.n_rows,
        n_cols=table.n_cols,
        question_len=question_len,
        unk_count=b.unk,
    )


def assign_positions(enc: EncodedInput, scheme: str) -> EncodedInput:
    """Return a copy of enc with pos_idx filled under TPE or CPE.

    TPE numbers every token 0..L-1. CPE restarts at 0 at index 0, at every
    structural or boundary token, and at every cell's first content token;
    within a run it increments by 1 (the question is a single run).
    """
    if scheme not in PE_SCHEMES:
        raise ValidationError(f"unknown positional scheme {scheme!r}")
    L = len(enc)
    if scheme == "TPE":
        pos = np.arange(L, dtype=np.int32)
    else:
        restart = np.isin(enc.roles, [TokenRole.BOUNDARY, *STRUCTURAL_ROLES])
        restart |= (enc.roles == TokenRole.CELL_CONTENT) & (enc.cell_ord == 0)
        idx = np.arange(L, dtype=np.int32)
        # distance back to the latest restart at or before each token; the
        # fill value 0 makes index 0 a restart
        pos = idx - np.maximum.accumulate(np.where(restart, idx, 0))
    return replace(enc, pos_idx=pos, pe_scheme=scheme)


def encode_input(
    question: str,
    table: Table,
    factor: FactorConfig,
    vocab: Vocabulary | None = None,
    max_len: int | None = None,
) -> EncodedInput:
    """linearize + assign_positions for a factor configuration."""
    return assign_positions(linearize(question, table, factor.tokens, vocab, max_len), factor.pe)


ROLE_NAMES = {
    TokenRole.QUESTION: "question",
    TokenRole.TABLE_TOK: "table",
    TokenRole.ROW_TOK: "row",
    TokenRole.COL_TOK: "col",
    TokenRole.CELL_TOK: "cell",
    TokenRole.CELL_CONTENT: "content",
    TokenRole.BOUNDARY: "boundary",
}


def encoding_rows(enc: EncodedInput, vocab: Vocabulary | None = None):
    """Yield (index, symbol, role, row, col, cell_ord, segment, pos) tuples."""
    vocab = vocab or default_vocab()
    for i in range(len(enc)):
        pos = int(enc.pos_idx[i]) if enc.pos_idx is not None else -1
        yield (
            i,
            vocab.symbol(int(enc.token_ids[i])),
            ROLE_NAMES[TokenRole(int(enc.roles[i]))],
            int(enc.row_idx[i]),
            int(enc.col_idx[i]),
            int(enc.cell_ord[i]),
            int(enc.segment[i]),
            pos,
        )


def symbols(enc: EncodedInput, vocab: Vocabulary | None = None) -> list[str]:
    vocab = vocab or default_vocab()
    return [vocab.symbol(int(t)) for t in enc.token_ids]
