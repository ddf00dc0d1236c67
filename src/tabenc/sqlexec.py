"""Tiny SQL subset over in-memory tables: parser, executor, and scoring.

Grammar (keywords case-insensitive, values are unsigned integers, cells are
compared as strings with no numeric coercion):

    query  := SELECT col [FROM TABLE] [WHERE cond] [LIMIT k]
    cond   := col IN ( value {, value} )          # 1..3 values
            | col = ( SELECT col WHERE col = value )
            | atom {(AND|OR) atom}                # 1..4 atoms
    atom   := col (= | !=) value

AND and OR have equal precedence and associate left to right (documented
convention; there is no precedence climbing). The denotation is the selected
column's values of matching rows in table order, truncated by LIMIT; it is an
ordered list here, with multiset (default) or set comparison applied at
scoring time.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import Table, ValidationError

KEYWORDS = frozenset({"select", "from", "table", "where", "and", "or", "in", "limit"})

MAX_CHAIN_ATOMS = 4
MAX_IN_VALUES = 3


class SqlSyntaxError(ValidationError):
    """Query text outside the grammar; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.reason = message
        self.offset = offset

    def __reduce__(self):
        return type(self), (self.reason, self.offset)


class ExecutionError(ValidationError):
    """Structurally valid query that cannot run against the given table."""


@dataclass(frozen=True)
class Atom:
    col: str
    op: str  # "=" or "!="
    value: str


@dataclass(frozen=True)
class WhereChain:
    atoms: tuple[Atom, ...]
    connectives: tuple[str, ...]  # len(atoms) - 1 entries of "and"/"or"


@dataclass(frozen=True)
class InCondition:
    col: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class SubqueryCondition:
    """col = (SELECT inner_select WHERE inner_where); matches by membership
    in the inner result, which for same-column instantiations is plain
    equality."""

    col: str
    inner_select: str
    inner_where: Atom


@dataclass(frozen=True)
class Query:
    select_col: str
    where: WhereChain | InCondition | SubqueryCondition | None = None
    limit: int | None = None
    has_from: bool = False


_LEX_RE = re.compile(r"\s*(!=|[=(),]|[A-Za-z_][A-Za-z_0-9]*|\d+)")


def _lex(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _LEX_RE.match(text, pos)
        if m is None or not m.group(1):
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise SqlSyntaxError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        tok = m.group(1)
        tokens.append((tok.lower() if tok.isalpha() else tok, m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0

    def _offset(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text)

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> str:
        if self.i >= len(self.tokens):
            raise SqlSyntaxError("unexpected end of query", len(self.text))
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, expected: str) -> None:
        tok = self.peek()
        if tok != expected:
            raise SqlSyntaxError(f"expected {expected!r}, got {tok!r}", self._offset())
        self.i += 1

    def column(self) -> str:
        tok = self.peek()
        if tok is None or tok in KEYWORDS or not re.fullmatch(r"[a-z_][a-z_0-9]*", tok):
            raise SqlSyntaxError(f"expected a column name, got {tok!r}", self._offset())
        self.i += 1
        return tok

    def number(self) -> str:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise SqlSyntaxError(f"expected a value, got {tok!r}", self._offset())
        self.i += 1
        return tok

    def parse(self) -> Query:
        self.expect("select")
        select_col = self.column()
        has_from = False
        if self.peek() == "from":
            self.i += 1
            self.expect("table")  # FROM admits only the literal table
            has_from = True
        where = None
        if self.peek() == "where":
            self.i += 1
            where = self.condition()
        limit = None
        if self.peek() == "limit":
            self.i += 1
            off = self._offset()
            limit = int(self.number())
            if limit < 1:
                raise SqlSyntaxError("limit must be at least 1", off)
        if self.i != len(self.tokens):
            raise SqlSyntaxError(f"trailing input {self.peek()!r}", self._offset())
        return Query(select_col, where, limit, has_from)

    def condition(self):
        col = self.column()
        nxt = self.peek()
        if nxt == "in":
            self.i += 1
            self.expect("(")
            values = [self.number()]
            while self.peek() == ",":
                self.i += 1
                values.append(self.number())
                if len(values) > MAX_IN_VALUES:
                    raise SqlSyntaxError(
                        f"IN lists carry at most {MAX_IN_VALUES} values", self._offset()
                    )
            self.expect(")")
            return InCondition(col, tuple(values))
        if nxt == "=" and self.i + 1 < len(self.tokens) and self.tokens[self.i + 1][0] == "(":
            self.i += 2
            self.expect("select")
            inner_select = self.column()
            self.expect("where")
            inner = self.atom_after_col(self.column())
            self.expect(")")
            if inner.op != "=":
                raise SqlSyntaxError("subqueries use equality only", self._offset())
            return SubqueryCondition(col, inner_select, inner)
        first = self.atom_after_col(col)
        atoms = [first]
        connectives: list[str] = []
        while self.peek() in ("and", "or"):
            connectives.append(self.take())
            atoms.append(self.atom_after_col(self.column()))
            if len(atoms) > MAX_CHAIN_ATOMS:
                raise SqlSyntaxError(
                    f"WHERE chains carry at most {MAX_CHAIN_ATOMS} atoms", self._offset()
                )
        return WhereChain(tuple(atoms), tuple(connectives))

    def atom_after_col(self, col: str) -> Atom:
        op = self.peek()
        if op not in ("=", "!="):
            raise SqlSyntaxError(f"expected = or !=, got {op!r}", self._offset())
        self.i += 1
        return Atom(col, op, self.number())


def parse_sql(text: str) -> Query:
    return _Parser(text).parse()


def unparse(query: Query) -> str:
    parts = ["select", query.select_col]
    if query.has_from:
        parts += ["from", "table"]
    w = query.where
    if isinstance(w, WhereChain):
        parts.append("where")
        parts += [w.atoms[0].col, w.atoms[0].op, w.atoms[0].value]
        for conn, atom in zip(w.connectives, w.atoms[1:]):
            parts += [conn, atom.col, atom.op, atom.value]
    elif isinstance(w, InCondition):
        parts += ["where", w.col, "in", "(" + ", ".join(w.values) + ")"]
    elif isinstance(w, SubqueryCondition):
        parts += [
            "where", w.col, "=",
            f"(select {w.inner_select} where {w.inner_where.col} = {w.inner_where.value})",
        ]
    if query.limit is not None:
        parts += ["limit", str(query.limit)]
    return " ".join(parts)


def _eval_atom(atom: Atom, row: Sequence[str], table: Table) -> bool:
    cell = row[table.column_index(atom.col)]
    return (cell == atom.value) if atom.op == "=" else (cell != atom.value)


def _row_matches(where, row: Sequence[str], table: Table) -> bool:
    if where is None:
        return True
    if isinstance(where, WhereChain):
        acc = _eval_atom(where.atoms[0], row, table)
        # left-associative fold at equal precedence
        for conn, atom in zip(where.connectives, where.atoms[1:]):
            rhs = _eval_atom(atom, row, table)
            acc = (acc and rhs) if conn == "and" else (acc or rhs)
        return acc
    if isinstance(where, InCondition):
        return row[table.column_index(where.col)] in where.values
    if isinstance(where, SubqueryCondition):
        inner = execute(
            Query(where.inner_select, WhereChain((where.inner_where,), ())), table
        )
        return row[table.column_index(where.col)] in set(inner)
    raise ExecutionError(f"unknown condition type {type(where).__name__}")


def execute(query: Query | str, table: Table) -> list[str]:
    """Run a query; returns the ordered denotation (selected cells, row order)."""
    if isinstance(query, str):
        query = parse_sql(query)
    try:
        out_col = table.column_index(query.select_col)
        result = []
        for row in table.rows:
            if _row_matches(query.where, row, table):
                result.append(row[out_col])
                if query.limit is not None and len(result) >= query.limit:
                    break
        return result
    except KeyError as exc:
        raise ExecutionError(str(exc.args[0])) from None


def denotation_match(pred: Sequence[str], gold: Sequence[str], set_semantics: bool = False) -> bool:
    if set_semantics:
        return set(pred) == set(gold)
    return Counter(pred) == Counter(gold)


def denotation_accuracy(
    preds: Sequence[Sequence[str]],
    golds: Sequence[Sequence[str]],
    set_semantics: bool = False,
) -> float:
    """Mean exact-match rate between predicted and gold denotations.

    Comparison ignores order (multiset equality by default; set equality with
    the flag). Empty vs empty counts as a match.
    """
    if len(preds) != len(golds):
        raise ValidationError(f"{len(preds)} predictions vs {len(golds)} references")
    if not golds:
        raise ValidationError("cannot score an empty dataset")
    hits = sum(denotation_match(p, g, set_semantics) for p, g in zip(preds, golds))
    return hits / len(golds)
