import re

import numpy as np
import pytest

from tabenc.core import Table, derive_rng
from tabenc.mask import plan_blocks


def make_table(rng: np.random.Generator, n_rows=None, n_cols=None, value_max=999) -> Table:
    """Random rectangular table with integer-string cells."""
    if n_rows is None:
        n_rows = int(rng.integers(1, 5))
    if n_cols is None:
        n_cols = int(rng.integers(1, 5))
    headers = tuple(f"c{j + 1}" for j in range(n_cols))
    rows = tuple(
        tuple(str(int(rng.integers(0, value_max + 1))) for _ in range(n_cols))
        for _ in range(n_rows)
    )
    return Table(headers, rows)


def random_question(rng: np.random.Generator, table: Table) -> str:
    col = table.headers[int(rng.integers(0, table.n_cols))]
    if rng.random() < 0.5:
        return f"select {col}"
    probe = table.rows[int(rng.integers(0, table.n_rows))][table.column_index(col)]
    return f"select {col} where {col} = {probe}"


@pytest.fixture
def rng():
    return derive_rng(20240101, "tests", 0)


def complete_plan(m):
    """The plan of a mask's complete lines: its parts when it has no square
    line, else the plan of its tiling."""
    return plan_blocks(m.blocks, m.length) if m.parts.square else m.parts


def same_plan(a, b) -> bool:
    """Whether two Plans hold equal buckets in the same order."""
    return all(len(x) == len(y) and all(np.array_equal(r, s) and np.array_equal(k, t)
                                        for (r, k), (s, t) in zip(x, y))
               for x, y in zip(a, b, strict=True))


# ---------------------------------------------------------------------------
# independent query evaluator (differential oracle for the SQL subset)
#
# Deliberately shares nothing with the package implementation: regex dispatch
# on the raw string, and boolean chains evaluated by Python's eval() over an
# explicitly left-parenthesized expression.
# ---------------------------------------------------------------------------

_NAIVE_QUERY = re.compile(
    r"^\s*select\s+(\w+)"
    r"(\s+from\s+table)?"
    r"(?:\s+where\s+(.+?))?"
    r"(?:\s+limit\s+(\d+))?"
    r"\s*$",
    re.IGNORECASE | re.DOTALL,
)
_NAIVE_IN = re.compile(r"^\s*(\w+)\s+in\s*\(([^)]*)\)\s*$", re.IGNORECASE)
_NAIVE_SUB = re.compile(
    r"^\s*(\w+)\s*=\s*\(\s*select\s+(\w+)\s+where\s+(\w+)\s*(!=|=)\s*(\d+)\s*\)\s*$",
    re.IGNORECASE,
)
_NAIVE_ATOM = re.compile(r"^\s*(\w+)\s*(!=|=)\s*(\d+)\s*$")


def _naive_col(table, name):
    return list(table.headers).index(name.lower())


def _naive_atom_holds(atom_text, row, table):
    m = _NAIVE_ATOM.match(atom_text)
    if not m:
        raise AssertionError(f"naive oracle cannot read atom {atom_text!r}")
    col, op, value = m.groups()
    cell = row[_naive_col(table, col)]
    return cell == value if op == "=" else cell != value


def _naive_where_holds(where_text, row, table):
    m = _NAIVE_IN.match(where_text)
    if m:
        col, values = m.groups()
        wanted = [v.strip() for v in values.split(",")]
        return row[_naive_col(table, col)] in wanted
    m = _NAIVE_SUB.match(where_text)
    if m:
        col, inner_sel, inner_col, op, value = m.groups()
        members = [
            r[_naive_col(table, inner_sel)]
            for r in table.rows
            if (r[_naive_col(table, inner_col)] == value) == (op == "=")
        ]
        return row[_naive_col(table, col)] in members
    parts = re.split(r"\s+(and|or)\s+", where_text.strip(), flags=re.IGNORECASE)
    expr = str(_naive_atom_holds(parts[0], row, table))
    for conn, atom in zip(parts[1::2], parts[2::2]):
        expr = f"({expr} {conn.lower()} {_naive_atom_holds(atom, row, table)})"
    return bool(eval(expr))


def naive_execute(text, table):
    """Evaluate a canonical-form query with string surgery only."""
    m = _NAIVE_QUERY.match(text)
    if not m:
        raise AssertionError(f"naive oracle cannot read query {text!r}")
    sel, _, where, limit = m.groups()
    out = _naive_col(table, sel)
    picked = [
        row[out]
        for row in table.rows
        if where is None or _naive_where_holds(where, row, table)
    ]
    if limit is not None:
        picked = picked[: int(limit)]
    return picked
