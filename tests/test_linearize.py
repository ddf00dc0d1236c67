import logging

import numpy as np
import pytest

from tabenc.core import FactorConfig, Table
from tabenc.linearize import (
    STRUCTURAL_ROLES,
    TokenRole,
    TruncationError,
    Vocabulary,
    assign_positions,
    default_vocab,
    encode_input,
    linearize,
    symbols,
)
from tabenc.core import ValidationError

from conftest import make_table, random_question

Q = TokenRole.QUESTION
B = TokenRole.BOUNDARY
CC = TokenRole.CELL_CONTENT
RT = TokenRole.ROW_TOK
CT = TokenRole.CELL_TOK
COL = TokenRole.COL_TOK
TAB = TokenRole.TABLE_TOK

ONE_CELL = Table(("h",), (("5",),))


# ---------------------------------------------------------------------------
# frozen layout oracles (tiny 1x1 table, question "select c1")
# ---------------------------------------------------------------------------
# The header string "h" is outside the closed vocabulary, so its surface
# symbol is UNK; layout, roles, and coordinates are unaffected by that.

def test_t1_layout_oracle():
    enc = linearize("select c1", ONE_CELL, "T1")
    assert symbols(enc) == ["select", "c1", "SEP", "UNK", "[ROW 1]", "[CELL]", "5"]
    assert enc.roles.tolist() == [Q, Q, B, CC, RT, CT, CC]
    assert enc.row_idx.tolist() == [0, 0, 0, 0, 1, 1, 1]
    assert enc.col_idx.tolist() == [0, 0, 0, 1, 0, 1, 1]
    assert enc.cell_ord.tolist() == [0, 0, 0, 0, 0, 0, 0]
    assert enc.segment.tolist() == [0, 0, 1, 1, 1, 1, 1]
    assert enc.question_len == 2
    assert enc.unk_count == 1


def test_t0_layout_oracle():
    enc = linearize("select c1", ONE_CELL, "T0")
    assert symbols(enc) == ["select", "c1", "SEP", "UNK", "SEP", "5"]
    assert enc.roles.tolist() == [Q, Q, B, CC, B, CC]


def test_t2_layout_oracle():
    enc = linearize("select c1", ONE_CELL, "T2")
    assert symbols(enc) == ["select", "c1", "SEP", "[TAB]", "[COL]", "UNK", "[ROW]", "[CELL]", "5"]
    assert enc.roles.tolist() == [Q, Q, B, TAB, COL, CC, RT, CT, CC]
    # [TAB] carries neither coordinate; [COL] carries its column; [ROW] its
    # row; [CELL] both
    assert enc.row_idx.tolist() == [0, 0, 0, 0, 0, 0, 1, 1, 1]
    assert enc.col_idx.tolist() == [0, 0, 0, 0, 1, 1, 0, 1, 1]


def test_in_vocab_header_has_no_unk():
    enc = linearize("select c1", Table(("c1",), (("5",),)), "T1")
    assert symbols(enc) == ["select", "c1", "SEP", "c1", "[ROW 1]", "[CELL]", "5"]
    assert enc.unk_count == 0


def test_multi_digit_cells_tokenize_digitwise():
    enc = linearize("select c1", Table(("c1",), (("123",),)), "T0")
    assert symbols(enc) == ["select", "c1", "SEP", "c1", "SEP", "1", "2", "3"]
    assert enc.cell_ord.tolist() == [0, 0, 0, 0, 0, 0, 1, 2]


# ---------------------------------------------------------------------------
# positional schemes
# ---------------------------------------------------------------------------

def test_tpe_is_global_enumeration():
    enc = assign_positions(linearize("select c1", ONE_CELL, "T1"), "TPE")
    assert enc.pos_idx.tolist() == list(range(7))


def test_cpe_oracle_t1():
    enc = assign_positions(linearize("select c1", ONE_CELL, "T1"), "CPE")
    # select(0) c1(1) SEP(0) h(0) [ROW 1](0) [CELL](0) 5(0)
    assert enc.pos_idx.tolist() == [0, 1, 0, 0, 0, 0, 0]


def test_cpe_resets_per_cell():
    enc = assign_positions(linearize("select c1", Table(("c1",), (("123",),)), "T1"), "CPE")
    # positions inside the cell "123" are 0,1,2
    assert enc.pos_idx[-3:].tolist() == [0, 1, 2]


def test_cpe_question_is_one_run():
    enc = assign_positions(
        linearize("select c1 where c1 = 5", ONE_CELL, "T0"), "CPE"
    )
    q = enc.question_len
    assert enc.pos_idx[:q].tolist() == list(range(q))
    assert enc.pos_idx[q] == 0  # SEP restarts


def test_cpe_table_side_bounded_by_cell_length(rng):
    for _ in range(50):
        t = make_table(rng)
        enc = encode_input("select c1", t, FactorConfig(tokens="T2", pe="CPE"))
        longest = max(
            len(Vocabulary.split_text(c)) if not c.isdigit() else len(c)
            for row in (t.headers,) + t.rows
            for c in row
        )
        table_side = enc.pos_idx[enc.question_len + 1:]
        assert table_side.max() < max(longest, 1)


def cpe_loop(enc):
    """Token-by-token CPE, the reference for the vectorized assign_positions."""
    pos = np.zeros(len(enc), dtype=np.int32)
    run = 0
    for i in range(len(enc)):
        role = enc.roles[i]
        restart = (
            i == 0
            or role == TokenRole.BOUNDARY
            or role in STRUCTURAL_ROLES
            or (role == TokenRole.CELL_CONTENT and enc.cell_ord[i] == 0)
        )
        run = 0 if restart else run + 1
        pos[i] = run
    return pos


@pytest.mark.parametrize("tokens", ["T0", "T1", "T2"])
def test_cpe_matches_loop(rng, tokens):
    for _ in range(30):
        t = make_table(rng, value_max=99999)
        if rng.random() < 0.5:  # multi-piece headers
            t = Table(tuple(f"{h} {int(rng.integers(0, 999))}" for h in t.headers), t.rows)
        enc = assign_positions(linearize(random_question(rng, t), t, tokens), "CPE")
        assert enc.pos_idx.dtype == np.int32
        assert np.array_equal(enc.pos_idx, cpe_loop(enc))


# ---------------------------------------------------------------------------
# invariants over random tables
# ---------------------------------------------------------------------------

def test_dims_round_trip_from_channels(rng):
    for _ in range(1000):
        t = make_table(rng)
        enc = linearize("select c1", t, "T2")
        # data rows are 1..R; columns are 1..C
        assert enc.row_idx.max() == t.n_rows
        is_cell = enc.roles == TokenRole.CELL_CONTENT
        assert enc.col_idx[is_cell].max() == t.n_cols


def test_column_swap_is_a_relabeling(rng):
    for _ in range(100):
        t = make_table(rng, n_rows=3, n_cols=3)
        swapped = Table(
            (t.headers[1], t.headers[0], t.headers[2]),
            tuple((r[1], r[0], r[2]) for r in t.rows),
        )
        a = linearize("select c1", t, "T1")
        b = linearize("select c1", swapped, "T1")
        def content_pairs(enc, col_map):
            keep = enc.roles == TokenRole.CELL_CONTENT
            return sorted(
                (int(tid), int(r), col_map[int(c)])
                for tid, r, c in zip(
                    enc.token_ids[keep], enc.row_idx[keep], enc.col_idx[keep]
                )
            )
        ident = {1: 1, 2: 2, 3: 3}
        relabel = {1: 2, 2: 1, 3: 3}
        assert content_pairs(a, ident) == content_pairs(b, relabel)


def test_scheme_lengths_are_ordered(rng):
    # structural markers only ever add tokens: len(T0) <= len(T1) <= len(T2)
    for _ in range(50):
        t = make_table(rng)
        lens = [len(linearize("select c1", t, s)) for s in ("T0", "T1", "T2")]
        assert lens[0] <= lens[1] <= lens[2]


# ---------------------------------------------------------------------------
# errors and limits
# ---------------------------------------------------------------------------

def test_truncation_error_carries_required_length():
    with pytest.raises(TruncationError) as exc_info:
        linearize("select c1", ONE_CELL, "T1", max_len=5)
    assert exc_info.value.required == 7
    assert exc_info.value.limit == 5
    assert isinstance(exc_info.value, ValidationError)


def test_t1_row_limit():
    tall = Table(("c1",), tuple((str(i % 10),) for i in range(65)))
    with pytest.raises(ValidationError):
        linearize("select c1", tall, "T1")
    # T0 does not index rows, so the same table is fine
    linearize("select c1", tall, "T0")


def test_column_limit():
    wide = Table(tuple(f"c{j+1}" for j in range(17)), (tuple("1" for _ in range(17)),))
    with pytest.raises(ValidationError):
        linearize("select c1", wide, "T0")


def test_unknown_scheme_rejected():
    with pytest.raises(ValidationError):
        linearize("select c1", ONE_CELL, "T9")
    with pytest.raises(ValidationError):
        assign_positions(linearize("select c1", ONE_CELL, "T0"), "XPE")


def test_unk_warning_is_logged(caplog):
    with caplog.at_level(logging.WARNING, logger="tabenc.linearize"):
        enc = linearize("select mystery", ONE_CELL, "T0")
    assert enc.unk_count == 2  # "mystery" and header "h"
    assert any("UNK" in rec.getMessage() for rec in caplog.records)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_vocab_fixed_points():
    v = default_vocab()
    assert v.pad == 0
    assert v.id("PAD") == 0
    assert v.id("BOS") == 1
    assert v.id("EOS") == 2
    assert v.id("SEP") == 3
    assert v.id("UNK") == 4
    assert v.size == 9 + 64 + 10 + 13 + 16


def test_piece_ids_digitwise():
    v = default_vocab()
    ids, n_unk = v.piece_ids("407")
    assert [v.symbol(i) for i in ids] == ["4", "0", "7"]
    assert n_unk == 0
    ids, n_unk = v.piece_ids("zebra")
    assert ids == [v.unk] and n_unk == 1


def test_split_text_handles_operators():
    assert Vocabulary.split_text("select c1 where c2 != 10") == [
        "select", "c1", "where", "c2", "!=", "10",
    ]
    assert Vocabulary.split_text("c1 in (1, 2)") == ["c1", "in", "(", "1", ",", "2", ")"]


def test_row_token_range():
    v = default_vocab()
    assert v.symbol(v.row_token(1)) == "[ROW 1]"
    assert v.symbol(v.row_token(64)) == "[ROW 64]"
    with pytest.raises(ValidationError):
        v.row_token(0)
    with pytest.raises(ValidationError):
        v.row_token(65)
