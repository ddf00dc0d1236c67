import collections
import json
import tracemalloc

import numpy as np
import pytest

import tabenc.mask as mask_module
from tabenc.core import Table, TabencError, ValidationError, derive_rng
from tabenc.linearize import HEADER_ROW, TokenRole, linearize
from tabenc.mask import (
    BIAS_CLASSES,
    BLOCKED,
    N_BIAS_CLASSES,
    BiasRelationMap,
    Plan,
    build_bias_map,
    build_mask,
    export_blocks,
    export_blocks_from_dense,
    read_blocks_file,
    signature_classes,
    sparsity,
    write_blocks_file,
)
from tabenc.attention import make_bench_encoding, plan_blocks
from tabenc.cli import main

from conftest import complete_plan, make_table, random_question, same_plan
from oracles import (block_area, blocks_cover, buckets, build_mask_bruteforce, encoding_planes,
                     gather_pairs_ref, matrix_lines, plan_of_rectangles)

ALL_SCHEMES = ("M0", "M1", "M2", "M3", "M4", "M5", "M6")
STRUCTURAL = ("M4", "M5", "M6")


def legal_pairs():
    for t in ("T0", "T1", "T2"):
        for m in ALL_SCHEMES:
            if m in STRUCTURAL and t != "T2":
                continue
            yield t, m


# ---------------------------------------------------------------------------
# differential: vectorized construction vs the per-pair predicate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tokens,scheme", list(legal_pairs()))
def test_build_matches_bruteforce(rng, tokens, scheme):
    for _ in range(10):
        t = make_table(rng)
        enc = linearize(random_question(rng, t), t, tokens)
        fast = build_mask(enc, scheme)
        slow = build_mask_bruteforce(enc, scheme)
        assert np.array_equal(fast.dense, slow)


def grid_table(n_rows, n_cols, cell=lambda i, j: str(10 + (7 * i + j) % 90), header=None):
    header = header or (lambda j: f"c{j + 1}")
    return Table(tuple(header(j) for j in range(n_cols)),
                 tuple(tuple(cell(i, j) for j in range(n_cols)) for i in range(n_rows)))


# layouts for the layout-built pair maps: the long-table recipe, the E1 limit
# (64 rows x 16 columns), a single row, a single column and headers of
# several pieces, each in every token scheme that can encode it
PAIR_MAP_LAYOUTS = {
    "long table": lambda tokens: make_bench_encoding(8192, tokens, seed=1),
    "E1 limit": lambda tokens: linearize("select c1", grid_table(64, 16), tokens),
    "one row": lambda tokens: linearize("select c2", grid_table(1, 9, lambda i, j: "7" * (j + 1)),
                                        tokens),
    "one column": lambda tokens: linearize("select c1 where c1 = 12",
                                           grid_table(40, 1, lambda i, j: str(i * 37)), tokens),
    "multi-piece headers": lambda tokens: linearize(
        "select c1", grid_table(5, 4, header=lambda j: f"c{j + 1} {j * 11} total"), tokens),
}


def pair_map_cases():
    for name in PAIR_MAP_LAYOUTS:
        for tokens in ("T0", "T2") if name == "long table" else ("T0", "T1", "T2"):
            yield name, tokens


@pytest.mark.parametrize("layout,tokens", list(pair_map_cases()))
def test_pair_maps_match_the_pair_gather(layout, tokens):
    # every legal mask table and the relation table, built from the layout,
    # byte for byte as gathered pair by pair, with the diagonal set after
    enc = PAIR_MAP_LAYOUTS[layout](tokens)
    lay = mask_module._layout(enc)
    schemes = [m for t, m in legal_pairs() if t == tokens]
    for scheme in schemes:
        want = gather_pairs_ref(*lay, mask_module._MASK_TABLES[scheme])
        np.fill_diagonal(want, True)
        got = build_mask(enc, scheme).dense
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (layout, scheme)
    want = gather_pairs_ref(*lay, mask_module._RELATION_TABLE)
    np.fill_diagonal(want, 0)
    got = build_bias_map(enc).rel
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), layout


@pytest.mark.parametrize("tokens", ["T0", "T1", "T2"])
def test_pair_maps_match_the_pair_gather_on_random_tables(rng, tokens):
    tables = {scheme: mask_module._MASK_TABLES[scheme]
              for t, scheme in legal_pairs() if t == tokens}
    tables["relation"] = mask_module._RELATION_TABLE
    for i in range(20):
        t = make_table(rng, value_max=9 if i % 2 else 99999)
        if i % 3 == 0:  # multi-piece headers
            t = Table(tuple(f"{h} {int(rng.integers(0, 999))}" for h in t.headers), t.rows)
        lay = mask_module._layout(linearize(random_question(rng, t), t, tokens))
        for name, table in tables.items():
            got = mask_module._gather_pairs(*lay, table)
            assert np.array_equal(got, gather_pairs_ref(*lay, table)), name


def assert_signature_classes(enc, tokens):
    """signature_classes is where(allow-matrix, relation classes, BLOCKED),
    0 on the diagonal, at every legal scheme, and caches nothing on the mask."""
    for scheme in (m for t, m in legal_pairs() if t == tokens):
        m = build_mask(enc, scheme)
        dense, rel = encoding_planes(enc, scheme)
        want = np.where(dense, rel, np.int8(BLOCKED))
        assert (want.diagonal() == 0).all()
        got = signature_classes(m)
        assert got.dtype == np.int8 and got.tobytes() == want.tobytes(), scheme
        assert not {"dense", "blocks", "parts"} & set(vars(m))


@pytest.mark.parametrize("layout,tokens", [c for c in pair_map_cases() if c[0] != "long table"])
def test_signature_classes_fold_the_mask_into_the_relation_classes(layout, tokens):
    assert_signature_classes(PAIR_MAP_LAYOUTS[layout](tokens), tokens)


@pytest.mark.parametrize("tokens", ["T0", "T1", "T2"])
def test_signature_classes_on_random_tables(rng, tokens):
    for i in range(10):
        t = make_table(rng, value_max=9 if i % 2 else 99999)
        if i % 3 == 0:  # multi-piece headers
            t = Table(tuple(f"{h} {int(rng.integers(0, 999))}" for h in t.headers), t.rows)
        assert_signature_classes(linearize(random_question(rng, t), t, tokens), tokens)


# ---------------------------------------------------------------------------
# structural facts
# ---------------------------------------------------------------------------

def enc_t2(rng=None, rows=2, cols=2):
    t = Table(
        tuple(f"c{j+1}" for j in range(cols)),
        tuple(tuple(str((i * cols + j) % 10) for j in range(cols)) for i in range(rows)),
    )
    return linearize("select c1", t, "T2")


def test_m0_is_all_ones():
    enc = enc_t2()
    m = build_mask(enc, "M0")
    assert m.dense.all()
    assert sparsity(m) == 0.0
    assert_tiling(export_blocks(m), ((0, len(enc), 0, len(enc)),))


def test_masks_are_symmetric_with_diagonal(rng):
    for _ in range(10):
        t = make_table(rng)
        enc = linearize("select c1", t, "T2")
        for scheme in ALL_SCHEMES:
            d = build_mask(enc, scheme).dense
            assert np.array_equal(d, d.T)
            assert d.diagonal().all()


def test_containments(rng):
    # M2 and M3 allow subsets of M1; M6's non-question links are relays only,
    # so M6 is contained in M4 and in M5
    for _ in range(10):
        t = make_table(rng)
        enc = linearize(random_question(rng, t), t, "T2")
        m = {s: build_mask(enc, s).dense for s in ALL_SCHEMES}
        assert not (m["M2"] & ~m["M1"]).any()
        assert not (m["M3"] & ~m["M1"]).any()
        assert not (m["M6"] & ~m["M4"]).any()
        assert not (m["M6"] & ~m["M5"]).any()
        assert not (m["M2"] & ~m["M4"]).any()
        assert not (m["M3"] & ~m["M5"]).any()


def test_question_band_always_allowed(rng):
    for _ in range(5):
        t = make_table(rng)
        enc = linearize("select c1 where c1 = 5", t, "T2")
        q = enc.roles == TokenRole.QUESTION
        for scheme in ALL_SCHEMES:
            d = build_mask(enc, scheme).dense
            assert d[q, :].all()
            assert d[:, q].all()


def test_sep_outside_question_is_self_only():
    enc = linearize("select c1", Table(("c1", "c2"), (("1", "2"),)), "T0")
    d = build_mask(enc, "M3").dense
    q_len = enc.question_len
    sep_positions = np.flatnonzero(
        (enc.roles == TokenRole.BOUNDARY) & (np.arange(len(enc)) >= q_len)
    )
    for s in sep_positions:
        row = d[s].copy()
        row[:q_len] = False  # question band is always on
        row[s] = False
        assert not row.any()


def test_same_row_vs_same_column_split():
    t = Table(("c1", "c2"), (("1", "2"), ("3", "4")))
    enc = linearize("select c1", t, "T0")
    content = enc.roles == TokenRole.CELL_CONTENT
    d_row = build_mask(enc, "M3").dense
    d_col = build_mask(enc, "M2").dense
    idx = {
        (int(r), int(c)): i
        for i, (r, c) in enumerate(zip(enc.row_idx, enc.col_idx))
        if content[i]
    }
    # (1,1) and (1,2) share a row; (1,1) and (2,1) share a column
    assert d_row[idx[(1, 1)], idx[(1, 2)]]
    assert not d_row[idx[(1, 1)], idx[(2, 1)]]
    assert d_col[idx[(1, 1)], idx[(2, 1)]]
    assert not d_col[idx[(1, 1)], idx[(1, 2)]]
    # headers are content on row 0, so same-column reaches them
    assert d_col[idx[(0, 1)], idx[(1, 1)]]


def test_m6_relays_only():
    enc = enc_t2(rows=2, cols=2)
    d = build_mask(enc, "M6").dense
    content = enc.roles == TokenRole.CELL_CONTENT
    q = enc.roles == TokenRole.QUESTION
    pair = content[:, None] & content[None, :]
    off_diag = ~np.eye(len(enc), dtype=bool)
    qband = q[:, None] | q[None, :]
    # no direct content-content attention outside the question band
    assert not (d & pair & off_diag & ~qband).any()
    # [TAB] reaches every content token
    tab = int(np.flatnonzero(enc.roles == TokenRole.TABLE_TOK)[0])
    assert d[tab, content].all()


def test_structural_masks_need_t2(rng):
    enc = linearize("select c1", make_table(rng), "T1")
    for scheme in STRUCTURAL:
        with pytest.raises(ValidationError):
            build_mask(enc, scheme)
    with pytest.raises(ValidationError):
        build_mask(enc, "M9")


# ---------------------------------------------------------------------------
# block export
# ---------------------------------------------------------------------------

def assert_tiling(got, want):
    """got is an (n, 4) integer array holding the rectangles of want, in order."""
    assert got.shape == (len(want), 4)
    assert np.issubdtype(got.dtype, np.integer)
    assert np.array_equal(got, want)


def test_masks_compare_and_hash_by_identity(rng):
    t = make_table(rng)
    enc = linearize(random_question(rng, t), t, "T0")
    a, b = build_mask(enc, "M1"), build_mask(enc, "M1")
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_bias_maps_compare_and_hash_by_identity(rng):
    t = make_table(rng)
    enc = linearize(random_question(rng, t), t, "T0")
    a, b = build_bias_map(enc), build_bias_map(enc)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_blocks_tile_exactly(rng):
    for tokens, scheme in legal_pairs():
        t = make_table(rng)
        enc = linearize(random_question(rng, t), t, tokens)
        m = build_mask(enc, scheme)
        blocks = export_blocks(m)
        cover = blocks_cover(blocks, m.length)  # raises on overlap
        assert np.array_equal(cover, m.dense)
        assert block_area(blocks) == int(m.dense.sum())


def test_tiling_appends_tuples_and_adds_arrays(rng):
    t = make_table(rng)
    m = build_mask(linearize(random_question(rng, t), t, "T0"), "M1")
    last = tuple(m.blocks[-1].tolist())
    grown = m.blocks[:-1] + (last, last)
    assert_tiling(grown, np.concatenate([m.blocks, m.blocks[-1:]]))
    assert np.array_equal(m.blocks + 1, np.asarray(m.blocks) + 1)
    assert not m.blocks.flags.writeable


def tiling_loop(dense):
    """Group-by-group tiling, the reference for the vectorized export_blocks:
    the question band as at most two rectangles, then each run of identical
    rows of the rest split into its column runs, sorted by (q0, k0)."""
    L = int(dense.shape[0])
    full_cols = dense.all(axis=0)
    if full_cols.all():
        return ((0, L, 0, L),)
    b = int(np.argmin(full_cols))
    rects = [(0, b, 0, L), (b, L, 0, b)] if b else []
    sub = dense[b:, b:]
    n = L - b
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    changed[1:] = np.any(sub[1:] != sub[:-1], axis=1)
    starts = np.flatnonzero(changed)
    for r0, r1 in zip(starts, np.append(starts[1:], n)):
        diffs = np.diff(np.concatenate(([0], sub[r0].astype(np.int8), [0])))
        for c0, c1 in zip(np.flatnonzero(diffs == 1), np.flatnonzero(diffs == -1)):
            rects.append((b + int(r0), b + int(r1), b + int(c0), b + int(c1)))
    rects.sort(key=lambda r: (r[0], r[2]))
    return tuple(rects)


@pytest.mark.parametrize("tokens,scheme", list(legal_pairs()))
def test_blocks_match_tiling_loop(rng, tokens, scheme):
    for _ in range(20):
        t = make_table(rng)
        m = build_mask(linearize(random_question(rng, t), t, tokens), scheme)
        assert_tiling(export_blocks(m), tiling_loop(m.dense))


def test_blocks_from_dense_match_tiling_loop_on_any_symmetric_matrix(rng):
    # densities from empty to full: with or without a question band (b = 0),
    # long row runs, rows that differ in one column
    for _ in range(300):
        n = int(rng.integers(1, 12))
        upper = np.triu(rng.random((n, n)) < rng.random())
        dense = upper | upper.T | np.eye(n, dtype=bool)
        assert_tiling(export_blocks_from_dense(matrix_lines(dense)), tiling_loop(dense))


@pytest.mark.parametrize("tokens,scheme", list(legal_pairs()))
def test_plan_is_the_tiling_planned(rng, tokens, scheme):
    for _ in range(20):
        t = make_table(rng)
        m = build_mask(linearize(random_question(rng, t), t, tokens), scheme)
        got = plan_blocks(m.blocks, m.length)
        want = Plan(buckets(m.dense), buckets(m.dense.T))
        # query buckets, then key buckets (those of the transposed matrix)
        for got_buckets, want_buckets in zip(got, want, strict=True):
            assert len(got_buckets) == len(want_buckets)
            for got, wanted in zip(got_buckets, want_buckets):
                assert all(np.array_equal(a, b) for a, b in zip(got, wanted, strict=True))


def random_rectangles(rng):
    """(rectangles, L, kind) for the planner's differential test. A random
    guillotine cut of the L x L matrix, with some key columns taken out of
    every piece (keys no query attends) and, in one case in four, a piece
    dropped (rows may be left uncovered). In one case in three one more
    rectangle is added: a piece again, one nested in a piece, or anywhere
    (a partial overlap, or none). The rectangles come in random order."""
    L = int(rng.integers(1, 13))
    pieces, todo = [], [(0, L, 0, L)]
    while todo:
        q0, q1, k0, k1 = todo.pop()
        rows = q1 - q0 > 1 and (k1 - k0 == 1 or rng.random() < 0.5)
        if rng.random() < 0.3 or (q1 - q0 == 1 and k1 - k0 == 1):
            pieces.append((q0, q1, k0, k1))
        elif rows:
            cut = int(rng.integers(q0 + 1, q1))
            todo += [(q0, cut, k0, k1), (cut, q1, k0, k1)]
        else:
            cut = int(rng.integers(k0 + 1, k1))
            todo += [(q0, q1, k0, cut), (q0, q1, cut, k1)]
    dead = rng.random(L) < 0.15
    live = []
    for q0, q1, k0, k1 in pieces:
        step = np.diff(np.concatenate(([0], ~dead[k0:k1], [0])).astype(np.int8))
        live += [(q0, q1, k0 + a, k0 + b)
                 for a, b in zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1))]
    if live and rng.random() < 0.25:
        del live[int(rng.integers(len(live)))]
    kind = "tiling"
    if live and rng.random() < 1 / 3:
        q0, q1, k0, k1 = live[int(rng.integers(len(live)))]
        kind = ("repeated", "nested", "anywhere")[int(rng.integers(3))]
        if kind == "nested":
            a, b = np.sort(rng.choice(np.arange(q0, q1 + 1), 2, replace=False))
            c, d = np.sort(rng.choice(np.arange(k0, k1 + 1), 2, replace=False))
            q0, q1, k0, k1 = a, b, c, d
        elif kind == "anywhere":
            (q0, q1), (k0, k1) = (np.sort(rng.choice(L + 1, 2, replace=False)) for _ in range(2))
        live.append((int(q0), int(q1), int(k0), int(k1)))
    order = rng.permutation(len(live))
    return np.array(live, dtype=np.intp).reshape(-1, 4)[order], L, kind


def test_plan_blocks_is_the_plan_of_the_painted_matrix():
    # asymmetric, shuffled rectangles, with keys no query attends, rows no
    # rectangle covers and rectangles covered twice: the planner gives the
    # painted matrix's buckets, query and key, or its exact error
    rng = derive_rng(21, "plan-blocks-differential")
    seen = collections.Counter()
    cases = [random_rectangles(rng) for _ in range(2000)]
    cases += [(np.array([(0, 1, 0, 1)] * 256), 1, "repeated"),  # would wrap a uint8 count
              (np.zeros((0, 4), dtype=np.intp), 3, "tiling"), (np.zeros((0, 4), dtype=np.intp), 0, "tiling")]
    for blocks, L, kind in cases:
        seen[kind] += 1
        try:
            want = Plan(*plan_of_rectangles(blocks, L))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                plan_blocks(blocks, L)
            assert str(err.value) == str(exc), (blocks.tolist(), L)
            seen["twice" if "twice" in str(exc) else "uncovered"] += 1
            continue
        assert same_plan(plan_blocks(blocks, L), want), (blocks.tolist(), L)
        seen["planned"] += 1
        seen["keys unattended"] += not blocks_cover(blocks, L).any(axis=0).all()
    assert min(seen.values()) >= 50, seen


def assert_same_buckets(got, want):
    assert len(got) == len(want)
    for (rows, keys), (want_rows, want_keys) in zip(got, want):
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(keys, want_keys)


@pytest.mark.parametrize("tokens,scheme", list(legal_pairs()))
def test_layout_plan_is_the_plan_of_the_matrix(rng, tokens, scheme):
    # one-row, one-column and 16-column tables; one-token and many-token cells
    shapes = ((1, 1), (1, 3), (4, 1), (3, 16), (None, None))
    for i in range(40):
        n_rows, n_cols = shapes[i % len(shapes)]
        t = make_table(rng, n_rows, n_cols, value_max=9 if i % 2 else 99999)
        m = build_mask(linearize(random_question(rng, t), t, tokens), scheme)
        assert_same_buckets(complete_plan(m).query, buckets(m.dense))


@pytest.mark.parametrize("tokens,scheme", [("T0", "M3"), ("T2", "M5"), ("T0", "M1")])
def test_layout_plan_on_the_long_table_recipe(tokens, scheme):
    m = build_mask(make_bench_encoding(8192, tokens, seed=1), scheme)
    assert_same_buckets(complete_plan(m).query, buckets(m.dense))


def parts_cover(parts, L):
    """How many lines of the parts hold each (row, key) pair, and how many
    query lines and square lines hold each row; and each row's key count
    in its query line and in its square line."""
    cover = np.zeros((L, L), dtype=np.int8)
    seen = np.zeros((2, L), dtype=np.int8)
    n_keys = np.zeros((2, L), dtype=np.intp)
    for which, buckets in enumerate((parts.query, parts.square)):
        for rows, keys in buckets:
            cover[rows[:, :, None], keys[:, None, :]] += 1
            np.add.at(seen[which], rows.ravel(), 1)
            n_keys[which, rows.ravel()] = keys.shape[1]
    return cover, seen, n_keys


def assert_parts_split_the_lines(m):
    # each row's keys are its query line's and its square line's, disjoint;
    # a square line's rows are its keys; a column part is at least as large
    # as the rest of each of its rows
    cover, seen, n_keys = parts_cover(m.parts, m.length)
    assert np.array_equal(cover, m.dense)
    assert seen.max() <= 1
    assert (n_keys[0] <= n_keys[1])[seen[1] == 1].all()
    assert all(rows is keys for rows, keys in m.parts.square)
    assert m.parts.key is m.parts.query
    if m.scheme not in ("M1", "M2", "M4"):  # no same-column content rule: the complete lines
        assert same_plan(m.parts, plan_blocks(m.blocks, m.length)) and not m.parts.square


@pytest.mark.parametrize("tokens,scheme", list(legal_pairs()))
def test_parts_split_each_line_in_two(rng, tokens, scheme):
    # tall tables give column parts that pay; short ones mostly do not
    shapes = ((1, 1), (4, 1), (3, 16), (12, 2), (20, 3), (None, None))
    split = 0
    for i in range(30):
        n_rows, n_cols = shapes[i % len(shapes)]
        t = make_table(rng, n_rows, n_cols, value_max=9 if i % 2 else 99999)
        m = build_mask(linearize(random_question(rng, t), t, tokens), scheme)
        assert_parts_split_the_lines(m)
        split += bool(m.parts.square)
    assert (split > 0) == (scheme in ("M1", "M2"))


@pytest.mark.parametrize("length", [300, 2048])
@pytest.mark.parametrize("tokens,scheme", [(t, s) for t, s in legal_pairs() if t != "T1"])
def test_parts_and_tiling_of_bench_encodings(length, tokens, scheme):
    # the tiling and sparsity still come from the complete lines
    m = build_mask(make_bench_encoding(length, tokens, seed=1), scheme)
    assert_parts_split_the_lines(m)
    assert bool(m.parts.square) == (scheme in ("M1", "M2"))
    assert_tiling(m.blocks, tiling_loop(m.dense))
    assert sparsity(m) == 1.0 - int(m.dense.sum()) / float(m.length ** 2)


def test_mask_tables_are_symmetric_and_monotone():
    # the layout plan takes a line's keys as a union of lists, which needs
    # rules that only grow with same_row and same_col, and uses its query
    # plan as its key plan
    for table in mask_module._MASK_TABLES.values():
        assert np.array_equal(table, table.swapaxes(2, 3))
        assert (table[0, 0] <= table[0, 1]).all() and (table[0, 1] <= table[1, 1]).all()
        assert (table[0, 0] <= table[1, 0]).all() and (table[1, 0] <= table[1, 1]).all()


@pytest.mark.parametrize("tokens,scheme", list(legal_pairs()))
def test_masks_are_symmetric(rng, tokens, scheme):
    # the block-sparse backward's key-major pass runs a mask's query plan
    # as its key plan, which is right only for a symmetric mask
    for _ in range(20):
        t = make_table(rng)
        m = build_mask(linearize(random_question(rng, t), t, tokens), scheme)
        assert np.array_equal(m.dense, m.dense.T)


def test_blocks_cover_detects_overlap():
    with pytest.raises(TabencError):
        blocks_cover([(0, 2, 0, 2), (1, 3, 1, 3)], 4)
    # 256 layers would wrap a uint8 count back to "uncovered"
    with pytest.raises(TabencError, match="key 0 twice for query row 0"):
        blocks_cover([(0, 1, 0, 1)] * 256, 1)


def test_blocks_file_round_trip(tmp_path):
    enc = enc_t2(rows=3, cols=2)
    m = build_mask(enc, "M5")
    path = tmp_path / "m.blocks"
    write_blocks_file(path, m)
    meta, blocks = read_blocks_file(path)
    assert meta["L"] == m.length
    assert meta["scheme"] == "M5"
    assert meta["sparsity"] == pytest.approx(sparsity(m), abs=1e-6)
    assert_tiling(blocks, export_blocks(m))
    first_line = path.read_text().splitlines()[0]
    assert first_line.startswith(f"L={m.length} scheme=M5 sparsity=")


@pytest.mark.parametrize("tokens,scheme", [("T0", "M1"), ("T0", "M3"), ("T2", "M5")])
def test_mask_out_file_is_the_reference_tiling(rng, tmp_path, capsys, tokens, scheme):
    t = make_table(rng, n_rows=24, n_cols=4)
    question = random_question(rng, t)
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"header": list(t.headers), "rows": [list(r) for r in t.rows]}))
    out = tmp_path / "m.blocks"
    code = main(["mask", "--question", question, "--table", str(table),
                 "--tokens", tokens, "--mask", scheme, "--out", str(out)])
    assert code == 0
    dense = build_mask_bruteforce(linearize(question, t, tokens), scheme)
    L = len(dense)
    want = tiling_loop(dense)
    lines = [f"L={L} scheme={scheme} sparsity={(L * L - int(dense.sum())) / (L * L):.6f}"]
    lines += [f"{q0} {q1} {k0} {k1}" for q0, q1, k0, k1 in want]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert json.loads(capsys.readouterr().out)["n_blocks"] == len(want)


def test_blocks_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.blocks"
    path.write_text("hello world\n")
    with pytest.raises(ValidationError):
        read_blocks_file(path)
    # a rectangle line that is not four integers names its line
    path.write_text("L=4 scheme=M0 sparsity=0.000000\n0 4 0 4\n1 2 3\n")
    with pytest.raises(ValidationError) as err:
        read_blocks_file(path)
    assert f"{path}:3:" in str(err.value)
    # header values that are not numbers name the file
    for header in ("L=abc scheme=M0", "L=4 scheme=M0 sparsity=lots"):
        path.write_text(header + "\n0 4 0 4\n")
        with pytest.raises(ValidationError, match="malformed blocks header") as err:
            read_blocks_file(path)
        assert str(path) in str(err.value)
    # a header that no mask has names the file
    for header in ("L=-2 scheme=M0", "L=0 scheme=M0", "L=4 scheme=M9"):
        path.write_text(header + "\n")
        with pytest.raises(ValidationError, match="blocks header") as err:
            read_blocks_file(path)
        assert str(path) in str(err.value)
    # a rectangle outside 0 <= q0 < q1 <= L, 0 <= k0 < k1 <= L names its line
    for rect in ("0 9 3 1", "-1 2 0 4", "0 5 0 4", "2 2 0 4", "0 4 3 3", "0 4 -1 1"):
        path.write_text(f"L=4 scheme=M0\n0 4 0 4\n{rect}\n")
        with pytest.raises(ValidationError, match="not within") as err:
            read_blocks_file(path)
        assert f"{path}:3:" in str(err.value)


def test_blocks_file_takes_ascii_integers_only(tmp_path):
    # int() alone reads each of these as a coordinate of "0 4 0 4"
    path = tmp_path / "odd.blocks"
    for rect in ("\u0660 \u0664 0 4", "0 4 0 \uff14", "0 4 0 +4", "0 4 0 0_4", "0 4 0 4 0"):
        path.write_text(f"L=4 scheme=M0\n{rect}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="four integers") as err:
            read_blocks_file(path)
        assert str(err.value).startswith(f"{path}:2: "), rect


def test_blocks_file_rejects_what_the_planner_rejects(tmp_path):
    # rectangles that overlap or leave a row uncovered are no mask's tiling;
    # the reader names the file in front of the planner's message
    path = tmp_path / "bad.blocks"
    for body, message in (("0 4 0 4\n0 1 0 1\n", "blocks cover key 0 twice for query row 0"),
                          ("0 2 0 4\n3 4 0 4\n", "blocks leave query row 2 uncovered"),
                          ("", "blocks leave query row 0 uncovered")):
        path.write_text("L=4 scheme=M0\n" + body)
        with pytest.raises(ValidationError) as err:
            read_blocks_file(path)
        assert str(err.value) == f"{path}: {message}"


def blocks_file_mutant(rng, good: bytes, kind: str) -> bytes:
    """The bytes of a block file with one seeded mutation of `kind`."""
    lines = good.splitlines(keepends=True)
    j = int(rng.integers(len(lines)))
    if kind == "truncate":  # mid-line: keep part of line j, without its newline
        return b"".join(lines[:j]) + lines[j][:int(rng.integers(1, len(lines[j]) - 1))]
    if kind == "drop":
        return b"".join(lines[:j] + lines[j + 1:])
    if kind == "duplicate":
        return b"".join(lines[:j + 1] + lines[j:])
    if kind == "flip":
        data = bytearray(good)
        data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        return bytes(data)
    j = int(rng.integers(1, len(lines)))  # shift one coordinate of a rectangle by one
    fields = lines[j].split()
    f = int(rng.integers(4))
    fields[f] = str(int(fields[f]) + int(rng.choice((-1, 1)))).encode()
    lines[j] = b" ".join(fields) + b"\n"
    return b"".join(lines)


@pytest.mark.parametrize("tokens,scheme", [(t, s) for t, s in legal_pairs() if t != "T1"
                                           and (t == "T2") == (s in STRUCTURAL)])
def test_mutated_blocks_files_give_a_plan_or_a_validation_error(tmp_path, tokens, scheme):
    # truncated, dropped, duplicated, flipped and shifted: each mutant is read
    # and planned, or rejected with a ValidationError; the reader's name the file
    path = tmp_path / f"{scheme}.blocks"
    write_blocks_file(path, build_mask(make_bench_encoding(300, tokens, seed=1), scheme))
    good = path.read_bytes()
    rng = derive_rng(21, f"blocks-file-mutants-{scheme}")
    outcomes = collections.Counter()
    for i in range(60):
        kind = ("truncate", "drop", "duplicate", "flip", "shift")[i % 5]
        path.write_bytes(blocks_file_mutant(rng, good, kind))
        try:
            meta, blocks = read_blocks_file(path)
        except ValidationError as exc:
            assert str(exc).startswith(f"{path}:"), (kind, str(exc))
            outcomes["reader"] += 1
            continue
        try:
            plan_blocks(blocks, meta["L"])
            outcomes["plan"] += 1
        except ValidationError:
            outcomes["planner"] += 1
    assert outcomes["reader"] and outcomes["plan"] + outcomes["planner"], outcomes


# ---------------------------------------------------------------------------
# bias relation map
# ---------------------------------------------------------------------------

def test_bias_class_count():
    assert N_BIAS_CLASSES == 13
    assert len(set(BIAS_CLASSES)) == 13
    assert BIAS_CLASSES[0] == "self"
    assert BIAS_CLASSES[-1] == "other"


def test_bias_map_oracle_small():
    enc = linearize("select c1", Table(("c1",), (("5",),)), "T1")
    # tokens: select c1 SEP c1(hdr) [ROW 1] [CELL] 5
    rel = build_bias_map(enc).rel
    name = lambda i, j: BIAS_CLASSES[rel[i, j]]
    assert name(0, 0) == "self"
    assert name(0, 1) == "question-question"
    assert name(0, 3) == "question-header"
    assert name(3, 0) == "header-question"
    assert name(0, 6) == "question-cell"
    assert name(6, 0) == "cell-question"
    assert name(6, 6) == "self"
    assert name(6, 3) == "cell-to-column-header"
    assert name(3, 6) == "column-header-to-cell"
    assert name(0, 2) == "other"  # question vs SEP
    assert name(4, 5) == "other"  # [ROW 1] vs [CELL]


def test_bias_map_same_cell_beats_same_row():
    enc = linearize("select c1", Table(("c1", "c2"), (("12", "3"),)), "T0")
    rel = build_bias_map(enc).rel
    content = np.flatnonzero(enc.roles == TokenRole.CELL_CONTENT)
    by_coord = {}
    for i in content:
        by_coord.setdefault((int(enc.row_idx[i]), int(enc.col_idx[i])), []).append(int(i))
    a, b = by_coord[(1, 1)]  # the two digits of "12"
    c = by_coord[(1, 2)][0]
    assert BIAS_CLASSES[rel[a, b]] == "same-cell"
    assert BIAS_CLASSES[rel[a, c]] == "same-row"
    hdr1 = by_coord[(0, 1)][0]
    hdr2 = by_coord[(0, 2)][0]
    assert BIAS_CLASSES[rel[hdr1, hdr2]] == "same-row"
    assert BIAS_CLASSES[rel[hdr1, hdr1]] == "self"
    assert BIAS_CLASSES[rel[hdr1, a]] == "column-header-to-cell"
    assert BIAS_CLASSES[rel[a, hdr1]] == "cell-to-column-header"


def test_bias_map_header_same_column():
    # two header tokens in one column happens when a header splits into
    # multiple pieces
    enc = linearize("select c1", Table(("12",), (("5",),)), "T0")
    rel = build_bias_map(enc).rel
    hdr = np.flatnonzero(
        (enc.roles == TokenRole.CELL_CONTENT) & (enc.row_idx == 0)
    )
    assert len(hdr) == 2
    assert BIAS_CLASSES[rel[hdr[0], hdr[1]]] == "header-header-same-column"


def relation_class(enc, i, j) -> int:
    """Per-pair relation class: the first BIAS_CLASSES entry whose rule holds
    (differential oracle for build_bias_map)."""
    role = lambda k: int(enc.roles[k])
    question = lambda k: role(k) == TokenRole.QUESTION
    content = lambda k: role(k) == TokenRole.CELL_CONTENT
    header = lambda k: content(k) and int(enc.row_idx[k]) == HEADER_ROW
    cell = lambda k: content(k) and int(enc.row_idx[k]) != HEADER_ROW
    same_row = int(enc.row_idx[i]) == int(enc.row_idx[j])
    same_col = int(enc.col_idx[i]) == int(enc.col_idx[j])
    rules = {
        "self": i == j,
        "question-question": question(i) and question(j),
        "question-cell": question(i) and cell(j),
        "cell-question": cell(i) and question(j),
        "question-header": question(i) and header(j),
        "header-question": header(i) and question(j),
        "same-cell": cell(i) and cell(j) and same_row and same_col,
        "cell-to-column-header": cell(i) and header(j) and same_col,
        "column-header-to-cell": header(i) and cell(j) and same_col,
        "header-header-same-column": header(i) and header(j) and same_col,
        "same-row": content(i) and content(j) and same_row,
        "same-column": content(i) and content(j) and same_col,
        "other": True,
    }
    assert tuple(rules) == BIAS_CLASSES
    return next(k for k, name in enumerate(BIAS_CLASSES) if rules[name])


@pytest.mark.parametrize("tokens", ["T0", "T1", "T2"])
def test_bias_map_matches_pair_rules(rng, tokens):
    for _ in range(10):
        t = make_table(rng)
        if rng.random() < 0.5:  # multi-piece headers
            t = Table(tuple(f"{h} {int(rng.integers(0, 999))}" for h in t.headers), t.rows)
        enc = linearize(random_question(rng, t), t, tokens)
        rel = build_bias_map(enc).rel
        L = len(enc)
        slow = [[relation_class(enc, i, j) for j in range(L)] for i in range(L)]
        assert rel.dtype == np.int8
        assert np.array_equal(rel, np.array(slow))


@pytest.mark.parametrize("table", [
    grid_table(800, 1, lambda i, j: str(1000 + i)),  # one column group
    grid_table(1, 16, lambda i, j: str(j % 9 + 1) * 250),  # one row group
])
def test_bias_map_working_memory_is_one_chunk(table):
    # beyond its L x L output, the build holds a few bytes per pair of one
    # block of _CHUNK_PAIRS pairs at once, for any layout: no group's block
    # of pairs grows as L^2
    enc = linearize("select c1", table, "T0")
    L = len(enc)
    assert L > 4000
    tracemalloc.start()
    try:
        build_bias_map(enc).rel
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - L * L < 16 * mask_module._CHUNK_PAIRS, peak - L * L


def test_bias_map_gathers_its_classes_when_read():
    # the map is the M0 mask of its layout: building it is O(L), and its
    # L x L classes are gathered on the first read of .rel, once
    enc = make_bench_encoding(2048, "T2", seed=1)
    L = len(enc)
    tracemalloc.start()
    try:
        rel = build_bias_map(enc)
        _, built = tracemalloc.get_traced_memory()
        classes = rel.rel
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < L * L <= read, (built, read)
    assert rel.rel is classes and rel.length == L and rel.n_classes == N_BIAS_CLASSES
    with pytest.raises(ValidationError, match="M0"):
        BiasRelationMap("M1", rel.row, rel.col, rel.cat)


def test_bias_map_values_in_range(rng):
    for _ in range(20):
        t = make_table(rng)
        enc = linearize(random_question(rng, t), t, "T2")
        rel = build_bias_map(enc).rel
        assert rel.dtype == np.int8
        assert rel.min() >= 0 and rel.max() < N_BIAS_CLASSES
        assert (rel.diagonal() == 0).all()
