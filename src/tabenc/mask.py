"""Sparse attention masks M0..M6 over encoded inputs, plus relation maps for bias.

Rule summary (all masks are symmetric and keep the diagonal):

  M0  everything allowed
  M1  question band + same-row + same-column content pairs
  M2  question band + same-column content pairs
  M3  question band + same-row content pairs
  M4  M2 plus structural relays ([ROW]/[COL]/[CELL]/[TAB] to their content)
  M5  M3 plus structural relays
  M6  question band + structural relays only

"Question band": a pair is allowed whenever either side is a question token.
Header tokens are cell content on the header row, so same-column links headers
to their column's data. Boundary (SEP) tokens outside the question are
self-only. M4..M6 require T2 inputs.

Every mask rule and bias relation class sees a token pair only through its
signature (same_row, same_col, category i, category j); the categories are the
TokenRoles plus header-row content. The rules are evaluated once, at import,
at all 2 x 2 x 8 x 8 signatures. build_bias_map builds its L x L map from
those tables and the layout (_gather_pairs): each token's row is copied from
a pattern of its category and column, and only the pairs that share a row
are then rewritten; it then sets the diagonal. The map keeps its layout,
so the kernel can sum the gradient of a mask's square lines per class from
the layout (BiasRelationMap.column_class_sums) when the map and the mask
share it. signature_classes gathers a mask's pairs the same way through one
table that folds the scheme's rule into the relation classes: a pair the
mask blocks gets the extra class BLOCKED. That is the model's one (L, L)
plane per encoder element.

A mask is a view of the layout: the scheme plus each token's row, column and
category (AttentionMask). Its parts are planned once, straight from that
layout, in O(L + nnz), as shape buckets of runs of identical rows
(AttentionMask.parts): where every line of a column takes the column's
tokens through same-column rules and those tokens are the lines' own rows
(M1 and M2 content), the column part is planned once, as one square line of
the column's rows against themselves, and each line keeps only the rest of
its keys. The block-sparse kernel runs the parts and merges the two parts of
a row by their logsumexp; a row may thus sit in two lines. The rectangle
tiling of block files (AttentionMask.blocks) is cut from the complete lines,
joined from the parts a chunk of lines at a time (_complete_lines), and
sparsity() counts the parts' pairs. The L x L matrix (AttentionMask.dense)
is built like the relation map, and only when a caller reads it. Other
rectangles, such as a block file's, are planned as lines too (plan_blocks).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .core import MASK_SCHEMES, STRUCTURAL_MASKS, ValidationError, is_legal_combination, open_text
from .linearize import HEADER_ROW, EncodedInput, TokenRole

_INTEGER = re.compile(r"-?[0-9]+")  # a block file coordinate

# which content-pair rules each scheme enables
_SAME_ROW = frozenset({"M1", "M3", "M5"})
_SAME_COL = frozenset({"M1", "M2", "M4"})


class Tiling(np.ndarray):
    """An (n, 4) intp array of (q0, q1, k0, k1) rectangles. Adding a tuple or
    list of rectangles appends them as rows, as adding to a tuple of tuples
    did; any other operand adds elementwise, as for any array."""

    def __add__(self, other):
        if isinstance(other, (tuple, list)):
            rows = np.asarray(other, dtype=np.intp).reshape(-1, 4)
            return np.concatenate([self.view(np.ndarray), rows]).view(Tiling)
        return super().__add__(other)


@dataclass(frozen=True, eq=False)
class AttentionMask:
    """A scheme's mask over one table layout: query i may attend key j when
    the scheme's signature table allows (same row, same column, cat[i],
    cat[j]), and always when i == j. The plan, the tiling and the L x L
    matrix are derived from that layout on first use. Masks compare and
    hash by identity: their fields are arrays, which have no truth value."""

    scheme: str
    row: np.ndarray
    col: np.ndarray
    cat: np.ndarray  # the signature categories (TokenRoles plus _HEADER)

    @property
    def length(self) -> int:
        return len(self.cat)

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """The boolean allow-matrix; dense[i, j] is True when query i may attend
        key j. Built from the layout as the relation map is (_gather_pairs),
        with the diagonal set."""
        allowed = _gather_pairs(self.row, self.col, self.cat, _MASK_TABLES[self.scheme],
                                _MASK_LOCAL[self.scheme])
        np.fill_diagonal(allowed, True)
        return allowed

    @functools.cached_property
    def blocks(self) -> Tiling:
        """The (q0, q1, k0, k1) half-open rectangles that tile the allowed
        set exactly (disjoint, union equal to the True entries), as a
        read-only (n, 4) intp Tiling sorted by (q0, k0). Cut on first use
        from the complete lines, joined from `parts` chunk by chunk
        (_complete_lines), since only block files and tiling checks need
        it; the kernel runs the parts themselves."""
        blocks = export_blocks_from_dense(_complete_lines(self.parts, self.length)).view(Tiling)
        blocks.flags.writeable = False
        return blocks

    @functools.cached_property
    def parts(self) -> Plan:
        """The plan the block-sparse kernel runs, planned once from the
        layout (_layout_buckets): each column part that pays as one square
        line, and the rest of the lines as buckets. The rest of a symmetric
        mask minus its square blocks is symmetric, so its key plan is its
        query plan. Without square lines the parts are the complete lines."""
        buckets, square = _layout_buckets(self.row, self.col, self.cat, _MASK_TABLES[self.scheme])
        return Plan(buckets, buckets, square)


def _check_scheme(enc: EncodedInput, scheme: str) -> None:
    if scheme not in MASK_SCHEMES:
        raise ValidationError(f"unknown mask scheme {scheme!r}")
    if not is_legal_combination(enc.tokens_scheme, scheme):
        raise ValidationError(
            f"{scheme} needs structural marker tokens (T2 input), got {enc.tokens_scheme}"
        )


def _layout(enc: EncodedInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each token's (row, column, signature category)."""
    header = (enc.roles == TokenRole.CELL_CONTENT) & (enc.row_idx == HEADER_ROW)
    return enc.row_idx, enc.col_idx, np.where(header, _HEADER, enc.roles).astype(np.uint8)


def build_mask(enc: EncodedInput, scheme: str) -> AttentionMask:
    """The scheme's mask over enc's layout; no L x L matrix is built until
    AttentionMask.dense is read."""
    _check_scheme(enc, scheme)
    return AttentionMask(scheme, *_layout(enc))


def sparsity(mask: AttentionMask) -> float:
    """Fraction of disallowed pairs over L^2; the parts hold each allowed
    pair once."""
    L = mask.length
    allowed = sum(rows.size * keys.shape[1] for rows, keys in (*mask.parts.query, *mask.parts.square))
    return float(L * L - allowed) / float(L * L)


def export_blocks(mask: AttentionMask) -> Tiling:
    """Rectangle tiling of the allowed set, an (n, 4) Tiling sorted by (q0, k0)."""
    return mask.blocks


class Lines(NamedTuple):
    """The complete lines (runs of identical rows) of a symmetric allow-matrix
    of `length` rows, in row order, in chunks of (first row, row count, run
    count, k0, k1): each line's runs of consecutive keys [k0, k1), in key
    order, laid end to end. `bound` is at least the number of runs."""

    length: int
    bound: int
    chunks: Iterable


def export_blocks_from_dense(lines: Lines) -> np.ndarray:
    """Tile the allow-matrix of complete lines (_complete_lines), symmetric
    with a True diagonal, into disjoint (q0, q1, k0, k1) rectangles, an
    (n, 4) intp array sorted by (q0, k0) (column-major: the transpose of
    the (4, n) array it is built in).

    The question band (the maximal all-True leading row prefix, which by
    symmetry is also an all-True leading column prefix) is emitted as at
    most two rectangles; every other line gives its runs cut at the band.
    Residual diagonal entries come out as 1x1 rectangles. The rectangles
    are written chunk by chunk into one (4, lines.bound + 2) array, whose
    first n columns are returned, so working memory beyond the result is
    one chunk's (pages past the last column written are never touched).
    """
    L, b = lines.length, None
    out = np.empty((4, lines.bound + 2), dtype=np.intp)  # the transpose of the result
    n = 0
    for first, n_rows, n_runs, k0, k1 in lines.chunks:
        if b is None:
            # the band's rows are the first line, starting at row 0, if it allows every key
            b = int(n_rows[0]) if first[0] == 0 and k0[0] == 0 and k1[0] == L else 0
            if b == L:
                return np.array([[0, L, 0, L]], dtype=np.intp)
            if b:
                out[:, :2], n = [[0, b], [b, L], [0, 0], [L, b]], 2
        line = np.repeat(np.arange(len(first)), n_runs)
        if b:  # the band's rows and columns are out
            keep = np.flatnonzero((k1 > b) & (first >= b)[line])
            line, k0, k1 = line[keep], np.maximum(k0[keep], b), k1[keep]
        q0, q1, out_k0, out_k1 = out[:, n:n + len(line)]
        np.take(first, line, out=q0)
        np.add(q0, n_rows[line], out=q1)
        out_k0[:], out_k1[:] = k0, k1
        n += len(line)
    return out[:, :n].T


def _line_table(buckets, L: int):
    """Each row's line in `buckets` (-1 for none; lines are numbered bucket
    by bucket), and per line its key count, key sum and runs of consecutive
    keys: a line's [k0, k1) runs are at run_at[line] + range(n_runs[line]).
    The per-line arrays end with an empty line, which row -1 picks."""
    of_row = np.full(L, -1, dtype=np.intp)
    at = 0
    for rows, _ in buckets:
        of_row[rows] = at + np.arange(len(rows))[:, None]
        at += len(rows)
    n_keys = np.concatenate([*(np.full(len(keys), keys.shape[1]) for _, keys in buckets), [0]])
    sums = np.concatenate([*(keys.sum(axis=1) for _, keys in buckets), [0]])
    # the lines' keys end to end, one bucket after another; a line's end ends a run
    keys = np.concatenate([*(keys.ravel() for _, keys in buckets), [-2]]).astype(np.intp)
    line_end = np.cumsum(n_keys)
    step = keys[1:] != keys[:-1] + 1
    step[line_end[:-1] - 1] = True
    last = np.flatnonzero(step)
    start = np.append(0, last[:-1] + 1)
    n_runs = np.diff(np.searchsorted(last, line_end - 1, side="right"), prepend=0)
    return (of_row, n_keys.astype(np.intp), sums.astype(np.intp),
            np.cumsum(n_runs) - n_runs, n_runs, keys[start], keys[last] + 1)


def _complete_lines(parts: Plan, L: int) -> Lines:
    """The complete lines of a mask, joined from its parts: each row's keys
    are its query line's and its square line's, and adjacent lines with
    equal keys are merged. Each chunk is joined as it is read, and holds
    whole lines and about _CHUNK_RUNS runs (more only when a line or lines
    that may merge run past that).

    Rows with one query line and one square line (either may be none) are a
    segment. Segments whose key counts or key sums differ cannot merge, and
    only there is the join cut into chunks. In a chunk, the runs of each
    segment's two lines (disjoint, each in key order) are merged by position
    (searchsorted over runs coded as segment * L + k0), runs that touch are
    joined, and equal neighbours merged (_merged)."""
    q_of, q_keys, q_sums, *q_runs = _line_table(parts.query, L)
    s_of, s_keys, s_sums, *s_runs = _line_table(parts.square, L)
    cut = np.ones(L, dtype=bool)
    cut[1:] = (q_of[1:] != q_of[:-1]) | (s_of[1:] != s_of[:-1])
    first = np.flatnonzero(cut)
    end = np.append(first[1:], L)
    qi, si = q_of[first], s_of[first]
    n_keys, sums = q_keys[qi] + s_keys[si], q_sums[qi] + s_sums[si]
    # a chunk may end before segment i unless segment i may merge into the one before
    free = np.flatnonzero((n_keys[1:] != n_keys[:-1]) | (sums[1:] != sums[:-1])) + 1
    free = np.append(free, len(first))
    total = np.cumsum(q_runs[1][qi] + s_runs[1][si])  # runs before they are joined
    chunks = []
    i = 0
    while i < len(first):
        j = int(np.searchsorted(total, (total[i - 1] if i else 0) + _CHUNK_RUNS, side="right"))
        j = int(free[np.searchsorted(free, max(j, i + 1))])
        chunks.append((i, j))
        i = j
    return Lines(L, int(total[-1]), (_joined(first[i:j], end[i:j], L, (qi[i:j], *q_runs),
                                             (si[i:j], *s_runs)) for i, j in chunks))


def _joined(first, end, L, *parts):
    """One chunk of _complete_lines from its segments [first, end) and, for
    the query part and then the square part, each segment's line (-1 for
    none) and the lines' run tables (_line_table)."""
    pieces = []  # per part: each segment's run count, and the runs' k0 and k1
    for lines, at, n_runs, k0, k1 in parts:
        n = n_runs[lines]
        runs = _ranges(at[lines], at[lines] + n)
        pieces.append((n, k0[runs], k1[runs]))
    (q_n, q_k0, q_k1), (s_n, s_k0, s_k1) = pieces
    if not len(s_k0):  # query lines alone: whole lines, merged already (_layout_buckets)
        return first, end - first, q_n, q_k0, q_k1
    # merge the two parts' runs by position: each segment's are disjoint and in key order
    q_code, s_code = (np.repeat(np.arange(len(first)) * L, n) + k0 for n, k0 in ((q_n, q_k0), (s_n, s_k0)))
    at = np.arange(len(q_code)) + np.searchsorted(s_code, q_code)
    from_s = np.ones(len(q_code) + len(s_code), dtype=bool)
    from_s[at] = False
    k0, k1 = np.empty(len(from_s), dtype=np.intp), np.empty(len(from_s), dtype=np.intp)
    k0[at], k0[from_s], k1[at], k1[from_s] = q_k0, s_k0, q_k1, s_k1
    return _lines(first, end, q_n + s_n, k0, k1)


def _lines(first, end, n, k0, k1):
    """Segments [first, end) as lines: segment i has n[i] > 0 runs of keys
    [k0, k1), laid end to end, disjoint and in key order. Runs that touch
    in one segment are joined, and equal neighbours merged (_merged).
    Returns (first row, row count, run count, k0, k1) of the lines."""
    seg_at = np.cumsum(n) - n
    new = np.empty(len(k0), dtype=bool)
    np.not_equal(k0[1:], k1[:-1], out=new[1:])
    new[seg_at] = True
    start = np.flatnonzero(new)
    k0, k1 = k0[start], k1[np.append(start[1:], len(new)) - 1]
    n_runs = np.add.reduceat(new, seg_at, dtype=np.intp)
    n_lines = len(first)
    first, end, off, n_runs = _merged(first, end, np.cumsum(n_runs) - n_runs, n_runs, k0, k1)
    if len(first) < n_lines:  # keep only the runs of the merged lines
        runs = _ranges(off, off + n_runs)
        k0, k1 = k0[runs], k1[runs]
    return first, end - first, n_runs, k0, k1


class Plan(NamedTuple):
    """Shape buckets of an allow-matrix for the block-sparse kernel.

    A bucket is (rows, keys): rows (G, R) and keys (G, K) index arrays, one
    line per run of R identical rows that each allow the same K keys, in
    ascending order. `query` buckets the rows of the matrix; `key` buckets
    the rows of its transpose, so its rows are keys and its keys the queries
    that attend them. A dense call's plan has no key buckets (None): its one
    line holds every key.

    `square` buckets square lines, whose rows are their keys (one array) and
    which allow every pair among them: a mask's column parts (see
    AttentionMask.parts). Their pairs are in no other bucket, so a row may
    sit in a square line and in a query line, each holding part of its keys.
    """

    query: list
    key: list | None
    square: list | tuple = ()


def plan_blocks(blocks, length: int) -> Plan:
    """The Plan of rectangles that are not a mask's own tiling (an
    AttentionMask plans from its layout, AttentionMask.parts).

    The rectangles are planned as lines (_rect_buckets), with no L x L
    matrix: the query buckets from their rows, the key buckets from their
    columns, so the rectangles need not be symmetric. Raises
    ValidationError for a rectangle out of range, a key covered twice (the
    first such pair in row-major order) or a row no rectangle covers.
    """
    shape_error = ValidationError("blocks must be an (n, 4) array of (q0, q1, k0, k1) rectangles")
    try:
        b = np.asarray(blocks, dtype=np.intp)
    except (ValueError, TypeError):  # ragged rows, or not integers
        raise shape_error from None
    if b.ndim != 2 or b.shape[1] != 4:
        raise shape_error
    q0, q1, k0, k1 = b.T
    bad = ~((0 <= q0) & (q0 < q1) & (q1 <= length) & (0 <= k0) & (k0 < k1) & (k1 <= length))
    if bad.any():
        raise ValidationError(
            f"block {tuple(b[np.argmax(bad)].tolist())} out of range for L={length}"
        )
    query = _rect_buckets(q0, q1, k0, k1, length, check=True)
    return Plan(query, _rect_buckets(k0, k1, q0, q1, length, check=False))


def _rect_buckets(r0, r1, c0, c1, L: int, check: bool) -> list:
    """The buckets (see Plan) of the rows of rectangles [r0, r1) x [c0, c1).
    The L rows are cut at every r0 and r1 into segments, each rectangle
    gives its run [c0, c1) to each segment it spans, and the segments with
    runs are joined into lines (_lines) and bucketed. With `check`, a pair
    covered twice or a row no rectangle covers raises ValidationError."""
    is_cut = np.zeros(L + 1, dtype=bool)
    is_cut[[0, L]] = is_cut[r0] = is_cut[r1] = True
    cuts = np.flatnonzero(is_cut)
    seg_of = np.cumsum(is_cut, dtype=np.intp) - 1  # the segment a cut starts
    lo, hi = seg_of[r0], seg_of[r1]
    rect = np.repeat(np.arange(len(r0)), hi - lo)
    start = _ranges(lo, hi)  # each run's segment
    n = np.bincount(start, minlength=len(cuts) - 1)
    start *= L + 1
    start += c0[rect]  # each run's k0, coded by its segment
    order = np.argsort(start)  # a tie is an overlap, which either order reports alike
    start, rect = start[order], rect[order]
    del lo, hi, order
    k0, k1 = c0[rect], c1[rect]
    if check:
        # a run overlaps an earlier one of its segment when it starts before
        # the furthest of their ends: coded by segment, a running maximum
        twice = start[1:] < np.maximum.accumulate(start + (k1 - k0))[:-1]
        if twice.any():
            row, key = divmod(int(start[1 + np.argmax(twice)]), L + 1)
            raise ValidationError(f"blocks cover key {key} twice for query row {cuts[row]}")
        if not n.all():
            raise ValidationError(f"blocks leave query row {cuts[np.argmin(n)]} uncovered")
    live = np.flatnonzero(n)
    if not len(live):  # no rectangles, in a matrix of no rows
        return []
    first, n_rows, n_runs, k0, k1 = _lines(cuts[live], cuts[live + 1], n[live], k0, k1)
    n_keys = np.add.reduceat(k1 - k0, np.cumsum(n_runs) - n_runs)
    return _grouped(first, n_rows, np.cumsum(n_keys) - n_keys, n_keys, _ranges(k0, k1), L)


# ---------------------------------------------------------------------------
# relation classes for learned attention bias
# ---------------------------------------------------------------------------

# Priority-ordered relation classes between token pairs. The first matching
# class wins; "cell" below means data-cell content (row >= 1), "header" means
# header-row content. Exactly 13 classes, "other" as the catch-all.
BIAS_CLASSES = (
    "self",
    "question-question",
    "question-cell",
    "cell-question",
    "question-header",
    "header-question",
    "same-cell",
    "cell-to-column-header",
    "column-header-to-cell",
    "header-header-same-column",
    "same-row",
    "same-column",
    "other",
)

N_BIAS_CLASSES = len(BIAS_CLASSES)
BLOCKED = N_BIAS_CLASSES  # signature_classes' class of a pair the mask blocks


@dataclass(frozen=True, eq=False)
class BiasRelationMap:
    """Per-pair relation class ids (L x L int8), indices into BIAS_CLASSES,
    and the table layout they were built from: each token's row, column and
    signature category, as an AttentionMask holds them. Maps compare and
    hash by identity, as masks do: their fields are arrays."""

    length: int
    rel: np.ndarray
    row: np.ndarray
    col: np.ndarray
    cat: np.ndarray

    @property
    def n_classes(self) -> int:
        return N_BIAS_CLASSES

    def same_layout(self, mask: AttentionMask) -> bool:
        """Whether `mask` is over the map's layout (an O(L) compare)."""
        return all(np.array_equal(a, b) for a, b in
                   ((self.row, mask.row), (self.col, mask.col), (self.cat, mask.cat)))

    def column_class_sums(self, rows, keys, ds) -> np.ndarray:
        """The per-class sums of ds, in float64, over lines (rows (G, R) and
        keys (G, K), ds (G, R, K)) whose pairs all share a column, such as
        a mask's square lines, from the layout: no class id is read.

        Such a pair's class is _RELATION_TABLE[0, 1] at its two categories
        unless its tokens also share a row, as a cell's do: then it is
        [1, 1]'s, or "self" on the diagonal. So the sums are the categories'
        one-hot product onehot(cat[rows])^T ds onehot(cat[keys]), less the
        same-row pairs, mapped through [0, 1], plus the same-row pairs in
        their own classes. Those pairs are found by grouping each line's
        keys by row; there are about R per line, not R x K."""
        n = _HEADER + 1
        G, R, K = ds.shape
        ds = ds.astype(np.float64, copy=False)
        hot = [(self.cat[ix][..., None] == np.arange(n)).astype(np.float64) for ix in (rows, keys)]
        by_cat = hot[0].reshape(-1, n).T @ np.matmul(ds, hot[1]).reshape(-1, n)
        # each (line, row) of the chunk's rows, and the keys of its line in that row
        row_r, row_k = (self.row[ix].astype(np.intp) for ix in (rows, keys))
        lo, hi = min(row_r.min(), row_k.min()), max(row_r.max(), row_k.max())
        span = (np.arange(G) * (hi - lo + 1))[:, None] - lo  # codes line by line
        code = (row_k + span).ravel()
        order = np.argsort(code, kind="stable")
        code = code[order]
        at_r = (row_r + span).ravel()
        first, end = np.searchsorted(code, at_r, "left"), np.searchsorted(code, at_r, "right")
        at_k = order[_ranges(first, end)]  # flat (line, key) places
        at_r = np.repeat(np.arange(G * R), end - first)  # flat (line, row) places
        same = ds.reshape(-1)[at_r * K + at_k % K]
        i, j = rows.reshape(-1)[at_r], keys.reshape(-1)[at_k]
        pair = self.cat[i].astype(np.intp) * n + self.cat[j]
        by_cat -= np.bincount(pair, same, minlength=n * n).reshape(n, n)
        classes = np.where(i == j, 0, _RELATION_TABLE[1, 1].reshape(-1)[pair])  # 0: "self"
        return (np.bincount(_RELATION_TABLE[0, 1].reshape(-1), by_cat.reshape(-1),
                            minlength=N_BIAS_CLASSES)
                + np.bincount(classes, same, minlength=N_BIAS_CLASSES))


def build_bias_map(enc: EncodedInput) -> BiasRelationMap:
    layout = _layout(enc)
    rel = _gather_pairs(*layout, _RELATION_TABLE, _RELATION_LOCAL)
    np.fill_diagonal(rel, 0)  # "self"
    return BiasRelationMap(len(enc), rel, *layout)


def signature_classes(mask: AttentionMask) -> np.ndarray:
    """The (L, L) int8 classes of a mask's pairs: the BIAS_CLASSES index
    where the scheme allows the pair, BLOCKED where it does not, and 0
    ("self") on the diagonal; that is, where(mask.dense, build_bias_map's
    rel, BLOCKED). Gathered from the layout (_gather_pairs) at each call
    through one table that folds the scheme's rule into the relation
    classes; nothing is cached on the mask."""
    classes = _gather_pairs(mask.row, mask.col, mask.cat, _CLASS_TABLES[mask.scheme],
                            _CLASS_LOCAL[mask.scheme])
    np.fill_diagonal(classes, 0)  # "self"
    return classes


# ---------------------------------------------------------------------------
# pair rules, evaluated once at every signature (same_row, same_col, cat_i, cat_j)
# ---------------------------------------------------------------------------

# categories: the TokenRoles plus _HEADER, cell content on the header row (so
# CELL_CONTENT alone means data-cell content)
_HEADER = len(TokenRole)


def _signature_tables() -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Each scheme's off-diagonal allow rule and the BIAS_CLASSES index of
    off-diagonal pairs, at every signature on the 2 x 2 x 8 x 8 grid."""
    same_row, same_col, cat_i, cat_j = np.meshgrid(
        (False, True), (False, True), range(_HEADER + 1), range(_HEADER + 1), indexing="ij"
    )
    qi, qj = cat_i == TokenRole.QUESTION, cat_j == TokenRole.QUESTION
    di, dj = cat_i == TokenRole.CELL_CONTENT, cat_j == TokenRole.CELL_CONTENT
    hi, hj = cat_i == _HEADER, cat_j == _HEADER
    content_j = dj | hj
    pair_content = (di | hi) & content_j

    relay = (cat_i == TokenRole.ROW_TOK) & content_j & same_row
    relay |= (cat_i == TokenRole.COL_TOK) & content_j & same_col
    relay |= (cat_i == TokenRole.CELL_TOK) & content_j & same_row & same_col
    relay |= (cat_i == TokenRole.TABLE_TOK) & content_j
    masks = {}
    for scheme in MASK_SCHEMES:
        allowed = np.full(same_row.shape, scheme == "M0") | qi | qj
        if scheme in _SAME_ROW:
            allowed |= pair_content & same_row
        if scheme in _SAME_COL:
            allowed |= pair_content & same_col
        if scheme in STRUCTURAL_MASKS:
            allowed |= relay | relay.swapaxes(2, 3)  # and with i and j swapped
        masks[scheme] = allowed

    conditions = [                                   # "self" is the diagonal
        qi & qj,                                     # question-question
        qi & dj,                                     # question-cell
        di & qj,                                     # cell-question
        qi & hj,                                     # question-header
        hi & qj,                                     # header-question
        di & dj & same_row & same_col,               # same-cell
        di & hj & same_col,                          # cell-to-column-header
        hi & dj & same_col,                          # column-header-to-cell
        hi & hj & same_col,                          # header-header-same-column
        pair_content & same_row,                     # same-row
        pair_content & same_col,                     # same-column
    ]
    rel = np.select(conditions, list(range(1, N_BIAS_CLASSES - 1)), default=N_BIAS_CLASSES - 1)
    return masks, rel.astype(np.int8)


def _local_categories(table: np.ndarray) -> np.ndarray:
    """Per category, whether any of its entries, as query or as key, changes
    with same_row or same_col: a pair with a category outside this set has
    the table's [0, 0] entry wherever its tokens sit."""
    varies = (table != table[0, 0]).any(axis=(0, 1))
    return varies.any(axis=1) | varies.any(axis=0)


_MASK_TABLES, _RELATION_TABLE = _signature_tables()
_MASK_LOCAL = {scheme: _local_categories(t) for scheme, t in _MASK_TABLES.items()}
_RELATION_LOCAL = _local_categories(_RELATION_TABLE)
# each scheme's relation class where it allows a signature, BLOCKED elsewhere
_CLASS_TABLES = {scheme: np.where(t, _RELATION_TABLE, np.int8(BLOCKED))
                 for scheme, t in _MASK_TABLES.items()}
_CLASS_LOCAL = {scheme: _local_categories(t) for scheme, t in _CLASS_TABLES.items()}
# pairs per block of _row_blocks; a block holds about 11 bytes per pair (its
# uint8 signatures, np.take's intp copy of them, and the values)
_CHUNK_PAIRS = 1 << 18
# runs per chunk of _complete_lines: each of its temporaries stays within
# 128 KiB, which keeps it in cache and in memory the allocator reuses
_CHUNK_RUNS = 1 << 14


def _gather_pairs(rows, cols, cat, table: np.ndarray, local: np.ndarray) -> np.ndarray:
    """L x L array whose [i, j] is table[same_row, same_col, cat[i], cat[j]],
    for non-negative rows and columns (an encoding's); `local` is the table's
    _local_categories.

    Built from the layout, not pair by pair. Against the keys outside its
    own row, a token's entries depend only on its category and its column:
    the table's [0, 1] entry at the keys in that column and its [0, 0] entry
    elsewhere, which differ only between local categories. So every row is
    first one copy of the pattern of its token's (category, column). Then
    the pairs of local tokens that share a row, the only others that can
    differ, are rewritten from table[1], in the blocks of _row_blocks.
    Working memory beyond the output is the patterns (categories x columns
    x L bytes; an encoding has at most MAX_COLUMNS columns) and one block.
    """
    n, width = _HEADER + 1, int(cols.max(initial=0)) + 1
    members = np.flatnonzero(local[cat])
    patterns = np.repeat(np.take(table[0, 0], cat, axis=1)[:, None], width, axis=1)
    patterns[:, cols[members], members] = np.take(table[0, 1], cat[members], axis=1)
    out = np.take(patterns.reshape(n * width, -1), cat.astype(np.intp) * width + cols, axis=0)
    flat = table[1].reshape(-1)
    for i, j in _row_blocks(rows, members):
        # the signature's flat index into table[1], as uint8 (table[1].size == 128)
        sig = (cols[i] == cols[j]) * np.uint8(n * n)
        sig += cat[i] * np.uint8(n)
        sig += cat[j]
        out[i, j] = np.take(flat, sig)
    return out


def count_classes(keys: np.ndarray):
    """(order, count, first, groups) of non-negative int `keys`: their stable
    argsort, each key's count and first place in that order, and the keys
    that occur, one array per count class c (counts in [2^(c-1), 2^c))."""
    order = np.argsort(keys, kind="stable")
    count = np.bincount(keys)
    first = np.cumsum(count) - count
    size_class = np.frexp(count)[1]
    # a set, not np.unique, whose first call in a process maps ~0.9 MiB more
    classes = sorted(set(size_class[count > 0].tolist()))
    return order, count, first, [np.flatnonzero(size_class == c) for c in classes]


def _row_blocks(rows, members):
    """Index blocks (i, j) that broadcast to every pair of `members` in one
    row, each at most _CHUNK_PAIRS pairs: rows whose member counts are
    within a factor of two are stacked as (G, R, 1) and (G, 1, S) blocks,
    padded to the longest by repeating a row's last member (so a padded
    pair repeats one of its row's own), and a row too long for one block is
    cut into runs of query members."""
    order, count, first, groups = count_classes(rows[members])
    order = members[order]
    for sel in groups:
        S = int(count[sel].max())
        lines = order[first[sel, None] + np.minimum(np.arange(S), count[sel, None] - 1)]
        step = max(1, _CHUNK_PAIRS // S)  # query members per block
        if step >= S:
            for g in range(0, len(lines), step // S):
                yield lines[g:g + step // S, :, None], lines[g:g + step // S, None, :]
        else:
            for line in lines:
                for r in range(0, S, step):
                    yield line[r:r + step, None], line


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenated ranges [lo[i], hi[i]), in order."""
    counts = hi - lo
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - lo, counts)


def _layout_buckets(rows, cols, cat, table: np.ndarray):
    """The mask's parts (see AttentionMask.parts) that a monotone, symmetric
    signature table gives over a layout, with the diagonal set, built in
    O(L + nnz) without the allow-matrix: the query buckets of each line's
    keys but its column part, and the square buckets of the column parts.
    Returns (buckets, square buckets). Without square lines the buckets are
    exactly the row runs of the allow-matrix, bucketed by shape.

    A token's mask row depends on its descriptor: its rule class (categories
    whose table entries as query are equal share one), its row if the class's
    rules look at same_row, its column if they look at same_col. Consecutive
    tokens with one descriptor share a row when their categories allow
    themselves; a token whose category does not is a line of its own (its row
    adds its diagonal). As the tables only grow with same_row and same_col, a
    line's keys are the union of the tokens whose category its class allows
    anywhere, in its row, in its column and in its cell, plus itself where
    needed. Adjacent lines with equal keys are then merged into one run.

    A line's column part is the keys its class takes through its column, its
    own cell among them; every line of one (class, column) shares it. Where
    that part is exactly the rows of those lines (so every pair among them is
    allowed), is shared by two lines or more and is at least as large as the
    rest of each line, it becomes one square line (rows = keys) of the square
    buckets, and those lines keep only their other keys. Lines left with no
    key are dropped.
    """
    L = len(cat)
    # [category i, category j]: j is allowed for i anywhere, or only in i's
    # row, column or cell
    anywhere = table[0, 0]
    in_row, in_col = table[1, 0] & ~anywhere, table[0, 1] & ~anywhere
    in_cell = table[1, 1] & ~(table[1, 0] | table[0, 1])
    by_row = (in_row | in_cell).any(axis=1)[cat]
    by_col = (in_col | in_cell).any(axis=1)[cat]
    rules = table.transpose(2, 0, 1, 3).reshape(len(anywhere), -1)
    rule_class = np.array([np.flatnonzero((rules == r).all(axis=1))[0] for r in rules])[cat]
    self_ok = table[1, 1].diagonal()[cat]

    # lines: runs of one descriptor, cut around every token not allowing itself
    desc = np.stack([rule_class, np.where(by_row, rows, -1), np.where(by_col, cols, -1)])
    start = np.ones(L, dtype=bool)
    start[1:] = (desc[:, 1:] != desc[:, :-1]).any(axis=0) | ~(self_ok[1:] & self_ok[:-1])
    first = np.flatnonzero(start)
    end = np.append(first[1:], L)
    line_class = rule_class[first]
    classes = sorted(set(line_class.tolist()))

    # each (kind, class) key list: the keys of the class's lines in one kind
    # of group, sorted by group, and each line's [lo, hi) range of them
    width = int(cols.max()) + 1
    lists = []
    for kind, (allowed, group) in enumerate(((anywhere, np.zeros(L, dtype=np.intp)), (in_row, rows),
                                             (in_col, cols), (in_cell, rows.astype(np.intp) * width + cols))):
        order = np.argsort(group, kind="stable")  # by group, then by index
        for c in classes:
            if allowed[c].any():
                keys = order[allowed[c][cat[order]]]
                lines = np.flatnonzero(line_class == c)
                want = group[first[lines]]
                lo = np.searchsorted(group[keys], want, side="left")
                hi = np.searchsorted(group[keys], want, side="right")
                lists.append((kind, c, lines, keys, lo, hi))
    square = _square_lines(first, end, cols[first], rule_class, cat, in_col, self_ok, lists)

    # (line, key) pairs, coded as line * L + key: each line's own diagonal
    # entry where needed, then its keys from each list but its column part
    alone = np.flatnonzero(~self_ok[first])
    codes = [alone * L + first[alone]]
    blocks = []
    for kind, c, lines, keys, lo, hi in lists:
        cut = square[lines]
        if kind == 2 and cut.any():
            # one square line per column: the lines of a column share [lo, hi)
            hi_at = np.zeros(len(keys) + 1, dtype=np.intp)
            hi_at[lo[cut]] = hi[cut]
            at = np.flatnonzero(hi_at)
            blocks += [keys[a:b] for a, b in zip(at.tolist(), hi_at[at].tolist())]
            lines, lo, hi = lines[~cut], lo[~cut], hi[~cut]
        code = np.repeat(lines, hi - lo) * L + keys[_ranges(lo, hi)]
        if kind == 1 and cut.any():  # its row's keys in its column are in its square line
            line, key = np.divmod(code, L)
            code = code[~(square[line] & (cols[key] == cols[first[line]]) & in_col[c][cat[key]])]
        codes.append(code)
    code = np.sort(np.concatenate(codes), kind="stable")
    code = code[np.append(True, code[1:] != code[:-1])]  # a cell's keys are in its row and column
    off = np.searchsorted(code, np.arange(len(first) + 1) * L)
    n_keys = np.diff(off)
    keys = code - np.repeat(np.arange(len(first)) * L, n_keys)
    live = n_keys > 0
    first, end, off, n_keys = _merged(first[live], end[live], off[:-1][live], n_keys[live], keys)
    buckets = _grouped(first, end - first, off, n_keys, keys, L)
    # square lines, one bucket per size in ascending order, in row order; rows are keys
    by_size: dict[int, list] = {}
    for line in sorted(blocks, key=lambda b: (len(b), b[0])):
        by_size.setdefault(len(line), []).append(line)
    return buckets, [(b, b) for b in map(np.stack, by_size.values())]


def _merged(first, end, off, n, *values):
    """The runs of lines [first, end), whose entries are value[off:off + n]
    for each array in `values`, when each line is merged into the one before
    where they touch and their entries are equal: (first, end, off, n) of
    the runs."""
    alike = (n[1:] == n[:-1]) & (first[1:] == end[:-1])
    for value in values:
        sums = np.add.reduceat(value, off) if len(off) else off
        alike &= sums[1:] == sums[:-1]
    alike = 1 + np.flatnonzero(alike)
    merged = np.zeros(len(first), dtype=bool)
    if len(alike):
        before = _ranges(off[alike - 1], off[alike - 1] + n[alike])
        after = _ranges(off[alike], off[alike] + n[alike])
        differ = np.zeros(len(before), dtype=bool)
        for value in values:
            differ |= value[before] != value[after]
        merged[alike] = ~np.logical_or.reduceat(differ, np.cumsum(n[alike]) - n[alike])
    kept = np.flatnonzero(~merged)
    end = end[np.append(kept[1:], len(first)) - 1]  # a run ends where its last merged line does
    return first[kept], end, off[kept], n[kept]


def _grouped(first, n_rows, off, n_keys, keys, L: int) -> list:
    """The lines as buckets: one per (R, K) shape in ascending order, its
    lines in row order."""
    order = np.lexsort((n_keys, n_rows))
    first, off, n_rows, n_keys = first[order], off[order], n_rows[order], n_keys[order]
    edges = np.flatnonzero(np.diff(n_rows * (L + 1) + n_keys, prepend=-1, append=-1))
    return [(first[g0:g1, None] + np.arange(n_rows[g0]),
             keys[off[g0:g1, None] + np.arange(n_keys[g0])])
            for g0, g1 in zip(edges[:-1].tolist(), edges[1:].tolist())]


def _square_lines(first, end, line_col, rule_class, cat, in_col, self_ok, lists) -> np.ndarray:
    """Which lines of _layout_buckets give their column part to a square
    line: those of each (class, column) whose column keys are exactly the
    rows of its lines, when it has two lines or more and that part is at
    least as large as the rest of each line (bounded above by its other
    key lists and its diagonal)."""
    n_col = np.zeros(len(first), dtype=np.intp)
    n_rest = (~self_ok[first]).astype(np.intp)
    for kind, _c, lines, _keys, lo, hi in lists:
        (n_col if kind == 2 else n_rest)[lines] += hi - lo
    # rows of each line that its class takes through the column (all of them, for a square)
    own = np.add.reduceat(in_col[rule_class, cat].astype(np.intp), first)
    cand = np.flatnonzero(n_col)
    group = rule_class[first[cand]] * (int(line_col.max()) + 1) + line_col[cand]
    n = int(group.max(initial=0)) + 1
    size = np.zeros(n, dtype=np.intp)
    size[group] = n_col[cand]  # one size per group
    pays = ((np.bincount(group, minlength=n) >= 2)
            & (np.bincount(group, (end - first)[cand], minlength=n) == size)
            & (np.bincount(group, own[cand], minlength=n) == size)
            & (np.bincount(group, n_col[cand] < n_rest[cand], minlength=n) == 0))
    square = np.zeros(len(first), dtype=bool)
    square[cand] = pays[group]
    return square


# ---------------------------------------------------------------------------
# block file format: header line, then one rectangle per line
# ---------------------------------------------------------------------------

def write_blocks_file(path, mask: AttentionMask) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"L={mask.length} scheme={mask.scheme} sparsity={sparsity(mask):.6f}\n")
        fh.writelines(f"{q0} {q1} {k0} {k1}\n" for q0, q1, k0, k1 in export_blocks(mask).tolist())


def read_blocks_file(path) -> tuple[dict, np.ndarray]:
    """The header fields and the rectangles, an (n, 4) intp array. A header
    or rectangle that no mask of the header's L and scheme has is rejected,
    and so are coordinates other than ASCII digits (with an optional minus
    sign) and rectangles that plan_blocks rejects, with the file's name."""
    with open_text(path) as fh:
        header_line = fh.readline().strip()
        meta = {}
        for part in header_line.split():
            key, _, value = part.partition("=")
            meta[key] = value
        try:
            meta["L"] = int(meta["L"])
            if "sparsity" in meta:
                meta["sparsity"] = float(meta["sparsity"])
        except (KeyError, ValueError):
            raise ValidationError(f"{path}: malformed blocks header: {header_line!r}") from None
        L = meta["L"]
        if L < 1 or meta.get("scheme") not in MASK_SCHEMES:
            raise ValidationError(f"{path}: blocks header needs L >= 1 and a mask scheme: {header_line!r}")
        blocks = []
        for lineno, line in enumerate(fh, 2):
            fields = line.split()
            if not fields:
                continue
            # int() alone would also take non-ASCII digits, "_" and "+"
            if len(fields) != 4 or not all(_INTEGER.fullmatch(x) for x in fields):
                raise ValidationError(
                    f"{path}:{lineno}: a block line is four integers, got {line.strip()!r}"
                )
            q0, q1, k0, k1 = (int(x) for x in fields)
            if not (0 <= q0 < q1 <= L and 0 <= k0 < k1 <= L):
                raise ValidationError(f"{path}:{lineno}: rectangle {line.strip()!r} is not within "
                                      f"0 <= q0 < q1 <= {L}, 0 <= k0 < k1 <= {L}")
            blocks.append((q0, q1, k0, k1))
    blocks = np.array(blocks, dtype=np.intp).reshape(-1, 4)
    try:
        plan_blocks(blocks, L)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return meta, blocks
