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
at all 2 x 2 x 8 x 8 signatures; build_mask and build_bias_map gather from
those tables pair by pair and then set the diagonal.

A mask's runs of identical rows are bucketed once (AttentionMask.plan). The
block-sparse kernel runs those buckets, and the rectangle tiling of block
files (AttentionMask.blocks) is cut from the same lines, as one (n, 4) array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MASK_SCHEMES, ValidationError, is_legal_combination
from .linearize import HEADER_ROW, EncodedInput, TokenRole

# which content-pair rules each scheme enables
_SAME_ROW = frozenset({"M1", "M3", "M5"})
_SAME_COL = frozenset({"M1", "M2", "M4"})
_STRUCT_RELAY = frozenset({"M4", "M5", "M6"})


class Tiling(np.ndarray):
    """An (n, 4) intp array of (q0, q1, k0, k1) rectangles. Adding a tuple or
    list of rectangles appends them as rows, as adding to a tuple of tuples
    did; any other operand adds elementwise, as for any array."""

    def __add__(self, other):
        if isinstance(other, (tuple, list)):
            rows = np.asarray(other, dtype=np.intp).reshape(-1, 4)
            return np.concatenate([self.view(np.ndarray), rows]).view(Tiling)
        return super().__add__(other)


@dataclass(frozen=True)
class AttentionMask:
    """Boolean allow-matrix; dense[i, j] is True when query i may attend key j."""

    length: int
    scheme: str
    dense: np.ndarray

    @functools.cached_property
    def blocks(self) -> Tiling:
        """The (q0, q1, k0, k1) half-open rectangles that tile the allowed
        set exactly (disjoint, union equal to the True entries), as a
        read-only (n, 4) intp Tiling sorted by (q0, k0). Cut on first use from
        the lines of `plan`, since only block files and tiling checks need
        it; the kernel runs the plan itself."""
        blocks = export_blocks_from_dense(self.dense, self.plan.query).view(Tiling)
        blocks.flags.writeable = False
        return blocks

    @functools.cached_property
    def plan(self) -> Plan:
        """The shape buckets of dense's row runs (see Plan). Built once per
        mask and shared by the block-sparse forward and backward and by the
        tiling (`blocks`). dense is symmetric (build_mask makes it so), so the
        key plan is the query plan."""
        buckets = _buckets(self.dense)
        return Plan(buckets, buckets)


def _check_scheme(enc: EncodedInput, scheme: str) -> None:
    if scheme not in MASK_SCHEMES:
        raise ValidationError(f"unknown mask scheme {scheme!r}")
    if not is_legal_combination(enc.tokens_scheme, scheme):
        raise ValidationError(
            f"{scheme} needs structural marker tokens (T2 input), got {enc.tokens_scheme}"
        )


def build_mask(enc: EncodedInput, scheme: str) -> AttentionMask:
    """Mask from the scheme's signature table, with the diagonal set."""
    _check_scheme(enc, scheme)
    allowed = _gather_pairs(enc, _MASK_TABLES[scheme])
    np.fill_diagonal(allowed, True)
    return AttentionMask(len(enc), scheme, allowed)


def sparsity(mask: AttentionMask) -> float:
    """Fraction of disallowed pairs over L^2."""
    L = mask.length
    return float(L * L - int(mask.dense.sum())) / float(L * L)


def export_blocks(mask: AttentionMask) -> Tiling:
    """Rectangle tiling of the allowed set, an (n, 4) Tiling sorted by (q0, k0)."""
    return mask.blocks


def export_blocks_from_dense(dense: np.ndarray, buckets: list | None = None) -> np.ndarray:
    """Tile a symmetric allow-matrix with a True diagonal into disjoint
    (q0, q1, k0, k1) rectangles, an (n, 4) intp array sorted by (q0, k0).

    `buckets` are the matrix's query buckets (_buckets(dense), built here
    when not given): each line is a run of identical rows with its sorted
    keys. The question band (the maximal all-True leading row prefix, which
    by symmetry is also an all-True leading column prefix) is emitted as at
    most two rectangles; every other line is cut into its runs of
    consecutive keys at or after the band. Residual diagonal entries come
    out as 1x1 rectangles.
    """
    L = int(dense.shape[0])
    if buckets is None:
        buckets = _buckets(dense)
    # the band's rows are one line, starting at row 0, that allows every key
    b = next((rows.shape[1] for rows, keys in buckets
              if keys.shape[1] == L and rows[0, 0] == 0), 0)
    if b == L:
        return np.array([[0, L, 0, L]], dtype=np.intp)
    band = np.array([[0, b, 0, L], [b, L, 0, b]], dtype=np.intp)
    tiles = [band if b else band[:0]]
    for rows, keys in buckets:
        live = (keys >= b) & (rows[:, :1] >= b)  # keys right of the band, off its line
        step = np.diff(keys, axis=1) != 1
        first, last = live.copy(), live.copy()
        first[:, 1:] &= step | ~live[:, :-1]
        last[:, :-1] &= step
        # flat positions of each run's first and last key, line by line
        j0, j1 = np.flatnonzero(first), np.flatnonzero(last)
        q0 = rows[:, 0][j0 // keys.shape[1]]
        flat = keys.ravel()
        tiles.append(np.stack([q0, q0 + rows.shape[1], flat[j0], flat[j1] + 1], axis=1))
    tiles = np.concatenate(tiles)
    # lines are disjoint row ranges and each line's runs are in key order
    return tiles[np.argsort(tiles[:, 0], kind="stable")]


def blocks_cover(blocks, L: int) -> np.ndarray:
    """Paint rectangles into an L x L allow-matrix; raises ValidationError,
    naming the first pair in row-major order, if any pair is covered twice."""
    cover = np.zeros((L, L), dtype=bool)
    twice = np.zeros((L, L), dtype=bool)  # a flag, not a count, so it cannot wrap
    for q0, q1, k0, k1 in blocks:
        twice[q0:q1, k0:k1] |= cover[q0:q1, k0:k1]
        cover[q0:q1, k0:k1] = True
    if twice.any():
        r, k = divmod(int(np.argmax(twice)), L)
        raise ValidationError(f"blocks cover key {k} twice for query row {r}")
    return cover


def _row_runs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the runs of identical consecutive rows of a 2-D array."""
    n = matrix.shape[0]
    changed = np.ones(n, dtype=bool)
    changed[1:] = (matrix[1:] != matrix[:-1]).any(axis=1)
    starts = np.flatnonzero(changed)
    return starts, np.append(starts[1:], n)


class Plan(NamedTuple):
    """Shape buckets of an allow-matrix for the block-sparse kernel.

    A bucket is (rows, keys): rows (G, R) and keys (G, K) index arrays, one
    line per run of R identical rows that each allow the same K keys, in
    ascending order. `query` buckets the rows of the matrix; `key` buckets
    the rows of its transpose, so its rows are keys and its keys the queries
    that attend them. A dense call's plan has no key buckets (None): its one
    line holds every key.
    """

    query: list
    key: list | None


def _buckets(allowed: np.ndarray) -> list:
    """[(rows (G, R), keys (G, K))] over the row runs of an allow-matrix, one
    bucket per (R, K) shape in ascending order; runs that allow no key are
    left out."""
    starts, ends = _row_runs(allowed)
    lines: dict[tuple[int, int], list] = {}
    for r0, r1 in zip(starts.tolist(), ends.tolist()):
        keys = np.flatnonzero(allowed[r0])
        lines.setdefault((r1 - r0, len(keys)), []).append((r0, keys))
    return [(np.array([r0 for r0, _ in runs])[:, None] + np.arange(R),
             np.stack([keys for _, keys in runs]))
            for (R, K), runs in sorted(lines.items()) if K]


def plan_blocks(blocks, length: int) -> Plan:
    """The Plan of rectangles that are not a mask's own tiling (an
    AttentionMask plans from its rows, AttentionMask.plan).

    The rectangles are painted into an allow-matrix; its row runs give the
    query buckets and its transpose's the key buckets, so the rectangles
    need not be symmetric. Raises ValidationError for a rectangle out of
    range, a key covered twice, or a row no rectangle covers.
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
    allowed = blocks_cover(b, length)
    covered = allowed.any(axis=1)
    if not covered.all():
        raise ValidationError(f"blocks leave query row {int(np.argmin(covered))} uncovered")
    return Plan(_buckets(allowed), _buckets(allowed.T))


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


@dataclass(frozen=True)
class BiasRelationMap:
    """Per-pair relation class ids (L x L int8), indices into BIAS_CLASSES."""

    length: int
    rel: np.ndarray

    @property
    def n_classes(self) -> int:
        return N_BIAS_CLASSES


def build_bias_map(enc: EncodedInput) -> BiasRelationMap:
    rel = _gather_pairs(enc, _RELATION_TABLE)
    np.fill_diagonal(rel, 0)  # "self"
    return BiasRelationMap(len(enc), rel)


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
        if scheme in _STRUCT_RELAY:
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


_MASK_TABLES, _RELATION_TABLE = _signature_tables()
_CHUNK_PAIRS = 1 << 20  # pairs per row chunk of _gather_pairs


def _gather_pairs(enc: EncodedInput, table: np.ndarray) -> np.ndarray:
    """L x L array whose [i, j] is table[same_row, same_col, cat(i), cat(j)],
    built in row chunks, so working memory beyond the output is O(chunk * L)."""
    L, n = len(enc), _HEADER + 1
    rows, cols = enc.row_idx, enc.col_idx
    header = (enc.roles == TokenRole.CELL_CONTENT) & (rows == HEADER_ROW)
    cat = np.where(header, _HEADER, enc.roles).astype(np.uint8)
    flat = table.reshape(-1)
    out = np.empty((L, L), dtype=table.dtype)
    step = max(1, _CHUNK_PAIRS // max(L, 1))
    for r0 in range(0, L, step):
        r = slice(r0, r0 + step)
        # the signature's flat index into table, as uint8 (table.size == 256)
        sig = (rows[r, None] == rows) * np.uint8(2 * n * n)
        sig += (cols[r, None] == cols) * np.uint8(n * n)
        sig += cat[r, None] * np.uint8(n)
        sig += cat
        # "clip" clips nothing here and, unlike "raise", writes out unbuffered
        np.take(flat, sig, out=out[r], mode="clip")
    return out


# ---------------------------------------------------------------------------
# block file format: header line, then one rectangle per line
# ---------------------------------------------------------------------------

def write_blocks_file(path, mask: AttentionMask) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"L={mask.length} scheme={mask.scheme} sparsity={sparsity(mask):.6f}\n")
        fh.writelines(f"{q0} {q1} {k0} {k1}\n" for q0, q1, k0, k1 in export_blocks(mask).tolist())


def read_blocks_file(path) -> tuple[dict, np.ndarray]:
    """The header fields and the rectangles, an (n, 4) intp array."""
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline().strip()
        meta = {}
        for part in header_line.split():
            key, _, value = part.partition("=")
            meta[key] = value
        if "L" not in meta or "scheme" not in meta:
            raise ValidationError(f"{path}: malformed blocks header: {header_line!r}")
        blocks = []
        for lineno, line in enumerate(fh, 2):
            fields = line.split()
            if not fields:
                continue
            try:
                q0, q1, k0, k1 = (int(x) for x in fields)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: a block line is four integers, got {line.strip()!r}"
                ) from None
            blocks.append((q0, q1, k0, k1))
    try:
        meta["L"] = int(meta["L"])
        if "sparsity" in meta:
            meta["sparsity"] = float(meta["sparsity"])
    except ValueError:
        raise ValidationError(f"{path}: malformed blocks header: {header_line!r}") from None
    return meta, np.array(blocks, dtype=np.intp).reshape(-1, 4)
