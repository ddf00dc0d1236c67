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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import MASK_SCHEMES, STRUCTURAL_MASKS, TabencError, ValidationError
from .linearize import HEADER_ROW, EncodedInput, TokenRole

# which content-pair rules each scheme enables
_SAME_ROW = frozenset({"M1", "M3", "M5"})
_SAME_COL = frozenset({"M1", "M2", "M4"})
_STRUCT_RELAY = frozenset({"M4", "M5", "M6"})


@dataclass(frozen=True)
class AttentionMask:
    """Boolean allow-matrix; dense[i, j] is True when query i may attend key j."""

    length: int
    scheme: str
    dense: np.ndarray

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, int, int, int], ...]:
        """(q0, q1, k0, k1) half-open rectangles that tile the allowed set
        exactly (disjoint, union equal to the True entries); computed on
        first use, since only the block-sparse kernel and block files need it."""
        return export_blocks_from_dense(self.dense)

    @functools.cached_property
    def plan(self) -> list:
        """attention.plan_blocks of the mask's own blocks, built once per mask
        and shared by the block-sparse forward and backward."""
        from . import attention  # attention imports this module

        return attention.plan_blocks(self.blocks, self.length)


def _check_scheme(enc: EncodedInput, scheme: str) -> None:
    if scheme not in MASK_SCHEMES:
        raise ValidationError(f"unknown mask scheme {scheme!r}")
    if scheme in STRUCTURAL_MASKS and enc.tokens_scheme != "T2":
        raise ValidationError(
            f"{scheme} needs structural marker tokens (T2 input), got {enc.tokens_scheme}"
        )


def build_mask(enc: EncodedInput, scheme: str) -> AttentionMask:
    """Vectorized mask construction; see build_mask_bruteforce for the oracle."""
    _check_scheme(enc, scheme)
    L = len(enc)
    if scheme == "M0":
        return AttentionMask(L, scheme, np.ones((L, L), dtype=bool))

    roles = enc.roles
    rows = enc.row_idx
    cols = enc.col_idx

    question = roles == TokenRole.QUESTION
    content = roles == TokenRole.CELL_CONTENT

    allowed = np.eye(L, dtype=bool)
    allowed |= question[:, None] | question[None, :]

    if scheme in _SAME_ROW:
        pair = content[:, None] & content[None, :]
        allowed |= pair & (rows[:, None] == rows[None, :])
    if scheme in _SAME_COL:
        pair = content[:, None] & content[None, :]
        allowed |= pair & (cols[:, None] == cols[None, :])
    if scheme in _STRUCT_RELAY:
        row_tok = roles == TokenRole.ROW_TOK
        col_tok = roles == TokenRole.COL_TOK
        cell_tok = roles == TokenRole.CELL_TOK
        tab_tok = roles == TokenRole.TABLE_TOK
        relay = row_tok[:, None] & content[None, :] & (rows[:, None] == rows[None, :])
        relay |= col_tok[:, None] & content[None, :] & (cols[:, None] == cols[None, :])
        relay |= (
            cell_tok[:, None]
            & content[None, :]
            & (rows[:, None] == rows[None, :])
            & (cols[:, None] == cols[None, :])
        )
        relay |= tab_tok[:, None] & content[None, :]
        allowed |= relay | relay.T

    return AttentionMask(L, scheme, allowed)


def _allowed_pair(enc: EncodedInput, scheme: str, i: int, j: int) -> bool:
    """Per-pair predicate, deliberately unvectorized (differential oracle)."""
    if scheme == "M0" or i == j:
        return True
    role_i = int(enc.roles[i])
    role_j = int(enc.roles[j])
    q = int(TokenRole.QUESTION)
    if role_i == q or role_j == q:
        return True
    c = int(TokenRole.CELL_CONTENT)
    same_row = int(enc.row_idx[i]) == int(enc.row_idx[j])
    same_col = int(enc.col_idx[i]) == int(enc.col_idx[j])
    if role_i == c and role_j == c:
        if scheme in _SAME_ROW and same_row:
            return True
        if scheme in _SAME_COL and same_col:
            return True
    if scheme in _STRUCT_RELAY:
        for a, b in ((role_i, role_j), (role_j, role_i)):
            pair_same_row = same_row
            pair_same_col = same_col
            if b == c:
                if a == int(TokenRole.ROW_TOK) and pair_same_row:
                    return True
                if a == int(TokenRole.COL_TOK) and pair_same_col:
                    return True
                if a == int(TokenRole.CELL_TOK) and pair_same_row and pair_same_col:
                    return True
                if a == int(TokenRole.TABLE_TOK):
                    return True
    return False


def build_mask_bruteforce(enc: EncodedInput, scheme: str) -> AttentionMask:
    """Evaluate the pair predicate over all L^2 pairs; no shortcuts."""
    _check_scheme(enc, scheme)
    L = len(enc)
    dense = np.zeros((L, L), dtype=bool)
    for i in range(L):
        for j in range(L):
            dense[i, j] = _allowed_pair(enc, scheme, i, j)
    return AttentionMask(L, scheme, dense)


def sparsity(mask: AttentionMask) -> float:
    """Fraction of disallowed pairs over L^2."""
    L = mask.length
    return float(L * L - int(mask.dense.sum())) / float(L * L)


def export_blocks(mask: AttentionMask) -> tuple[tuple[int, int, int, int], ...]:
    """Rectangle tiling of the allowed set, sorted by (q0, k0)."""
    return mask.blocks


def export_blocks_from_dense(dense: np.ndarray) -> tuple[tuple[int, int, int, int], ...]:
    """Tile a symmetric allow-matrix into disjoint rectangles.

    The question band (the maximal all-True leading column prefix, which by
    symmetry is also an all-True leading row prefix) is emitted as at most two
    rectangles; the remaining region is tiled by grouping consecutive equal
    row patterns into maximal column runs. Residual diagonal entries come out
    as 1x1 rectangles.
    """
    L = int(dense.shape[0])
    full_cols = dense.all(axis=0)
    b = int(np.argmin(full_cols)) if not full_cols.all() else L
    rects: list[tuple[int, int, int, int]] = []
    if b == L:
        return ((0, L, 0, L),)
    if b > 0:
        rects.append((0, b, 0, L))
        rects.append((b, L, 0, b))
    sub = dense[b:, b:]
    n = L - b
    if n:
        # group consecutive identical rows, then split each group's shared
        # pattern into maximal runs of allowed columns
        changed = np.empty(n, dtype=bool)
        changed[0] = True
        if n > 1:
            changed[1:] = np.any(sub[1:] != sub[:-1], axis=1)
        starts = np.flatnonzero(changed)
        ends = np.append(starts[1:], n)
        for r0, r1 in zip(starts, ends):
            pattern = sub[r0]
            padded = np.empty(n + 1, dtype=np.int8)
            padded[:n] = pattern
            padded[n] = 0
            diffs = np.diff(np.concatenate(([0], padded)))
            run_starts = np.flatnonzero(diffs == 1)
            run_ends = np.flatnonzero(diffs == -1)
            for c0, c1 in zip(run_starts, run_ends):
                rects.append((b + int(r0), b + int(r1), b + int(c0), b + int(c1)))
    rects.sort(key=lambda r: (r[0], r[2]))
    return tuple(rects)


def blocks_cover(blocks, L: int) -> np.ndarray:
    """Paint rectangles into a matrix; raises if any pair is covered twice."""
    cover = np.zeros((L, L), dtype=np.uint8)
    for q0, q1, k0, k1 in blocks:
        cover[q0:q1, k0:k1] += 1
    if (cover > 1).any():
        raise TabencError("blocks overlap")
    return cover.astype(bool)


def block_area(blocks) -> int:
    return sum((q1 - q0) * (k1 - k0) for q0, q1, k0, k1 in blocks)


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

    def class_name(self, k: int) -> str:
        return BIAS_CLASSES[k]


def build_bias_map(enc: EncodedInput) -> BiasRelationMap:
    L = len(enc)
    roles = enc.roles
    rows = enc.row_idx
    cols = enc.col_idx

    question = roles == TokenRole.QUESTION
    content = roles == TokenRole.CELL_CONTENT
    header = content & (rows == HEADER_ROW)
    data = content & (rows != HEADER_ROW)

    qi = question[:, None]
    qj = question[None, :]
    di = data[:, None]
    dj = data[None, :]
    hi = header[:, None]
    hj = header[None, :]
    same_row = rows[:, None] == rows[None, :]
    same_col = cols[:, None] == cols[None, :]
    pair_content = content[:, None] & content[None, :]

    conditions = [
        np.eye(L, dtype=bool),                       # self
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
    rel = np.select(conditions, list(range(len(conditions))), default=len(conditions))
    return BiasRelationMap(L, rel.astype(np.int8))


# ---------------------------------------------------------------------------
# block file format: header line, then one rectangle per line
# ---------------------------------------------------------------------------

def write_blocks_file(path, mask: AttentionMask) -> None:
    blocks = export_blocks(mask)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"L={mask.length} scheme={mask.scheme} sparsity={sparsity(mask):.6f}\n")
        for q0, q1, k0, k1 in blocks:
            fh.write(f"{q0} {q1} {k0} {k1}\n")


def read_blocks_file(path) -> tuple[dict, tuple[tuple[int, int, int, int], ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline().strip()
        meta = {}
        for part in header_line.split():
            key, _, value = part.partition("=")
            meta[key] = value
        blocks = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            q0, q1, k0, k1 = (int(x) for x in line.split())
            blocks.append((q0, q1, k0, k1))
    if "L" not in meta or "scheme" not in meta:
        raise ValidationError(f"{path}: malformed blocks header: {header_line!r}")
    meta["L"] = int(meta["L"])
    if "sparsity" in meta:
        meta["sparsity"] = float(meta["sparsity"])
    return meta, tuple(blocks)
