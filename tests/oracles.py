"""Per-pair references for the vectorized mask code, deliberately unvectorized."""

import numpy as np

from tabenc.linearize import EncodedInput, TokenRole
from tabenc.mask import _SAME_COL, _SAME_ROW, _STRUCT_RELAY, _check_scheme


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


def build_mask_bruteforce(enc: EncodedInput, scheme: str) -> np.ndarray:
    """The L x L allow-matrix from the pair predicate over all L^2 pairs; no shortcuts."""
    _check_scheme(enc, scheme)
    L = len(enc)
    dense = np.zeros((L, L), dtype=bool)
    for i in range(L):
        for j in range(L):
            dense[i, j] = _allowed_pair(enc, scheme, i, j)
    return dense


def block_area(blocks) -> int:
    return sum((q1 - q0) * (k1 - k0) for q0, q1, k0, k1 in blocks)
