"""Correctness checks for the benchmark's workloads, written apart from tabenc.

Each check returns a list of error strings; an empty list means the output
passed. The references here are computed from the definitions (the SQL
grammar, the mask and relation-class rules, the softmax) or from properties
the method must have, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import re

import numpy as np

from tabenc.linearize import HEADER_ROW, TokenRole

_MAX_ERRORS = 5

# ---------------------------------------------------------------------------
# SQL subset: a second evaluator, written from the grammar
# ---------------------------------------------------------------------------

_SQL_TOKEN = re.compile(r"!=|[=(),]|[A-Za-z_][A-Za-z_0-9]*|\d+")


def reference_answer(query: str, headers, rows) -> list[str]:
    """Denotation of `query`: the selected column's cells of matching rows in
    row order, cut by LIMIT. AND/OR have equal precedence, left to right."""
    toks = [t.lower() for t in _SQL_TOKEN.findall(query)]
    col_of = {h: i for i, h in enumerate(headers)}
    pos = 0

    def peek(offset=0):
        return toks[pos + offset] if pos + offset < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, got {tok!r} in {query!r}")
        pos += 1
        return tok

    def atom(col):
        op = take()
        value = take()
        if op == "=":
            return lambda row: row[col] == value
        if op == "!=":
            return lambda row: row[col] != value
        raise ValueError(f"bad operator {op!r} in {query!r}")

    def condition():
        col = col_of[take()]
        if peek() == "in":
            take()
            take("(")
            values = {take()}
            while peek() == ",":
                take()
                values.add(take())
            take(")")
            return lambda row: row[col] in values
        if peek() == "=" and peek(1) == "(":
            take("=")
            take("(")
            take("select")
            inner_select = col_of[take()]
            take("where")
            inner_col = col_of[take()]
            take("=")
            value = take()
            take(")")
            members = {r[inner_select] for r in rows if r[inner_col] == value}
            return lambda row: row[col] in members
        pred = atom(col)
        while peek() in ("and", "or"):
            conn = take()
            rhs = atom(col_of[take()])
            if conn == "and":
                pred = (lambda a, b: lambda row: a(row) and b(row))(pred, rhs)
            else:
                pred = (lambda a, b: lambda row: a(row) or b(row))(pred, rhs)
        return pred

    take("select")
    out_col = col_of[take()]
    if peek() == "from":
        take()
        take("table")
    pred = lambda row: True
    if peek() == "where":
        take()
        pred = condition()
    limit = None
    if peek() == "limit":
        take()
        limit = int(take())
    if pos != len(toks):
        raise ValueError(f"trailing tokens in {query!r}")
    answer = [row[out_col] for row in rows if pred(row)]
    return answer if limit is None else answer[:limit]


def check_gold_answers(examples) -> list[str]:
    errors = []
    for i, ex in enumerate(examples):
        want = reference_answer(ex.query, ex.table.headers, ex.table.rows)
        if list(ex.answer) != want:
            errors.append(f"example {i}: gold {list(ex.answer)} != reference {want} for {ex.query!r}")
            if len(errors) >= _MAX_ERRORS:
                break
    return errors


def check_suite_property(suite: str, examples) -> list[str]:
    """structure: both dimensions outside the training range 6..8;
    compositional: every query combines IN with LIMIT."""
    errors = []
    for i, ex in enumerate(examples):
        if suite == "structure":
            dims = (ex.table.n_rows, ex.table.n_cols)
            if any(6 <= d <= 8 for d in dims):
                errors.append(f"structure example {i}: table {dims[0]}x{dims[1]} inside 6..8")
        elif suite == "compositional":
            toks = [t.lower() for t in _SQL_TOKEN.findall(ex.query)]
            if "in" not in toks or "limit" not in toks:
                errors.append(f"compositional example {i}: {ex.query!r} lacks IN or LIMIT")
        if len(errors) >= _MAX_ERRORS:
            break
    return errors


# ---------------------------------------------------------------------------
# greedy decoding and scoring
# ---------------------------------------------------------------------------

def answer_values(token_ids, vocab) -> list[str]:
    """Decoded answer: symbols between SEP tokens, up to the first EOS.
    PAD and BOS are skipped and empty values are dropped."""
    values, current = [], ""
    for tid in token_ids:
        tid = int(tid)
        if tid in (vocab.pad, vocab.bos):
            continue
        if tid == vocab.eos:
            break
        if tid == vocab.sep:
            if current:
                values.append(current)
            current = ""
        else:
            current += vocab.symbol(tid)
    if current:
        values.append(current)
    return values


def reference_greedy(model, params, cfg, examples, vocab) -> list[list[str]]:
    """Greedy decoding of one batch: the decoder is rerun on the full prefix
    at every step, and a row that emitted EOS is fed PAD from then on."""
    items = [model.prepare_example(ex, cfg, vocab) for ex in examples]
    batch = model.collate(items, vocab.pad, cfg.factor.bias == "B1")
    enc_states, _ = model.encoder_forward(params, cfg, batch, keep_cache=False)
    cross = batch.enc_real[:, None, None, :]
    rows = [[vocab.bos] for _ in items]
    finished = [False] * len(items)
    for _ in range(cfg.max_answer_len):
        prefix = np.asarray(rows, dtype=np.int32)
        n = prefix.shape[1]
        causal = np.tril(np.ones((n, n), dtype=bool))
        logits, _ = model.decoder_forward(params, cfg, prefix, enc_states, cross, causal,
                                          keep_cache=False)
        best = logits[:, -1].argmax(axis=-1)
        for r in range(len(rows)):
            rows[r].append(vocab.pad if finished[r] else int(best[r]))
            finished[r] = finished[r] or int(best[r]) == vocab.eos
        if all(finished):
            break
    return [answer_values(r[1:], vocab) for r in rows]


def check_same_predictions(preds, reference) -> list[str]:
    errors = []
    if len(preds) != len(reference):
        return [f"{len(preds)} predictions vs {len(reference)} reference decodes"]
    for i, (p, r) in enumerate(zip(preds, reference)):
        if list(p) != list(r):
            errors.append(f"example {i}: predict gave {list(p)}, reference loop gave {list(r)}")
            if len(errors) >= _MAX_ERRORS:
                break
    return errors


def check_accuracy(reported: float, preds, golds) -> list[str]:
    """The reported accuracy equals the share of multiset-equal answers."""
    hits = sum(sorted(p) == sorted(g) for p, g in zip(preds, golds))
    want = hits / len(golds)
    if len(preds) != len(golds) or abs(reported - want) > 1e-12:
        return [f"reported accuracy {reported} != counted {hits}/{len(golds)}"]
    return []


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

_FD_EPS = 1e-6  # central-difference step along the unit direction
_FD_TOL = 1e-6  # allowed error, relative to |grad|


def check_directional_derivative(loss_fn, params, grads, rng) -> list[str]:
    """Compare <grad, u> with a central difference along a unit-norm random
    direction u, in float64. The error is measured against ||grad||, which
    bounds <grad, u> for a unit u."""
    u = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in u.values()))
    u = {k: d / norm for k, d in u.items()}
    analytic = sum(float((grads[k] * u[k]).sum()) for k in params)
    plus = loss_fn({k: params[k] + _FD_EPS * u[k] for k in params})
    minus = loss_fn({k: params[k] - _FD_EPS * u[k] for k in params})
    numeric = (plus - minus) / (2 * _FD_EPS)
    gnorm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    err = abs(analytic - numeric)
    if not err <= _FD_TOL * max(gnorm, 1e-12):
        return [f"directional derivative {analytic:.10g} vs central difference "
                f"{numeric:.10g}: error {err:.3g} > {_FD_TOL} * |grad| ({gnorm:.3g})"]
    return []


def check_training(result, steps: int, loss_first: float, loss_final: float) -> list[str]:
    errors = []
    if result.steps_run != steps:
        errors.append(f"steps_run {result.steps_run} != requested {steps}")
    losses = [result.final_loss] + [row["loss"] for row in result.trace]
    if not np.isfinite(losses).all():
        errors.append(f"non-finite loss in {losses}")
    if not loss_final < loss_first:
        errors.append(f"loss on the probe batch did not fall: {loss_first} -> {loss_final}")
    return errors


# ---------------------------------------------------------------------------
# masks, tilings and relation classes
# ---------------------------------------------------------------------------

_ROW_RULE = {"M1", "M3", "M5"}
_COL_RULE = {"M1", "M2", "M4"}
_RELAY_RULE = {"M4", "M5", "M6"}


def expected_mask_row(enc, scheme: str, i: int) -> np.ndarray:
    """Row i of the mask from the scheme definitions: the diagonal, the
    question band, same-row / same-column content pairs, and the structural
    relays ([ROW], [COL], [CELL], [TAB] to their content, both ways)."""
    L = len(enc.roles)
    if scheme == "M0":
        return np.ones(L, dtype=bool)
    role = enc.roles
    content = role == TokenRole.CELL_CONTENT
    same_row = enc.row_idx == enc.row_idx[i]
    same_col = enc.col_idx == enc.col_idx[i]
    row = np.zeros(L, dtype=bool)
    row[i] = True
    if role[i] == TokenRole.QUESTION:
        row[:] = True
    row |= role == TokenRole.QUESTION
    if content[i]:
        if scheme in _ROW_RULE:
            row |= content & same_row
        if scheme in _COL_RULE:
            row |= content & same_col
        if scheme in _RELAY_RULE:
            row |= (role == TokenRole.ROW_TOK) & same_row
            row |= (role == TokenRole.COL_TOK) & same_col
            row |= (role == TokenRole.CELL_TOK) & same_row & same_col
            row |= role == TokenRole.TABLE_TOK
    elif scheme in _RELAY_RULE:
        if role[i] == TokenRole.ROW_TOK:
            row |= content & same_row
        elif role[i] == TokenRole.COL_TOK:
            row |= content & same_col
        elif role[i] == TokenRole.CELL_TOK:
            row |= content & same_row & same_col
        elif role[i] == TokenRole.TABLE_TOK:
            row |= content
    return row


def expected_class_row(enc, i: int) -> np.ndarray:
    """Row i of the relation-class map: the first matching class in the
    priority order self, question-question, question-cell, cell-question,
    question-header, header-question, same-cell, cell-to-column-header,
    column-header-to-cell, header-header-same-column, same-row, same-column,
    other (ids 0..12). "cell" is data content, "header" header content."""
    L = len(enc.roles)
    role = enc.roles
    question = role == TokenRole.QUESTION
    content = role == TokenRole.CELL_CONTENT
    header = content & (enc.row_idx == HEADER_ROW)
    data = content & (enc.row_idx != HEADER_ROW)
    same_row = enc.row_idx == enc.row_idx[i]
    same_col = enc.col_idx == enc.col_idx[i]
    self_pair = np.arange(L) == i
    rules = [
        self_pair,
        question[i] & question,
        question[i] & data,
        data[i] & question,
        question[i] & header,
        header[i] & question,
        data[i] & data & same_row & same_col,
        data[i] & header & same_col,
        header[i] & data & same_col,
        header[i] & header & same_col,
        content[i] & content & same_row,
        content[i] & content & same_col,
    ]
    cls = np.full(L, len(rules), dtype=np.int64)
    for k in reversed(range(len(rules))):
        cls[rules[k]] = k
    return cls


def sample_rows(enc, rng) -> np.ndarray:
    """Three rows of every token role present, plus eight uniform extras."""
    picked = []
    for r in np.unique(enc.roles):
        idx = np.flatnonzero(enc.roles == r)
        picked.extend(rng.choice(idx, size=min(3, len(idx)), replace=False))
    picked.extend(rng.integers(0, len(enc.roles), size=8))
    return np.unique(np.asarray(picked, dtype=np.int64))


def check_mask_rows(enc, scheme: str, dense: np.ndarray, rows) -> list[str]:
    errors = []
    for i in rows:
        want = expected_mask_row(enc, scheme, int(i))
        bad = np.flatnonzero(dense[i] != want)
        if bad.size:
            errors.append(f"{scheme} mask row {i}: {bad.size} entries differ from the rules "
                          f"(first at key {bad[0]})")
            if len(errors) >= _MAX_ERRORS:
                break
    return errors


def check_class_rows(enc, rel: np.ndarray, rows) -> list[str]:
    errors = []
    for i in rows:
        want = expected_class_row(enc, int(i))
        bad = np.flatnonzero(rel[i].astype(np.int64) != want)
        if bad.size:
            errors.append(f"relation row {i}: {bad.size} classes differ from the definitions "
                          f"(first at key {bad[0]}: {rel[i, bad[0]]} != {want[bad[0]]})")
            if len(errors) >= _MAX_ERRORS:
                break
    return errors


def check_tiling(blocks, dense: np.ndarray) -> list[str]:
    """The rectangles are in range, pairwise disjoint, and paint exactly the
    True entries of `dense`. Painting uses a 2-D difference array per chunk
    of 512 query rows, so memory stays O(512 * L)."""
    L = dense.shape[0]
    chunk = 512
    b = np.asarray(blocks, dtype=np.int64).reshape(-1, 4)
    q0, q1, k0, k1 = b.T
    if ((q0 < 0) | (q1 > L) | (q0 >= q1) | (k0 < 0) | (k1 > L) | (k0 >= k1)).any():
        return ["a rectangle is empty or out of range"]
    errors = []
    for r0 in range(0, L, chunk):
        r1 = min(r0 + chunk, L)
        sel = (q0 < r1) & (q1 > r0)
        a0 = np.maximum(q0[sel], r0) - r0
        a1 = np.minimum(q1[sel], r1) - r0
        c0, c1 = k0[sel], k1[sel]
        width = L + 1
        corners = np.concatenate([a0 * width + c0, a0 * width + c1,
                                  a1 * width + c0, a1 * width + c1])
        signs = np.repeat([1.0, -1.0, -1.0, 1.0], len(a0))
        diff = np.bincount(corners, weights=signs, minlength=(r1 - r0 + 1) * width)
        cover = diff.reshape(r1 - r0 + 1, width).cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
        if (cover > 1).any():
            i, j = np.argwhere(cover > 1)[0]
            errors.append(f"rectangles overlap at ({r0 + i}, {j})")
        painted = cover > 0
        diffs = np.argwhere(painted != dense[r0:r1])
        if len(diffs):
            i, j = diffs[0]
            errors.append(f"tiling differs from the mask at ({r0 + i}, {j}): "
                          f"painted {bool(painted[i, j])}, mask {bool(dense[r0 + i, j])}")
        if len(errors) >= _MAX_ERRORS:
            break
    return errors


# ---------------------------------------------------------------------------
# attention: float64 reference from the softmax definition
# ---------------------------------------------------------------------------

def attention_reference(q, k, v, d_out, allowed, rel, class_scalars, scale, chunk=512):
    """Exact masked softmax attention with bias class_scalars[rel], and the
    gradients of sum(out * d_out), in float64, a chunk of query rows at a
    time. Returns out, dq, dk, dv, the per-class bias gradient and sum |ds|."""
    q, k, v, d_out = (np.asarray(a, dtype=np.float64) for a in (q, k, v, d_out))
    scalars = np.asarray(class_scalars, dtype=np.float64)
    L = q.shape[0]
    n_classes = len(scalars)
    out = np.empty_like(v)
    dq = np.empty_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    dclass = np.zeros(n_classes)
    ds_l1 = 0.0
    for r0 in range(0, L, chunk):
        r1 = min(r0 + chunk, L)
        logits = np.where(allowed[r0:r1], q[r0:r1] @ k.T * scale + scalars[rel[r0:r1]], -np.inf)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        out[r0:r1] = p @ v
        dp = d_out[r0:r1] @ v.T
        rowdot = (d_out[r0:r1] * out[r0:r1]).sum(axis=1, keepdims=True)
        ds = p * (dp - rowdot)
        dq[r0:r1] = ds @ k * scale
        dk += ds.T @ q[r0:r1] * scale
        dv += p.T @ d_out[r0:r1]
        dclass += np.bincount(rel[r0:r1].ravel(), weights=ds.ravel(), minlength=n_classes)
        ds_l1 += float(np.abs(ds).sum())
    return out, dq, dk, dv, dclass, ds_l1


def _close(name, got, want, tol) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    err = float(np.abs(got - want).max()) if got.shape == want.shape else np.inf
    limit = tol * max(1.0, float(np.abs(want).max()))
    if not err <= limit:
        return [f"{name}: max error {err:.3g} > {limit:.3g}"]
    return []


_TOL_OUT = 1e-5  # output, relative to max(1, max |reference|)
_TOL_GRAD = 1e-4  # dq, dk, dv, likewise
_TOL_CLASS = 1e-7  # per-class bias gradient, relative to sum |ds|


def check_attention(ref, out, dq, dk, dv, dclass) -> list[str]:
    """Kernel output and dq on every query row, dk/dv on every key column,
    and the per-class bias gradient, against the float64 reference. Each
    softmax row's ds sums to zero, so the class gradients must sum to ~0."""
    r_out, r_dq, r_dk, r_dv, r_dclass, ds_l1 = ref
    errors = _close("out", out, r_out, _TOL_OUT)
    errors += _close("dq", dq, r_dq, _TOL_GRAD)
    errors += _close("dk", dk, r_dk, _TOL_GRAD)
    errors += _close("dv", dv, r_dv, _TOL_GRAD)
    if dclass is None:
        return errors + ["no per-class bias gradient returned"]
    # class gradients are sums of many ds terms that largely cancel, so their
    # error is measured against sum |ds| rather than against their own size
    dclass = np.asarray(dclass, dtype=np.float64)
    if not abs(float(dclass.sum())) <= _TOL_CLASS * ds_l1:
        errors.append(f"class bias gradients sum to {dclass.sum():.3g}, not ~0 "
                      f"(sum |ds| = {ds_l1:.3g})")
    err = float(np.abs(dclass - r_dclass).max()) if dclass.shape == r_dclass.shape else np.inf
    if not err <= _TOL_CLASS * ds_l1:
        errors.append(f"class bias gradient: max error {err:.3g} > {_TOL_CLASS} * sum |ds|")
    return errors
