"""In-memory span tracer that wraps public functions of tabenc's layers.

Wrappers go on the name each caller looks up: `tabenc.model` imports
`dense_forward` by name, so that call site is traced through
`tabenc.model.dense_forward`, while `tabenc.attention.dense_forward` covers
the attention module's own calls. Every span records its name, start, end
and parent; spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    # -- wrappers --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a traced wrapper; count(tracer, args, result)
        runs after each call to update counters."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports ---------------------------------------------------------------

    def totals(self, roots: set[str]) -> dict[str, dict[str, float]]:
        """Per span name: total time, self time and calls, over the spans that
        descend from a root span named in `roots`.

        Total time counts only spans with no ancestor of the same name, so a
        function that calls itself is not counted twice. Self time is a span's
        duration minus the time its direct children cover.
        """
        n = len(self.spans)
        root_of = [0] * n
        child_time = [0.0] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            root_of[i] = i if parent is None else root_of[parent]
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent is None or self.spans[root_of[i]][0] not in roots:
                continue
            entry = out[name]
            dur = end - start
            entry["calls"] += 1
            entry["self"] += dur - child_time[i]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                entry["total"] += dur
        return dict(out)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start_s": round(start - t0, 7), "end_s": round(end - t0, 7),
                }) + "\n")


def _n_tokens(tracer, args, result):
    tracer.add("linearize.tokens", len(result))


def _n_rectangles(tracer, args, result):
    tracer.add("mask.rectangles", len(result))


def _n_plan_entries(tracer, args, result):
    tracer.add("attention.plan_entries", len(result))


def _n_examples(tracer, args, result):
    tracer.add("datagen.examples", len(result[0]))


def _decoder_positions(tracer, args, result):
    # decoder_forward(params, cfg, dec_in, ...): batch x prefix length per call
    if tracer.inside("model.predict"):
        dec_in = args[2]
        tracer.add("model.decoder_positions", int(dec_in.shape[0]) * int(dec_in.shape[1]))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of datagen, sqlexec, linearize, mask,
    attention and model that the workloads reach."""
    from tabenc import attention, datagen, linearize, mask, model, sqlexec

    w = tracer.wrap
    w(datagen, "gen_dataset", "datagen.gen_dataset", _n_examples)
    w(datagen, "execute", "sqlexec.execute")
    w(sqlexec, "execute", "sqlexec.execute")
    w(linearize, "linearize", "linearize.linearize", _n_tokens)
    w(linearize, "assign_positions", "linearize.assign_positions")
    for owner in (mask, model):
        w(owner, "build_mask", "mask.build_mask")
        w(owner, "build_bias_map", "mask.build_bias_map")
    w(mask, "export_blocks_from_dense", "mask.export_blocks", _n_rectangles)
    w(attention, "plan_blocks", "attention.plan_blocks", _n_plan_entries)
    w(attention, "block_sparse_forward", "attention.sparse_fwd")
    w(attention, "block_sparse_backward", "attention.sparse_bwd")
    for owner in (attention, model):
        w(owner, "dense_forward", "attention.dense_fwd")
        w(owner, "dense_backward", "attention.dense_bwd")
    w(model, "prepare_example", "model.prepare_example")
    w(model, "collate", "model.collate")
    w(model, "encoder_forward", "model.encoder_fwd")
    w(model, "encoder_backward", "model.encoder_bwd")
    w(model, "decoder_forward", "model.decoder_fwd", _decoder_positions)
    w(model, "decoder_backward", "model.decoder_bwd")
    w(model, "loss_and_grads", "model.loss_and_grads")
    w(model.Adam, "step", "model.adam_step")
    w(model, "predict_prepared", "model.predict")


# span names reported with total time, self time and call count
SPAN_NAMES = (
    "datagen.gen_dataset",
    "sqlexec.execute",
    "linearize.linearize",
    "linearize.assign_positions",
    "mask.build_mask",
    "mask.export_blocks",
    "mask.build_bias_map",
    "attention.plan_blocks",
    "attention.sparse_fwd",
    "attention.sparse_bwd",
    "attention.dense_fwd",
    "attention.dense_bwd",
    "model.prepare_example",
    "model.collate",
    "model.encoder_fwd",
    "model.encoder_bwd",
    "model.decoder_fwd",
    "model.decoder_bwd",
    "model.loss_and_grads",
    "model.adam_step",
    "model.predict",
)

COUNTER_NAMES = (
    "datagen.examples",
    "linearize.tokens",
    "mask.rectangles",
    "attention.plan_entries",
    "model.decoder_positions",
)
