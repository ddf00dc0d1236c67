"""The benchmark's three workloads.

Each workload has a set-up step, a fixed list of operations that make up one
round, and correctness checks. Operations carry a part label: "struct" for
work at the structural factor point T2/M5 (CPE, B1, E1 where the workload uses
them), "flat" for work at T0/M1 (TPE, B0, E0), or "other" for the rest: data
generation, and the T0/M3 long-table pass. All inputs come from the workload
seed.
"""

from __future__ import annotations

import functools
import json
import os
import time
import traceback

import numpy as np

import checks
from tabenc import attention, datagen, linearize, mask, model, sqlexec
from tabenc.core import FactorConfig, Table, derive_rng

STRUCT = FactorConfig("T2", "M5", "CPE", "B1", "E1")
FLAT = FactorConfig("T0", "M1", "TPE", "B0", "E0")
FACTORS = {"struct": STRUCT, "flat": FLAT}


def derived_seed(seed: int, tag: str) -> int:
    return int(derive_rng(seed, f"benchmark-{tag}", 0).integers(0, 2**31))


def grid_model_config(factor: FactorConfig, **overrides) -> model.ModelConfig:
    """The model shape `tabenc grid` uses by default."""
    return model.ModelConfig(factor=factor, d_model=128, n_heads=4, n_enc_layers=2,
                             n_dec_layers=2, ffn_dim=256, context_len=1024,
                             max_positions=1024, batch_size=8, **overrides)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.vocab = linearize.default_vocab()

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[tuple[str, str, object]]:
        """(label, part, callable) for every operation of one round."""
        raise NotImplementedError

    def after_op(self, label: str, output, first_round: bool, tracer=None) -> None:
        """Untimed hook run after each operation."""

    def final_checks(self) -> list[str]:
        return []

    def headline(self, rounds) -> list[tuple[str, float, str]]:
        """Named figures of this workload, from the rounds' operation times."""
        return []


def _median_over(rounds, fn):
    values = [fn(r) for r in rounds if not r["failed"]]
    return float(np.median(values)) if values else float("nan")


# ---------------------------------------------------------------------------
# sweep_train: the training half of one grid run
# ---------------------------------------------------------------------------

class SweepTrain(Workload):
    """Generate the data of a grid run, then train at struct and at flat.

    Training uses the first train_used examples for a fixed number of steps.
    In a grid run the 2000 steps dwarf example preparation and the evals;
    train_used and steps keep both about as small a share of a call."""

    name = "sweep_train"
    train_n = 512  # the grid's training suite
    eval_suites = ("structure", "consistency", "compositional", "mixability")
    eval_n = 128  # the grid's eval suites
    train_used = 40
    steps = 20
    eval_max = 2
    probe_n = 8
    fd_batch = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # one eval at the last step, on a small eval set; early stopping off
        self.cfgs = {
            part: grid_model_config(f, steps=self.steps, eval_every=self.steps,
                                    eval_max=self.eval_max, patience=self.steps + 1)
            for part, f in FACTORS.items()
        }
        self.train_seed = derived_seed(seed, "train-run")
        self.results = {}
        self.examples = []

    def setup(self) -> None:
        self.fd_params = {
            part: model.init_params(cfg, self.vocab.size,
                                    derive_rng(self.seed, f"benchmark-fd-init-{part}", 0))
            for part, cfg in self.cfgs.items()
        }

    def _gen(self):
        """The suites `tabenc grid` generates before it trains."""
        jobs = [("train", self.train_n)] + [(s, self.eval_n) for s in self.eval_suites]
        out = {suite: datagen.gen_dataset(datagen.suite_spec(
                   suite, n, seed=derived_seed(self.seed, f"grid-data-{suite}")))
               for suite, n in jobs}
        self.examples = out["train"][0]
        return out

    def _train(self, part):
        return model.train(self.examples[:self.train_used], self.cfgs[part], self.train_seed)

    def operations(self):
        return [("gen", "other", self._gen)] + [
            (f"train.{part}", part, functools.partial(self._train, part)) for part in FACTORS]

    def after_op(self, label, output, first_round, tracer=None):
        if first_round:
            self.results[label] = output

    def final_checks(self) -> list[str]:
        errors = []
        if "gen" not in self.results:
            return ["gen: no output to check"]
        for suite, (examples, report) in self.results["gen"].items():
            if report.n_skipped_oracle:
                errors.append(f"{suite}: {report.n_skipped_oracle} examples skipped by the oracle")
            errors += [f"{suite}: {e}" for e in checks.check_gold_answers(examples)]
            errors += checks.check_suite_property(suite, examples)
        pad = self.vocab.pad
        for part, cfg in self.cfgs.items():
            result = self.results.get(f"train.{part}")
            if result is None:
                errors.append(f"train.{part}: no result to check")
                continue
            with_rel = cfg.factor.bias == "B1"
            probe = model.collate([model.prepare_example(ex, cfg, self.vocab)
                                   for ex in self.examples[:self.probe_n]], pad, with_rel)
            # the parameters model.train starts from for this seed
            start = model.init_params(cfg, self.vocab.size, derive_rng(self.train_seed, "init", 0))
            loss_first, _ = model.loss_and_grads(start, cfg, probe, pad)
            loss_final, _ = model.loss_and_grads(result.params, cfg, probe, pad)
            errors += [f"train.{part}: {e}" for e in
                       checks.check_training(result, self.steps, loss_first, loss_final)]

            params = {k: v.astype(np.float64) for k, v in self.fd_params[part].items()}
            rng = np.random.default_rng(derived_seed(self.seed, f"fd-direction-{part}"))
            for k in params:
                if k.endswith("bias_scales"):  # non-zero biases so the gather matters
                    params[k] = rng.standard_normal(params[k].shape) * 0.5
            batch = model.collate([model.prepare_example(ex, cfg, self.vocab)
                                   for ex in self.examples[:self.fd_batch]], pad, with_rel)
            _, grads = model.loss_and_grads(params, cfg, batch, pad)
            loss_fn = lambda p: model.loss_and_grads(p, cfg, batch, pad)[0]
            errors += [f"gradient at {part}: {e}" for e in
                       checks.check_directional_derivative(loss_fn, params, grads, rng)]
        return errors

    def headline(self, rounds):
        n_gen = self.train_n + self.eval_n * len(self.eval_suites)
        out = [("gen_examples_per_s", n_gen / _median_over(rounds, lambda r: r["ops"]["gen"]),
                "examples/s")]
        for part in FACTORS:
            t = _median_over(rounds, lambda r: r["ops"][f"train.{part}"])
            out.append((f"train_steps_per_s.{part}", self.steps / t, "steps/s"))
        return out


# ---------------------------------------------------------------------------
# eval_decode: the evaluation half of one grid run
# ---------------------------------------------------------------------------

class EvalDecode(Workload):
    """Generate the four disturbance suites, then greedy-decode a slice of
    each with untrained parameters at struct and at flat, and score it.

    Decoding cost follows the longest encoding in a batch, so the slice is
    the suite's largest tables: the suite seed changes the contents, hardly
    the amount of work. The parameters come from a fixed seed; untrained,
    they never emit EOS, so every row runs all steps."""

    name = "eval_decode"
    suites = ("structure", "consistency", "compositional", "mixability")
    suite_n = 512  # four times the grid's eval_n, so that generation is long enough to time
    slice_n = 8
    batch = 8  # the eval batch of `tabenc grid`
    params_seed = 0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cfgs = {part: grid_model_config(f) for part, f in FACTORS.items()}
        self.suite_seeds = {s: derived_seed(seed, f"suite-{s}") for s in self.suites}
        self.generated = {}
        self.kept = {}

    def setup(self) -> None:
        self.params = {
            part: model.init_params(cfg, self.vocab.size,
                                    derive_rng(self.params_seed, f"benchmark-decode-{part}", 0))
            for part, cfg in self.cfgs.items()
        }

    def _gen(self):
        for suite in self.suites:
            self.generated[suite] = datagen.gen_dataset(
                datagen.suite_spec(suite, self.suite_n, seed=self.suite_seeds[suite]))
        return dict(self.generated)

    def decode_slice(self, examples):
        order = sorted(range(len(examples)),
                       key=lambda i: (-examples[i].table.n_rows * examples[i].table.n_cols, i))
        return [examples[i] for i in sorted(order[:self.slice_n])]

    def _decode(self, part):
        out = {}
        for suite in self.suites:
            examples = self.decode_slice(self.generated[suite][0])
            preds = model.predict(self.params[part], self.cfgs[part], examples, self.vocab,
                                  batch_size=self.batch)
            accuracy = sqlexec.denotation_accuracy(preds, [ex.answer for ex in examples])
            out[suite] = (preds, accuracy)
        return out

    def operations(self):
        return [("gen", "other", self._gen)] + [
            (f"decode.{part}", part, functools.partial(self._decode, part)) for part in FACTORS]

    def after_op(self, label, output, first_round, tracer=None):
        if first_round:
            self.kept.update({f"{label}.{s}": v for s, v in output.items()})

    def final_checks(self) -> list[str]:
        errors = []
        for s in self.suites:
            if f"gen.{s}" not in self.kept:
                errors.append(f"gen.{s}: no output to check")
                continue
            examples, report = self.kept[f"gen.{s}"]
            if report.n_skipped_oracle:
                errors.append(f"{s}: {report.n_skipped_oracle} examples skipped by the oracle")
            errors += [f"{s}: {e}" for e in checks.check_gold_answers(examples)]
            errors += checks.check_suite_property(s, examples)
            golds = [ex.answer for ex in self.decode_slice(examples)]
            for part in FACTORS:
                label = f"decode.{part}.{s}"
                if label not in self.kept:
                    errors.append(f"{label}: no output to check")
                    continue
                preds, accuracy = self.kept[label]
                errors += [f"{label}: {e}" for e in checks.check_accuracy(accuracy, preds, golds)]
        # predict against a full-prefix greedy loop, on the first decode batch
        suite = "compositional"
        for part, cfg in self.cfgs.items():
            label = f"decode.{part}.{suite}"
            if label not in self.kept or f"gen.{suite}" not in self.kept:
                continue
            examples = self.decode_slice(self.kept[f"gen.{suite}"][0])[:self.batch]
            reference = checks.reference_greedy(model, self.params[part], cfg, examples, self.vocab)
            errors += [f"{label}: {e}" for e in
                       checks.check_same_predictions(self.kept[label][0][:self.batch], reference)]
        return errors

    def headline(self, rounds):
        n_gen = self.suite_n * len(self.suites)
        out = [("gen_examples_per_s", n_gen / _median_over(rounds, lambda r: r["ops"]["gen"]),
                "examples/s")]
        n_dec = self.slice_n * len(self.suites)
        total = 0.0
        for part in FACTORS:
            t = _median_over(rounds, lambda r: r["ops"][f"decode.{part}"])
            total += t
            out.append((f"decode_examples_per_s.{part}", n_dec / t, "examples/s"))
        out.append(("decode_examples_per_s", 2 * n_dec / total, "examples/s"))
        return out


# ---------------------------------------------------------------------------
# long_table: masks, tiling, bias map and the sparse kernel at L ~ 8.2k
# ---------------------------------------------------------------------------

QUESTION = "select c1"


def in_child(fn) -> list[str]:
    """Run fn, which returns a list of strings, in a forked child and return
    that list. The child shares the parent's arrays copy-on-write; what it
    allocates does not count in the parent's peak resident set."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                result = [str(e) for e in fn()]
            except BaseException:
                result = [f"check raised: {traceback.format_exc()}"]
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    _pid, status = os.waitpid(pid, 0)
    if not data or os.waitstatus_to_exitcode(status) != 0:
        return [f"check process ended with status {status} and no result"]
    return json.loads(data)


def bench_table(target_len: int, tokens: str, seed: int) -> Table:
    """The table behind attention.make_bench_encoding(target_len, tokens, seed=seed):
    8 columns of 2-digit cells."""
    headers = tuple(f"c{i + 1}" for i in range(8))
    row = ("11",) * 8
    one = len(linearize.linearize(QUESTION, Table(headers, (row,)), tokens))
    two = len(linearize.linearize(QUESTION, Table(headers, (row, row)), tokens))
    per_row = two - one
    n_rows = max(1, round((target_len - (one - per_row)) / per_row))
    rng = derive_rng(seed, "bench-table", target_len)
    cells = rng.integers(10, 100, size=(n_rows, 8))
    return Table(headers, tuple(tuple(str(int(x)) for x in r) for r in cells))


class LongTable(Workload):
    """One long-table pass per scheme: encode (CPE), mask and tiling, bias map,
    then the block-sparse forward and backward with per-class bias scalars."""

    name = "long_table"
    target_len = 8192
    head_dim = 16
    # (mask, token scheme, part)
    schemes = (("M3", "T0", "other"), ("M5", "T2", "struct"), ("M1", "T0", "flat"))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.table_seed = derived_seed(seed, "long-table")
        self.errors: list[str] = []
        self.dense_ref: dict[str, tuple[float, float, float, float]] = {}

    def setup(self) -> None:
        self.tables, self.operands = {}, {}
        rng = derive_rng(self.seed, "benchmark-long-operands", 0)
        for tokens in ("T0", "T2"):
            table = bench_table(self.target_len, tokens, self.table_seed)
            ids = linearize.linearize(QUESTION, table, tokens).token_ids
            recipe = attention.make_bench_encoding(self.target_len, tokens, seed=self.table_seed)
            if not np.array_equal(ids, recipe.token_ids):
                raise RuntimeError(f"{tokens} table does not reproduce make_bench_encoding")
            self.tables[tokens] = table
            self.operands[tokens] = tuple(
                rng.standard_normal((len(ids), self.head_dim)).astype(np.float32)
                for _ in range(4))  # q, k, v, d_out
        self.class_scalars = (rng.standard_normal(mask.N_BIAS_CLASSES) * 0.5).astype(np.float32)

    def _pass(self, scheme, tokens):
        factor = FactorConfig(tokens, scheme, "CPE", "B1", "E0")
        enc = linearize.encode_input(QUESTION, self.tables[tokens], factor)
        m = mask.build_mask(enc, scheme)
        rel = mask.build_bias_map(enc)
        q, k, v, d_out = self.operands[tokens]
        inp = attention.AttentionInput(q, k, v, m, self.class_scalars[rel.rel])
        out = attention.attn_block_sparse(inp).out
        grads = attention.attn_backward(inp, d_out, blocks=m.blocks, rel_map=rel)
        return enc, m, rel, inp, out, grads

    def operations(self):
        return [(f"pass.{s}", part, functools.partial(self._pass, s, t))
                for s, t, part in self.schemes]

    def after_op(self, label, output, first_round, tracer=None):
        if not first_round:
            return
        enc, m, rel, inp, out, grads = output
        scheme = label.split(".")[1]
        q, k, v, d_out = self.operands[enc.tokens_scheme]

        def check():
            rng = np.random.default_rng(derived_seed(self.seed, f"check-{scheme}"))
            rows = checks.sample_rows(enc, rng)
            errors = checks.check_tiling(m.blocks, m.dense)
            errors += checks.check_mask_rows(enc, scheme, m.dense, rows)
            errors += checks.check_class_rows(enc, rel.rel, rows)
            ref = checks.attention_reference(q, k, v, d_out, m.dense, rel.rel,
                                             self.class_scalars, inp.scale)
            return errors + checks.check_attention(ref, out, grads.dq, grads.dk, grads.dv,
                                                   grads.dbias_class)

        # the checks run during the first timed round; a child keeps their
        # memory out of this process's peak resident set
        self.errors += [f"{label}: {e}" for e in in_child(check)]
        if tracer is not None:
            self._dense_reference(scheme, inp, d_out, tracer)

    def _dense_reference(self, scheme, inp, d_out, tracer):
        """Time the dense kernel on the pass's inputs, next to the pass's own
        sparse forward and backward spans."""
        sparse = {}
        for name, start, end, _parent in reversed(tracer.spans):
            if name in ("attention.sparse_fwd", "attention.sparse_bwd") and name not in sparse:
                sparse[name] = end - start
            if len(sparse) == 2:
                break
        with tracer.span("bench.dense_reference"):
            t0 = time.perf_counter()
            attention.attn_dense(inp)
            t1 = time.perf_counter()
            attention.attn_backward(inp, d_out)
            t2 = time.perf_counter()
        fwd, bwd = t1 - t0, t2 - t1
        self.dense_ref[scheme] = (fwd, bwd, sparse["attention.sparse_fwd"],
                                  sparse["attention.sparse_bwd"])

    def final_checks(self):
        return list(self.errors)

    def headline(self, rounds):
        return [(f"long_pass_s.{s}", _median_over(rounds, lambda r: r["ops"][f"pass.{s}"]), "s")
                for s, _t, _p in self.schemes]


WORKLOADS = {w.name: w for w in (SweepTrain, EvalDecode, LongTable)}
