"""tabenc command line: datasets, encodings, masks, benchmarks, training, analysis.

Exit codes: 0 success, 2 input/validation error, 3 runtime failure.
--json-errors switches stderr diagnostics to one JSON object per error.
TABENC_THREADS sets each process's BLAS threads (a BLAS thread variable set to
another count is an input error). Its variables act when numpy loads, so
every sibling module but core (which loads no numpy) is imported lazily inside
handlers; a caller that loaded numpy first gets it through OpenBLAS's run-time
setter. grid runs each (config, replicate) in one of --workers spawned
processes, which inherit the variables (by default one per TABENC_THREADS
threads of the machine's cores, or one when it is unset); spawn re-imports
the caller's main module, so a script that calls main(["grid", ...]) needs
a __main__ guard.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

from .core import (
    FACTORS,
    FactorConfig,
    ModelConfig,
    TabencError,
    Table,
    ValidationError,
    derive_seed,
    env_threads,
    is_legal_combination,
    iter_json_lines,
    iter_jsonl,
    open_text,
    parse_json,
    read_jsonl,
    set_blas_threads,
    write_jsonl,
)

# levels of each results-CSV factor column, in grid order
_LEVELS = {column: levels for column, (_field, levels) in FACTORS.items()}
_RESULT_FIELDS = (*FACTORS, "suite", "replicate", "da")

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_cap() -> str | None:
    """Honor TABENC_THREADS: set each BLAS thread variable to it, and refuse
    one already set to another value. The variables act when numpy loads;
    if a caller loaded it first, OpenBLAS is also told at run time
    (core.set_blas_threads). Returns the error message, or None."""
    try:
        n = env_threads()
    except ValidationError as exc:
        return str(exc)
    if n is None:
        return None
    for var in _THREAD_ENV_VARS:
        value = os.environ.setdefault(var, str(n))
        if value != str(n):
            return f"TABENC_THREADS={n} conflicts with {var}={value}"
    set_blas_threads(n)
    return None


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, write) -> None:
    """Call write(tmp) on a sibling temp file, fsync it, then rename it over
    path, so a reader never sees a partial file and the renamed file's data is
    on disk; the temp file is removed if writing fails. Missing parent
    directories are created first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        write(tmp)
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8", newline="\n"))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_table(path: str) -> Table:
    """The table of a JSON table file; one that is not a table raises
    ValidationError naming it (open_text reports bytes that are not UTF-8)."""
    with open_text(path) as fh:
        obj = parse_json(fh.read(), path)
    try:
        return Table.from_json(obj)
    except (ValueError, TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: not a table: {exc}") from None


def _factor(args) -> FactorConfig:
    """The FactorConfig of a command's factor flags; a factor without a flag
    takes its first level."""
    return FactorConfig(**{field: getattr(args, field)
                           for field, _levels in FACTORS.values() if hasattr(args, field)})


def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

# GenSpec fields that gen overrides with a --<field> flag of the field's type
_GEN_OVERRIDES = ("value_max", "consistency_rate", "mix_strength", "mix_alphabet")


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValidationError(
            f"--{flag} must be comma-separated integers, got {text!r}"
        ) from None


def _cmd_gen(args) -> int:
    from .datagen import gen_dataset, suite_spec

    overrides = {name: getattr(args, name) for name in _GEN_OVERRIDES
                 if getattr(args, name) is not None}
    if args.templates:
        overrides["templates"] = tuple(p.strip() for p in args.templates.split(",") if p.strip())
    if args.rows:
        overrides["row_values"] = _int_list(args.rows, "rows")
    if args.cols:
        overrides["col_values"] = _int_list(args.cols, "cols")
    if args.drop_empty:
        overrides["keep_empty"] = False
    spec = suite_spec(args.suite, args.n, args.seed, **overrides)

    examples, report = gen_dataset(spec)
    out = Path(args.out)
    _atomic_write(out, lambda tmp: write_jsonl(examples, tmp))

    _print_json({
        "suite": args.suite,
        "seed": args.seed,
        "n_requested": report.n_requested,
        "n_emitted": report.n_emitted,
        "n_skipped_oracle": report.n_skipped_oracle,
        "n_filtered_empty": report.n_filtered_empty,
        "v0": report.v0,
        "mix_alphabet": list(report.chain.alphabet) if report.chain else None,
        "out": str(out),
    })
    return 0


# ---------------------------------------------------------------------------
# exec / score
# ---------------------------------------------------------------------------

def _cmd_exec(args) -> int:
    from .sqlexec import execute

    table = _load_table(args.table)
    result = execute(args.query, table)
    _print_json(result)
    return 0


def _read_predictions(path: str) -> list[list[str]]:
    preds = []
    for lineno, obj in iter_json_lines(path):
        if isinstance(obj, dict):
            obj = obj.get("answer")
        if not isinstance(obj, list) or not all(isinstance(v, str) for v in obj):
            raise ValidationError(f"{path}:{lineno}: prediction must be a JSON list of "
                                  "strings or an object with an 'answer' list")
        preds.append(obj)
    return preds


def _cmd_score(args) -> int:
    from .sqlexec import denotation_accuracy

    golds = [ex.answer for ex in read_jsonl(args.data)]
    preds = _read_predictions(args.pred)
    if not golds:
        raise ValidationError(f"{args.data}: no examples")
    if len(preds) != len(golds):
        raise ValidationError(f"{args.pred}: {len(preds)} predictions vs "
                              f"{len(golds)} references in {args.data}")
    da = denotation_accuracy(preds, golds, set_semantics=args.set_semantics)
    _print_json({"n": len(golds), "da": round(da, 6)})
    return 0


# ---------------------------------------------------------------------------
# dump-encoding / mask
# ---------------------------------------------------------------------------

def _cmd_dump_encoding(args) -> int:
    from .linearize import default_vocab, encode_input, encoding_rows

    factor = _factor(args)
    table = _load_table(args.table)
    enc = encode_input(args.question, table, factor, max_len=args.max_len)
    rows = list(encoding_rows(enc, default_vocab()))
    if enc.unk_count:
        sys.stderr.write(f"tabenc: {enc.unk_count} token(s) outside the vocabulary became UNK\n")
    header = ("idx", "symbol", "role", "row", "col", "cell", "seg", "pos")
    if args.json:
        _print_json([dict(zip(header, r)) for r in rows])
        return 0
    table_rows = [tuple(str(v) for v in r) for r in rows]
    widths = [max(len(h), *(len(r[i]) for r in table_rows)) for i, h in enumerate(header)]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    sys.stdout.write(line.rstrip() + "\n")
    for r in table_rows:
        sys.stdout.write("  ".join(r[i].ljust(widths[i]) for i in range(len(header))).rstrip() + "\n")
    return 0


def _cmd_mask(args) -> int:
    from .linearize import encode_input
    from .mask import build_mask, sparsity, write_blocks_file

    factor = _factor(args)
    table = _load_table(args.table)
    enc = encode_input(args.question, table, factor, max_len=args.max_len)
    mask = build_mask(enc, factor.mask)

    if args.show:
        limit = 200
        if mask.length > limit:
            sys.stderr.write(f"tabenc: --show skipped, length {mask.length} > {limit}\n")
        else:
            for row in mask.dense:
                sys.stdout.write("".join("#" if x else "." for x in row) + "\n")

    summary = {
        "length": mask.length,
        "scheme": factor.mask,
        "sparsity": round(sparsity(mask), 6),
        "n_blocks": len(mask.blocks),
    }
    if args.out:
        out = Path(args.out)
        _atomic_write(out, lambda tmp: write_blocks_file(tmp, mask))
        summary["out"] = str(out)
    _print_json(summary)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _cmd_bench(args) -> int:
    from .attention import bench_attention

    lengths = _int_list(args.lengths, "lengths")
    if not lengths:
        raise ValidationError("--lengths needs at least one length")
    for flag, value in (("lengths", min(lengths)), ("trials", args.trials),
                        ("head-dim", args.head_dim)):
        if value < 1:
            raise ValidationError(f"--{flag} must be >= 1, got {value}")
    rows = bench_attention(lengths, scheme=args.scheme, trials=args.trials,
                           head_dim=args.head_dim, seed=args.seed,
                           include_backward=args.backward)
    text = _csv_text(
        ("length", "scheme", "direction", "dense_ms", "sparse_ms", "speedup"),
        ((r.length, r.scheme, r.direction, f"{r.dense_ms:.3f}", f"{r.sparse_ms:.3f}",
          f"{r.speedup:.2f}") for r in rows))
    if args.out:
        _atomic_write_text(Path(args.out), text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

# --flag -> ModelConfig field; grid takes those before --d-model, train all
_MODEL_FLAGS = {
    "steps": "steps", "batch-size": "batch_size", "lr": "learning_rate",
    "eval-every": "eval_every", "patience": "patience", "context-len": "context_len",
    "d-model": "d_model", "n-heads": "n_heads", "enc-layers": "n_enc_layers",
    "dec-layers": "n_dec_layers", "ffn-dim": "ffn_dim", "eval-fraction": "eval_fraction",
}


def _model_kwargs(args) -> dict:
    """The ModelConfig fields of a command's model flags, and max_positions
    raised to cover the context."""
    kwargs = {field: getattr(args, field) for field in _MODEL_FLAGS.values() if hasattr(args, field)}
    return {**kwargs, "max_positions": max(args.context_len, ModelConfig.max_positions)}


def _cmd_train(args) -> int:
    from .linearize import default_vocab
    from .model import save_checkpoint, train

    cfg = ModelConfig(factor=_factor(args), **_model_kwargs(args))
    examples = read_jsonl(args.data)

    log = None if args.quiet else (lambda msg: sys.stderr.write(msg + "\n"))
    result = train(examples, cfg, seed=args.seed, stop_da=args.stop_da, log=log)

    out = Path(args.out)
    vocab = default_vocab()
    ckpt = out / "checkpoint.bin"
    _atomic_write(ckpt, lambda tmp: save_checkpoint(tmp, result.params, cfg, vocab.size))
    _atomic_write_text(out / "trace.csv", _csv_text(
        ("step", "loss", "eval_da"),
        ((row["step"], f"{row['loss']:.6f}", f"{row['eval_da']:.6f}") for row in result.trace)))

    summary = {
        "seed": args.seed,
        "best_step": result.best_step,
        "best_eval_da": round(result.best_eval_da, 6),
        "steps_run": result.steps_run,
        "final_loss": round(result.final_loss, 6),
        "config": cfg.to_json(),
        "checkpoint": str(ckpt),
    }
    _atomic_write_text(out / "result.json",
                       json.dumps(summary, sort_keys=True, indent=2) + "\n")
    _print_json(summary)
    return 0


def _cmd_eval(args) -> int:
    from .linearize import default_vocab
    from .model import load_checkpoint, predict
    from .sqlexec import denotation_accuracy

    params, cfg, vocab_size = load_checkpoint(args.checkpoint)
    vocab = default_vocab()
    if vocab_size != vocab.size:
        raise ValidationError(
            f"checkpoint vocabulary size {vocab_size} != library vocabulary {vocab.size}"
        )
    examples = read_jsonl(args.data)
    if not examples:
        raise ValidationError(f"{args.data}: no examples")
    preds = predict(params, cfg, examples, vocab, batch_size=args.batch_size)
    da = denotation_accuracy(preds, [ex.answer for ex in examples], args.set_semantics)
    if args.pred_out:
        lines = "".join(json.dumps({"answer": p}, sort_keys=True) + "\n" for p in preds)
        _atomic_write_text(Path(args.pred_out), lines)
    _print_json({"n": len(examples), "da": round(da, 6)})
    return 0


# ---------------------------------------------------------------------------
# results table: one reader for grid, anova and report
# ---------------------------------------------------------------------------

def _read_results_csv(path, response: str, columns=()) -> list[dict]:
    """Every data row of a results CSV, as text. A missing required column, a
    row with the wrong number of fields, a response that is not a number (nan
    and inf are numbers: failed runs), a replicate that is not a positive
    integer or a factor level outside its factor raises ValidationError naming
    path:line. A file without a header has no rows."""
    rows = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return rows
        for column in (response, *columns):
            if column not in header:
                raise ValidationError(f"{path}:1: results file missing column {column!r}")
        factors = [k for k in FACTORS if k in header]
        for fields in reader:
            if not fields:
                continue
            where = f"{path}:{reader.line_num}"
            if len(fields) != len(header):
                raise ValidationError(
                    f"{where}: row has {len(fields)} fields, the header has {len(header)}"
                )
            row = dict(zip(header, fields))
            try:
                float(row[response])
            except ValueError:
                raise ValidationError(
                    f"{where}: {response} {row[response]!r} is not a number"
                ) from None
            rep = row.get("replicate")
            if rep is not None and not (rep.isdecimal() and int(rep) > 0):
                raise ValidationError(f"{where}: replicate {rep!r} is not a positive integer")
            for k in factors:
                if row[k] not in _LEVELS[k]:
                    raise ValidationError(
                        f"{where}: {k} level {row[k]!r} is not one of {_LEVELS[k]}"
                    )
            rows.append(row)
    return rows


def _finished_rows(path, response: str, columns=()) -> tuple[list[dict], int]:
    """The rows of a results CSV whose response is finite, and the number of
    failed-run rows (nan/inf) left out, which a note on stderr reports."""
    rows = _read_results_csv(path, response, columns)
    finished = [row for row in rows if math.isfinite(float(row[response]))]
    dropped = len(rows) - len(finished)
    if dropped:
        sys.stderr.write(f"tabenc: dropped {dropped} row(s) with non-finite {response}\n")
    if not finished:
        raise ValidationError(f"{path}: no usable data rows")
    return finished, dropped


def _run_key(row: dict) -> tuple:
    """What identifies one run's result in a results row."""
    return tuple(row[k] for k in (*FACTORS, "suite")) + (int(row["replicate"]),)


# ---------------------------------------------------------------------------
# anova
# ---------------------------------------------------------------------------

def _anova_csv(report) -> str:
    rows = [(t.name, _fmt_float(t.ss), t.df, _fmt_float(t.f_stat),
             _fmt_float(t.p_value), _fmt_float(t.eta_sq)) for t in report.terms]
    rows.append(("residual", _fmt_float(report.residual_ss), report.residual_df, "", "", ""))
    rows.append(("total", _fmt_float(report.total_ss), report.n - 1, "", "", ""))
    return _csv_text(("term", "ss", "df", "f", "p", "eta_sq"), rows)


def _cmd_anova(args) -> int:
    from .stats import anova

    rows, _dropped = _finished_rows(args.results, args.response)
    terms = [t.strip() for t in args.terms.split(",") if t.strip()]
    report = anova(rows, terms, response=args.response,
                   allow_unbalanced=args.allow_unbalanced)
    text = _anova_csv(report)
    if args.out:
        out = Path(args.out)
        _atomic_write_text(out, text)
        _print_json({"out": str(out), "n": report.n,
                     "residual_df": report.residual_df})
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _default_workers() -> int:
    """grid's --workers when it is not given: the machine's cores over
    TABENC_THREADS (at least 1), or 1 when TABENC_THREADS is unset."""
    threads = env_threads()
    return 1 if threads is None else max(1, (os.cpu_count() or 1) // threads)


def _build_plan(args) -> dict:
    from .datagen import SUITES

    if args.workers is None:
        args.workers = _default_workers()
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    for s in suites:
        if s not in SUITES:
            raise ValidationError(f"unknown suite {s!r}; choose from {SUITES}")
    if not suites:
        raise ValidationError("at least one evaluation suite required")
    for flag, n in (("replicates", args.replicates), ("train-n", args.train_n),
                    ("eval-n", args.eval_n), ("eval-batch", args.eval_batch),
                    ("workers", args.workers)):
        if n < 1:
            raise ValidationError(f"--{flag} must be >= 1, got {n}")

    if args.configs:
        points = (FactorConfig.parse_key(p) for p in args.configs.split(";") if p.strip())
    else:
        points = itertools.product(*_LEVELS.values())
    configs, n_raw = [], 0
    for levels in points:
        n_raw += 1
        if is_legal_combination(*levels[:2]):  # FACTORS starts with T, M
            configs.append(FactorConfig(*levels).key)  # rejects unknown levels
    dropped = n_raw - len(configs)
    if not configs:
        raise ValidationError("plan has no legal configurations")

    return {
        "seed": args.seed,
        "replicates": args.replicates,
        "suites": list(suites),
        "configs": configs,
        "raw_points": n_raw * args.replicates,
        "dropped_points": dropped * args.replicates,
        "dropped_configs": dropped,
        "legal_configs": len(configs),
        "runs": len(configs) * args.replicates,
        "train_n": args.train_n,
        "eval_n": args.eval_n,
        "steps": args.steps,
    }


def _ensure_grid_data(outdir: Path, suites, seed: int, train_n: int, eval_n: int) -> dict:
    """Generate data/train.jsonl and data/eval-<suite>.jsonl where missing;
    returns their paths keyed "train" and "eval-<suite>"."""
    from .datagen import gen_dataset, suite_spec

    paths = {}
    jobs = [("train", "train", train_n)] + [(f"eval-{s}", s, eval_n) for s in suites]
    for tag, suite, n in jobs:
        path = paths[tag] = outdir / "data" / f"{tag}.jsonl"
        if path.exists():
            continue
        spec = suite_spec(suite, n, derive_seed(seed, f"grid-data-{tag}"))
        examples, _report = gen_dataset(spec)
        _atomic_write(path, lambda tmp: write_jsonl(examples, tmp))
    return paths


def _check_context(factors, paths: dict, context_len: int) -> None:
    """Linearize every example of the grid's data files once per token
    scheme of `factors`; the first example that cannot be encoded, or whose
    encoding is longer than `context_len`, raises ValidationError naming its
    config (the first one with that scheme, in plan order), path:line and the
    fault."""
    from .linearize import TruncationError, linearize

    examples = [(path, line_no, ex) for path in paths.values()
                for line_no, ex in iter_jsonl(path)]
    checked = set()
    for factor in factors:
        if factor.tokens in checked:
            continue
        checked.add(factor.tokens)
        for path, line_no, ex in examples:
            try:
                linearize(ex.query, ex.table, factor.tokens, max_len=context_len)
            except ValidationError as exc:
                hint = " (--context-len)" if isinstance(exc, TruncationError) else ""
                raise ValidationError(
                    f"config {factor.key}: {path}:{line_no}: {exc}{hint}"
                ) from None


def _append_rows(results_path: Path, lines: list[str]) -> None:
    with open(results_path, "a", encoding="utf-8", newline="\n") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            if fh.tell() == 0:
                fh.write(",".join(_RESULT_FIELDS) + "\n")
            for line in lines:
                fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _grid_run_one(payload: dict) -> list[str]:
    """Train one (config, replicate) and evaluate the missing suites.

    Runs in a worker process; returns finished CSV lines. A diverged
    training run yields rows with da=nan instead of failing the grid.
    """
    from .linearize import default_vocab
    from .model import TrainingDivergedError, predict, train
    from .sqlexec import denotation_accuracy

    factor = FactorConfig.from_dict(payload["factor"])
    cfg = ModelConfig(factor=factor, **payload["model"])
    examples = read_jsonl(payload["train_path"])
    prefix = ",".join(factor.csv_fields().values())
    rep = payload["replicate"]

    try:
        result = train(examples, cfg, seed=payload["run_seed"],
                       stop_da=payload["stop_da"])
    except TrainingDivergedError:
        return [f"{prefix},{suite},{rep},nan\n" for suite in payload["suites"]]

    vocab = default_vocab()
    lines = []
    for suite in payload["suites"]:
        eval_examples = read_jsonl(payload["eval_paths"][suite])
        preds = predict(result.params, cfg, eval_examples, vocab,
                        batch_size=payload["eval_batch"])
        da = denotation_accuracy(preds, [ex.answer for ex in eval_examples])
        lines.append(f"{prefix},{suite},{rep},{da:.6f}\n")
    return lines


def _run_grid(work: list[dict], workers: int, results_path: Path) -> Exception | None:
    """Run each payload in a pool of `workers` spawned processes and append
    its CSV lines to results_path as soon as the run finishes, so every
    finished run keeps its rows. Returns the first exception a run raised, or
    None. Leaving early (a failed append, an interrupt) cancels the runs that
    have not started."""
    import concurrent.futures as cf
    import multiprocessing as mp

    failure = None
    pool = cf.ProcessPoolExecutor(max_workers=workers, mp_context=mp.get_context("spawn"))
    try:
        futures = [pool.submit(_grid_run_one, payload) for payload in work]
        for fut in cf.as_completed(futures):
            exc = fut.exception()
            if exc is None:
                _append_rows(results_path, fut.result())
            else:
                failure = failure or exc
    finally:
        pool.shutdown(cancel_futures=True)
    return failure


def _canonicalize_results(results_path: Path) -> int:
    """Rewrite results.csv with one row per run, in grid order; returns the
    number of rows."""
    unique = {}
    for row in _read_results_csv(results_path, "da", _RESULT_FIELDS):
        unique.setdefault(_run_key(row), row)
    rows = sorted(unique.values(), key=lambda row: (
        *(_LEVELS[k].index(row[k]) for k in FACTORS), row["suite"], int(row["replicate"])))
    _atomic_write_text(results_path, _csv_text(
        _RESULT_FIELDS, ([row[k] for k in _RESULT_FIELDS] for row in rows)))
    return len(rows)


def _cmd_grid(args) -> int:
    plan = _build_plan(args)
    model_kwargs = _model_kwargs(args)
    ModelConfig(**model_kwargs)  # rejects bad model flags before anything is written
    if args.plan_only:
        _print_json(plan)
        return 0

    outdir = Path(args.out)
    results_path = outdir / "results.csv"
    done = set()
    if results_path.exists():
        done = {_run_key(row) for row in _read_results_csv(results_path, "da", _RESULT_FIELDS)}
    _atomic_write_text(outdir / "plan.json",
                       json.dumps(plan, sort_keys=True, indent=2) + "\n")
    paths = _ensure_grid_data(outdir, plan["suites"], args.seed,
                              args.train_n, args.eval_n)
    factors = [FactorConfig.from_key(key) for key in plan["configs"]]
    _check_context(factors, paths, args.context_len)

    work = []
    skipped = 0
    for factor in factors:
        levels = tuple(factor.csv_fields().values())
        for rep in range(1, plan["replicates"] + 1):
            missing = [s for s in plan["suites"] if levels + (s, rep) not in done]
            if not missing:
                skipped += 1
                continue
            work.append({
                "factor": factor.to_dict(),
                "replicate": rep,
                "run_seed": derive_seed(args.seed, f"grid-run-{factor.key}-r{rep}"),
                "model": model_kwargs,
                "stop_da": args.stop_da,
                "suites": missing,
                "train_path": str(paths["train"]),
                "eval_paths": {s: str(paths[f"eval-{s}"]) for s in missing},
                "eval_batch": args.eval_batch,
            })

    failure = _run_grid(work, args.workers, results_path)
    n_rows = _canonicalize_results(results_path) if results_path.exists() else 0
    if failure is not None:
        raise failure
    _print_json({
        "results": str(results_path),
        "rows": n_rows,
        "runs_done": len(work),
        "runs_skipped": skipped,
        "dropped_configs": plan["dropped_configs"],
    })
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _paired_differences(rows: list[dict]) -> str:
    by_key = {_run_key(row): float(row["da"]) for row in rows}
    out = []
    for fi, factor in enumerate(FACTORS):
        present = sorted({row[factor] for row in rows}, key=_LEVELS[factor].index)
        for i, left in enumerate(present):
            for right in present[i + 1:]:
                diffs = []
                for key, da_left in by_key.items():
                    if key[fi] != left:
                        continue
                    other = key[:fi] + (right,) + key[fi + 1:]
                    if other in by_key:
                        diffs.append(da_left - by_key[other])
                if diffs:
                    out.append((factor, left, right, len(diffs),
                                f"{sum(diffs) / len(diffs):.6f}",
                                f"{min(diffs):.6f}", f"{max(diffs):.6f}"))
    return _csv_text(
        ("factor", "left", "right", "n_pairs", "mean_diff", "min_diff", "max_diff"), out)


def _cmd_report(args) -> int:
    from .stats import DegenerateDataError, UnbalancedDesignError, anova

    rows, dropped = _finished_rows(args.results, "da", _RESULT_FIELDS)
    outdir = Path(args.out)
    diff_path = outdir / "differences.csv"
    _atomic_write_text(diff_path, _paired_differences(rows))

    varying = [f for f in FACTORS if len({row[f] for row in rows}) >= 2]
    anova_path = None
    anova_note = None
    if not varying:
        anova_note = "no factor varies; ANOVA skipped"
    else:
        terms = list(varying)
        terms += [f"{a}*{b}" for i, a in enumerate(varying) for b in varying[i + 1:]]
        report = None
        try:
            report = anova(rows, terms, response="da")
        except UnbalancedDesignError as exc:
            sys.stderr.write(f"tabenc: unbalanced design ({exc}); "
                             f"retrying with allow_unbalanced\n")
            try:
                report = anova(rows, terms, response="da", allow_unbalanced=True)
            except (DegenerateDataError, UnbalancedDesignError) as exc2:
                anova_note = f"ANOVA failed: {exc2}"
        except DegenerateDataError as exc:
            anova_note = f"ANOVA degenerate: {exc}"
        if report is not None:
            anova_path = outdir / "anova.csv"
            _atomic_write_text(anova_path, _anova_csv(report))
    if anova_note:
        sys.stderr.write(f"tabenc: {anova_note}\n")

    _print_json({
        "differences": str(diff_path),
        "anova": str(anova_path) if anova_path else None,
        "note": anova_note,
        "rows": len(rows),
        "dropped_failed": dropped,
    })
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_factor_flags(sp, columns):
    """Add a --<field> flag for each factor column in `columns`, in FACTORS
    order; each defaults to its factor's first level."""
    for column, (field, levels) in FACTORS.items():
        if column in columns:
            sp.add_argument(f"--{field}", default=levels[0], choices=levels)


def _add_model_flags(sp, arch: bool) -> None:
    """Add the flags of _MODEL_FLAGS before --d-model, then --stop-da, then
    with `arch` the rest; each takes its ModelConfig field's type and default."""
    for flag, field in _MODEL_FLAGS.items():
        if flag == "d-model":
            sp.add_argument("--stop-da", type=float, default=None,
                            help="stop as soon as held-out DA reaches this value")
            if not arch:
                return
        default = getattr(ModelConfig, field)
        sp.add_argument(f"--{flag}", dest=field, metavar=flag.upper().replace("-", "_"),
                        type=type(default), default=default)


def build_parser() -> argparse.ArgumentParser:
    from .datagen import SUITES, GenSpec

    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a pre-subcommand --json-errors from being reset by the
    # subparser's default for the same destination
    common.add_argument("--json-errors", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit errors to stderr as JSON")

    p = argparse.ArgumentParser(
        prog="tabenc", parents=[common],
        description="Table-encoding factor experiments: data, masks, models, analysis.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("gen", parents=[common], help="generate a synthetic QA dataset")
    sp.add_argument("--suite", default="train", choices=SUITES)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--templates", help="comma-separated template ids (override)")
    sp.add_argument("--rows", help="comma-separated row-count choices")
    sp.add_argument("--cols", help="comma-separated column-count choices")
    for name in _GEN_OVERRIDES:
        sp.add_argument(f"--{name.replace('_', '-')}", type=type(getattr(GenSpec, name)))
    sp.add_argument("--drop-empty", action="store_true",
                    help="drop examples whose answer is empty")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("exec", parents=[common], help="run a query against a table file")
    sp.add_argument("--table", required=True)
    sp.add_argument("--query", required=True)
    sp.set_defaults(func=_cmd_exec)

    sp = sub.add_parser("score", parents=[common], help="denotation accuracy of predictions")
    sp.add_argument("--data", required=True)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--set-semantics", action="store_true")
    sp.set_defaults(func=_cmd_score)

    sp = sub.add_parser("dump-encoding", parents=[common],
                        help="show the token/role/index channels for one input")
    sp.add_argument("--question", required=True)
    sp.add_argument("--table", required=True)
    _add_factor_flags(sp, ("T", "PE", "E"))
    sp.add_argument("--max-len", type=int, default=4096)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_dump_encoding)

    sp = sub.add_parser("mask", parents=[common], help="build and export an attention mask")
    sp.add_argument("--question", required=True)
    sp.add_argument("--table", required=True)
    _add_factor_flags(sp, ("T", "M"))
    sp.add_argument("--max-len", type=int, default=4096)
    sp.add_argument("--out", help="write the block tiling to this file")
    sp.add_argument("--show", action="store_true", help="print the dense mask as ASCII")
    sp.set_defaults(func=_cmd_mask)

    sp = sub.add_parser("bench", parents=[common],
                        help="dense vs block-sparse attention wall time")
    sp.add_argument("--lengths", default="1024,2048,4096,8192")
    sp.add_argument("--scheme", default="M3", choices=_LEVELS["M"])
    sp.add_argument("--trials", type=int, default=7)
    sp.add_argument("--head-dim", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--backward", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("train", parents=[common], help="train the toy encoder-decoder")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    _add_factor_flags(sp, FACTORS)
    _add_model_flags(sp, arch=True)
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on a dataset")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--set-semantics", action="store_true")
    sp.add_argument("--batch-size", type=int, default=16)
    sp.add_argument("--pred-out", help="write per-example predictions here")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("anova", parents=[common],
                        help="effect sizes over a results table")
    sp.add_argument("--results", required=True)
    sp.add_argument("--terms", required=True,
                    help="comma-separated factor columns and A*B interactions")
    sp.add_argument("--response", default="da")
    sp.add_argument("--allow-unbalanced", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_anova)

    sp = sub.add_parser("grid", parents=[common],
                        help="train/evaluate a factor grid into results.csv")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--configs",
                    help="semicolon-separated T/M/PE/B/E points (default: full legal grid)")
    sp.add_argument("--replicates", type=int, default=2)
    sp.add_argument("--suites", default="train,structure")
    sp.add_argument("--train-n", type=int, default=512)
    sp.add_argument("--eval-n", type=int, default=128)
    _add_model_flags(sp, arch=False)
    sp.set_defaults(steps=2000, eval_every=200, context_len=1024)
    sp.add_argument("--eval-batch", type=int, default=8)
    sp.add_argument("--workers", type=int, default=None,
                    help="grid runs at once (default: cores // TABENC_THREADS, or 1 when it is unset)")
    sp.add_argument("--plan-only", action="store_true")
    sp.set_defaults(func=_cmd_grid)

    sp = sub.add_parser("report", parents=[common],
                        help="paired level differences and ANOVA from results.csv")
    sp.add_argument("--results", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_report)

    return p


def _emit_error(exc: BaseException, json_mode: bool) -> None:
    if json_mode:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"tabenc: error: {exc}\n")


def main(argv=None) -> int:
    env_error = _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    json_mode = getattr(args, "json_errors", False)

    try:
        if env_error:
            raise ValidationError(env_error)
        return args.func(args)
    except (ValidationError, FileNotFoundError, IsADirectoryError, PermissionError,
            csv.Error) as exc:
        _emit_error(exc, json_mode)
        return 2
    except TabencError as exc:
        _emit_error(exc, json_mode)
        return 3
    except BrokenPipeError:
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        if os.environ.get("TABENC_DEBUG"):
            raise
        _emit_error(exc, json_mode)
        return 3


if __name__ == "__main__":
    sys.exit(main())
