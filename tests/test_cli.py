import concurrent.futures as cf
import ctypes
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tabenc
from tabenc import cli
from tabenc.cli import main
from tabenc.core import QAExample, Table, ValidationError, write_jsonl
from tabenc.linearize import linearize
from tabenc.mask import read_blocks_file

pytestmark = pytest.mark.usefixtures("clean_thread_env")

THREAD_VARS = (
    "TABENC_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@pytest.fixture
def clean_thread_env():
    saved = {v: os.environ.get(v) for v in THREAD_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_table(tmp_path, name="table.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "header": ["c1", "c2"],
        "rows": [["1", "5"], ["2", "5"], ["1", "6"]],
    }))
    return path


# ---------------------------------------------------------------------------
# gen / exec / score
# ---------------------------------------------------------------------------

def test_gen_writes_dataset(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    code, stdout, _ = run(capsys, "gen", "--n", "20", "--seed", "3", "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["n_emitted"] == 20
    assert report["n_skipped_oracle"] == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    first = json.loads(lines[0])
    assert set(first) == {"table", "query", "answer"}


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, "gen", "--n", "30", "--seed", "9", "--out", str(a))
    run(capsys, "gen", "--n", "30", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_overrides(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    code, stdout, _ = run(
        capsys, "gen", "--n", "15", "--out", str(out),
        "--rows", "2", "--cols", "3", "--value-max", "9",
        "--templates", "select", "--drop-empty",
    )
    assert code == 0
    for line in out.read_text().splitlines():
        ex = json.loads(line)
        assert len(ex["table"]["rows"]) == 2
        assert len(ex["table"]["header"]) == 3
        assert ex["answer"]


def test_gen_bad_spec_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--n", "-5", "--out", str(tmp_path / "x.jsonl"))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flag", ["--rows", "--cols"])
def test_gen_non_integer_sizes_exit_2(tmp_path, capsys, flag):
    out = tmp_path / "x.jsonl"
    code, _, err = run(capsys, "gen", "--n", "3", "--out", str(out), flag, "abc")
    assert code == 2
    assert f"{flag} must be comma-separated integers, got 'abc'" in err
    assert not out.exists()


def test_exec(tmp_path, capsys):
    table = write_table(tmp_path)
    code, stdout, _ = run(capsys, "exec", "--table", str(table),
                          "--query", "select c1 where c2 = 5")
    assert code == 0
    assert json.loads(stdout) == ["1", "2"]


def test_exec_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "exec", "--table", str(tmp_path / "nope.json"),
                       "--query", "select c1")
    assert code == 2


def test_exec_bad_query_exits_2(tmp_path, capsys):
    table = write_table(tmp_path)
    code, _, err = run(capsys, "exec", "--table", str(table), "--query", "select c1 %%")
    assert code == 2
    assert "offset" in err


def test_score(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    run(capsys, "gen", "--n", "10", "--seed", "4", "--out", str(data))
    golds = [json.loads(line)["answer"] for line in data.read_text().splitlines()]
    pred = tmp_path / "p.jsonl"
    lines = []
    for i, g in enumerate(golds):
        wrong = ["999999"] if i < 2 else g
        lines.append(json.dumps({"answer": wrong} if i % 2 else wrong))
    pred.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "score", "--data", str(data), "--pred", str(pred))
    assert code == 0
    assert json.loads(stdout) == {"n": 10, "da": 0.8}


def test_score_count_mismatch_exits_2(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    run(capsys, "gen", "--n", "5", "--seed", "4", "--out", str(data))
    pred = tmp_path / "p.jsonl"
    pred.write_text('["1"]\n')
    code, _, _ = run(capsys, "score", "--data", str(data), "--pred", str(pred))
    assert code == 2


def test_score_non_json_line_exits_2(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    run(capsys, "gen", "--n", "3", "--seed", "4", "--out", str(data))
    pred = tmp_path / "p.jsonl"
    pred.write_text('["1"]\n["unterminated\n["2"]\n')
    code, _, err = run(capsys, "score", "--data", str(data), "--pred", str(pred))
    assert code == 2
    assert f"{pred}:2:" in err


@pytest.mark.parametrize("reader", ["data", "predictions", "table", "results", "blocks"])
def test_non_utf8_input_names_the_file_and_line(tmp_path, capsys, reader):
    # a 0xff byte on line 2 of each text file the package reads: a
    # ValidationError (exit 2 from the command line) naming path:2
    data = tmp_path / "d.jsonl"
    run(capsys, "gen", "--n", "3", "--seed", "4", "--out", str(data))
    pred = tmp_path / "p.jsonl"
    pred.write_text('["1"]\n["2"]\n["3"]\n')
    text = {
        "data": data.read_bytes(),
        "predictions": pred.read_bytes(),
        "table": b'{"header": ["c1"],\n "rows": [["1"]]}\n',
        "results": b"T,M,PE,B,E,suite,replicate,da\nT0,M0,TPE,B0,E0,iid,1,0.5\n",
        "blocks": b"L=4 scheme=M0 sparsity=0.000000\n0 4 0 4\n",
    }[reader]
    first, rest = text.split(b"\n", 1)
    bad = tmp_path / f"bad-{reader}"
    bad.write_bytes(first + b"\n" + rest[:3] + b"\xff" + rest[3:])
    argv = {
        "data": ("score", "--data", str(bad), "--pred", str(pred)),
        "predictions": ("score", "--data", str(data), "--pred", str(bad)),
        "table": ("exec", "--table", str(bad), "--query", "select c1"),
        "results": ("anova", "--results", str(bad), "--terms", "T"),
    }.get(reader)
    if argv is None:  # block files are read by the library only
        with pytest.raises(ValidationError) as err:
            read_blocks_file(bad)
        message = str(err.value)
    else:
        code, _, message = run(capsys, *argv)
        assert code == 2
    assert f"{bad}:2: not UTF-8 text" in message


# ---------------------------------------------------------------------------
# dump-encoding / mask
# ---------------------------------------------------------------------------

def test_dump_encoding_text(tmp_path, capsys):
    table = write_table(tmp_path)
    code, stdout, err = run(
        capsys, "dump-encoding", "--question", "select c1", "--table", str(table),
        "--tokens", "T2", "--pe", "CPE",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].split() == ["idx", "symbol", "role", "row", "col", "cell", "seg", "pos"]
    assert any("[TAB]" in line for line in lines)
    assert err == ""  # all symbols in vocabulary


def test_dump_encoding_json_and_unk_note(tmp_path, capsys):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"header": ["mystery"], "rows": [["5"]]}))
    code, stdout, err = run(
        capsys, "dump-encoding", "--question", "select c1", "--table", str(table),
        "--json",
    )
    assert code == 0
    rows = json.loads(stdout)
    assert rows[0]["idx"] == 0
    assert any(r["symbol"] == "UNK" for r in rows)
    assert "UNK" in err


def test_mask_command(tmp_path, capsys):
    table = write_table(tmp_path)
    blocks_path = tmp_path / "m.blocks"
    code, stdout, _ = run(
        capsys, "mask", "--question", "select c1", "--table", str(table),
        "--tokens", "T0", "--mask", "M3", "--out", str(blocks_path), "--show",
    )
    assert code == 0
    *grid, summary_line = stdout.splitlines()
    summary = json.loads(summary_line)
    assert summary["scheme"] == "M3"
    assert summary["length"] == len(grid)
    assert all(set(line) <= {"#", "."} for line in grid)
    header = blocks_path.read_text().splitlines()[0]
    assert header.startswith(f"L={summary['length']} scheme=M3")


def test_mask_illegal_combo_exits_2(tmp_path, capsys):
    table = write_table(tmp_path)
    code, _, err = run(capsys, "mask", "--question", "q", "--table", str(table),
                       "--tokens", "T0", "--mask", "M4")
    assert code == 2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, stdout, _ = run(capsys, "bench", "--lengths", "64,96", "--trials", "1",
                          "--out", str(out))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "length,scheme,direction,dense_ms,sparse_ms,speedup"
    assert len(lines) == 3
    assert out.read_text() == stdout


@pytest.mark.parametrize("flag, value, message", [
    ("--trials", "0", "--trials must be >= 1, got 0"),
    ("--trials", "-1", "--trials must be >= 1, got -1"),
    ("--head-dim", "0", "--head-dim must be >= 1, got 0"),
    ("--lengths", "64,0", "--lengths must be >= 1, got 0"),
    ("--lengths", "abc", "--lengths must be comma-separated integers, got 'abc'"),
    ("--lengths", ",", "--lengths needs at least one length"),
])
def test_bench_bad_flag_exits_2(tmp_path, capsys, flag, value, message):
    out = tmp_path / "bench.csv"
    code, stdout, err = run(capsys, "bench", "--lengths", "64", flag, value, "--out", str(out))
    assert code == 2
    assert message in err
    assert stdout == "" and not out.exists()


# ---------------------------------------------------------------------------
# train / eval round trip
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    data = tmp / "d.jsonl"
    run_dir = tmp / "run"
    assert main(["gen", "--n", "12", "--seed", "5", "--out", str(data),
                 "--rows", "2", "--cols", "2", "--value-max", "9",
                 "--templates", "select"]) == 0
    code = main([
        "train", "--data", str(data), "--out", str(run_dir), "--seed", "7",
        "--tokens", "T0", "--mask", "M1", "--pe", "TPE", "--bias", "B0", "--emb", "E0",
        "--d-model", "16", "--n-heads", "2", "--enc-layers", "1", "--dec-layers", "1",
        "--ffn-dim", "24", "--steps", "6", "--eval-every", "3", "--batch-size", "4",
        "--quiet",
    ])
    assert code == 0
    return data, run_dir


def test_train_outputs(trained, capsys):
    capsys.readouterr()
    data, run_dir = trained
    assert (run_dir / "checkpoint.bin").exists()
    trace = (run_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,loss,eval_da"
    assert len(trace) >= 2
    result = json.loads((run_dir / "result.json").read_text())
    assert result["steps_run"] == 6
    assert result["config"]["factor"]["mask"] == "M1"


def test_eval_and_predictions(trained, tmp_path, capsys):
    data, run_dir = trained
    pred_out = tmp_path / "preds.jsonl"
    code, stdout, _ = run(
        capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
        "--data", str(data), "--pred-out", str(pred_out), "--batch-size", "4",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["n"] == 12
    assert 0.0 <= report["da"] <= 1.0
    # score agrees with eval on its own prediction file
    code, stdout, _ = run(capsys, "score", "--data", str(data), "--pred", str(pred_out))
    assert code == 0
    assert json.loads(stdout)["da"] == report["da"]


@pytest.mark.parametrize("size", ["0", "-1"])
def test_eval_rejects_batch_size_below_1(trained, capsys, size):
    data, run_dir = trained
    code, stdout, err = run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                            "--data", str(data), "--batch-size", size)
    assert code == 2
    assert stdout == ""
    assert f"batch_size must be >= 1, got {size}" in err


def test_eval_rejects_garbage_checkpoint(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    run(capsys, "gen", "--n", "3", "--seed", "1", "--out", str(data))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"junkjunkjunk")
    code, _, _ = run(capsys, "eval", "--checkpoint", str(bad), "--data", str(data))
    assert code == 2


def _corrupt_short_header(path):
    path.write_bytes(path.read_bytes()[:9])
    return "header cut short"


def _corrupt_trailing_bytes(path):
    path.write_bytes(path.read_bytes() + b"\x00")
    return "trailing bytes"


def _corrupt_layout(path):
    # the header's config asks for two encoder layers, the tensors hold one
    from tabenc.model import ModelConfig, init_params, save_checkpoint

    one = ModelConfig(d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, ffn_dim=24)
    two = ModelConfig(d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=1, ffn_dim=24)
    vocab = tabenc.default_vocab().size
    save_checkpoint(path, init_params(one, vocab, np.random.default_rng(0)), two, vocab)
    return "tensor 'enc1.attn.wk' (16, 16) differs from the layout"


@pytest.mark.parametrize(
    "corrupt", [_corrupt_short_header, _corrupt_trailing_bytes, _corrupt_layout]
)
def test_eval_rejects_damaged_checkpoint(trained, tmp_path, capsys, corrupt):
    data, run_dir = trained
    bad = tmp_path / "bad.bin"
    shutil.copy(run_dir / "checkpoint.bin", bad)
    fault = corrupt(bad)
    code, _, err = run(capsys, "eval", "--checkpoint", str(bad), "--data", str(data))
    assert code == 2
    assert str(bad) in err and fault in err


def test_atomic_write_removes_temp_file_on_failure(tmp_path):
    from tabenc.cli import _atomic_write

    target = tmp_path / "new" / "out.txt"  # the parent directory is created

    def fail(tmp):
        tmp.write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(target, fail)
    assert list(target.parent.iterdir()) == []
    _atomic_write(target, lambda tmp: tmp.write_text("done"))
    assert target.read_text() == "done" and list(target.parent.iterdir()) == [target]


def test_atomic_write_fsyncs_temp_file_before_rename(tmp_path, monkeypatch):
    from tabenc import cli

    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "fsync", fsync)
    monkeypatch.setattr(cli.os, "replace", replace)
    target = tmp_path / "out.txt"
    cli._atomic_write(target, lambda tmp: tmp.write_text("done"))
    inode = target.stat().st_ino
    assert calls == [("fsync", inode), ("replace", inode)]
    assert target.read_text() == "done"


@pytest.mark.parametrize("flag", ["--batch-size", "--steps", "--eval-every"])
def test_train_rejects_zero_model_counts(tmp_path, capsys, flag):
    data = tmp_path / "d.jsonl"
    run(capsys, "gen", "--n", "3", "--seed", "1", "--out", str(data))
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "train", "--data", str(data), "--out", str(out_dir),
                       "--tokens", "T0", "--mask", "M1", flag, "0", "--quiet")
    assert code == 2
    assert f"{flag[2:].replace('-', '_')} must be >= 1, got 0" in err
    assert not out_dir.exists()


def test_train_validates_before_writing(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    run(capsys, "gen", "--n", "3", "--seed", "1", "--out", str(data))
    out_dir = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--data", str(data), "--out", str(out_dir),
                     "--tokens", "T0", "--mask", "M4", "--quiet")
    assert code == 2
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# anova / report
# ---------------------------------------------------------------------------

def results_csv(tmp_path):
    path = tmp_path / "results.csv"
    rows = ["T,M,PE,B,E,suite,replicate,da"]
    da = {"T0": ("0.5", "0.52"), "T1": ("0.7", "0.68")}
    for t in ("T0", "T1"):
        for pe in ("TPE", "CPE"):
            for rep in (1, 2):
                rows.append(f"{t},M0,{pe},B0,E0,train,{rep},{da[t][rep - 1]}")
    path.write_text("\n".join(rows) + "\n")
    return path


def test_anova_command(tmp_path, capsys):
    path = results_csv(tmp_path)
    code, stdout, _ = run(capsys, "anova", "--results", str(path), "--terms", "T,PE,T*PE")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "term,ss,df,f,p,eta_sq"
    terms = [line.split(",")[0] for line in lines[1:]]
    assert terms == ["T", "PE", "T*PE", "residual", "total"]
    t_row = lines[1].split(",")
    assert float(t_row[5]) > 0.9  # T dominates this synthetic table


def test_anova_out_file(tmp_path, capsys):
    path = results_csv(tmp_path)
    out = tmp_path / "anova.csv"
    code, stdout, _ = run(capsys, "anova", "--results", str(path),
                          "--terms", "T", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["out"] == str(out)
    assert out.read_text().startswith("term,ss,df,f,p,eta_sq")


def test_anova_single_level_exits_2(tmp_path, capsys):
    path = results_csv(tmp_path)
    code, _, err = run(capsys, "anova", "--results", str(path), "--terms", "M")
    assert code == 2
    assert "single level" in err


def test_anova_drops_nan_rows(tmp_path, capsys):
    path = results_csv(tmp_path)
    with open(path, "a") as fh:
        fh.write("T2,M0,TPE,B0,E0,train,1,nan\n")
    code, stdout, err = run(capsys, "anova", "--results", str(path), "--terms", "T")
    assert code == 0
    assert "dropped 1" in err


@pytest.mark.parametrize("bad_row,fault", [
    ("T2,M0,TPE,B0,E0,train,1,abc", "'abc' is not a number"),
    ("T2,M0,TPE,B0,E0,train,1", "row has 7 fields, the header has 8"),
    ("T2,M0,TPE,B0,E0,train,1,0.5,extra", "row has 9 fields, the header has 8"),
    ("T1,M0,TPE,B0,E0,train,x,0.5", "replicate 'x' is not a positive integer"),
    ("T9,M0,TPE,B0,E0,train,1,0.5", "T level 'T9' is not one of"),
])
@pytest.mark.parametrize("command", ["anova", "report", "grid"])
def test_malformed_results_row_exits_2(tmp_path, capsys, command, bad_row, fault):
    path = results_csv(tmp_path)
    with open(path, "a") as fh:
        fh.write(bad_row + "\n")
    argv = {
        "anova": ("--results", str(path), "--terms", "T"),
        "report": ("--results", str(path), "--out", str(tmp_path / "r")),
        "grid": ("--out", str(tmp_path), *GRID_ARGS),  # resume reads results.csv
    }[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 2
    assert f"{path}:10: " in err
    assert fault in err
    assert not (tmp_path / "plan.json").exists()


def test_report_command(tmp_path, capsys):
    path = results_csv(tmp_path)
    out = tmp_path / "report"
    code, stdout, _ = run(capsys, "report", "--results", str(path), "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["rows"] == 8
    diff = (out / "differences.csv").read_text().splitlines()
    assert diff[0] == "factor,left,right,n_pairs,mean_diff,min_diff,max_diff"
    t_row = next(line for line in diff if line.startswith("T,"))
    fields = t_row.split(",")
    assert fields[1:4] == ["T0", "T1", "4"]
    assert float(fields[4]) == pytest.approx(-0.18, abs=1e-6)
    assert (out / "anova.csv").exists()


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_plan_only_full_grid(tmp_path, capsys):
    code, stdout, _ = run(capsys, "grid", "--out", str(tmp_path / "g"), "--plan-only")
    assert code == 0
    plan = json.loads(stdout)
    assert plan["raw_points"] == 336
    assert plan["dropped_points"] == 96
    assert plan["dropped_configs"] == 48
    assert plan["legal_configs"] == 120
    assert plan["runs"] == 240


def test_grid_rejects_unknown_suite(tmp_path, capsys):
    code, _, _ = run(capsys, "grid", "--out", str(tmp_path / "g"),
                     "--suites", "holdout", "--plan-only")
    assert code == 2


@pytest.mark.parametrize("flag", ["--train-n", "--eval-n", "--eval-batch", "--workers"])
def test_grid_rejects_empty_datasets_before_writing(tmp_path, capsys, flag):
    out = tmp_path / "g"
    code, _, err = run(capsys, "grid", "--out", str(out), *GRID_ARGS, flag, "0")
    assert code == 2
    assert f"{flag} must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--batch-size", "--steps", "--eval-every"])
def test_grid_rejects_zero_model_counts_before_writing(tmp_path, capsys, flag):
    out = tmp_path / "g"
    code, _, err = run(capsys, "grid", "--out", str(out), *GRID_ARGS, flag, "0")
    assert code == 2
    assert f"{flag[2:].replace('-', '_')} must be >= 1, got 0" in err
    assert not out.exists()


GRID_ARGS = (
    "--configs", "T0/M0/TPE/B0/E0;T0/M4/TPE/B0/E0", "--replicates", "1",
    "--suites", "train", "--train-n", "10", "--eval-n", "4",
    "--steps", "4", "--eval-every", "2", "--batch-size", "4",
    "--context-len", "512", "--seed", "13",
)


def test_grid_run_and_resume(tmp_path, capsys):
    out = tmp_path / "g"
    code, stdout, _ = run(capsys, "grid", "--out", str(out), *GRID_ARGS)
    assert code == 0
    first = json.loads(stdout)
    assert first["runs_done"] == 1          # one legal config
    assert first["dropped_configs"] == 1    # T0/M4 is illegal
    results = (out / "results.csv").read_text()
    lines = results.splitlines()
    assert lines[0] == "T,M,PE,B,E,suite,replicate,da"
    assert len(lines) == 2
    assert lines[1].startswith("T0,M0,TPE,B0,E0,train,1,")
    assert (out / "plan.json").exists()
    assert (out / "data" / "train.jsonl").exists()
    assert (out / "data" / "eval-train.jsonl").exists()

    # resume: nothing to do, file byte-identical
    code, stdout, _ = run(capsys, "grid", "--out", str(out), *GRID_ARGS)
    assert code == 0
    second = json.loads(stdout)
    assert second["runs_done"] == 0
    assert second["runs_skipped"] == 1
    assert (out / "results.csv").read_text() == results


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_diverged_run_writes_nan(tmp_path, capsys):
    out = tmp_path / "g"
    code, stdout, _ = run(
        capsys, "grid", "--out", str(out),
        "--configs", "T0/M0/TPE/B0/E0", "--replicates", "1", "--suites", "train",
        "--train-n", "8", "--eval-n", "4", "--steps", "2", "--eval-every", "1",
        "--batch-size", "4", "--lr", "1e30",
    )
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[1].endswith(",nan")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_grid_keeps_finished_runs_after_a_failed_run(tmp_path, capsys, workers):
    # every encoding fits the context, so both runs start; the training set is
    # a 65-row table, which the E1 run (planned first) rejects and the E0 run
    # trains on. In a pool the error must also survive pickling
    out = tmp_path / "g"
    (out / "data").mkdir(parents=True)
    tall = Table(("c1",), tuple((str(i),) for i in range(65)))
    write_jsonl([QAExample(tall, "select c1 where c1 = 5", ("5",))] * 4,
                out / "data" / "train.jsonl")
    code, _, err = run(
        capsys, "grid", "--out", str(out), "--workers", workers,
        "--configs", "T0/M1/TPE/B0/E1;T0/M1/TPE/B0/E0",
        "--replicates", "1", "--suites", "train", "--train-n", "10", "--eval-n", "4",
        "--steps", "2", "--eval-every", "1", "--batch-size", "4",
    )
    assert code == 2
    assert "table exceeds 64 rows" in err
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "T,M,PE,B,E,suite,replicate,da"
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == ["T0,M1,TPE,B0,E0,train,1"]


def test_grid_checks_every_encoding_before_any_run(tmp_path, capsys):
    # at this context length T0 fits and T2 overflows
    out = tmp_path / "g"
    code, _, err = run(
        capsys, "grid", "--out", str(out),
        "--configs", "T0/M1/TPE/B0/E0;T2/M5/CPE/B1/E1;T2/M3/TPE/B0/E0", "--context-len", "270",
        "--replicates", "1", "--suites", "train", "--train-n", "10", "--eval-n", "4",
        "--steps", "2", "--eval-every", "1", "--batch-size", "4",
    )
    assert code == 2
    train = out / "data" / "train.jsonl"
    match = re.search(rf"config T2/M5/CPE/B1/E1: {re.escape(str(train))}:(\d+): "
                      r"encoding needs (\d+) tokens but the limit is 270", err)
    assert match, err
    line_no, needed = int(match[1]), int(match[2])
    ex = QAExample.from_json(json.loads(train.read_text().splitlines()[line_no - 1]))
    assert len(linearize(ex.query, ex.table, "T2")) == needed > 270
    assert not (out / "results.csv").exists()


def test_grid_names_config_and_line_of_any_encoding_fault(tmp_path, capsys):
    # T1 has row tokens for 64 data rows; a 65-row table fits the context
    out = tmp_path / "g"
    train = out / "data" / "train.jsonl"
    train.parent.mkdir(parents=True)
    tall = Table(("c1",), tuple((str(i),) for i in range(65)))
    write_jsonl([QAExample(tall, "select c1 where c1 = 5", ("5",))], train)
    code, _, err = run(
        capsys, "grid", "--out", str(out), "--configs", "T1/M1/TPE/B0/E0",
        "--replicates", "1", "--suites", "train", "--train-n", "10", "--eval-n", "4",
        "--steps", "2", "--eval-every", "1", "--batch-size", "4",
    )
    assert code == 2
    assert (f"config T1/M1/TPE/B0/E0: {train}:1: T1 indexes rows with dedicated "
            "tokens and supports at most 64 data rows, got 65") in err
    assert not (out / "results.csv").exists()


class RecordingPool(cf.ProcessPoolExecutor):
    """A ProcessPoolExecutor that keeps every instance and submitted future."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.futures = []
        RecordingPool.made.append(self)

    def submit(self, *args, **kwargs):
        self.futures.append(super().submit(*args, **kwargs))
        return self.futures[-1]


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.made = []
    monkeypatch.setattr(cf, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.made


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_runs_in_a_pool_of_workers_whatever_the_thread_cap(
        tmp_path, capsys, monkeypatch, recording_pool, workers):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("TABENC_THREADS", "1")  # BLAS threads per process, not workers
    out = tmp_path / "g"
    code, _, err = run(
        capsys, "grid", "--out", str(out), "--workers", str(workers),
        "--configs", "T0/M0/TPE/B0/E0", "--replicates", "2", "--suites", "train",
        "--train-n", "8", "--eval-n", "4", "--steps", "2", "--eval-every", "1",
        "--batch-size", "4",
    )
    assert code == 0, err
    assert [pool._max_workers for pool in recording_pool] == [workers]
    assert recording_pool[0]._mp_context.get_start_method() == "spawn"
    assert len(recording_pool[0].futures) == 2
    assert len((out / "results.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("threads,cores,workers,want", [
    (None, 8, None, 1),  # TABENC_THREADS unset: one run at a time
    ("1", 8, None, 8),
    ("2", 8, None, 4),
    ("3", 8, None, 2),
    ("4", 2, None, 1),  # never fewer than one
    ("1", None, None, 1),  # cores unknown
    ("1", 8, "3", 3),  # an explicit --workers wins
])
def test_grid_workers_default_to_cores_per_thread_count(
        tmp_path, capsys, monkeypatch, threads, cores, workers, want):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if threads is not None:
        monkeypatch.setenv("TABENC_THREADS", threads)
    monkeypatch.setattr(cli, "set_blas_threads", lambda n: None)  # this process keeps its count
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    seen = []
    monkeypatch.setattr(cli, "_run_grid", lambda work, n, results: seen.append(n))
    flags = ("--workers", workers) if workers else ()
    code, _, err = run(capsys, "grid", "--out", str(tmp_path / "g"), *GRID_ARGS, *flags)
    assert code == 0, err
    assert seen == [want]


def test_grid_stopped_early_cancels_its_queued_runs(
        tmp_path, capsys, monkeypatch, recording_pool):
    def full_disk(results_path, lines):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "_append_rows", full_disk)
    monkeypatch.delenv("TABENC_DEBUG", raising=False)
    # the pool hands at most three runs to its one worker (one running, two
    # queued), so when the first of six finishes, two or more have not started
    code, _, err = run(
        capsys, "grid", "--out", str(tmp_path / "g"), "--workers", "1",
        "--configs", "T0/M0/TPE/B0/E0", "--replicates", "6", "--suites", "train",
        "--train-n", "8", "--eval-n", "4", "--steps", "1", "--eval-every", "1",
        "--batch-size", "4",
    )
    assert code == 3
    assert "no space left on device" in err
    (pool,) = recording_pool
    assert len(pool.futures) == 6
    assert any(fut.cancelled() for fut in pool.futures)


# ---------------------------------------------------------------------------
# error plumbing
# ---------------------------------------------------------------------------

def test_json_errors_before_subcommand(tmp_path, capsys):
    code, _, err = run(capsys, "--json-errors", "exec",
                       "--table", str(tmp_path / "nope.json"), "--query", "select c1")
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "FileNotFoundError"


def test_json_errors_after_subcommand(tmp_path, capsys):
    code, _, err = run(capsys, "exec", "--table", str(tmp_path / "nope.json"),
                       "--query", "select c1", "--json-errors")
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_unexpected_error_exits_3(tmp_path, capsys, monkeypatch):
    import tabenc.datagen

    def boom(spec):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(tabenc.datagen, "gen_dataset", boom)
    monkeypatch.delenv("TABENC_DEBUG", raising=False)
    code, _, err = run(capsys, "gen", "--n", "3", "--out", str(tmp_path / "x.jsonl"))
    assert code == 3
    assert "wires crossed" in err


def test_thread_cap_env(tmp_path, capsys, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("TABENC_THREADS", "2")
    table = write_table(tmp_path)
    code, _, _ = run(capsys, "exec", "--table", str(table), "--query", "select c1")
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_thread_cap_conflict_exits_2(tmp_path, capsys, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("TABENC_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")  # a matching value is fine
    table = write_table(tmp_path)
    code, _, _ = run(capsys, "exec", "--table", str(table), "--query", "select c1")
    assert code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(var, "8")
        code, _, err = run(capsys, "exec", "--table", str(table), "--query", "select c1")
        assert code == 2
        assert f"TABENC_THREADS=2 conflicts with {var}=8" in err
        monkeypatch.setenv(var, "2")


def test_invalid_thread_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TABENC_THREADS", "abc")
    table = write_table(tmp_path)
    code, _, err = run(capsys, "exec", "--table", str(table), "--query", "select c1")
    assert code == 2
    assert "TABENC_THREADS" in err
    monkeypatch.setenv("TABENC_THREADS", "0")
    code, _, _ = run(capsys, "exec", "--table", str(table), "--query", "select c1")
    assert code == 2


def test_thread_cap_reaches_blas_loaded_before_main(tmp_path):
    # numpy is loaded before main() runs, so the variables come too late;
    # main() then sets the thread count of numpy's OpenBLAS at run time
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so*"))
    if not libs or not hasattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy does not bundle scipy-openblas")
    src = str(Path(tabenc.__file__).resolve().parent.parent)
    table = write_table(tmp_path)
    code = (
        "import ctypes, os, sys; import numpy; from tabenc import cli; "
        f"get = ctypes.CDLL({str(libs[0])!r}).scipy_openblas_get_num_threads64_; "
        "get.argtypes, get.restype = [], ctypes.c_int; before = get(); "
        "os.environ['TABENC_THREADS'] = sys.argv[1]; "
        f"code = cli.main(['exec', '--table', {str(table)!r}, '--query', 'select c1']); "
        "print(before, get(), code)"
    )
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    for n in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", code, n], capture_output=True, text=True,
                              env=dict(base, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == [n, "0"]  # threads after main(), exit code
    # a conflicting variable still exits 2, naming both, and sets nothing
    proc = subprocess.run([sys.executable, "-c", code, "1"], capture_output=True, text=True,
                          env=dict(base, PYTHONPATH=src, OMP_NUM_THREADS="8"))
    before, after, exit_code = proc.stdout.split()[-3:]
    assert after == before and exit_code == "2"
    assert "TABENC_THREADS=1 conflicts with OMP_NUM_THREADS=8" in proc.stderr


def test_cli_and_core_imports_leave_numpy_unloaded():
    # TABENC_THREADS only takes effect if numpy loads after main() applies it
    src = str(Path(tabenc.__file__).resolve().parent.parent)
    code = ("import sys, tabenc.cli, tabenc.core; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# console script (one subprocess test)
# ---------------------------------------------------------------------------

def console_script_argv():
    """Argv prefix that runs the ``tabenc`` console script in a fresh process.

    An installed ``tabenc`` on PATH is used as is.  Otherwise the entry point
    declared under ``[project.scripts]`` in ``pyproject.toml`` is run the way
    the generated wrapper runs it: import ``module:attr`` with the current
    interpreter and pass its return value to ``sys.exit``.
    """
    exe = shutil.which("tabenc")
    if exe:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["tabenc"]
    module, _, attr = target.partition(":")
    code = f"import sys; from {module.strip()} import {attr.strip()} as f; sys.exit(f())"
    return [sys.executable, "-c", code]


def test_console_script(tmp_path):
    argv = console_script_argv()
    # The child imports the same tabenc that pytest imported, from any cwd.
    src = str(Path(tabenc.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    table = write_table(tmp_path)
    # BLAS thread variables set to another count would conflict with the cap
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env = dict(base, PYTHONPATH=pythonpath, TABENC_THREADS="2")
    proc = subprocess.run(
        [*argv, "exec", "--table", str(table), "--query", "select c2 where c1 = 1"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["5", "6"]

    proc = subprocess.run(
        [*argv, "--json-errors", "exec", "--table", str(tmp_path / "missing.json"),
         "--query", "select c1"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(base, PYTHONPATH=pythonpath, TABENC_THREADS="abc"),
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "ValidationError"
