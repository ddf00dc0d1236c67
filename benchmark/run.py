"""Benchmark of tabenc's factor sweep: training, decoding and long tables.

Run from the repository root:

    python3 benchmark/run.py --workload sweep_train --seed 1 --seconds 15 --trace 0

One process runs one workload in a closed loop with one caller: it sets up
the inputs from --seed, runs at least two whole rounds of the workload's
operations and until --seconds of operation time have passed, checks the
outputs, and prints as its last line a JSON object with "correct",
"attempted", "failed" and "metrics". With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the layers' public functions are wrapped in
spans and the metrics are per layer. Run records and span files go to benchmark/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans  # standard library only until install() runs

# One BLAS thread: the model's matrices are small enough that a second
# thread does not pay for itself, and one thread per process keeps timings
# steady on a shared machine. Set before numpy is imported.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 5
# A long_table round alone lasts longer than a run's --seconds, and a median
# over two rounds is steadier than a single round.
MIN_ROUNDS = 2
# The calibration loop's median time on the reference machine (see README).
# setup_s is the set-up time in cal, converted back to seconds at that speed.
CAL_REF_S = 0.037
WORKLOAD_NAMES = ("sweep_train", "eval_decode", "long_table")
LONG_SCHEMES = ("M3", "M5", "M1")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("round_cal", "cal"),
    ("struct_cal", "cal"),
    ("flat_cal", "cal"),
    ("other_cal", "cal"),
)
PARTS = ("struct", "flat", "other")


def per_layer_names():
    names = []
    for span in spans.SPAN_NAMES:
        names += [(f"{span}_s", "s"), (f"{span}_self_s", "s"), (f"{span}_calls", "count")]
    names += [(c, "count") for c in spans.COUNTER_NAMES]
    for s in LONG_SCHEMES:
        names += [(f"attention.dense_ref_fwd_s.{s}", "s"), (f"attention.dense_ref_bwd_s.{s}", "s"),
                  (f"attention.sparse_over_dense_fwd.{s}", "ratio"),
                  (f"attention.sparse_over_dense_bwd.{s}", "ratio")]
    names += [("trace.spans", "count"), ("trace.overhead_pct", "%")]
    return names


def _pin_blas_threads() -> dict:
    """Force every BLAS/OpenMP thread variable to BLAS_THREADS; returns the
    values that were overridden."""
    overridden = {}
    for var in _THREAD_VARS:
        old = os.environ.get(var)
        if old is not None and old != str(BLAS_THREADS):
            overridden[var] = old
        os.environ[var] = str(BLAS_THREADS)
    return overridden


def time_setup(workload, calibrate, src: Path, here: Path) -> dict:
    """Set-up time, SETUP_REPEATS times: a fresh interpreter that imports
    what a run imports (it inherits the pinned thread variables), then the
    workload's input generation and parameter init in this process. Each
    repeat is bracketed by calibration timings, like an operation."""
    code = "import sys; sys.path[:0] = sys.argv[1:3]; import workloads"
    times = {"start_s": [], "inputs_s": [], "cal": []}
    cal_before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(src), str(here)], check=True,
                       stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        workload.setup()
        t2 = time.perf_counter()
        cal_after = calibrate()
        times["start_s"].append(t1 - t0)
        times["inputs_s"].append(t2 - t1)
        times["cal"].append((t2 - t0) / (0.5 * (cal_before + cal_after)))
        cal_before = cal_after
    return times


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """A fixed numpy and Python loop, independent of tabenc, timed before and
    after every operation. This machine's speed drifts by up to 2x over
    seconds to minutes; an operation's time divided by the loop's time
    around it ("cal") follows the program, not the drift.

    The loop writes only into buffers allocated here. A loop that allocates
    its temporaries spends most of its time on page faults, and their cost
    depends on the allocator state the preceding operation left behind."""

    def __init__(self, np) -> None:
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((8, 4, 256, 32)).astype(np.float32)
        self.a_t = np.ascontiguousarray(np.swapaxes(self.a, -1, -2))
        self.b = rng.standard_normal((256, 256)).astype(np.float32)
        self.scores = np.empty((8, 4, 256, 256), dtype=np.float32)
        self.row_max = np.empty((8, 4, 256, 1), dtype=np.float32)
        self.page = np.empty((1024, 1024), dtype=np.float32)
        self.product = np.empty((256, 256), dtype=np.float32)
        self.samples: list[float] = []
        for _ in range(3):  # warm caches and touch every buffer
            self._once()

    def __call__(self) -> float:
        """Median of five timings of the loop, in seconds."""
        t = statistics.median(self._once() for _ in range(5))
        self.samples.append(t)
        return t

    def _once(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(4):
            # attention-shaped batched matmul and a row softmax numerator
            np.matmul(self.a, self.a_t, out=self.scores)
            np.max(self.scores, axis=-1, keepdims=True, out=self.row_max)
            np.subtract(self.scores, self.row_max, out=self.scores)
            np.exp(self.scores, out=self.scores)
            self.page.fill(0.0)  # a 4 MiB sweep through memory
            np.add(self.page, 1.0, out=self.page)
            np.matmul(self.b, self.b, out=self.product)
            acc = 0
            for i in range(30000):  # interpreted loop
                acc += i & 7
        return time.perf_counter() - t0


def run_round(workload, tracer, calibrate, first_round: bool) -> dict:
    record = {"ops": {}, "ops_cal": {}, "attempted": 0, "failed": 0}
    cal_before = calibrate()
    for label, part, fn in workload.operations():
        record["attempted"] += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = fn()
            else:
                with tracer.span("bench.op"):
                    output = fn()
        except Exception:
            traceback.print_exc()
            record["failed"] += 1
            continue
        seconds = time.perf_counter() - t0
        cal_after = calibrate()
        record["ops"][label] = seconds
        record["ops_cal"][label] = seconds / (0.5 * (cal_before + cal_after))
        cal_before = cal_after
        for key, value in (("parts", seconds), ("parts_cal", record["ops_cal"][label])):
            record.setdefault(key, {}).setdefault(part, 0.0)
            record[key][part] += value
        workload.after_op(label, output, first_round, tracer)
        del output
    record["round_s"] = sum(record["ops"].values())
    record["round_cal"] = sum(record["ops_cal"].values())
    return record


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


def end_to_end_metrics(rounds, setup_s, peak_rss):
    ok = [r for r in rounds if not r["failed"]]
    values = {"setup_s": setup_s, "peak_rss_mib": peak_rss}
    for unit, parts in (("s", "parts"), ("cal", "parts_cal")):
        values[f"round_{unit}"] = _median([r[f"round_{unit}"] for r in ok])
        for part in PARTS:
            values[f"{part}_{unit}"] = _median([r[parts][part] for r in ok])
    return values


def per_layer_metrics(tracer, workload, traced_rounds, untraced_round):
    n = len(traced_rounds)
    totals = tracer.totals({"bench.op"})
    values = {}
    for span in spans.SPAN_NAMES:
        t = totals.get(span, {"total": 0.0, "self": 0.0, "calls": 0})
        values[f"{span}_s"] = t["total"] / n
        values[f"{span}_self_s"] = t["self"] / n
        values[f"{span}_calls"] = t["calls"] / n
    for c in spans.COUNTER_NAMES:
        values[c] = tracer.counts.get(c, 0) / n
    dense_ref = getattr(workload, "dense_ref", {})
    for s in LONG_SCHEMES:
        fwd, bwd, sparse_fwd, sparse_bwd = dense_ref.get(s, (0.0, 0.0, 0.0, 0.0))
        values[f"attention.dense_ref_fwd_s.{s}"] = fwd
        values[f"attention.dense_ref_bwd_s.{s}"] = bwd
        values[f"attention.sparse_over_dense_fwd.{s}"] = sparse_fwd / fwd if fwd else 0.0
        values[f"attention.sparse_over_dense_bwd.{s}"] = sparse_bwd / bwd if bwd else 0.0
    op_spans = sum(t["calls"] for t in totals.values())
    values["trace.spans"] = op_spans / n
    traced = _median([r["round_s"] for r in traced_rounds])
    values["trace.overhead_pct"] = 100.0 * (traced - untraced_round["round_s"]) / untraced_round["round_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "tabenc" / "__init__.py").is_file():
        print(f"error: tabenc sources not found under {src}", file=sys.stderr)
        return 2
    overridden = _pin_blas_threads()
    sys.path.insert(0, str(src))

    import numpy as np

    import workloads

    calibrate = Calibration(np)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup = time_setup(workload, calibrate, src, here)
    setup_s = _median(setup["cal"]) * CAL_REF_S
    setup_raw_s = _median([a + b for a, b in zip(setup["start_s"], setup["inputs_s"])])

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    # the run measures --seconds of operation time; checks and the traced
    # run's dense reference do not count towards it
    rounds = []
    while len(rounds) < MIN_ROUNDS or sum(r["round_s"] for r in rounds) < args.seconds:
        rounds.append(run_round(workload, tracer, calibrate, first_round=not rounds))
    untraced = None
    if tracer is not None:
        tracer.unwrap_all()
        untraced = run_round(workload, None, calibrate, first_round=False)
    peak_rss = _peak_rss_mib()

    errors = workload.final_checks()
    all_rounds = rounds + ([untraced] if untraced else [])
    attempted = sum(r["attempted"] for r in all_rounds)
    failed = sum(r["failed"] for r in all_rounds)

    e2e = end_to_end_metrics(rounds, setup_s, peak_rss)
    if tracer is None:
        names, values = END_TO_END, e2e
    else:
        names = per_layer_names()
        values = per_layer_metrics(tracer, workload, rounds, untraced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}

    headline = workload.headline(rounds)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} round(s), {attempted} operations, {failed} failed")
    print(f"blas_threads {BLAS_THREADS} (nproc {os.cpu_count()}, numpy {np.__version__}, "
          f"python {sys.version.split()[0]}"
          + (f", overrode {overridden}" if overridden else "") + ")")
    print(f"setup_raw_s {setup_raw_s:.6g} s (median of start + inputs, not rescaled)")
    for name, unit in END_TO_END + tuple((f"{p}_s", "s") for p in ("round",) + PARTS):
        print(f"{name} {e2e[name]:.6g} {unit}")
    print(f"cal_ms {1e3 * _median(calibrate.samples):.4g} ms (median calibration loop)")
    for name, value, unit in headline:
        print(f"{name} {value:.6g} {unit}")
    for e in errors:
        print(f"CHECK FAILED: {e}")

    out_dir = here / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS, "overridden_env": overridden,
        "nproc": os.cpu_count(), "numpy": np.__version__, "python": sys.version.split()[0],
        "interpreter_start_s": setup["start_s"], "setup_inputs_s": setup["inputs_s"],
        "setup_cal": setup["cal"],
        "calibration_s": calibrate.samples, "rounds": rounds, "untraced_round": untraced,
        "headline": {name: [value, unit] for name, value, unit in headline},
        "errors": errors,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
