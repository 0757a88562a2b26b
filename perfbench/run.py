"""The capell benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload cap-bands --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; capell is imported from ``src/``.
Each operation is one in-process ``capell.cli.main(argv)`` call writing to a
file the benchmark owns; the next starts when the previous one returns.
Outputs are checked against exact oracles after the timed loop.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation of half the time budget twice, untraced and then with a span
around every call into capell's public functions, and prints per-layer self
times and counts per operation plus the tracing overhead.  The last line of
standard output is the result object; the line before it is a report with
failures by cause, the tail percentile and the machine context.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import SPANNED, Tracer, self_times
from workloads import WORKLOADS, CheckFailed, exact_cap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPS = 5
# A run does whole rounds, --seconds / ROUND_S of them, so every run of a
# workload holds the same mix of operations.  It adds rounds while less
# than MIN_SHARE of --seconds has passed, so that a much faster program
# still measures for a good part of it, and starts none after MAX_SHARE.
MIN_SHARE = 0.4
MAX_SHARE = 2.0
CAUSES = ("exit2", "exit3", "exit4", "exit_other", "exception",
          "oracle", "self_check", "exact", "malformed")
# Causes that mean an output was wrong rather than missing or imprecise.
WRONG = ("exact", "malformed")

CLOCK = time.perf_counter


class Stream:
    """The seeded, endless sequence of rounds of one workload.  An instance
    that repeats an earlier one is drawn again (up to REDRAWS times), so
    that capell's caches see no repeated input."""

    REDRAWS = 100

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.workdir = workdir
        self.rounds: list[list] = []
        self.seen: set = set()
        self.repeats = 0

    def _instance(self, i: int) -> dict:
        for _ in range(self.REDRAWS):
            inst = self.workload.instance(self.rng, i, self.workdir)
            key = repr((inst.get("P"), inst["M"], inst.get("bands")))
            if key not in self.seen:
                break
        else:
            self.repeats += 1
        self.seen.add(key)
        return inst

    def round(self, j: int) -> list:
        while j >= len(self.rounds):
            first = len(self.rounds) * self.workload.ROUND
            ops = []
            for i in range(first, first + self.workload.ROUND):
                ops.extend(self.workload.ops(self._instance(i), i))
            self.rounds.append(ops)
        return self.rounds[j]


def planned_rounds(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.ROUND_S))


def purge_capell() -> None:
    for name in [n for n in sys.modules if n == "capell" or n.startswith("capell.")]:
        del sys.modules[name]


def call(op, out_path: Path):
    """One operation; returns (exit code or cause, seconds, output, stderr)."""
    from capell import cli

    if out_path.exists():
        out_path.unlink()
    err = io.StringIO()
    t0 = CLOCK()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(op.argv + ["--output", str(out_path)])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a dead run
        rc = f"exception: {type(exc).__name__}: {exc}"
    dt = CLOCK() - t0
    text = out_path.read_text() if rc == 0 and out_path.exists() else None
    return rc, dt, text, err.getvalue()


def run_ops(ops, out_path: Path, before_op=None, records=None):
    """Closed loop: each operation starts when the previous one returned."""
    records = [] if records is None else records
    for op in ops:
        k = len(records)
        if before_op is not None:
            before_op(k, op)
        rc, dt, text, err = call(op, out_path)
        records.append((k, op, rc, dt, text, err))
    return records


def run_rounds(stream: Stream, out_path: Path, seconds: float):
    """Whole rounds for about ``seconds``; returns the records, the wall time
    and the number of rounds."""
    planned = planned_rounds(stream.workload, seconds)
    records: list = []
    t_start = CLOCK()
    j = 0
    while True:
        run_ops(stream.round(j), out_path, records=records)
        j += 1
        elapsed = CLOCK() - t_start
        if (j >= planned and elapsed >= MIN_SHARE * seconds) or elapsed >= MAX_SHARE * seconds:
            break
    return records, elapsed, j


def classify(workload, op, rc, text) -> tuple[str | None, str]:
    if isinstance(rc, str):
        return "exception", rc
    if rc != 0:
        return (f"exit{rc}" if rc in (2, 3, 4) else "exit_other"), f"exit {rc}"
    if text is None:
        return "malformed", "no output file"
    try:
        workload.check(op, text)
    except CheckFailed as exc:
        return exc.cause, exc.detail
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "malformed", f"{type(exc).__name__}: {exc}"
    return None, ""


def check_all(workload, records):
    causes = {c: 0 for c in CAUSES}
    first: dict[str, str] = {}
    outcome = []
    for k, op, rc, dt, text, err in records:
        cause, detail = classify(workload, op, rc, text)
        outcome.append(cause)
        if cause is not None:
            causes[cause] += 1
            first.setdefault(cause, f"op {k} ({op.kind}): {detail} {err.strip()[-300:]}".strip())
    return outcome, causes, first


def setup(workload, seed: int, seconds: int, workdir: Path, reps: int):
    """Import capell, build the inputs and warm up, ``reps`` times over;
    returns the last stream and each repetition's wall time."""
    times = []
    stream = None
    for rep in range(reps):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = CLOCK()
        purge_capell()
        import capell.cli  # noqa: F401  (the import is part of set-up)

        stream = Stream(workload, seed, workdir)
        for j in range(planned_rounds(workload, seconds)):
            stream.round(j)
        warm = workload.warmup(random.Random(seed), workdir)
        for op in warm:
            call(op, workdir / "warmup.out")
        times.append(CLOCK() - t0)
    return stream, times


def context() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "load": "closed loop, one client, one operation in flight"}


def lru_caches() -> dict:
    """The caches in capell that repeated inputs would hit."""
    import capell.abel
    import capell.weil

    return {"abel._cached_density": capell.abel._cached_density,
            "weil._band_capacity": capell.weil._band_capacity}


def lru_stats() -> dict:
    return {name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
            for name, fn in lru_caches().items()}


def clear_lru() -> None:
    for fn in lru_caches().values():
        fn.cache_clear()


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten operations beyond it, as
    (value, percentile); with ten or fewer operations, the maximum."""
    n = len(times)
    s = sorted(times)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, workdir):
    stream, setup_times = setup(workload, seed, seconds, workdir, SETUP_REPS)
    clear_lru()  # the warm-up's results must not serve the timed operations
    records, wall, rounds = run_rounds(stream, workdir / "op.out", seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    caches = lru_stats()
    outcome, causes, first = check_all(workload, records)
    times = [r[3] for r in records]
    n = len(times)
    failed = sum(c is not None for c in outcome)
    tail_s, tail_pct = tail(times)
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r[1].kind, []).append(r[3])
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "operations": n, "rounds": rounds, "loop_wall_s": wall,
        "cmd_s_tail_percentile": tail_pct, "cmd_s_tail_samples": n,
        "fail_frac": failed / n, "failures_by_cause": causes, "first_failure": first,
        "median_s_by_kind": {k: [len(v), statistics.median(v)] for k, v in by_kind.items()},
        "setup_reps_s": setup_times, "repeated_instances": stream.repeats,
        "lru_cache": caches, "context": context(),
        "ops": [[r[1].kind, r[1].ctx.get("r"), round(r[3], 4), c]
                for r, c in zip(records, outcome)],
    }
    metrics = {
        "cmd_s_p50": metric(statistics.median(times), "s"),
        "cmd_s_tail": metric(tail_s, "s"),
        "cmds_per_s": metric(n / wall, "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    correct = not any(causes[c] for c in WRONG)
    return report, {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}


# Per-layer metrics: self seconds per operation of every span name, and
# calls per operation of these.
_TIMED = list(dict.fromkeys(name for _, _, name in SPANNED))
_CALLS = ["abel.solve_R", "capacity.chebyshev_constant", "capacity.fekete_points",
          "robinson.generate_at", "core.isolate_real_roots", "core.count_roots"]


def emitted_results(op, rc, text) -> int:
    """Robinson results an operation delivered: one polynomial per JSON
    output, one table row per CSV row."""
    if op.argv[0] != "robinson" or rc != 0 or text is None:
        return 0
    if op.kind == "json":
        return 1
    return max(0, len(text.splitlines()) - 1)


def traced(workload, seed, seconds, workdir):
    rounds = planned_rounds(workload, seconds / 2.0)
    stream, _ = setup(workload, seed, seconds / 2.0, workdir, 1)
    out_path = workdir / "op.out"

    state = {"cap": None, "digits": [], "bits": 0}

    def note_cap(value):
        if state["cap"] is not None:
            rel = abs(value - state["cap"]) / state["cap"]
            state["digits"].append(-math.log10(max(rel, 1e-17)))

    def on_generate_at(result):
        P = result[0]
        state["bits"] = max([state["bits"]] + [max(abs(c.numerator).bit_length(),
                                                   c.denominator.bit_length())
                                               for c in P.coeffs])

    def before_op(i, op):
        tracer.op = i
        state["cap"] = exact_cap(op.ctx)

    tracer = Tracer(hooks={
        "abel.solve_R": lambda datum: note_cap(math.exp(datum.vE)),
        "abel.abel_capacity": note_cap,
        "robinson.generate_at": on_generate_at,
    })
    plain: list = []
    spanned: list = []
    lru_hits = 0

    def traced_op(op):
        nonlocal lru_hits
        clear_lru()
        tracer.install()
        try:
            run_ops([op], out_path, before_op=before_op, records=spanned)
        finally:
            tracer.uninstall()
        lru_hits += sum(c["hits"] for c in lru_stats().values())

    # Each operation runs untraced and traced back to back, in alternating
    # order, so that drift of the machine and a second run's warm caches
    # fall on both sides of the overhead alike.
    for j in range(rounds):
        for op in stream.round(j):
            if len(plain) % 2:
                traced_op(op)
                clear_lru()
                run_ops([op], out_path, records=plain)
            else:
                run_ops([op], out_path, records=plain)
                traced_op(op)
    k = len(plain)

    outcome, causes, first = check_all(workload, plain + spanned)
    failed = sum(c is not None for c in outcome)
    self_s, calls = self_times(tracer.spans)
    per_op = 1.0 / k
    metrics = {}
    for name in _TIMED:
        key = "cli.self_s" if name == "cli.main" else f"{name}_s"
        metrics[key] = metric(self_s.get(name, 0.0) * per_op, "s/op")
    for name in _CALLS:
        metrics[f"{name}_calls"] = metric(calls.get(name, 0) * per_op, "1/op")
    metrics["cli.main_calls"] = metric(calls.get("cli.main", 0) * per_op, "1/op")
    codes = [r[2] for r in spanned]
    metrics["cli.exit3"] = metric(codes.count(3) * per_op, "1/op")
    metrics["cli.exit4"] = metric(codes.count(4) * per_op, "1/op")
    metrics["core.exact_eval_calls"] = metric(tracer.counts["core.exact_eval"] * per_op, "1/op")
    emitted = sum(emitted_results(op, rc, text) for _, op, rc, _, text, _ in spanned)
    gen_calls = calls.get("robinson.generate_at", 0)
    metrics["robinson.generate_at_useful_ratio"] = metric(
        emitted / gen_calls if gen_calls else 0.0, "ratio")
    metrics["robinson.coeff_bits_max"] = metric(state["bits"], "bits")
    metrics["abel.cap_digits_min"] = metric(min(state["digits"], default=0.0), "digits")
    metrics["cache.lru_hits"] = metric(lru_hits, "count")
    t_plain = sum(r[3] for r in plain)
    t_spanned = sum(r[3] for r in spanned)
    metrics["trace_overhead_frac"] = metric(t_spanned / t_plain - 1.0, "ratio")

    spans_dir = ROOT / ".perfbench_out"
    spans_dir.mkdir(exist_ok=True)
    base = tracer.spans[0][1] if tracer.spans else 0.0
    (spans_dir / f"spans-{workload.name}-{seed}.json").write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "ops": [op.kind for _, op, *_ in spanned],
        "spans": [[n, t0 - base, t1 - base, p, o] for n, t0, t1, p, o in tracer.spans],
    }))
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "operations_per_pass": k, "fail_frac": failed / (2 * k),
        "failures_by_cause": causes, "first_failure": first, "spans": len(tracer.spans),
        "context": context(),
    }
    correct = not any(causes[c] for c in WRONG)
    return report, {"correct": correct, "attempted": 2 * k, "failed": failed,
                    "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "capell" / "cli.py").is_file():
        print(f"error: no capell sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        fn = traced if args.trace else end_to_end
        report, result = fn(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
