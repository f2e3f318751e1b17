"""susyosc benchmark: time to checked results on three workloads.

    python3 benchmark/run.py --workload sweep|measures|cli --seed N \
        --seconds S --trace 0|1

The package is imported from src/ beside this directory. The last line of
standard output is the result object; the line before it is a `report`
object with the provenance block, the failure ratio, the tail percentile and
its sample count, and every metric with its unit.

Each workload is a closed loop with one caller: the next op starts when the
previous one returns. The number of rounds of inputs is fixed by --seconds
(see inputs.ROUND_SECONDS), so every commit runs the same ops for a seed.
Set-up time is read SETUP_REPEATS times, spread through the op list.

--trace 1 runs each op of half of those rounds twice, untraced and traced
with the span recorder installed, and reports per-layer metrics instead of
the end-to-end ones. The cli workload runs both of those in-process through
cli.main, after a subprocess run of the same op that splits off process
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

import inputs  # noqa: E402  (sibling module; HERE is sys.path[0])

# Set-up is measured this many times per run, once before each of as many
# equal slices of the op list. Host load drifts over seconds, so readings
# spread through the run give a steadier median than a block at its start.
SETUP_REPEATS = 15
TAIL_BEYOND = 10   # the tail percentile keeps at least this many samples above it

def _metric_units(section: str) -> dict:
    """{name: unit} of one metric list of BENCHMARK.json, in its order.

    "<span>.calls", "<span>.self_s" and "<span>.total_s" (inclusive) per-layer
    metrics read the span table, "<layer>.self_s" sums a module's spans; the
    rest are computed in per_layer_metrics(). fail_ratio and check_margin are
    printed in the report only: fail_ratio is 0 on measures and cli, and
    check_margin moves whenever numerics change inside their thresholds, so
    neither can carry a regression bound; `correct` and `failed` carry their
    verdict instead.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


END_TO_END_UNITS = _metric_units("end_to_end")
PER_LAYER_UNITS = _metric_units("per_layer")

CLI_SUBCOMMAND_SPANS = {"build": "cli.cmd_build", "painleve": "cli.cmd_painleve",
                        "cs": "cli.cmd_cs", "verify": "cli.cmd_verify",
                        "measure": "cli.cmd_measure", "density": "cli.cmd_density"}


def _fail(message: str) -> "NoReturn":
    print("benchmark: %s" % message, file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "susyosc", "__init__.py")):
        _fail("no susyosc package under %s; run from the root of a checkout" % SRC)
    sys.path.insert(0, SRC)
    import susyosc
    import susyosc.cli  # noqa: F401  (makes so.cli available to the ops)
    if os.path.dirname(os.path.abspath(susyosc.__file__)) != os.path.join(SRC, "susyosc"):
        _fail("imported susyosc from %s, not from %s" % (susyosc.__file__, SRC))
    return susyosc


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(so, workload: str, seed: int, n_rounds: int) -> dict:
    import numpy as np
    blas = {var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "package": "susyosc", "package_version": so.__version__,
        "git_commit": _git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "longdouble_is_float64": bool(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps),
        "blas_threads": blas,
        "workload": workload, "seed": seed, "rounds": n_rounds,
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, n_rounds: int) -> float:
    """Seconds from spawning a fresh interpreter to its first op."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, workload,
         str(seed), str(n_rounds)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    if proc.returncode != 0:
        _fail("set-up probe failed:\n%s" % proc.stderr)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

# a refusal names the value that failed: "... by 1.15e-06", "(residual 3.2e-4)"
_NAMES_A_VALUE = re.compile(r"\b(?:by|residual)\s+[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_ops(ops, execute, so, recorder=None, start=0) -> list:
    """Closed loop over ops; one outcome dict per op.

    start is the index of ops[0] in the run's op list, which is what spans
    record as their op.
    """
    outcomes = []
    for index, op in enumerate(ops, start):
        if recorder is not None:
            recorder.op = index
        checks, error, typed = [], None, True
        t0 = time.perf_counter()
        try:
            checks = execute(op)
        except so.SusyOscError as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        except Exception as exc:   # an untyped failure is a wrong outcome
            error, typed = "%s: %s" % (type(exc).__name__, exc), False
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        over = [c for c in checks if not c[1] <= c[2]]
        failed = error is not None or bool(over)
        if op.get("probe"):
            # outside the envelope a refusal is the expected answer, but it
            # must be typed and name the value that failed; a system returned
            # with a check over its threshold is a silent wrong answer
            unexpected = (not typed or bool(over)
                          or (error is not None and not _NAMES_A_VALUE.search(error)))
        else:
            unexpected = failed
        outcomes.append({"kind": op["kind"], "probe": bool(op.get("probe")),
                         "seconds": seconds, "checks": checks, "error": error,
                         "over": over,
                         "op": op, "failed": failed, "unexpected": unexpected})
    return outcomes


def _margin(value: float, threshold: float) -> float:
    if threshold > 0.0:
        return value / threshold if math.isfinite(value) else math.inf
    return 0.0 if value <= 0.0 else math.inf


def summarize(outcomes, wall=None) -> dict:
    """End-to-end figures of one op list (everything except set-up and memory).

    wall is the elapsed time of the whole list; without it the op latencies
    are summed.
    """
    if wall is None:
        wall = sum(o["seconds"] for o in outcomes)
    good = sorted(o["seconds"] for o in outcomes if not o["failed"])
    lat = good or sorted(o["seconds"] for o in outcomes)
    n = len(lat)
    if n > TAIL_BEYOND:
        tail, tail_pct, beyond = lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    else:
        tail, tail_pct, beyond = lat[-1], 100.0, 0
    worst = (0.0, "none")
    for o in outcomes:
        for name, value, threshold in o["checks"]:
            m = _margin(value, threshold)
            if not m <= worst[0]:
                worst = (m, "%s:%s" % (o["kind"], name))
    failed = sum(o["failed"] for o in outcomes)
    return {
        "attempted": len(outcomes), "failed": failed,
        "unexpected": sum(o["unexpected"] for o in outcomes),
        "ops_per_s": len(good) / wall, "op_p50_s": statistics.median(lat),
        "op_tail_s": tail, "op_tail_percentile": tail_pct, "op_tail_n": n,
        "op_tail_beyond": beyond, "fail_ratio": failed / len(outcomes),
        "check_margin": worst[0], "check_margin_at": worst[1], "wall_s": wall,
        "errors": sorted({o["error"] for o in outcomes if o["error"]}),
        "checks_over": [{"op": o["op"], "checks": o["over"]} for o in outcomes if o["over"]],
    }


class Workload:
    """Executes the ops of one workload, untraced or under a recorder."""

    def __init__(self, name: str, so):
        import ops
        self.name, self.so, self.ops = name, so, ops
        self.workdir = None
        if name == "cli":
            self.workdir = os.path.join(OUT_DIR, "work_%d" % os.getpid())
            os.makedirs(self.workdir, exist_ok=True)

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, op_list, recorder=None, in_process=False, start=0):
        if self.name != "cli":
            return run_ops(op_list, lambda op: self.ops.IN_PROCESS_OPS[op["kind"]](self.so, op),
                           self.so, recorder, start)

        def execute(op):
            argv, expected, outputs = self.ops.cli_argv(op, self.workdir)
            if in_process:
                rc = self.ops.run_cli_in_process(self.so, argv)
            else:
                rc = self.ops.run_cli_subprocess(argv, SRC, self.workdir)
            return self.ops.cli_checks(op, rc, expected, outputs)

        return run_ops(op_list, execute, self.so, recorder, start)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_metrics(recorder, op_list, traced, untraced, subprocess_outcomes=None):
    import spans as sp
    table = sp.aggregate(recorder.spans)
    values, absent = {}, []

    def span_value(span, field):
        if span not in recorder.wrapped:
            absent.append(span)
            return 0.0
        return float(table.get(span, {}).get(field, 0))

    # one process per cli op, one process for the in-process workloads
    scope = (lambda op: op) if subprocess_outcomes is not None else (lambda op: 0)
    cli_verify = {i for i, op in enumerate(op_list) if op["kind"] == "verify"}
    for metric in PER_LAYER_UNITS:
        parts = metric.split(".")
        if metric == "susy.builds_per_spec":
            v = sp.builds_per_key(recorder.spans, recorder.keys, "susy.build_system")
        elif metric == "coherent.measure_builds_per_key":
            v = sp.builds_per_key(recorder.spans, recorder.keys, "coherent.measure_fn", scope)
        elif metric == "cli.verify.measure_builds_per_key":
            keys = [(i, k) for i, k in recorder.keys if recorder.spans[i][4] in cli_verify]
            v = sp.builds_per_key(recorder.spans, keys, "coherent.measure_fn", scope)
        elif metric == "cli.process_overhead_s":
            v = (sum(o["seconds"] for o in subprocess_outcomes)
                 - sum(o["seconds"] for o in untraced)) if subprocess_outcomes is not None else 0.0
        elif metric.startswith("trace."):
            op_wall = sum(o["seconds"] for o in traced)
            v = {"trace.op_wall_s": op_wall,
                 "trace.unattributed_s": op_wall - sum(r["self_s"] for r in table.values()),
                 "trace.overhead_s": op_wall - sum(o["seconds"] for o in untraced),
                 "trace.spans": float(len(recorder.spans))}[metric]
        elif len(parts) == 2 and parts[1] == "self_s":
            v = sum(r["self_s"] for name, r in table.items() if name.startswith(parts[0] + "."))
        elif parts[0] == "cli" and parts[1] in CLI_SUBCOMMAND_SPANS:
            v = span_value(CLI_SUBCOMMAND_SPANS[parts[1]], "self_s")
        else:
            v = span_value(".".join(parts[:-1]), parts[-1])
        values[metric] = v
    return values, sorted(set(absent))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _finite(value: float) -> float:
    # JSON has no infinity; an infinite margin only arises from a failed check
    return value if math.isfinite(value) else 1e300


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    so = _import_package()
    n_rounds = inputs.rounds_for(args.seconds)
    prov = provenance(so, args.workload, args.seed, n_rounds)
    rounds = inputs.generate(args.workload, args.seed, n_rounds)
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = Workload(args.workload, so)
    try:
        if args.trace:
            result, report = traced_run(workload, rounds, args.seed)
        else:
            result, report = timed_run(workload, rounds, args)
    finally:
        workload.close()
    report["provenance"] = prov
    stem = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1, default=str)
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


def timed_run(workload, rounds, args):
    op_list = [op for r in rounds for op in r]
    cuts = [round(i * len(op_list) / SETUP_REPEATS) for i in range(SETUP_REPEATS + 1)]
    setup, outcomes, wall, cpu = [], [], 0.0, 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        setup.append(measure_setup(args.workload, args.seed, len(rounds)))
        cpu0, t0 = _cpu_s(), time.perf_counter()
        outcomes += workload.run(op_list[lo:hi], start=lo)
        wall, cpu = wall + time.perf_counter() - t0, cpu + _cpu_s() - cpu0
    s = summarize(outcomes, wall)
    values = {
        "setup_s": statistics.median(setup), "ops_per_s": s["ops_per_s"],
        "op_p50_s": s["op_p50_s"], "op_tail_s": s["op_tail_s"],
        "peak_rss_mb": _peak_rss_mb(args.workload),
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    result = {"correct": s["unexpected"] == 0, "attempted": s["attempted"],
              "failed": s["unexpected"], "metrics": metrics}
    shown = dict(metrics, fail_ratio={"value": s["fail_ratio"], "unit": "ratio"},
                 check_margin={"value": _finite(s["check_margin"]), "unit": "ratio",
                               "at": s["check_margin_at"]})
    shown["op_tail_s"] = dict(metrics["op_tail_s"], percentile=s["op_tail_percentile"],
                              n=s["op_tail_n"], beyond=s["op_tail_beyond"])
    per_kind = {}
    for o in outcomes:
        per_kind.setdefault(o["kind"], []).append(o["seconds"])
    report = dict(s, setup_runs_s=setup, metrics=shown, cpu_s=cpu,
                  kind_median_s={k: statistics.median(v) for k, v in per_kind.items()},
                  kind_count={k: len(v) for k, v in per_kind.items()})
    if args.workload == "sweep":
        report["known_defect"] = known_defect(workload)
    return result, report


def known_defect(workload) -> dict:
    """Re-checks inputs.KNOWN_DEFECT_OP after the timed ops; not counted in the result."""
    (o,) = workload.run([inputs.KNOWN_DEFECT_OP])
    return {"op": o["op"], "still_shows": o["failed"], "checks_over": o["over"],
            "error": o["error"]}


def traced_run(workload, rounds, seed):
    """Each op untraced and traced, in alternating order so neither side
    always runs warm; cli ops also run once as a subprocess first."""
    import spans as sp
    half = rounds[:max(1, len(rounds) // 2)]
    op_list = [op for r in half for op in r]
    recorder = sp.SpanRecorder()
    untraced, traced = [], []
    subprocess_outcomes = [] if workload.name == "cli" else None
    for index, op in enumerate(op_list):
        if subprocess_outcomes is not None:
            subprocess_outcomes += workload.run([op], start=index)
        for trace_it in ((False, True) if index % 2 == 0 else (True, False)):
            if trace_it:
                with recorder:
                    traced += workload.run([op], recorder, in_process=True, start=index)
            else:
                untraced += workload.run([op], in_process=True, start=index)
    values, absent = per_layer_metrics(recorder, op_list, traced, untraced, subprocess_outcomes)
    passes = [untraced, traced] + ([subprocess_outcomes] if subprocess_outcomes else [])
    unexpected = sum(o["unexpected"] for p in passes for o in p)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    result = {"correct": unexpected == 0, "attempted": sum(len(p) for p in passes),
              "failed": unexpected, "metrics": metrics}
    report = {"traced": summarize(traced), "untraced": summarize(untraced),
              "absent": absent, "missing_layers": recorder.missing_layers,
              "metrics": metrics}
    sp.write_spans(recorder, os.path.join(OUT_DIR, "spans_%s_seed%d.json" % (workload.name, seed)))
    return result, report


if __name__ == "__main__":
    sys.exit(main())
