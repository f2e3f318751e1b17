"""Re-measure the ROADMAP re-anchor figures and flag the ones that moved.

    python3 benchmark/reconcile.py

The package is imported from src/ beside this directory. Layer times come
from the span recorder (inclusive span time, median over REPEATS readings, in
one process after a warm-up build); CLI times are subprocess wall times. A
figure is flagged when the median falls outside the ROADMAP value +-20% (for
a stated range, outside [low * 0.8, high * 1.2]). Prints a markdown table.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

import ops  # noqa: E402
import spans as sp  # noqa: E402

TOLERANCE = 0.2
REPEATS = 5
SPEC = {"k": 4, "eps_top": -2.8, "nu": -0.9}
SPEC_ARGS = ["--k", "4", "--eps-top=-2.8", "--nu=-0.9"]

# (figure, ROADMAP low, ROADMAP high); one value when ROADMAP gives one
ROADMAP = [
    ("build_system(k=4, n_max=32)", 0.7, 0.9),
    ("33 iso states", 0.69, 0.69),
    ("seed chain", 0.15, 0.15),
    ("measure_fn mu2", 0.78, 0.78),
    ("measure_fn mu1", 0.21, 0.21),
    ("measure_fn mu3 (under)", 0.0, 0.01),
    ("cli build", 1.5, 1.5),
    ("cli verify", 4.1, 4.1),
    ("verify: load_system rebuild", 1.3, 1.3),
    ("verify: measure builds (6)", 1.1, 1.1),
    ("cli painleve", 1.3, 1.3),
    ("cli cs", 0.35, 0.35),
    ("cli cs --density", 1.35, 1.35),
    ("cli measure", 0.8, 0.8),
]


def _traced(fn):
    recorder = sp.SpanRecorder()
    with recorder:
        fn()
    return sp.aggregate(recorder.spans)


def _total(table, name):
    return table.get(name, {}).get("total_s", float("nan"))


def in_process_figures(so, workdir):
    spec = so.SystemSpec(**SPEC)
    so.build_system(spec, n_max=32)               # warm-up
    table = _traced(lambda: so.build_system(spec, n_max=32))
    out = {
        "build_system(k=4, n_max=32)": _total(table, "susy.build_system"),
        "33 iso states": _total(table, "susy.iso_state"),
        "seed chain": _total(table, "susy.build_seed_chain"),
    }
    params = so.CSParams.from_spec(spec)
    for fam in ("mu2", "mu1", "mu3"):
        table = _traced(lambda: so.measure_fn(fam, params))
        key = "measure_fn mu3 (under)" if fam == "mu3" else "measure_fn " + fam
        out[key] = _total(table, "coherent.measure_fn")
    system_path = os.path.join(workdir, "reconcile_system.json")
    ops.run_cli_in_process(so, ["build", *SPEC_ARGS, "--out", system_path])
    table = _traced(lambda: ops.run_cli_in_process(so, ["verify", "--system", system_path]))
    out["verify: load_system rebuild"] = _total(table, "serialize.load_system")
    out["verify: measure builds (6)"] = _total(table, "coherent.measure_fn")
    out["verify: measure_fn calls"] = table.get("coherent.measure_fn", {}).get("calls", 0)
    return out


def cli_figures(workdir):
    system_path = os.path.join(workdir, "cli_system.json")
    commands = [
        ("cli build", ["build", *SPEC_ARGS, "--out", system_path]),
        ("cli verify", ["verify", "--system", system_path]),
        ("cli painleve", ["painleve", "--system", system_path,
                          "--out", os.path.join(workdir, "p.json")]),
        ("cli cs", ["cs", *SPEC_ARGS, "--family", "lin-new", "--z", "1.5@-4.93",
                    "--out", os.path.join(workdir, "cs.json")]),
        ("cli cs --density", ["cs", *SPEC_ARGS, "--family", "lin-iso", "--z", "1.2@-2.78",
                              "--density", os.path.join(workdir, "d.csv"),
                              "--out", os.path.join(workdir, "cs.json")]),
        ("cli measure", ["measure", *SPEC_ARGS, "--out", os.path.join(workdir, "m.csv")]),
    ]
    out = {}
    for name, argv in commands:
        t0 = time.perf_counter()
        rc = ops.run_cli_subprocess(argv, SRC, workdir)
        out[name] = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit("%s exited %d" % (name, rc))
    return out


def main() -> int:
    sys.path.insert(0, SRC)
    import susyosc as so
    import susyosc.cli  # noqa: F401

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reconcile_", dir=OUT_DIR)
    readings = {}
    try:
        for _ in range(REPEATS):
            for source in (in_process_figures(so, workdir), cli_figures(workdir)):
                for name, value in source.items():
                    readings.setdefault(name, []).append(value)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("| figure | ROADMAP (s) | measured median (s) | runs | outside +-20% |")
    print("|---|---|---|---|---|")
    for name, low, high in ROADMAP:
        values = readings[name]
        med = statistics.median(values)
        stated = "%g" % high if low == high else "%g-%g" % (low, high)
        flag = not (low * (1 - TOLERANCE) <= med <= high * (1 + TOLERANCE))
        print("| %s | %s | %.3f | %s | %s |" % (
            name, stated, med, " ".join("%.3f" % v for v in values),
            "**yes**" if flag else "no"))
    calls = readings["verify: measure_fn calls"]
    print("\nverify measure_fn calls per run: %s (3 families)" % calls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
