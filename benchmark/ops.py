"""One op per input dict: call the package, then check its outputs.

Every op returns a list of checks (name, measured deviation, threshold); a
check passes when deviation <= threshold. The thresholds are the package's
own: the gates inside susy, the values `susyosc verify` applies and the
acceptance tests' bounds. Typed SusyOscError refusals propagate to the
runner, which counts them.

Package functions are always reached as attributes of the package (so.x),
never imported by name, so that the span recorder's wrappers are the ones
called during a traced run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

ISO_NORM_TOL = 1e-6          # susy.iso_state gate
ORTHONORMALITY_TOL = 1e-6    # verify states suite
EIGEN_RESIDUAL_TOL = 1e-4    # verify states suite, susy.new_state gate
PIV_RESIDUAL_TOL = 1e-5      # painleve --tol default
POTENTIAL_TOL = 1e-5         # acceptance: potential from transcendent
STENCIL_TOL = 1e-3           # verify ladder suite: stencil vs table
MOMENT_TOL = 1e-3            # verify measures suite
IDENTITY_TOL = 5e-3          # verify measures suite; lin_iso uses 1e-8
IDENTITY_LIN_ISO_TOL = 1e-8
KERNEL_TOL = 1e-9            # verify coherent suite
PROBABILITY_TOL = 1e-10
MEAN_ISO_TOL, MEAN_NEW_TOL = 1e-8, 1e-10
EVOLUTION_TOL = 1e-12
ANNIHILATION_TOL = 1e-8
DENSITY_NORM_TOL = 1e-6      # acceptance: density norm of a lin_iso state

CLI_TIMEOUT_S = 120


def _flag(ok: bool):
    """Pass/fail outcome as a check: deviation 0 when ok, 1 otherwise."""
    return 0.0 if ok else 1.0


def _positivity(values) -> float:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return math.inf
    return float(-np.min(values))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def system_op(so, op) -> list:
    """build_system, then every independent route that checks the system."""
    spec = so.SystemSpec(k=op["k"], eps_top=op["eps_top"], nu=op["nu"],
                         x_min=-op["x_max"], x_max=op["x_max"],
                         n_points=op["n_points"])
    system = so.build_system(spec, n_max=op["n_max"])
    checks = [("iso_norm", max(st.norm_agreement for st in system.iso_states),
               ISO_NORM_TOL)]
    states = system.all_states
    worst = 0.0
    for i, si in enumerate(states):
        for sj in states[i:]:
            want = 1.0 if sj is si else 0.0
            worst = max(worst, abs(system.inner(si, sj) - want))
    checks.append(("orthonormality", worst, ORTHONORMALITY_TOL))
    checks.append(("eigen_residual", max(system.residual(st) for st in states),
                   EIGEN_RESIDUAL_TOL))

    gsol = so.g_for_system(system, "half")
    asg = gsol.assignment
    checks.append(("piv_residual", so.piv_residual(gsol, asg.a, asg.b).max,
                   PIV_RESIDUAL_TOL))
    rebuilt = so.potential_from_g(gsol, asg.e1)
    finite = np.isfinite(rebuilt)
    checks.append(("potential_round_trip",
                   float(np.max(np.abs(rebuilt[finite] - system.potential[finite]))),
                   POTENTIAL_TOL))

    params = so.LadderCoeffs.from_spec(spec)
    stencil = so.build_operator_stencil(so.g_for_system(system, "eps0", phi_rel_floor=1e-8))
    pairs = [("iso", n) for n in range(1, min(4, op["n_max"] + 1))] \
        + [("new", j) for j in range(1, spec.k)]
    worst = 0.0
    for subspace, n in pairs:
        got = so.stencil_projection(stencil, system.state(subspace, n - 1),
                                    system.state(subspace, n), system.weights)
        # stored states carry their own sign convention: compare magnitudes
        worst = max(worst, abs(abs(got) / so.natural_down_coeff(n, subspace, params) - 1.0))
    checks.append(("stencil_vs_table", worst, STENCIL_TOL))
    return checks


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def _params(so, op):
    return so.CSParams.from_spec(so.SystemSpec(k=op["k"], eps_top=op["eps_top"], nu=0.0))


def _moment_probes(so, m) -> list:
    """Three orders inside the strip, kept off the upper edge like verify's."""
    lo, hi = so.moment_strip(m)
    if math.isfinite(hi) and hi - 0.95 > lo:
        hi = hi - 0.95
    hi = min(hi, lo + 4.0)
    return [lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]


def measure_check_op(so, op) -> list:
    m = so.measure_fn(op["family"], _params(so, op))
    checks = [("cache_agreement", m.cache_agreement, m.rtol)]
    worst = 0.0
    for s in _moment_probes(so, m):
        got, want = so.moment_check(m, s)
        worst = max(worst, abs(got / want - 1.0))
    checks.append(("moments", worst, MOMENT_TOL))
    radii = np.linspace(0.1, op["r_max"], 25)
    checks.append(("positivity", _positivity(m.density(radii)), 0.0))
    return checks


def identity_op(so, op) -> list:
    family = op["family"]
    tol = IDENTITY_LIN_ISO_TOL if family == "lin_iso" else IDENTITY_TOL
    return [("identity_" + family, so.identity_resolution_check(family, _params(so, op)), tol)]


def table_op(so, op) -> list:
    params = _params(so, op)
    r = np.linspace(op["r_max"] / op["n_radii"], op["r_max"], op["n_radii"])
    if op["table"] == "profiles":
        worst = max(_positivity(so.measure_fn(fam, params).profile(r * r))
                    for fam in ("mu1", "mu2", "mu3"))
    else:
        worst = _positivity(so.measure_fn(op["table"], params).density(r))
    return [("table_positivity", worst, 0.0)]


def state_queries_op(so, op) -> list:
    """construct_cs, kernel, mean_energy, evolve and annihilation_check."""
    params = _params(so, op)
    z, zp = (complex(*label) for label in op["labels"])
    t = op["t"]
    checks = []
    for family in ("aocs_iso", "docs_new", "lin_iso", "lin_new"):
        iso = family.endswith("_iso")
        cs = so.construct_cs(family, z, params)
        other = so.construct_cs(family, zp, params)
        n = min(cs.coeffs.size, other.coeffs.size)
        ip = complex(np.sum(np.conj(other.coeffs[:n]) * cs.coeffs[:n]))
        checks.append(("kernel_inner", abs(so.kernel(family, zp, z, params) - ip), KERNEL_TOL))
        probs = so.probabilities(cs)
        checks.append(("probability_sum",
                       abs(float(np.sum(probs)) + cs.truncation_tail - 1.0), PROBABILITY_TOL))
        checks.append(("mean_vs_sum",
                       abs(float(np.sum(probs * cs.level_energies())) - so.mean_energy(cs)),
                       MEAN_ISO_TOL if iso else MEAN_NEW_TOL))
        moved, phase = so.evolve(cs, t)
        direct = cs.coeffs * np.exp(-1j * cs.level_energies() * t)
        nn = min(direct.size, moved.coeffs.size)
        checks.append(("evolution",
                       float(np.max(np.abs(direct[:nn] - phase * moved.coeffs[:nn]))),
                       EVOLUTION_TOL))
        if iso:
            checks.append(("annihilation", so.annihilation_check(cs), ANNIHILATION_TOL))
    return checks


IN_PROCESS_OPS = {
    "system": system_op,
    "measure_check": measure_check_op,
    "identity": identity_op,
    "table": table_op,
    "state_queries": state_queries_op,
}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _spec_args(spec) -> list:
    return ["--k", str(spec["k"]), "--eps-top=%r" % spec["eps_top"],
            "--nu=%r" % spec["nu"]]


def _z_arg(label) -> str:
    return "--z=%r,%r" % (label[0], label[1])


def cli_argv(op, workdir: str):
    """(argv after the program name, expected exit code, output paths)."""
    def path(suffix):
        return os.path.join(workdir, "%s_%s" % (op["sid"], suffix))

    kind = op["kind"]
    system = path("system.json")
    if kind == "build":
        return ["build", *_spec_args(op["spec"]), "--out", system], 0, {}
    if kind == "painleve":
        out = path("painleve.json")
        return ["painleve", "--system", system, "--out", out], 0, {"json": out}
    if kind == "verify":
        out = path("verify.json")
        return ["verify", "--system", system, "--out", out], 0, {"json": out}
    if kind in ("cs", "cs_density", "refuse"):
        out = path("cs_%s.json" % op["family"])
        argv = ["cs", *_spec_args(op["spec"]), "--family", op["family"],
                _z_arg(op["z"]), "--out", out]
        if kind == "refuse":
            witness = path("witness_%s.csv" % op["family"])
            return argv + ["--witness-out", witness], 2, {"csv": witness}
        if kind == "cs_density":
            dens = path("density_%s.csv" % op["family"])
            return argv + ["--density", dens], 0, {"json": out, "csv": dens}
        return argv, 0, {"json": out}
    if kind == "measure":
        out = path("measures.csv")
        return ["measure", *_spec_args(op["spec"]), "--rmax=%r" % op["r_max"],
                "--out", out], 0, {"csv": out}
    if kind == "density":
        out = path("density_%s.csv" % op["measure"])
        return ["density", *_spec_args(op["spec"]), "--measure", op["measure"],
                "--rmax=%r" % op["r_max"], "--out", out], 0, {"csv": out}
    raise ValueError("unknown cli op kind %r" % (kind,))


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def cli_checks(op, rc: int, expected_rc: int, outputs: dict) -> list:
    """Exit code, then the pass flags and tables the subcommand wrote."""
    checks = [("exit_code", _flag(rc == expected_rc), 0.0)]
    if rc != expected_rc:
        return checks
    kind = op["kind"]
    doc = None
    if "json" in outputs:
        with open(outputs["json"]) as fh:
            doc = json.load(fh)
    if kind == "painleve":
        checks.append(("painleve_passed", _flag(doc["passed"] is True), 0.0))
        checks.append(("piv_residual", doc["residual_stats"]["max"], doc["tol"]))
    elif kind == "verify":
        checks.append(("verify_all_passed", _flag(doc["all_passed"] is True), 0.0))
        checks.extend(("verify_" + c["check"], c["value"], c["threshold"])
                      for c in doc["checks"])
    elif kind in ("cs", "cs_density"):
        checks.append(("probability_sum",
                       abs(doc["probability_sum"] + doc["truncation_tail"] - 1.0),
                       PROBABILITY_TOL))
        if kind == "cs_density":
            checks.append(("density_norm", abs(doc["density_norm"] - 1.0), DENSITY_NORM_TOL))
    elif kind == "refuse":
        _, table = _read_csv(outputs["csv"])
        checks.append(("witness_rows", _flag(table.shape[0] >= 1), 0.0))
    elif kind in ("measure", "density"):
        _, table = _read_csv(outputs["csv"])
        checks.append(("table_positivity", _positivity(table[:, 1:]), 0.0))
    return checks


def run_cli_subprocess(argv, src_dir: str, workdir: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "susyosc.cli", *argv], cwd=workdir,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode


def run_cli_in_process(so, argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return so.cli.main(argv)
