"""Command-line surface: build systems, extract transcendents, emit states.

Artifacts are JSON documents (canonical formatting, see serialize) and CSV
tables. Exit codes are part of the contract: 0 success, 1 a requested
numerical check failed, 2 invalid input / family misuse / malformed
artifact, 3 the transcendent sample left too few usable points to judge,
4 a valid spec the numerics could not build (a grid state failed its
closed-form checks, or the seed Wronskian vanishes on the grid).

Labels are written either in polar form R@theta (radians) or rectangular
re,im; use --z=-0.3,0.5 when the value starts with a minus sign.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

import numpy as np

from .coherent import (
    CSParams,
    Family,
    MeasureFamily,
    annihilation_check,
    construct_cs,
    divergence_witness,
    evolve,
    identity_resolution_check,
    kernel,
    mean_energy,
    measure_fn,
    moment_check,
    moment_strip,
    probabilities,
    wavefunction,
)
from .errors import (
    ConstructionError,
    InsufficientSupportError,
    SingularPotentialError,
    SusyOscError,
    UsageError,
)
from .ladder import (
    apply_stencil,
    build_operator_stencil,
    commutator_check,
    natural_down_coeff,
    nilpotent_matrix,
    pha_product_check,
    stencil_projection,
)
from .painleve import backlund_check, g_for_system, piv_residual
from .serialize import (
    SCHEMA_VERSION,
    load_system,
    system_document,
    write_csv,
    write_json,
)
from .susy import DEFAULT_N_MAX, DEFAULT_N_POINTS, DEFAULT_X_MAX, SystemSpec, build_system

_FAMILY_FLAGS = {
    "aocs-iso": Family.AOCS_ISO,
    "docs-new": Family.DOCS_NEW,
    "lin-iso": Family.LIN_ISO,
    "lin-new": Family.LIN_NEW,
}
_REJECTED_FAMILIES = ("docs-iso", "aocs-new")
_PIV_TOL = 1e-5   # painleve passes when its largest relative residual is at most this
_N_RADII = 120    # rows of a measure or density table, up to --rmax


def parse_z(text: str) -> complex:
    """R@theta (radians) or re,im rectangular; a bare number is real.

    A label with a NaN or infinite part is refused."""
    try:
        if "@" in text:
            mod, phase = text.split("@", 1)
            z = float(mod) * cmath.exp(1j * float(phase))
        elif "," in text:
            re, im = text.split(",", 1)
            z = complex(float(re), float(im))
        else:
            z = complex(float(text), 0.0)
    except ValueError:
        raise UsageError("cannot parse label %r; use R@theta or re,im" % (text,))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise UsageError("--z label %r is not finite" % (text,))
    return z


def _add_spec_args(p: argparse.ArgumentParser):
    p.add_argument("--k", type=int, required=True, help="number of new levels")
    p.add_argument("--eps-top", type=float, required=True,
                   help="highest factorization energy (must stay below 1/2)")
    p.add_argument("--nu", type=float, required=True,
                   help="seed asymmetry parameter, |nu| < 1")


def _add_grid_args(p: argparse.ArgumentParser):
    p.add_argument("--xmax", type=float, default=DEFAULT_X_MAX,
                   help="half-width of the symmetric grid [-xmax, xmax]")
    p.add_argument("--n", type=int, default=DEFAULT_N_POINTS, help="grid points (odd)")


def _spec_from_args(args) -> SystemSpec:
    return SystemSpec(k=args.k, eps_top=args.eps_top, nu=args.nu,
                      x_min=-args.xmax, x_max=args.xmax, n_points=args.n)


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------

def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    system = build_system(spec, n_max=args.nmax)
    write_json(args.out, system_document(system))
    print("wrote %s: k=%d new levels at eps0=%g..%g, %d iso levels, grid "
          "[%g, %g] x %d" % (args.out, spec.k, spec.eps0, spec.eps_top,
                             system.n_max + 1, spec.x_min, spec.x_max,
                             spec.n_points))
    return 0


# ----------------------------------------------------------------------
# painleve
# ----------------------------------------------------------------------

def cmd_painleve(args) -> int:
    system, _ = load_system(args.system)
    gsol = g_for_system(system, args.assign)
    assign = gsol.assignment
    stats = piv_residual(gsol, assign.a, assign.b)
    passed = stats.max <= _PIV_TOL
    if args.csv:
        write_csv(args.csv, ["x", "g", "residual"],
                  [gsol.x, gsol.g, stats.per_point])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "painleve_summary",
        "assignment": {"which": args.assign, "e1": assign.e1, "e2": assign.e2,
                       "e3": assign.e3},
        "a": assign.a,
        "b": assign.b,
        "residual_stats": {
            "max": stats.max,
            "mean": stats.mean,
            "n_evaluated": stats.n_evaluated,
            "n_skipped_floor": stats.n_skipped_floor,
        },
        "masked_fraction": gsol.masked_fraction,
        "tol": _PIV_TOL,
        "passed": passed,
    }
    write_json(args.out, doc)
    print("a=%.6g b=%.6g max residual %.3e over %d points -> %s"
          % (assign.a, assign.b, stats.max, stats.n_evaluated,
             "ok" if passed else "exceeds tol %g" % _PIV_TOL))
    return 0 if passed else 1


# ----------------------------------------------------------------------
# cs
# ----------------------------------------------------------------------

def _refuse_family(flag: str, z: complex, params: CSParams, out: str) -> int:
    """The two family/subspace combinations that provably do not exist."""
    if flag == "docs-iso":
        # z = 0 has no divergent series; the witness is taken at z = 1
        label = z if z != 0 else 1 + 0j
        sums = divergence_witness(label, params)
        write_csv(out, ["n", "partial_sum"], [np.arange(sums.size), sums])
        print("error: the displacement-operator construction has no "
              "normalizable state on the oscillator-like ladder; its norm "
              "series diverges for every nonzero label (partial sums at "
              "z=%r%s written to %s)" % (label, "" if z != 0 else " in place of z=0", out),
              file=sys.stderr)
    else:
        m = nilpotent_matrix(params)
        power = np.eye(params.k)
        norms = []
        for _ in range(params.k):
            power = power @ m
            norms.append(float(np.linalg.norm(power)))
        write_csv(out, ["power", "frobenius_norm"],
                  [np.arange(1, params.k + 1), np.asarray(norms)])
        print("error: the lowering operator restricted to the new subspace "
              "is nilpotent (norms of its powers written to %s), so no "
              "annihilation-operator state with a nonzero label exists "
              "there" % out, file=sys.stderr)
    return 2


def cmd_cs(args) -> int:
    spec = _spec_from_args(args)
    params = CSParams.from_spec(spec)
    z = parse_z(args.z)
    if args.family in _REJECTED_FAMILIES:
        return _refuse_family(args.family, z, params, args.witness_out)
    if args.family not in _FAMILY_FLAGS:
        raise UsageError("unknown family %r (choose from %s)"
                         % (args.family, sorted(_FAMILY_FLAGS) + list(_REJECTED_FAMILIES)))
    family = _FAMILY_FLAGS[args.family]
    cs = construct_cs(family, z, params)
    probs = probabilities(cs)
    mean = mean_energy(cs)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "coherent_state",
        "family": family,
        "z": {"re": z.real, "im": z.imag, "modulus": abs(z),
              "phase": cmath.phase(z)},
        "params": {"gap": params.gap, "k": params.k, "eps0": params.eps0},
        "n_levels": int(cs.coeffs.size),
        "coefficients": [[c.real, c.imag] for c in cs.coeffs],
        "probabilities": list(probs),
        "probability_sum": float(np.sum(probs)),
        "truncation_tail": cs.truncation_tail,
        "mean_energy": mean,
        "e_bottom": cs.e_bottom,
    }
    if args.density:
        system = build_system(spec, n_max=cs.coeffs.size - 1)
        psi, dens = wavefunction(cs, system)
        write_csv(args.density, ["x", "density"], [system.x, dens])
        doc["density_norm"] = float(np.sum(dens * system.weights))
        doc["density_file"] = args.density
    write_json(args.out, doc)
    print("%s at z=%g@%g: mean energy %.10g over %d levels"
          % (family, abs(z), cmath.phase(z), mean, cs.coeffs.size))
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

# Each suite yields (check, value, threshold) for the system and the document
# it was loaded from; a check passes when its value is at most its threshold.

def _suite_states(system, doc):
    # load_system has matched these figures against the rebuilt system's own
    yield "orthonormality", doc["checks"]["orthonormality_max_dev"], 1e-6
    yield "eigen_residual", doc["checks"]["residual_max"], 1e-4


def _suite_ladder(system, doc):
    params = CSParams.from_spec(system.spec)
    gsol = g_for_system(system, "eps0", phi_rel_floor=1e-8)
    op = build_operator_stencil(gsol)
    w = system.weights
    pairs = [("iso", n) for n in range(1, min(4, system.n_max + 1))] \
        + [("new", j) for j in range(1, system.spec.k)]
    worst = 0.0
    for subspace, n in pairs:
        got = stencil_projection(op, system.state(subspace, n - 1),
                                 system.state(subspace, n), w)
        ref = natural_down_coeff(n, subspace, params)
        worst = max(worst, abs(got / ref - 1.0))
    yield "stencil_vs_table", worst, 1e-3

    def support_norm(image):
        good = np.isfinite(image)
        return float(np.sqrt(np.sum(w[good] * image[good] ** 2)))

    # the kernel state's image against those of iso state 1 and, where
    # k > 1, new state 1
    kernel_norm = support_norm(apply_stencil(op, system.state("new", 0)))
    refs = [system.state("iso", 1)] + system.new_states[1:2]
    kernel_rel = max(kernel_norm / support_norm(apply_stencil(op, st)) for st in refs)
    yield "kernel_state_annihilated", kernel_rel, 1e-3

    worst = 0.0
    for level in range(4):
        got, want = pha_product_check(params, level, "iso")
        worst = max(worst, abs(got - want))
    for level in range(params.k):
        got, want = pha_product_check(params, level, "new")
        worst = max(worst, abs(got - want))
    yield "product_rule", worst, 1e-9

    m = nilpotent_matrix(params)
    yield "nilpotency", float(np.linalg.norm(np.linalg.matrix_power(m, params.k))), 0.0

    iso_vals, new_vals = commutator_check(params)
    expect_new = np.ones(params.k)
    expect_new[0] = 1.0 - params.gap
    expect_new[-1] = 1.0 + params.gap - params.k
    if params.k == 1:   # both linearized steps fall off the one-level ladder
        expect_new[0] = 0.0
    dev = max(float(np.max(np.abs(iso_vals - 1.0))),
              float(np.max(np.abs(new_vals - expect_new))))
    yield "linearized_commutator", dev, 1e-10


def _moment_probes(m):
    # a finite Laplace cache truncates power tails near the strip edges, so
    # probes keep a margin from the upper edge where the strip allows one
    lo, hi = moment_strip(m)
    if math.isfinite(hi) and hi - 0.95 > lo:
        hi = hi - 0.95
    hi = min(hi, lo + 4.0)
    return [lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]


def _suite_measures(system, doc):
    params = CSParams.from_spec(system.spec)
    radii = np.linspace(0.1, 5.0, 25)
    for fam in MeasureFamily.ALL:
        m = measure_fn(fam, params)
        worst = 0.0
        for s in _moment_probes(m):
            got, want = moment_check(m, s)
            worst = max(worst, abs(got / want - 1.0))
        yield "moments_%s" % fam, worst, 1e-3
        yield "positivity_%s" % fam, float(-np.min(m.density(radii))), 0.0
    for family in Family.ALL:
        tol = 1e-8 if family == Family.LIN_ISO else 5e-3
        yield "identity_%s" % family, identity_resolution_check(family, params), tol


def _suite_coherent(system, doc):
    params = CSParams.from_spec(system.spec)
    z, zp = 0.9 + 0.4j, -0.3 + 1.1j
    for family in Family.ALL:
        cs = construct_cs(family, z, params)
        other = construct_cs(family, zp, params)
        n = min(cs.coeffs.size, other.coeffs.size)
        ip = complex(np.sum(np.conj(other.coeffs[:n]) * cs.coeffs[:n]))
        yield "kernel_inner_%s" % family, abs(kernel(family, zp, z, params) - ip), 1e-9
        probs = probabilities(cs)
        yield ("probability_sum_%s" % family,
               abs(float(np.sum(probs)) + cs.truncation_tail - 1.0), 1e-10)
        yield ("mean_vs_sum_%s" % family,
               abs(float(np.sum(probs * cs.level_energies())) - mean_energy(cs)),
               1e-8 if family in Family.ISO else 1e-10)
        moved, phase = evolve(cs, 0.9)
        direct = cs.coeffs * np.exp(-1j * cs.level_energies() * 0.9)
        nn = min(direct.size, moved.coeffs.size)
        yield ("evolution_%s" % family,
               float(np.max(np.abs(direct[:nn] - phase * moved.coeffs[:nn]))), 1e-12)
    for family in Family.ISO:
        yield ("annihilation_%s" % family,
               annihilation_check(construct_cs(family, z, params)), 1e-8)
    sums = divergence_witness(1.0, params)
    crossing = int(np.argmax(sums > 1e6)) if np.any(sums > 1e6) else 10 ** 9
    yield "divergence_crossing", crossing, 200


def _suite_painleve(system, doc):
    # the worst in-envelope spec (k <= 5) reads 5.1e-11 and k 6 (-2.8, -0.9)
    # 5.9e-10; the seed Wronskian error of k 7 and k 8 reads 1.9e-8 and up
    yield "backlund_half_eps0", backlund_check(system), 1e-9


_SUITES = (
    ("coherent", _suite_coherent),
    ("ladder", _suite_ladder),
    ("measures", _suite_measures),
    ("painleve", _suite_painleve),
    ("states", _suite_states),
)


def cmd_verify(args) -> int:
    system, doc = load_system(args.system)
    if system.n_max < 1:   # the ladder suite's reference image is iso state 1
        raise UsageError("verify needs n_max >= 1, got %d" % system.n_max)
    checks = [{"suite": suite, "check": name, "value": float(value),
               "threshold": float(threshold), "passed": bool(value <= threshold)}
              for suite, run in _SUITES for name, value, threshold in run(system, doc)]
    all_passed = all(c["passed"] for c in checks)
    for c in checks:
        print("%s  %s:%s  value=%.3e  threshold=%.3e"
              % ("PASS" if c["passed"] else "FAIL", c["suite"], c["check"],
                 c["value"], c["threshold"]))
    if args.out:
        write_json(args.out, {
            "schema_version": SCHEMA_VERSION,
            "kind": "verify_report",
            "system": args.system,
            "suites_run": [suite for suite, _ in _SUITES],
            "checks": checks,
            "all_passed": all_passed,
        })
    if not all_passed:
        failing = [("%s:%s" % (c["suite"], c["check"]))
                   for c in checks if not c["passed"]]
        print("failing checks: %s" % ", ".join(failing), file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# measure / density tables
# ----------------------------------------------------------------------

def _r_grid(args) -> np.ndarray:
    if not (args.rmax > 0 and math.isfinite(args.rmax * args.rmax)):
        raise UsageError("--rmax must be positive and finite, with a finite "
                         "square, got %r" % (args.rmax,))
    return np.linspace(args.rmax / _N_RADII, args.rmax, _N_RADII)


def cmd_measure(args) -> int:
    params = CSParams.from_spec(SystemSpec(args.k, args.eps_top, args.nu))
    r = _r_grid(args)
    x = r * r
    cols = [r]
    for fam in MeasureFamily.ALL:
        cols.append(measure_fn(fam, params).profile(x))
    write_csv(args.out, ["r", "f1", "f2", "f3"], cols)
    print("wrote %s: measure profiles on %d radii up to r=%g"
          % (args.out, r.size, args.rmax))
    return 0


def cmd_density(args) -> int:
    m = measure_fn(args.measure, CSParams.from_spec(SystemSpec(args.k, args.eps_top, args.nu)))
    r = _r_grid(args)
    write_csv(args.out, ["r", "density"], [r, m.density(r)])
    print("wrote %s: %s density on %d radii" % (args.out, args.measure, r.size))
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyosc",
        description="Partner systems of the oscillator: transcendent "
                    "extraction, ladder checks, and coherent-state families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a system and write its document")
    _add_spec_args(p)
    _add_grid_args(p)
    p.add_argument("--nmax", type=int, default=DEFAULT_N_MAX, help="highest stored iso level")
    p.add_argument("--out", default="system.json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("painleve", help="extract g and check its equation")
    p.add_argument("--system", required=True, help="system JSON from build")
    p.add_argument("--assign", default="half",
                   help="extremal energy for e1: half or eps0")
    p.add_argument("--csv", default=None, help="per-point CSV path")
    p.add_argument("--out", default="painleve.json")
    p.set_defaults(func=cmd_painleve)

    p = sub.add_parser("cs", help="construct one coherent state")
    _add_spec_args(p)
    _add_grid_args(p)
    p.add_argument("--family", required=True,
                   help="aocs-iso, docs-new, lin-iso, lin-new")
    p.add_argument("--z", required=True, help="label, R@theta or re,im")
    p.add_argument("--density", default=None,
                   help="also write the position density CSV here, from a "
                        "system built with the state's levels")
    p.add_argument("--witness-out", default="witness.csv",
                   help="where refused families write their no-go data")
    p.add_argument("--out", default="cs.json")
    p.set_defaults(func=cmd_cs)

    p = sub.add_parser("verify", help="run the invariant suites on a system")
    p.add_argument("--system", required=True)
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("measure", help="tabulate the measure profiles")
    _add_spec_args(p)
    p.add_argument("--rmax", type=float, default=6.0)
    p.add_argument("--out", default="measures.csv")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("density", help="tabulate one radial measure density")
    _add_spec_args(p)
    p.add_argument("--measure", required=True, choices=MeasureFamily.ALL)
    p.add_argument("--rmax", type=float, default=6.0)
    p.add_argument("--out", default="density.csv")
    p.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SusyOscError as exc:
        print("error: %s" % exc, file=sys.stderr)
        # structured fields of SeriesError, QuadratureError and TruncationError
        for name in ("terms_used", "partial_sum", "nodes_used", "last_change", "required",
                     "cap"):
            if getattr(exc, name, None) is not None:
                print("  %s: %s" % (name, getattr(exc, name)), file=sys.stderr)
        if isinstance(exc, InsufficientSupportError):
            return 3
        return 4 if isinstance(exc, (ConstructionError, SingularPotentialError)) else 2


if __name__ == "__main__":
    sys.exit(main())
