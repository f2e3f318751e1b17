"""Acceptance gate: the eight headline checks with their pinned tolerances.

Each test emits exactly one PASS/FAIL line through the terminal reporter
(so the line survives capture into piped logs) and then asserts. Time
budgets are measured around the complete computation including any system
build the check needs, so the numbers stay honest when fixtures are warm.
"""

import cmath
import time

import numpy as np
import pytest

from susyosc import (
    CSParams,
    Family,
    LadderCoeffs,
    MeasureFamily,
    SystemSpec,
    build_system,
    construct_cs,
    divergence_witness,
    evolve,
    g_for_system,
    mean_energy,
    measure_fn,
    moment_check,
    moment_strip,
    natural_down_coeff,
    nilpotent_matrix,
    piv_residual,
    potential_from_g,
    probabilities,
    wavefunction,
)
from susyosc.ladder import apply_stencil, build_operator_stencil, stencil_projection

_K4 = SystemSpec(k=4, eps_top=-2.8, nu=-0.9)
_K1 = SystemSpec(k=1, eps_top=-1.0, nu=0.5)


@pytest.fixture
def report(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(name: str, ok: bool, detail: str):
        line = "%s  %-38s %s" % ("PASS" if ok else "FAIL", name, detail)
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line)
        assert ok, line

    return _report


def test_01_lin_iso_state_energy_and_density(report):
    t0 = time.perf_counter()
    system = build_system(_K4, n_max=32)
    params = CSParams.from_spec(_K4)
    cs = construct_cs(Family.LIN_ISO, 1.2 * cmath.exp(-2.78j), params)
    mean = mean_energy(cs)
    _, dens = wavefunction(cs, system)
    norm = float(np.sum(dens * system.weights))
    elapsed = time.perf_counter() - t0
    ok = abs(mean - 1.94) < 1e-9 and abs(norm - 1.0) < 1e-6 and elapsed < 5.0
    report("lin_iso energy + density norm", ok,
            "mean=%.12g norm-1=%.2e t=%.2fs" % (mean, norm - 1.0, elapsed))


def test_02_lin_new_state_energy(report):
    t0 = time.perf_counter()
    params = CSParams.from_spec(_K4)
    cs = construct_cs(Family.LIN_NEW, 1.5 * cmath.exp(-4.93j), params)
    mean = mean_energy(cs)
    elapsed = time.perf_counter() - t0
    ok = abs(mean - (-3.64945)) < 1e-4 and elapsed < 1.0
    report("lin_new mean energy", ok,
            "mean=%.10g dev=%.2e t=%.2fs" % (mean, mean + 3.64945, elapsed))


def test_03_transcendent_residual_and_convergence(report):
    t0 = time.perf_counter()
    worst = 0.0
    for spec in (_K1, _K4):
        system = build_system(spec, n_max=4)
        gs = g_for_system(system, "half")
        asg = gs.assignment
        worst = max(worst, piv_residual(gs, asg.a, asg.b).max)
    coarse_sys = build_system(_K1, n_max=4)
    gs = g_for_system(coarse_sys, "half")
    coarse = piv_residual(gs, gs.assignment.a, gs.assignment.b).max
    fine_spec = SystemSpec(k=1, eps_top=-1.0, nu=0.5, n_points=4201)
    fine_sys = build_system(fine_spec, n_max=4)
    gf = g_for_system(fine_sys, "half")
    fine = piv_residual(gf, gf.assignment.a, gf.assignment.b).max
    ratio = coarse / fine
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and ratio >= 8.0 and elapsed < 10.0
    report("equation residual + grid doubling", ok,
            "max=%.2e ratio=%.1f t=%.2fs" % (worst, ratio, elapsed))


def test_04_potential_rebuilt_from_transcendent(report, k4_system, k1_system):
    worst = 0.0
    for system in (k4_system, k1_system):
        gs = g_for_system(system, "half")
        v = potential_from_g(gs, gs.assignment.e1)
        m = np.isfinite(v)
        worst = max(worst, float(np.max(np.abs(v[m] - system.potential[m]))))
    ok = worst < 1e-5
    report("potential from transcendent", ok, "sup-dev=%.2e" % worst)


def test_05_stencil_matrix_elements(report, k4_system):
    params = LadderCoeffs.from_spec(k4_system.spec)
    gs = g_for_system(k4_system, "eps0", phi_rel_floor=1e-8)
    op = build_operator_stencil(gs)
    w = k4_system.weights
    worst = 0.0
    for n in range(1, 6):
        got = stencil_projection(op, k4_system.state("iso", n - 1),
                                 k4_system.state("iso", n), w)
        ref = natural_down_coeff(n, "iso", params)
        worst = max(worst, abs(got / ref - 1.0))
    for j in range(1, k4_system.spec.k):
        got = stencil_projection(op, k4_system.state("new", j - 1),
                                 k4_system.state("new", j), w)
        ref = natural_down_coeff(j, "new", params)
        worst = max(worst, abs(got / ref - 1.0))

    def support_norm(image):
        good = np.isfinite(image)
        return float(np.sqrt(np.sum(w[good] * image[good] ** 2)))

    scale = support_norm(apply_stencil(op, k4_system.state("iso", 1)))
    kernel_rel = max(
        support_norm(apply_stencil(op, k4_system.state("iso", 0))) / scale,
        support_norm(apply_stencil(op, k4_system.state("new", 0))) / scale)
    ok = worst < 1e-3 and kernel_rel < 1e-3
    report("stencil vs coefficient table", ok,
            "elements=%.2e kernel=%.2e" % (worst, kernel_rel))


def test_06_measure_moments_and_positivity(report):
    t0 = time.perf_counter()
    params = CSParams.from_spec(_K4)
    radii = np.logspace(-2.0, 1.0, 100)
    worst = 0.0
    min_density = np.inf
    for fam in MeasureFamily.ALL:
        m = measure_fn(fam, params)
        lo, hi = moment_strip(m)
        hi = min(hi, lo + 4.0)
        for f in (0.25, 0.5, 0.75):
            got, want = moment_check(m, lo + f * (hi - lo))
            worst = max(worst, abs(got / want - 1.0))
        min_density = min(min_density, float(np.min(m.density(radii))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and min_density >= 0.0 and elapsed < 60.0
    report("measure moments + positivity", ok,
            "moments=%.2e min-density=%.2e t=%.2fs" % (worst, min_density, elapsed))


def test_07_nilpotency_and_divergence_witness(report):
    exact = True
    for k in range(1, 6):
        m = nilpotent_matrix(LadderCoeffs(gap=k + 1.3, k=k))
        power = np.linalg.matrix_power(m, k)
        exact = exact and bool(np.all(power == 0.0))
        if k > 1:
            exact = exact and bool(np.any(np.linalg.matrix_power(m, k - 1) != 0.0))
    sums = divergence_witness(1.0, CSParams.from_spec(_K4))
    crossing = int(np.argmax(sums > 1e6)) if np.any(sums > 1e6) else 10 ** 9
    ok = exact and crossing <= 200
    report("nilpotency + divergence witness", ok,
            "powers-exact=%s crossing=%d" % (exact, crossing))


def test_08_state_and_family_invariants(report, k4_system):
    checked = k4_system.iso_states[:9] + list(k4_system.new_states)
    worst_ortho = 0.0
    for i, si in enumerate(checked):
        for sj in checked[i:]:
            want = 1.0 if sj is si else 0.0
            worst_ortho = max(worst_ortho, abs(k4_system.inner(si, sj) - want))
    worst_resid = max(k4_system.residual(st) for st in checked)

    params = CSParams.from_spec(k4_system.spec)
    worst_evo = 0.0
    worst_prob = 0.0
    for fam in Family.ALL:
        cs = construct_cs(fam, 0.9 + 0.4j, params)
        moved, phase = evolve(cs, 1.1)
        direct = np.exp(-1j * cs.level_energies() * 1.1) * cs.coeffs
        n = min(direct.size, moved.coeffs.size)
        worst_evo = max(worst_evo,
                        float(np.max(np.abs(direct[:n] - phase * moved.coeffs[:n]))))
        worst_prob = max(worst_prob,
                         abs(float(np.sum(probabilities(cs)))
                             + cs.truncation_tail - 1.0))
    ok = (worst_ortho < 1e-6 and worst_resid < 1e-4
          and worst_evo < 1e-12 and worst_prob < 1e-10)
    report("orthonormality + residual + evolution", ok,
            "ortho=%.2e resid=%.2e evo=%.2e prob=%.2e"
            % (worst_ortho, worst_resid, worst_evo, worst_prob))
