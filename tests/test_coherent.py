"""Coherent-state families, their overlap kernels, and the radial measures.

Frozen reference values were produced by independent routes: closed-form
energy laws, mpmath quadrature of the measure integrals, and the Bessel-tail
identity for the convolution factor. The measure machinery is additionally
cross-checked against the confluent second-kind function, which shares no
code with the Laplace-cache construction.
"""

import cmath
import dataclasses
import math
import re
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyosc.errors import (
    DomainError,
    InvalidSpecError,
    QuadratureError,
    SusyOscError,
    TruncationError,
    UsageError,
)
from susyosc import cli, coherent
from susyosc.specfun import laplace_power_integral
from susyosc import (
    CSParams,
    Family,
    LadderCoeffs,
    MeasureFamily,
    MeasureFn,
    SystemSpec,
    annihilation_check,
    bessel_k,
    construct_cs,
    divergence_witness,
    evolve,
    gamma_fn,
    hyp1f1,
    identity_resolution_check,
    kernel,
    mean_energy,
    measure_fn,
    moment_check,
    moment_strip,
    probabilities,
    tricomi_u,
    wavefunction,
)


@pytest.fixture(scope="module")
def mu1_k4(k4_params):
    return measure_fn(MeasureFamily.MU1, k4_params)


@pytest.fixture(scope="module")
def mu2_k4(k4_params):
    return measure_fn(MeasureFamily.MU2, k4_params)


@pytest.fixture(scope="module")
def mu3_k4(k4_params):
    return measure_fn(MeasureFamily.MU3, k4_params)


# ----------------------------------------------------------------------
# Parameters and state construction
# ----------------------------------------------------------------------

def test_params_validation():
    # one (gap, k) type serves the coherent-state and the ladder layer
    assert CSParams is LadderCoeffs
    for cls in (CSParams, LadderCoeffs):
        with pytest.raises(InvalidSpecError):
            cls(gap=6.3, k=0)
        with pytest.raises(InvalidSpecError):
            cls(gap=2.0, k=3)           # gap must exceed k - 1
        with pytest.raises(InvalidSpecError):
            cls(gap=1.5, k=3)
        with pytest.raises(InvalidSpecError):
            cls(gap=6.3, k=4.0)         # k must be an integer
    p = CSParams(gap=6.3, k=4)
    assert p.eps0 == pytest.approx(-5.8)


@pytest.mark.parametrize("gap", [math.inf, -math.inf, math.nan])
def test_params_refuse_non_finite_gap(gap):
    """An infinite gap passes gap > k - 1; it is refused by name, not by
    gamma_fn or hyp0f2 downstream."""
    with pytest.raises(InvalidSpecError, match="gap must be finite"):
        CSParams(gap=gap, k=1)


@pytest.mark.parametrize("gap, why", [(True, "a number"), ("2.5", "a number"),
                                      (None, "a number"), (0.5j, "a number"),
                                      (10 ** 400, "finite")],
                         ids=["true", "str", "none", "complex", "int_past_float_range"])
def test_params_take_gap_by_the_spec_number_rule(gap, why):
    # true == 1 would otherwise build a gap-1 type; each value is refused by name
    for cls in (CSParams, LadderCoeffs):
        with pytest.raises(InvalidSpecError, match="^gap must be %s, got " % why):
            cls(gap=gap, k=1)


def test_params_store_gap_as_a_python_float():
    for gap in (2, np.float32(2.5), np.float64(2.5), np.int64(3)):
        p = CSParams(gap=gap, k=1)
        assert type(p.gap) is float and p.gap == gap


def test_params_from_spec(k4_params, k1_params):
    assert k4_params.gap == pytest.approx(6.3)
    assert k4_params.k == 4
    assert k1_params.gap == pytest.approx(1.5)
    assert k1_params.k == 1


def test_unknown_family_refused(k4_params):
    with pytest.raises(UsageError):
        construct_cs("bogus", 1.0, k4_params)
    with pytest.raises(UsageError):
        kernel("bogus", 1.0, 1.0, k4_params)


def test_zero_label_states(k4_params):
    # at z = 0 every family collapses onto its bottom state
    for fam in Family.ALL:
        cs = construct_cs(fam, 0.0, k4_params)
        want = np.zeros(cs.coeffs.size)
        want[0] = 1.0
        assert np.allclose(cs.coeffs, want, atol=1e-15)
        assert cs.truncation_tail == 0.0
        size = k4_params.k if fam in Family.NEW else 3
        assert cs.coeffs.size == size


def test_probability_budget(k4_params):
    for fam in Family.ALL:
        cs = construct_cs(fam, 1.3 * cmath.exp(0.9j), k4_params)
        total = float(np.sum(probabilities(cs)))
        assert abs(total + cs.truncation_tail - 1.0) < 1e-12
        assert abs(total - 1.0) < 1e-10
        if fam in Family.NEW:
            assert cs.truncation_tail == 0.0
            assert cs.coeffs.size == k4_params.k


def test_truncation_error_reports_requirement(k4_params, monkeypatch):
    # |z|^2 = 225: the Poisson weights need about 340 levels, past the cap
    with pytest.raises(TruncationError) as exc:
        construct_cs(Family.LIN_ISO, 15.0, k4_params)
    assert exc.value.cap == 256 < exc.value.required
    # the reported requirement is exactly enough
    monkeypatch.setattr(coherent, "_HARD_CAP", exc.value.required)
    cs = construct_cs(Family.LIN_ISO, 15.0, k4_params)
    assert cs.coeffs.size == exc.value.required + 1
    assert abs(float(np.sum(probabilities(cs))) + cs.truncation_tail - 1.0) < 1e-10


def _lin_iso_levels_in_logs(z):
    """Smallest N whose lin_iso tail bound e^{-w} w^{N+1} / (N+1)! / (1 - q),
    q = w/(N+2) < 1, is below 1e-12, from log weights (w = |z|^2)."""
    w = abs(z) ** 2
    n = 0
    while not (w < n + 2 and -w + (n + 1) * math.log(w) - math.lgamma(n + 2)
               - math.log1p(-w / (n + 2)) < math.log(1e-12)):
        n += 1
    return n


def test_truncation_lower_bound_once_weights_overflow(k4_params):
    # past |z|^2 of about 713 the float weights overflow while still rising
    # (and e^{-|z|^2} underflows); the refusal still names the exact need
    # |z|^2 = 700 and 745: e^{-|z|^2} normal and subnormal
    for z, want in ((26.7, 909), (30.0, 1119), (60.0, 4030),
                    (math.sqrt(700.0), 894), (math.sqrt(745.0), 945)):
        assert _lin_iso_levels_in_logs(z) == want
        with pytest.raises(TruncationError) as exc:
            construct_cs(Family.LIN_ISO, z, k4_params)
        assert exc.value.required == want and exc.value.cap == 256
        assert "at least" not in str(exc.value)
    # past the step limit only a lower bound is known
    with pytest.raises(TruncationError, match="at least 4096 levels"):
        construct_cs(Family.LIN_ISO, 70.0, k4_params)


# ----------------------------------------------------------------------
# Energies
# ----------------------------------------------------------------------

def test_lin_iso_mean_energy_closed_form(k4_params):
    # |z|^2 + 1/2 exactly, independent of the system parameters
    cs = construct_cs(Family.LIN_ISO, 1.2 * cmath.exp(-2.78j), k4_params)
    assert mean_energy(cs) == pytest.approx(1.44 + 0.5, abs=1e-12)


def test_lin_new_mean_energy_reference_label(k4_params):
    # frozen closed-form sum; -3.64945 is the reference decimal for this label
    cs = construct_cs(Family.LIN_NEW, 1.5 * cmath.exp(-4.93j), k4_params)
    assert mean_energy(cs) == pytest.approx(-3.6494466361786664, rel=1e-10)
    assert abs(mean_energy(cs) - (-3.64945)) < 1e-4


def test_lin_new_state_with_gamma_near_1e244():
    # gap 143.3, k = 2: C_z^2 sums 1/Gamma(gap) and 1/Gamma(gap - 1), and
    # Gamma(142.3) ~ 8.4e243 must stay finite
    params = CSParams(gap=143.3, k=2)
    cs = construct_cs(Family.LIN_NEW, 1.0, params)
    want = np.array([1.0, 142.3]) / 143.3
    assert np.max(np.abs(probabilities(cs) - want)) < 1e-13
    assert abs(mean_energy(cs) - (-142.8 + 142.3 / 143.3)) < 1e-12


def test_aocs_mean_energy_frozen(k4_params):
    cs = construct_cs(Family.AOCS_ISO, 2.0 + 1.0j, k4_params)
    assert mean_energy(cs) == pytest.approx(0.6947871244036875, rel=1e-10)


def test_mean_energy_matches_coefficient_sum(k4_params):
    # closed forms against the plain sum p * E over the stored vector
    for fam in Family.ALL:
        cs = construct_cs(fam, 1.4 - 0.8j, k4_params)
        direct = float(np.sum(probabilities(cs) * cs.level_energies()))
        assert abs(mean_energy(cs) - direct) < 1e-9


def test_new_family_energy_bounds(k4_params):
    # a finite ladder pins <H> between its end energies
    lo, hi = k4_params.eps0, k4_params.eps0 + k4_params.k - 1
    for fam in Family.NEW:
        cs = construct_cs(fam, 3.0 + 2.0j, k4_params)
        assert lo <= mean_energy(cs) <= hi
        cs0 = construct_cs(fam, 0.0, k4_params)
        assert mean_energy(cs0) == pytest.approx(lo)


# ----------------------------------------------------------------------
# Annihilation property
# ----------------------------------------------------------------------

def test_annihilation_residuals(k4_params):
    for fam, z in ((Family.AOCS_ISO, 2.0 + 1.0j), (Family.LIN_ISO, 1.2)):
        cs = construct_cs(fam, z, k4_params)
        assert annihilation_check(cs) < 1e-8


def test_annihilation_check_is_iso_only(k4_params):
    cs = construct_cs(Family.DOCS_NEW, 1.0, k4_params)
    with pytest.raises(UsageError):
        annihilation_check(cs)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

def test_kernel_normalized_on_diagonal(k4_params):
    for fam in Family.ALL:
        assert abs(kernel(fam, 0.7 + 0.3j, 0.7 + 0.3j, k4_params) - 1.0) < 1e-12


def test_lin_iso_kernel_of_large_labels(k4_params):
    # w - (|z'|^2 + |z|^2)/2 cancels to 0 at |z| ~ 1e8 and overflows to
    # inf - inf at 1e154; -|z - z'|^2/2 + i Im(conj(z') z) does neither
    assert kernel(Family.LIN_ISO, 1e8 + 1, 1e8, k4_params) == pytest.approx(
        math.exp(-0.5), rel=1e-15)
    assert kernel(Family.LIN_ISO, 1e154, 1e154, k4_params) == 1.0


def test_kernel_on_the_diagonal_where_the_norm_product_underflows():
    # at gap 143.3 each lin_new norm series is near 1/Gamma(143.3) ~ 1e-246,
    # so the product of the two norms underflows while each root does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel(Family.LIN_NEW, 0.9 + 0.4j, 0.9 + 0.4j, CSParams(gap=143.3, k=2))
    assert abs(got - 1.0) < 1e-12


def test_kernel_equals_coefficient_inner_product(k4_params):
    pairs = {"new": (1.0 - 2.0j, 2.0 + 1.0j), "iso": (0.9 - 0.4j, 0.5 + 0.8j)}
    for fam in Family.ALL:
        zp, z = pairs["new" if fam in Family.NEW else "iso"]
        a = construct_cs(fam, zp, k4_params)
        b = construct_cs(fam, z, k4_params)
        n = min(a.coeffs.size, b.coeffs.size)
        inner = complex(np.vdot(a.coeffs[:n], b.coeffs[:n]))
        assert abs(inner - kernel(fam, zp, z, k4_params)) < 1e-10


def test_aocs_kernel_frozen(k4_params):
    got = kernel(Family.AOCS_ISO, 1.0 - 2.0j, 2.0 + 1.0j, k4_params)
    assert got == pytest.approx(0.8060484373620088 + 0.16936395408534957j,
                                rel=1e-10)


def test_kernel_continuity_near_origin(k4_params):
    # |<z+d|z> - 1| scales like |z||d| plus |d|^2 terms, so a uniform small
    # bound only holds near the origin; the steepest family here is docs_new
    z = 3e-3 * cmath.exp(0.4j)
    for fam in Family.ALL:
        for d in (1.0, -1.0, 1.0j, -1.0j):
            assert abs(kernel(fam, z + 1e-3 * d, z, k4_params) - 1.0) < 1e-4


def test_kernel_ray_decay():
    # displaced label sliding off the diagonal: overlap falls monotonically
    params = CSParams(gap=2.5, k=2)
    zp = 5.0 + 1.0j
    vals = [abs(kernel(Family.DOCS_NEW, zp, x + 1.0j, params))
            for x in (5.0, 4.0, 3.0, 2.0, 1.0, 0.0)]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(vals) < 0.0)
    frozen = [1.0, 0.999292, 0.995301, 0.979946, 0.921954, 0.790569]
    assert np.allclose(vals, frozen, atol=1e-6)


@settings(max_examples=60, derandomize=True)
@given(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False))
def test_kernel_bounded_by_one(zp, z):
    params = CSParams(gap=6.3, k=4)
    for fam in Family.NEW:
        assert abs(kernel(fam, zp, z, params)) <= 1.0 + 1e-12


def test_non_finite_and_overflowing_labels_refused(k4_params):
    for z in (complex("inf"), complex("nan"), 1e200):
        for fam in Family.ALL:
            with pytest.raises(DomainError):
                construct_cs(fam, z, k4_params)
            with pytest.raises(DomainError):
                kernel(fam, 0.5, z, k4_params)
            with pytest.raises(DomainError):
                kernel(fam, z, 0.5, k4_params)
        with pytest.raises(DomainError):
            divergence_witness(z, k4_params)
    # |z|^2 fits, but |z|^6 overflows the k = 4 norm series of the new ladder
    for fam in Family.NEW:
        with pytest.raises(DomainError):
            construct_cs(fam, 1e150, k4_params)
        with pytest.raises(DomainError):
            kernel(fam, 1e150, 0.5, k4_params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", Family.NEW)
def test_new_ladder_label_whose_last_power_fits(family):
    """At k 2 the norm series ends at the |z|^2 term, finite at |z| = 1e150;
    no power past it is formed, so kernel, state and mean energy run without
    an overflow warning."""
    params = CSParams.from_spec(SystemSpec(k=2, eps_top=-1.3, nu=0.0))
    assert abs(kernel(family, 1e150, 1e150, params) - 1.0) < 1e-12
    cs = construct_cs(family, 1e150, params)
    assert mean_energy(cs) == pytest.approx(params.eps0 + 1.0, rel=1e-12)


# ----------------------------------------------------------------------
# Time evolution
# ----------------------------------------------------------------------

def test_evolution_rotates_label(k4_params):
    t = 0.7
    for fam in Family.ALL:
        z = 1.1 - 0.6j if fam in Family.NEW else 0.8 + 0.5j
        cs = construct_cs(fam, z, k4_params)
        moved, phase = evolve(cs, t)
        assert abs(moved.z - z * cmath.exp(-1j * t)) < 1e-15
        direct = np.exp(-1j * cs.level_energies() * t) * cs.coeffs
        assert moved.coeffs.size == cs.coeffs.size
        assert np.max(np.abs(direct - phase * moved.coeffs)) < 1e-12


def test_evolution_preserves_energy(k4_params):
    cs = construct_cs(Family.AOCS_ISO, 1.5 + 0.5j, k4_params)
    moved, _ = evolve(cs, 2.3)
    assert mean_energy(moved) == pytest.approx(mean_energy(cs), abs=1e-12)


def test_evolution_refuses_time_by_name():
    # e_bottom = eps0 = -5.8, so e_bottom * 1e308 overflows; an infinite or
    # NaN t must not surface as a NaN label
    cs = construct_cs(Family.LIN_NEW, 1.5 + 0.5j, CSParams(gap=6.3, k=4))
    for t, message in ((1e308, "time t=1e+308"), (math.inf, "evolve t must be finite, got inf"),
                       (math.nan, "evolve t must be finite, got nan")):
        with pytest.raises(DomainError, match=re.escape(message)):
            evolve(cs, t)


# ----------------------------------------------------------------------
# The new-ladder weight memo
# ----------------------------------------------------------------------

def _exact(value):
    """A query result or refusal, every float by repr and every array by its bytes."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    if isinstance(value, coherent.CoherentState):
        return (value.family, repr(value.z), value.params, value.coeffs.dtype.str,
                value.coeffs.tobytes(), repr(value.truncation_tail))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value).__name__, repr(value)


def _query(fn, *args):
    try:
        return _exact(fn(*args))
    except SusyOscError as exc:
        return type(exc).__name__, str(exc)


def _state_queries(family, z, z_prime, params):
    """construct_cs, probabilities, mean_energy, evolve, annihilation_check
    (iso families) and kernel of one label pair, each by _query."""
    out = [_query(construct_cs, family, z, params),
           _query(kernel, family, z_prime, z, params)]
    try:
        cs = construct_cs(family, z, params)
    except SusyOscError:
        return out
    out += [_query(probabilities, cs), _query(mean_energy, cs), _query(evolve, cs, 1.7)]
    if family in Family.ISO:
        out.append(_query(annihilation_check, cs))
    return out


def test_new_weight_row_formed_once_per_key(k4_params, monkeypatch):
    calls = []
    gamma = coherent.gamma_fn
    monkeypatch.setattr(coherent, "gamma_fn", lambda x: calls.append(x) or gamma(x))
    for family in Family.NEW:
        coherent._new_weights.cache_clear()
        first = _state_queries(family, 0.9 + 0.4j, -1.1j, k4_params)
        assert calls
        calls.clear()
        assert _state_queries(family, 0.9 + 0.4j, -1.1j, k4_params) == first
        assert not calls
        coherent._new_weights.cache_clear()
        assert _state_queries(family, 0.9 + 0.4j, -1.1j, k4_params) == first
        assert calls
        calls.clear()


def test_weight_memo_stays_under_its_maxsize():
    coherent._new_weights.cache_clear()
    maxsize = coherent._new_weights.cache_info().maxsize
    assert maxsize == 256
    pool = [CSParams(gap=3.5 + i / 64.0, k=3) for i in range(maxsize + 1)]
    for params in pool:
        construct_cs(Family.LIN_NEW, 0.5, params)
        assert coherent._new_weights.cache_info().currsize <= maxsize
    assert coherent._new_weights.cache_info().currsize == maxsize
    misses = coherent._new_weights.cache_info().misses
    construct_cs(Family.LIN_NEW, 0.5, pool[0])   # the oldest went first
    assert coherent._new_weights.cache_info().misses == misses + 1
    # Gamma(200) overflows float64: a refused row is not kept
    with pytest.raises(DomainError, match="overflows float64"):
        construct_cs(Family.DOCS_NEW, 0.5, CSParams(gap=200.0, k=2))
    assert coherent._new_weights.cache_info().currsize == maxsize


def test_state_queries_cold_equal_warm():
    # the benchmark's measure pool: no memo state may leak into the bits or
    # the refusals (15: TruncationError on the iso ladder, 1e150: an
    # overflowing norm series)
    pool = [CSParams.from_spec(SystemSpec(k=k, eps_top=eps_top, nu=0.0))
            for k, eps_top in ((4, -2.8), (1, -1.0), (3, -2.0), (5, -1.5))]
    labels = (0, 0.3, 0.9 + 0.4j, 4j, 15, 1e150)

    def run(cold):
        out = []
        for params in pool:
            for family in Family.ALL:
                for i, z in enumerate(labels):
                    if cold:
                        coherent._new_weights.cache_clear()
                        coherent._measure_store.cache_clear()   # and the measures' memos
                    z_prime = labels[(i + 2) % len(labels)]
                    out.append(_state_queries(family, z, z_prime, params))
        return out

    cold = run(cold=True)
    assert run(cold=False) == cold
    kinds = {q[0] for row in cold for q in row}
    assert {"TruncationError", "DomainError"} <= kinds


# ----------------------------------------------------------------------
# The no-go witness
# ----------------------------------------------------------------------

def test_divergence_witness_blows_up(k4_params):
    sums = divergence_witness(1.0, k4_params)
    assert sums.size <= 201
    assert np.any(sums > 1e6)
    assert int(np.argmax(sums > 1e6)) <= 200
    # the cut fires long before 200 terms here
    assert sums[-1] > 1e30


def test_divergence_witness_faster_for_larger_label(k4_params):
    slow = divergence_witness(0.5, k4_params)
    fast = divergence_witness(1.0, k4_params)
    assert int(np.argmax(fast > 1e6)) < int(np.argmax(slow > 1e6))


def _witness_capped_at_200_terms(z, params):
    """The witness as it stood with a 200-term cap, for the labels that
    cross 1e30 inside it."""
    a, k, w = params.gap, params.k, abs(complex(z)) ** 2
    term, sums = 1.0, [1.0]
    for n in range(200):
        term *= (a + 1.0 + n) * (a - k + 1.0 + n) * w / (n + 1.0)
        sums.append(sums[-1] + term)
        if sums[-1] > 1e30:
            break
    return np.asarray(sums)


def test_divergence_witness_runs_until_it_passes_1e30(k4_params):
    """At |z| = 0.1 the terms shrink for about 100 terms, so a 200-term cap
    would stop at a partial sum near 1.3; a large gap crosses even at 0.03."""
    sums = divergence_witness(0.1, k4_params)
    assert sums.size == 296 and sums[-1] > 1e30 >= sums[-2]
    sums = divergence_witness(0.03, CSParams(gap=143.3, k=2))
    assert sums.size == 1776 and sums[-1] > 1e30


def test_divergence_witness_unchanged_where_the_cap_never_bit(k1_params):
    for params in (k1_params, CSParams(gap=2.8, k=2), CSParams(gap=6.3, k=4)):
        for z in (0.2, 0.5j, 1.0, 0.9 + 0.4j):
            want = _witness_capped_at_200_terms(z, params)
            assert want[-1] > 1e30
            assert divergence_witness(z, params).tobytes() == want.tobytes()


def test_divergence_witness_refuses_a_label_too_small_by_name(k4_params):
    """At |z| = 0.01 the running term underflows to 0 long before the sums
    could grow, so there is no float64 witness."""
    for z in (0.01, 1e-200j):
        with pytest.raises(DomainError, match=re.escape("label z=%r is too small" % complex(z))):
            divergence_witness(z, k4_params)


def test_divergence_witness_needs_nonzero_label(k4_params):
    with pytest.raises(DomainError):
        divergence_witness(0.0, k4_params)


# ----------------------------------------------------------------------
# Wavefunctions on the grid
# ----------------------------------------------------------------------

def test_wavefunction_normalized(k4_system, k4_params):
    cs = construct_cs(Family.LIN_ISO, 1.2 * cmath.exp(-2.78j), k4_params)
    psi, dens = wavefunction(cs, k4_system)
    norm = float(np.trapezoid(dens, k4_system.x))
    assert abs(norm - (1.0 - cs.truncation_tail)) < 1e-6
    assert np.allclose(np.abs(psi) ** 2, dens)


def test_wavefunction_rejects_foreign_system(k4_system, k1_params):
    cs = construct_cs(Family.LIN_NEW, 0.5, k1_params)
    with pytest.raises(UsageError):
        wavefunction(cs, k4_system)


def test_wavefunction_needs_enough_basis_states(k4_system, k4_params):
    # z = 5 needs ~60 iso levels, the session system stores 33
    cs = construct_cs(Family.LIN_ISO, 5.0, k4_params)
    with pytest.raises(DomainError):
        wavefunction(cs, k4_system)


# ----------------------------------------------------------------------
# The tail integral behind the measure caches
# ----------------------------------------------------------------------

def test_scaled_tail_matches_bessel_identity():
    # int_0^inf e^{-cq} q^lam (q+2)^lam dq, the tail integral of the mu1/mu2
    # factors, equals e^c Gamma(lam+1) (2/c)^{lam+1/2} K_{lam+1/2}(c) / sqrt(pi);
    # the two routes share nothing (the endpoint-substituted Laplace integral
    # vs the K representation), and the lam values cover both substitution
    # branches and both mu2 signs
    for lam in (-0.8, 0.3, 1.8, 3.5):
        for c in (0.5, 2.0, 10.0):
            got = float(laplace_power_integral(lam, 2.0, lam, np.array([c]), rtol=1e-9)[0]) \
                * c ** (-(lam + 1.0))
            want = math.exp(c) * gamma_fn(lam + 1.0) * (2.0 / c) ** (lam + 0.5) \
                * bessel_k(lam + 0.5, c) / math.sqrt(math.pi)
            assert abs(got / want - 1.0) < 1e-8


def test_scaled_tail_domain():
    with pytest.raises(DomainError):
        laplace_power_integral(-1.0, 2.0, -1.0, np.array([1.0]))
    with pytest.raises(DomainError):
        laplace_power_integral(0.5, 2.0, 0.5, np.array([1.0, 0.0]))


# ----------------------------------------------------------------------
# Radial measures
# ----------------------------------------------------------------------

def test_measure_cache_agreement(mu1_k4, mu2_k4, mu3_k4):
    # the builder enforces rtol = 1e-6; the caches actually do far better
    assert mu1_k4.cache_agreement < 1e-12
    assert mu2_k4.cache_agreement < 1e-12
    assert mu3_k4.cache_agreement < 1e-10


def test_measure_profiles_frozen(mu1_k4, mu2_k4, mu3_k4):
    # frozen from the construction itself; guards the caches against drift
    xs = np.array([0.25, 1.0, 4.0])
    f1 = [227.40548823086735, 206.9567889945852, 152.06798827080175]
    f2 = [377.06580078247384, 4.451763744675377, 0.014133429809153164]
    f3 = [156.99306127874905, 11.710765799415888, 0.15941311471112318]
    assert np.allclose(mu1_k4.profile(xs), f1, rtol=1e-6)
    assert np.allclose(mu2_k4.profile(xs), f2, rtol=1e-6)
    assert np.allclose(mu3_k4.profile(xs), f3, rtol=1e-6)


# profile(r^2) and density(r) at _FROZEN_RADII for gap 6.3 (k = 4) and gap
# 1.5 (k = 1), frozen from the construction. This table pins the construction,
# not its accuracy: the tail integral's rtol of 1e-9 lets a change to the tail
# quadrature or the cache grid move a value by about 1e-10, so such a change
# re-freezes the entries it moves. The accuracy is carried by
# test_measure_profiles_match_meijer_g.
_FROZEN_RADII = np.array([0.3, 0.6, 1.0, 1.7, 2.5, 4.0])
_FROZEN_MEASURES = {
    ("mu1", 4, "profile"): [
        232.45653054728197, 224.10428522772747, 206.95678899458525,
        168.96192374894974, 125.2935167841436, 64.01574765129499],
    ("mu1", 4, "density"): [
        0.021768658651256864, 0.021222323680018446, 0.020121298124690337,
        0.0177328623980429, 0.014999349886408992, 0.01093081045949583],
    ("mu2", 4, "profile"): [
        3258.166075800086, 137.63012422702198, 4.451763744675377,
        0.05928248889799829, 0.0018553426179229336, 2.1774919371301035e-05],
    ("mu2", 4, "density"): [
        2.603407022780733, 0.6907973948760917, 0.18779933563949025,
        0.037920225826141914, 0.010306642224121133, 0.0018649395932055783],
    ("mu3", 4, "profile"): [
        521.8295598199727, 90.06232201874678, 11.710765799418452,
        0.5261676923181525, 0.025238673088561276, 0.0002399510305158816],
    ("mu3", 4, "density"): [
        1.2548901062380449, 0.531818734623568, 0.26019045543811653,
        0.09488094799678251, 0.030521097140462493, 0.003822943991143107],
    ("mu1", 1, "profile"): [
        0.8560407412219829, 0.5031799369527816, 0.2642331023943315,
        0.09553037566293585, 0.03334295417233727, 0.005647778514518925],
    ("mu1", 1, "density"): [
        0.23687314295739414, 0.1492762345587184, 0.09154240677865406,
        0.04919516776530636, 0.03014196110842643, 0.016361867974755046],
    ("mu2", 1, "profile"): [
        0.9177438903247326, 0.4596735135187546, 0.186674147693291,
        0.05156137014201702, 0.01681334767077786, 0.0036635733327963706],
    ("mu2", 1, "density"): [
        0.32962996822274626, 0.16510288681999388, 0.06704854591881283,
        0.018519516153270646, 0.006038921442969734, 0.00131586118306281],
    ("mu3", 1, "profile"): [
        1.4458919606444403, 0.5113993433032921, 0.16800425127408053,
        0.03548209771911856, 0.00877837820037717, 0.0012349005744812925],
    ("mu3", 1, "density"): [
        0.5193271522320989, 0.18368147264107648, 0.06034279998221095,
        0.012744255632680878, 0.003152967355864069, 0.0004435444805636205],
}


def test_measure_values_frozen_tight(mu1_k4, mu2_k4, mu3_k4, k1_params):
    built = {(m.family, 4): m for m in (mu1_k4, mu2_k4, mu3_k4)}
    for fam in MeasureFamily.ALL:
        built[fam, 1] = measure_fn(fam, k1_params)
    for (fam, k, what), want in _FROZEN_MEASURES.items():
        m = built[fam, k]
        got = m.profile(_FROZEN_RADII ** 2) if what == "profile" else m.density(_FROZEN_RADII)
        assert np.max(np.abs(got / np.array(want) - 1.0)) < 1e-12, (fam, k, what)


# the profiles are Meijer-G functions (DLMF 16.17) whose Mellin transforms
# are the Gamma products of _mellin_gammas: f1 = G^{3,0}_{0,3}(x | gap, gap-k, 0),
# f2 = G^{1,2}_{2,1}(x | -k, -gap; 0), f3 = G^{2,1}_{1,2}(x | -gap; 0, 0)
_MEIJER_SPECS = ((4, -2.8), (1, -1.0), (3, -2.0), (5, -1.5), (2, -1.3))   # (k, eps_top)
_MEIJER_X = (1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)


def test_measure_profiles_match_meijer_g():
    mpmath = pytest.importorskip("mpmath")
    forms = {
        MeasureFamily.MU1: lambda gap, k, x: mpmath.meijerg([[], []], [[gap, gap - k, 0], []], x),
        # the expansion in x: mpmath's default takes seconds on the one in 1/x at small x
        MeasureFamily.MU2: lambda gap, k, x: mpmath.meijerg([[-k, -gap], []], [[0], []], x,
                                                            series=1),
        MeasureFamily.MU3: lambda gap, k, x: mpmath.meijerg([[-gap], []], [[0, 0], []], x),
    }
    with mpmath.workdps(30):
        for k, eps_top in _MEIJER_SPECS:
            params = CSParams.from_spec(SystemSpec(k=k, eps_top=eps_top, nu=0.0))
            for fam, g in forms.items():
                got = measure_fn(fam, params).profile(np.array(_MEIJER_X))
                want = np.array([float(g(params.gap, k, x)) for x in _MEIJER_X])
                assert np.max(np.abs(got / want - 1.0)) < 1e-10, (fam, k)


def test_log_grid_keeps_the_mu1_envelope():
    # the mu1 factor's peak in log y is about sqrt(2/gap) wide, so the gaps
    # just below its overflow edge set the grid: 1024 intervals are tried
    # first and do not settle there, and the 2048 that follow agree to
    # about 2e-14
    for gap, k in ((90.0, 1), (97.0, 8)):
        assert MeasureFn(MeasureFamily.MU1, CSParams(gap=gap, k=k)).cache_agreement <= 1e-12


def _record_grid_levels(monkeypatch):
    # the interval count of every y grid the mu1/mu2 factor is evaluated on
    levels = []
    factor = coherent._bessel_factor

    def spy(family, params, y):
        levels.append(y.size - 1)
        return factor(family, params, y)

    monkeypatch.setattr(coherent, "_bessel_factor", spy)
    return levels


def test_settled_caches_keep_half_the_intervals(monkeypatch):
    # the benchmark's measure pool and k 2: each agrees with its own even
    # half to 1e-13 at 1024 intervals, so no 2048 grid is built
    levels = _record_grid_levels(monkeypatch)
    for k, eps_top in ((4, -2.8), (1, -1.0), (3, -2.0), (5, -1.5), (2, -1.3)):
        params = CSParams.from_spec(SystemSpec(k=k, eps_top=eps_top, nu=0.0))
        for fam in (MeasureFamily.MU1, MeasureFamily.MU2):
            levels.clear()
            m = MeasureFn(fam, params)
            assert levels == [1024], (fam, k)
            assert m.cache_agreement <= 1e-13, (fam, k)


def test_unsettled_caches_are_the_full_grid_build(monkeypatch):
    # mu1 near its overflow edge and mu2 at k 8 miss the 1e-13 at 1024
    # intervals; the 2048 rebuild is bitwise a build that starts at 2048
    levels = _record_grid_levels(monkeypatch)
    cases = ((MeasureFamily.MU1, CSParams(gap=90.0, k=1)),
             (MeasureFamily.MU1, CSParams(gap=97.0, k=8)),
             (MeasureFamily.MU2, CSParams(gap=8.5, k=8)))
    built = []
    for fam, params in cases:
        levels.clear()
        built.append(MeasureFn(fam, params))
        assert levels == [1024, 2048], (fam, params)
    monkeypatch.setattr(coherent, "_LOG_INTERVALS", 4096)
    for (fam, params), m in zip(cases, built):
        levels.clear()
        ref = MeasureFn(fam, params)
        assert levels == [2048]
        assert m._rates.tobytes() == ref._rates.tobytes(), (fam, params)
        assert m._weights.tobytes() == ref._weights.tobytes(), (fam, params)
        assert m.cache_agreement == ref.cache_agreement


def test_mu1_profile_frozen_k1(k1_params):
    m = measure_fn(MeasureFamily.MU1, k1_params)
    assert m.profile(1.0) == pytest.approx(0.26423310242106246, rel=1e-6)


def test_mu3_profile_against_confluent_u(mu3_k4, k4_params):
    # f3(x) = Gamma(gap+1)^2 U(gap+1, 1; x) on both evaluation branches. Below
    # the switch point the profile and tricomi_u sum the same log-case series,
    # so mpmath is the reference there; above it the Laplace cache is checked
    # against tricomi_u's own Laplace integral
    mpmath = pytest.importorskip("mpmath")
    a = k4_params.gap + 1.0
    with mpmath.workdps(30):
        want = float(mpmath.gamma(a) ** 2 * mpmath.hyperu(a, 1, 0.4))
    assert mu3_k4.profile(0.4) == pytest.approx(want, rel=1e-10)
    want = gamma_fn(a) ** 2 * tricomi_u(a, 4.0)
    assert mu3_k4.profile(4.0) == pytest.approx(want, rel=1e-10)


def test_mu3_builds_for_small_gaps_k1():
    # gap + 1 just above 1 leaves a weak endpoint power in the validation
    # integral; a route without the endpoint substitution fails to settle
    for i in range(1, 20):
        m = measure_fn(MeasureFamily.MU3, CSParams(gap=0.05 * i, k=1))
        assert m.cache_agreement <= m.rtol


def test_overflowing_caches_refused_without_warnings():
    # mu1: the factor y^gap e^(-2 sqrt(y)) overflows inside the y window, so
    # the cache is refused by the gap that causes it; mu3: Gamma(gap+1)^2
    # overflows; mu2: (s/c + b)^q overflows at the smallest c, whose slice
    # runs first, so the first rule refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gap in (100.0, 170.0):
            with pytest.raises(DomainError, match="gap=%g" % gap):
                MeasureFn("mu1", CSParams(gap=gap, k=3))
        with pytest.raises(DomainError, match="gap=100"):
            MeasureFn("mu3", CSParams(gap=100.0, k=1))
        for params in (CSParams(gap=50.0, k=1), CSParams(gap=40.3, k=3)):
            with pytest.raises(QuadratureError, match="^the mu2 factor at gap=%g: .*overflowed"
                               % params.gap) as info:
                MeasureFn("mu2", params)
            assert info.value.nodes_used == 32
            assert info.value.last_estimate is not None


def test_moment_strips(mu1_k4, mu2_k4, mu3_k4):
    assert moment_strip(mu1_k4) == (0.0, math.inf)
    assert moment_strip(mu2_k4) == (0.0, 5.0)
    assert moment_strip(mu3_k4) == (0.0, pytest.approx(7.3))


def test_moments_match_gamma_products(mu1_k4, mu2_k4, mu3_k4):
    for m in (mu1_k4, mu2_k4, mu3_k4):
        for s in (1.0, 2.0, 3.0):
            computed, expected = moment_check(m, s)
            assert abs(computed / expected - 1.0) < 1e-6


def test_moments_k1_system(k1_params):
    m = measure_fn(MeasureFamily.MU2, k1_params)
    for s in (0.5, 1.0, 1.5):
        computed, expected = moment_check(m, s)
        assert abs(computed / expected - 1.0) < 1e-5


def test_moment_outside_strip_refused(mu2_k4):
    for s in (0.0, 5.0, 7.5):
        with pytest.raises(DomainError):
            moment_check(mu2_k4, s)


def test_densities_positive(mu1_k4, mu2_k4, mu3_k4):
    rs = np.logspace(-2.0, 1.0, 100)
    for m in (mu1_k4, mu2_k4, mu3_k4):
        assert np.all(m.density(rs) > 0.0)
    with pytest.raises(DomainError):
        mu1_k4.density(0.0)
    with pytest.raises(DomainError):
        mu1_k4.profile(-0.5)


def test_measures_refuse_nan_by_name():
    """A NaN x or r fails the x >= 0 and r > 0 tests rather than slipping
    past them as a NaN profile or density."""
    params = CSParams(gap=2.5, k=2)
    for family in MeasureFamily.ALL:
        m = measure_fn(family, params)
        for x in (math.nan, [1.0, math.nan]):
            with pytest.raises(DomainError, match="^measure profile needs x >= 0, got nan$"):
                m.profile(x)
            with pytest.raises(DomainError, match="^measure density needs r > 0, got nan$"):
                m.density(x)


@pytest.mark.parametrize("method, arg, name", [
    ("profile", 1j, "x"), ("density", 1j, "r"), ("profile", [1.0, 2j], "x"),
    ("profile", "a", "x"), ("density", True, "r"),
], ids=["profile-complex", "density-complex", "profile-complex-entry", "profile-string",
        "density-bool"])
def test_measures_refuse_non_real_arguments_by_name(method, arg, name):
    m = measure_fn(MeasureFamily.MU1, CSParams(gap=2.5, k=2))
    message = "measure %s needs a real %s, got %r" % (method, name, arg)
    with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
        getattr(m, method)(arg)


@pytest.mark.parametrize("call, message", [
    (lambda: tricomi_u(2.0, True), "tricomi_u needs a real x, got True"),
    (lambda: tricomi_u(2.0, "2"), "tricomi_u needs a real x, got '2'"),
    (lambda: tricomi_u(2.0, 1 + 1j), "tricomi_u needs a real x, got (1+1j)"),
    (lambda: bessel_k(1.0, 2j), "bessel_k needs a real z, got 2j"),
    (lambda: laplace_power_integral(0.5, 1.0, 1.0, "2"),
     "laplace_power_integral needs a real c, got '2'"),
    (lambda: hyp1f1(1.0, 0.5, True), "hyp1f1 needs a real or complex x, got True"),
    (lambda: hyp1f1(1.0, 0.5, "1"), "hyp1f1 needs a real or complex x, got '1'"),
    (lambda: construct_cs("lin_iso", "1+2j", CSParams(gap=2.5, k=2)),
     "coherent state needs a real or complex label z, got '1+2j'"),
    (lambda: construct_cs("lin_iso", True, CSParams(gap=2.5, k=2)),
     "coherent state needs a real or complex label z, got True"),
    (lambda: construct_cs("lin_iso", np.array([1.0, 2.0]), CSParams(gap=2.5, k=2)),
     "coherent state needs a scalar label z, got array([1., 2.])"),
    (lambda: kernel("lin_iso", np.array([1.0]), 1.0, CSParams(gap=2.5, k=2)),
     "coherent state needs a scalar label z, got array([1.])"),
    (lambda: divergence_witness([1, 2], CSParams(gap=2.5, k=2)),
     "coherent state needs a scalar label z, got [1, 2]"),
], ids=["tricomi-bool", "tricomi-string", "tricomi-complex", "bessel-complex",
        "laplace-string", "hyp1f1-bool", "hyp1f1-string", "label-string", "label-bool",
        "label-array", "kernel-label-one-element-array", "witness-label-list"])
def test_array_arguments_refuse_other_kinds_by_name(call, message):
    # one coercion rule for every array front end: a bool, a string or a
    # complex value where a real one belongs is refused, never cast, and a
    # label must be a scalar: an array of labels is refused, never cast
    with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
        call()


def test_measure_builds_stay_small():
    # the doubling keeps two running sums, not whole levels of the 512-wide
    # cache batch: the mu2 build peaked at 8.5 MB with whole levels, 2.5 now
    params = CSParams.from_spec(SystemSpec(4, -2.8, 0.0))
    MeasureFn(MeasureFamily.MU2, CSParams(gap=3.1, k=2))   # imports and first-use caches
    tracemalloc.start()
    try:
        MeasureFn(MeasureFamily.MU2, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_measure_family_tag_checked(k4_params):
    with pytest.raises(UsageError):
        measure_fn("mu7", k4_params)


def test_mu2_second_branch():
    # gap - k in (-1, -1/2) flips the Bessel order in the convolution
    # factor; this regime is invisible from the session systems
    params = CSParams(gap=1.2, k=2)
    m = measure_fn(MeasureFamily.MU2, params)
    assert m.cache_agreement < 1e-10
    for s in (0.8, 1.0, 1.5):
        computed, expected = moment_check(m, s)
        assert abs(computed / expected - 1.0) < 1e-6
    # near the strip edge the truncated Laplace tail starts to show
    computed, expected = moment_check(m, 1.9)
    assert abs(computed / expected - 1.0) < 1e-3


def test_mu2_branch_boundary_builds():
    # gap - k = -1/2 (eps_top = 0) is the second branch's K_{1/2} factor
    for params, orders in ((CSParams(gap=3.5, k=4), (1.0, 2.0, 3.0)),
                           (CSParams(gap=0.5, k=1), (0.5, 1.0))):
        m = measure_fn(MeasureFamily.MU2, params)
        assert m.cache_agreement < 1e-10
        for s in orders:
            computed, expected = moment_check(m, s)
            assert abs(computed / expected - 1.0) < 1e-6


def test_measure_fn_shares_one_instance_per_key(k4_params, k1_params):
    # every instance comes from the store in this test: a module fixture may
    # hold one that another test's cache_clear has dropped from it
    mu1 = measure_fn(MeasureFamily.MU1, k4_params)
    assert measure_fn(MeasureFamily.MU1, k4_params) is mu1
    assert measure_fn(MeasureFamily.MU1, CSParams(gap=k4_params.gap, k=4)) is mu1
    others = [measure_fn(MeasureFamily.MU2, k4_params), measure_fn(MeasureFamily.MU1, k1_params)]
    assert all(m is not mu1 for m in others)
    assert all(m.rtol == 1e-6 for m in others + [mu1])


def _laplace_sum_one_block(rates, weights, x):
    # every rate, one block: the sum as it reads without blocking or skipping
    with np.errstate(over="ignore"):
        return np.exp(-x[:, None] * rates[None, :]) @ weights


def test_laplace_sum_matches_one_block_reference(mu1_k4, mu2_k4, mu3_k4, k1_params):
    rng = np.random.default_rng(7)
    caches = [(m._rates, m._weights)
              for m in (mu1_k4, mu2_k4, mu3_k4, measure_fn(MeasureFamily.MU1, k1_params))]
    # weights near the float maximum keep every subnormal decay term a normal
    # product, so the sums see each term the skip must keep or may drop
    caches.append((np.geomspace(1e-3, 1e3, 4000), rng.uniform(0.5, 1.5, 4000) * 1e300))
    for rates, weights in caches:
        # x * rate across the subnormal band of exp for the smallest, a
        # middle and the largest rates, with 0, inf and ordinary x
        band = np.concatenate([np.linspace(700.0, 750.0, 51) / r
                               for r in (rates[0], rates[rates.size // 2], rates[-1])])
        mixed = np.concatenate([band, [0.0, np.inf], np.geomspace(1e-3, 1e3, 40)])
        rng.shuffle(mixed)
        # a run long enough to fill whole blocks in which every rate is dead
        dead = np.full(300, 800.0 / rates[0])
        x = np.concatenate([band, mixed, dead, mixed[::-1]])
        got = coherent._laplace_sum(rates, weights, x)
        want = _laplace_sum_one_block(rates, weights, x)
        zero = want == 0.0
        # one-value batches put each band x at the bottom of its own block
        alone = [coherent._laplace_sum(rates, weights, band[i:i + 1])[0]
                 for i in range(band.size)]
        assert np.array_equal(np.array(alone) == 0.0, zero[:band.size])
        assert np.allclose(alone, want[:band.size], rtol=4e-15, atol=0.0)
        assert np.all(got[zero] == 0.0)
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got[~zero] / want[~zero] - 1.0)) <= 4e-15
        assert zero[x.size - mixed.size - dead.size:x.size - mixed.size].all()


def test_measure_caches_store_live_span(mu1_k4, mu2_k4, mu3_k4, k1_params):
    built = [mu1_k4, mu2_k4, mu3_k4] + [measure_fn(fam, k1_params) for fam in MeasureFamily.ALL]
    for m in built:
        assert m._weights[0] != 0.0 and m._weights[-1] != 0.0, m.family
        assert m._rates.size == m._weights.size
        assert np.all(np.diff(m._rates) > 0.0), m.family
        assert not m._rates.flags.writeable and not m._weights.flags.writeable


def test_shared_measure_is_immutable(mu1_k4, mu3_k4):
    for m in (mu1_k4, mu3_k4):
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.rtol = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.cache_agreement = 0.0
        for arr in (m._weights, m._rates):
            with pytest.raises(ValueError):
                arr[0] = 1.0


def test_refused_measure_not_stored(monkeypatch):
    # a refused build raises on every call and is never served from the store
    builds = []

    def refuse(*args):
        builds.append(args)
        raise DomainError("forced refusal")

    monkeypatch.setattr(coherent, "_bessel_factor", refuse)
    params = CSParams(gap=2.7, k=2)
    stored = coherent._measure_store.cache_info().currsize
    for _ in range(2):
        with pytest.raises(DomainError, match="forced refusal"):
            measure_fn(MeasureFamily.MU2, params)
    assert len(builds) == 2
    assert coherent._measure_store.cache_info().currsize == stored


# the (k, eps_top) pool of the benchmark's measures workload
_MEASURE_POOL = ((4, -2.8), (1, -1.0), (3, -2.0), (5, -1.5))


def _record_profile_rows(monkeypatch):
    """Patch the two profile evaluators to record every x they receive,
    keyed by the measure's rate array (mu3's series by its a = gap + 1)."""
    rows = {}
    laplace_sum, log_case_u = coherent._laplace_sum, coherent._log_case_u

    def laplace_spy(rates, weights, x):
        rows.setdefault(id(rates), []).extend(x.tolist())
        return laplace_sum(rates, weights, x)

    def series_spy(a, x, label):
        rows.setdefault(a, []).extend(x.tolist())
        return log_case_u(a, x, label)

    monkeypatch.setattr(coherent, "_laplace_sum", laplace_spy)
    monkeypatch.setattr(coherent, "_log_case_u", series_spy)
    return rows


def _record_quadratures(monkeypatch):
    """Patch coherent.mellin_moment to record the order s of every call."""
    orders = []
    mellin = coherent.mellin_moment

    def spy(f, s, rtol):
        orders.append(s)
        return mellin(f, s, rtol=rtol)

    monkeypatch.setattr(coherent, "mellin_moment", spy)
    return orders


def test_moments_bitwise_as_fresh_quadrature():
    # a memoized moment is the one mellin_moment gives for the profile
    for k, eps_top in _MEASURE_POOL:
        params = CSParams.from_spec(SystemSpec(k=k, eps_top=eps_top, nu=0.4))
        for fam in MeasureFamily.ALL:
            m = measure_fn(fam, params)
            lo, hi = moment_strip(m)
            for s in (lo + 0.3, 1.0, min(lo + 2.0, 0.5 * (lo + hi))):
                fresh = coherent.mellin_moment(m.profile, s, rtol=coherent._MOMENT_RTOL)
                assert moment_check(m, s)[0] == fresh, (fam, k, s)
                assert moment_check(m, s)[0] == fresh, (fam, k, s)


def test_repeated_moments_evaluate_no_profile_row(k4_params, monkeypatch):
    # fresh measures have no memo entries; mu3 takes both profile routes
    # (series below _LOG_CASE_SWITCH, Laplace cache)
    coherent._measure_store.cache_clear()
    m = MeasureFn(MeasureFamily.MU3, k4_params)
    rows = _record_profile_rows(monkeypatch)
    quadratures = []
    mellin = coherent.mellin_moment

    def mellin_spy(f, s, rtol):
        quadratures.append((f, s))
        return mellin(f, s, rtol=rtol)

    monkeypatch.setattr(coherent, "mellin_moment", mellin_spy)
    first = [moment_check(m, 1.0), moment_check(m, 2.5)]
    first += [identity_resolution_check(fam, k4_params) for fam in Family.ALL]
    assert rows and quadratures
    rows.clear()
    quadratures.clear()
    assert [moment_check(m, 1.0), moment_check(m, 2.5)] == first[:2]
    assert [identity_resolution_check(fam, k4_params) for fam in Family.ALL] == first[2:]
    assert not rows and not quadratures
    # an equal but new instance is its own key
    assert moment_check(MeasureFn(MeasureFamily.MU3, k4_params), 2.5) == first[1]
    assert rows and quadratures


def test_moment_memo_stays_under_its_maxsize(k4_params, monkeypatch):
    # past the bound a moment is computed and returned but not stored, so
    # no stored order is evicted and a past-bound order is integrated again
    # on every call
    assert coherent._MOMENTS_KEPT == 256
    monkeypatch.setattr(coherent, "_MOMENTS_KEPT", 3)
    m = MeasureFn(MeasureFamily.MU1, k4_params)
    quadratures = _record_quadratures(monkeypatch)
    orders = [1.0, 1.5, 2.0, 2.5]
    first = [moment_check(m, s) for s in orders]
    assert quadratures == orders
    assert sorted(m._moments) == orders[:3]
    quadratures.clear()
    assert [moment_check(m, s) for s in orders + orders] == first + first
    assert quadratures == [2.5, 2.5]
    assert sorted(m._moments) == orders[:3]


def test_wrapped_profile_still_hits_the_moment_memo(k4_params, monkeypatch):
    # a tracer that installs a fresh wrapper on MeasureFn.profile around each
    # call changes the bound method, not the measure the memo is keyed by
    m = MeasureFn(MeasureFamily.MU2, k4_params)
    profile = MeasureFn.profile
    quadratures = []
    mellin = coherent.mellin_moment

    def mellin_spy(f, s, rtol):
        quadratures.append(s)
        return mellin(f, s, rtol=rtol)

    monkeypatch.setattr(coherent, "mellin_moment", mellin_spy)
    results = []
    for _ in range(2):
        monkeypatch.setattr(MeasureFn, "profile", lambda self, x: profile(self, x))
        results.append([moment_check(m, s) for s in (1.0, 1.5)])
    assert quadratures == [1.0, 1.5]
    assert results[0] == results[1]


def _profile_batches(monkeypatch):
    """Record the bytes of every batch handed to MeasureFn.profile."""
    batches = []
    profile = MeasureFn.profile

    def spy(self, x):
        batches.append(x.tobytes())
        return profile(self, x)

    monkeypatch.setattr(MeasureFn, "profile", spy)
    return batches


def test_later_orders_evaluate_only_batches_no_earlier_order_reached(k4_params, monkeypatch):
    # the batches of each order run on its own, recorded before the spy goes in;
    # mu2's order 1 runs one level deeper than 2 on the lower half, 4.5 on the upper
    m = MeasureFn(MeasureFamily.MU2, k4_params)
    orders = (2.0, 1.0, 4.5, 3.0)
    fresh = {}
    for s in orders:
        fresh[s] = []
        coherent.mellin_moment(lambda x: fresh[s].append(x.tobytes()) or m.profile(x), s,
                               rtol=coherent._MOMENT_RTOL)
    batches = _profile_batches(monkeypatch)
    reached = set()
    for s in orders:
        batches.clear()
        moment_check(m, s)
        assert batches == [b for b in fresh[s] if b not in reached], s
        reached.update(fresh[s])
    assert [len(fresh[s]) for s in orders] == [6, 7, 7, 6]
    assert not batches


def test_verify_measures_suite_evaluates_each_node_once(monkeypatch):
    # the README spec's measures suite with its caches built: each measure's
    # profile sees every node once, apart from x = 1 in both halves' first batch
    coherent._measure_store.cache_clear()
    spec = SystemSpec(4, -2.8, -0.9)
    for fam in MeasureFamily.ALL:
        measure_fn(fam, CSParams.from_spec(spec))
    rows = _record_profile_rows(monkeypatch)
    list(cli._suite_measures(types.SimpleNamespace(spec=spec), None))
    assert len(rows) == 4   # three caches and mu3's series
    for x in rows.values():
        repeated = [v for v in set(x) if x.count(v) > 1]
        assert repeated in ([], [1.0]) and x.count(1.0) <= 2
    # 4875 rows when each order evaluated all its nodes
    assert sum(map(len, rows.values())) <= 1483


def test_node_table_stays_under_its_bound(k4_params, monkeypatch):
    # mu2's order 4.9 runs its upper half to 8192 intervals, 16512 rows in all
    m = MeasureFn(MeasureFamily.MU2, k4_params)
    fresh = coherent.mellin_moment(m.profile, 4.9, rtol=coherent._MOMENT_RTOL)
    assert coherent._TABLE_VALUES == 4096
    for bound in (100, 4096):
        monkeypatch.setattr(coherent, "_TABLE_VALUES", bound)
        m._moments.clear()
        m._nodes.clear()
        assert moment_check(m, 4.9)[0] == fresh
        assert 0 < sum(v.size for v in m._nodes.values()) <= bound
        assert all(not v.flags.writeable for v in m._nodes.values())


def test_dead_measure_frees_its_node_table(k4_params):
    # the moments and node values live on the measure and nothing else holds it
    m = MeasureFn(MeasureFamily.MU3, k4_params)
    moment_check(m, 1.0)
    assert m._moments and m._nodes
    alive = weakref.ref(m)
    del m
    assert alive() is None


def test_measure_dropped_by_the_store_and_its_caller_is_freed():
    # a stored moment does not keep its measure alive past the store's 64
    coherent._measure_store.cache_clear()
    pool = [CSParams(gap=1.5 + i / 8.0, k=1) for i in range(65)]
    m = measure_fn(MeasureFamily.MU3, pool[0])
    moment_check(m, 1.0)
    alive = weakref.ref(m)
    for params in pool[1:]:
        measure_fn(MeasureFamily.MU3, params)
    assert alive() is m
    del m
    assert alive() is None


def test_measure_store_drops_the_least_recently_used():
    # the store holds 64 measures; building one more drops the one used longest ago
    coherent._measure_store.cache_clear()
    assert coherent._measure_store.cache_info().maxsize == 64
    pool = [CSParams(gap=1.5 + i / 8.0, k=1) for i in range(65)]
    first = [measure_fn(MeasureFamily.MU3, p) for p in pool[:64]]
    assert measure_fn(MeasureFamily.MU3, pool[0]) is first[0]   # now the most recent
    measure_fn(MeasureFamily.MU3, pool[64])                     # drops pool[1]
    assert coherent._measure_store.cache_info().currsize == 64
    assert measure_fn(MeasureFamily.MU3, pool[0]) is first[0]
    assert measure_fn(MeasureFamily.MU3, pool[1]) is not first[1]


def test_density_refuses_non_finite_value(mu2_k4, mu3_k4):
    # the profile underflows to 0 while the degree-(k-1) norm series
    # overflows; the product would be NaN
    for m in (mu2_k4, mu3_k4):
        with pytest.raises(DomainError, match="%s density is not finite at r=1e\\+100"
                           % m.family):
            m.density(np.array([1.0, 1e100, 2e100]))
        assert m.density(1.0) > 0.0


@pytest.fixture(scope="module")
def k2_params():
    return CSParams.from_spec(SystemSpec(k=2, eps_top=-1.3, nu=0.3))


def test_mu1_density_refuses_an_overflowing_series_by_radius(k2_params):
    # 0F2 grows with r^2, so the refusal names the largest radius
    m = measure_fn(MeasureFamily.MU1, k2_params)
    for r in (1e20, [0.5, 1e20]):
        with pytest.raises(DomainError, match="mu1 density is not finite at r=1e\\+20"):
            m.density(r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", MeasureFamily.ALL)
def test_density_refuses_an_overflowing_square_by_radius(k2_params, family):
    with pytest.raises(DomainError, match="r\\^2.*r=1.4e\\+154"):
        measure_fn(family, k2_params).density(1.4e154)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_aocs_iso_label_whose_0f2_overflows_is_refused_by_name(k2_params):
    """At |z| = 1e154, |z|^2 = 1e308 fits a float but 0F2 overflows inside
    its own summation; the label is refused naming the family, as docs_new's
    finite sum is, not by the series' own error."""
    said = "^label with \\|z\\|\\^2=1e\\+308 overflows the aocs_iso norm series$"
    for call in (lambda: construct_cs(Family.AOCS_ISO, 1e154, k2_params),
                 lambda: kernel(Family.AOCS_ISO, 1e154, 0.5, k2_params),
                 lambda: kernel(Family.AOCS_ISO, 0.5, 1e154j, k2_params)):
        with pytest.raises(DomainError, match=said):
            call()


# ----------------------------------------------------------------------
# Identity resolutions
# ----------------------------------------------------------------------

def test_identity_resolutions(k4_params):
    assert identity_resolution_check(Family.LIN_ISO, k4_params) < 1e-10
    assert identity_resolution_check(Family.AOCS_ISO, k4_params) < 1e-9
    assert identity_resolution_check(Family.DOCS_NEW, k4_params) < 1e-8
    assert identity_resolution_check(Family.LIN_NEW, k4_params) < 1e-8


def test_lin_iso_identity_is_one_value_for_every_params(monkeypatch):
    coherent._lin_iso_identity.cache_clear()
    quadratures = _record_quadratures(monkeypatch)
    first = identity_resolution_check(Family.LIN_ISO, CSParams(gap=6.3, k=4))
    assert len(quadratures) == 11
    quadratures.clear()
    again = identity_resolution_check(Family.LIN_ISO, CSParams(gap=1.7, k=1))
    assert again.hex() == first.hex()
    assert not quadratures


def test_identity_resolution_near_strip_edge():
    # for gap -> k - 1 the top docs_new moment approaches the convergence
    # boundary and the resolution degrades gracefully instead of failing
    assert identity_resolution_check(
        Family.DOCS_NEW, CSParams(gap=1.2, k=2)) < 5e-3


@settings(max_examples=60, derandomize=True)
@given(st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_probabilities_sum_to_one(mod, phase):
    params = CSParams(gap=6.3, k=4)
    z = mod * cmath.exp(1j * phase)
    for fam in (Family.AOCS_ISO, Family.DOCS_NEW):
        cs = construct_cs(fam, z, params)
        assert abs(np.sum(probabilities(cs)) + cs.truncation_tail - 1.0) < 1e-12
