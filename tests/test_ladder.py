"""Ladder operators: coefficient tables, algebra checks, differential stencil.

The tables and the sampled differential operator are built through disjoint
code paths (spectral bookkeeping vs. transcendent coefficients plus grid
quadrature), so their agreement on matrix elements is a real cross-check.
"""

import cmath
import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyosc import SystemSpec, build_system
from susyosc.coherent import CSParams, construct_cs, wavefunction
from susyosc.errors import DomainError, InsufficientSupportError, InvalidSpecError
from susyosc.gridops import largest_run
from susyosc.ladder import (
    LadderCoeffs,
    apply_stencil,
    build_operator_stencil,
    commutator_check,
    linearized_coeff,
    natural_down_coeff,
    nilpotent_matrix,
    pha_product_check,
    stencil_projection,
)
from susyosc.painleve import Assignment, GSolution, backlund_check, g_for_system


@pytest.fixture(scope="module")
def k4_coeffs(k4_spec):
    return LadderCoeffs.from_spec(k4_spec)


@pytest.fixture(scope="module")
def k4_stencil(k4_system):
    # deep display floor keeps the quadrature window wide; see the stencil
    # builder's docstring
    gsol = g_for_system(k4_system, "eps0", phi_rel_floor=1e-8)
    return build_operator_stencil(gsol)


def test_coeff_table_validation():
    with pytest.raises(InvalidSpecError):
        LadderCoeffs(gap=2.0, k=0)
    with pytest.raises(InvalidSpecError):
        LadderCoeffs(gap=3.0, k=4)     # gap must exceed k - 1
    with pytest.raises(DomainError):
        natural_down_coeff(-1, "iso", LadderCoeffs(gap=1.5, k=2))


_BAD_LEVELS = [math.nan, math.inf, -math.inf, True, 2.0, -1]

_LEVEL_ENTRY_POINTS = {
    "natural_down_coeff_iso": lambda c, n: natural_down_coeff(n, "iso", c),
    "linearized_coeff": lambda c, n: linearized_coeff(n, "new", c),
    "natural_down_coeff": lambda c, n: natural_down_coeff(n, "new", c),
    "pha_product_check": lambda c, n: pha_product_check(c, n, "iso"),
}


@pytest.mark.parametrize("entry", sorted(_LEVEL_ENTRY_POINTS))
@pytest.mark.parametrize("bad", _BAD_LEVELS, ids=repr)
def test_levels_refuse_non_integers_by_name(k4_coeffs, entry, bad):
    """NaN, infinities, bools and integral floats are refused as levels with
    a DomainError naming the level, never a ValueError or OverflowError."""
    with pytest.raises(DomainError, match="level"):
        _LEVEL_ENTRY_POINTS[entry](k4_coeffs, bad)


@pytest.mark.parametrize("entry", sorted(_LEVEL_ENTRY_POINTS))
def test_levels_accept_numpy_integers(k4_coeffs, entry):
    call = _LEVEL_ENTRY_POINTS[entry]
    for n in range(3):
        assert call(k4_coeffs, np.int64(n)) == call(k4_coeffs, n)


def test_coeff_table_from_spec(k4_coeffs):
    assert k4_coeffs.k == 4
    assert abs(k4_coeffs.gap - 6.3) < 1e-12
    assert abs(k4_coeffs.eps0 - (-5.8)) < 1e-12


def test_natural_down_iso_values(k4_coeffs):
    assert natural_down_coeff(0, "iso", k4_coeffs) == 0.0
    # sqrt(1 * 7.3 * 3.3)
    assert abs(natural_down_coeff(1, "iso", k4_coeffs) - 4.90815647672321) < 1e-12
    for n in range(1, 8):
        want = math.sqrt(n * (n + 6.3) * (n + 2.3))
        assert abs(natural_down_coeff(n, "iso", k4_coeffs) - want) < 1e-12


def test_natural_down_new_values(k4_coeffs):
    assert natural_down_coeff(0, "new", k4_coeffs) == 0.0
    for j in range(1, 4):
        want = math.sqrt((6.3 - j) * j * (4 - j))
        assert abs(natural_down_coeff(j, "new", k4_coeffs) - want) < 1e-12
    with pytest.raises(DomainError):
        natural_down_coeff(4, "new", k4_coeffs)
    with pytest.raises(DomainError):
        natural_down_coeff(1, "bogus", k4_coeffs)


def test_product_rule_exact(k4_coeffs, k1_spec):
    """d^2 equals (E - 1/2)(E - eps_0)(E - eps_0 - k) at every position."""
    for params in (k4_coeffs, LadderCoeffs.from_spec(k1_spec)):
        for n in range(7):
            got, want = pha_product_check(params, n, "iso")
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))
        for j in range(params.k):
            got, want = pha_product_check(params, j, "new")
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_nilpotency_exact_through_order_five():
    """The restricted lowering matrix is strictly superdiagonal, so its k-th
    power vanishes identically while the (k-1)-th does not."""
    for k in range(1, 6):
        params = LadderCoeffs(gap=k + 1.3, k=k)
        m = nilpotent_matrix(params)
        assert np.all(np.tril(m) == 0.0)
        assert np.all(np.linalg.matrix_power(m, k) == 0.0)
        if k > 1:
            assert np.linalg.norm(np.linalg.matrix_power(m, k - 1)) > 0.0


def test_linearized_iso_matches_oscillator(k4_coeffs):
    """On the iso ladder the linearized operators reduce to the textbook
    oscillator pair: ell^- |n> = sqrt(n) |n-1>, and ell^+ |n> reads the
    table a level higher, sqrt(n+1)."""
    for n in range(6):
        down = linearized_coeff(n, "iso", k4_coeffs)
        up = linearized_coeff(n + 1, "iso", k4_coeffs)
        assert abs(down - math.sqrt(n)) < 1e-15
        assert abs(up - math.sqrt(n + 1)) < 1e-15


def test_linearized_new_coefficients(k4_coeffs):
    assert linearized_coeff(0, "new", k4_coeffs) == 0.0
    for j in range(1, 4):
        c = linearized_coeff(j, "new", k4_coeffs)
        assert c.real == 0.0           # the step carries phase i
        assert abs(c.imag - math.sqrt(6.3 - j)) < 1e-14
    with pytest.raises(DomainError):
        linearized_coeff(4, "new", k4_coeffs)


def test_commutator_values(k4_coeffs, k1_spec):
    iso, new = commutator_check(k4_coeffs)
    assert np.max(np.abs(iso - 1.0)) < 1e-12
    assert np.allclose(new, [-5.3, 1.0, 1.0, 3.3], atol=1e-12)
    # k = 1: the single state is annihilated both ways
    _, new1 = commutator_check(LadderCoeffs.from_spec(k1_spec))
    assert new1.shape == (1,)
    assert new1[0] == 0.0


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.tuples(st.just(k), st.floats(min_value=k - 1.0, max_value=k + 60.0,
                                              exclude_min=True))))
def test_tables_obey_the_algebra(k_gap):
    """Over k 1-8 and any gap > k - 1: the product rule at every level, a
    nilpotent l^- on the new ladder, and [ell^-, ell^+] = 1 except at the
    new ladder's ends, 1 - gap at the bottom and gap - k + 1 at the top
    (0 when the one new state is both)."""
    k, gap = k_gap
    params = LadderCoeffs(gap=gap, k=k)
    for subspace, count in (("iso", 12), ("new", k)):
        for n in range(count):
            got, want = pha_product_check(params, n, subspace)
            assert abs(got - want) <= 1e-13 * (n + 1) * (n + gap + k) ** 2, (subspace, n)
    m = nilpotent_matrix(params)
    assert np.all(np.tril(m) == 0.0)
    assert np.all(np.linalg.matrix_power(m, k) == 0.0)
    if k > 1:
        assert np.all(np.diag(np.linalg.matrix_power(m, k - 1), k - 1) > 0.0)
    iso, new = commutator_check(params)
    tol = 1e-13 * (gap + k)
    assert np.max(np.abs(iso - 1.0)) <= tol
    want = np.ones(k)
    want[0], want[-1] = 1.0 - gap, gap - k + 1.0
    if k == 1:
        want[0] = 0.0
    assert np.max(np.abs(new - want)) <= tol, (new, want)


def test_stencil_projections_match_table(k4_system, k4_coeffs, k4_stencil):
    """Quadrature matrix elements of the sampled operator against the
    spectral table, both ladders, signed: the stored states carry the
    tables' convention of positive l^- elements."""
    w = k4_system.weights
    for n in range(1, 6):
        got = stencil_projection(k4_stencil, k4_system.state("iso", n - 1),
                                 k4_system.state("iso", n), w)
        assert abs(got / natural_down_coeff(n, "iso", k4_coeffs) - 1.0) < 1e-3
    for j in range(1, 4):
        got = stencil_projection(k4_stencil, k4_system.state("new", j - 1),
                                 k4_system.state("new", j), w)
        assert abs(got / natural_down_coeff(j, "new", k4_coeffs) - 1.0) < 1e-3


# (eps_top, nu) inside the box the benchmark sweep draws from:
# eps_top in [-3.5, -0.5], |nu| <= 0.95
_BOX_SPECS = ((-0.7, 0.6), (-2.2, -0.3), (-3.4, 0.9))
_LABELS = (0.9 + 0.4j, cmath.rect(1.5, -4.93), 0.3 - 0.2j)


@pytest.fixture(scope="module")
def box_systems():
    """(system, eps0 stencil) for k = 1..5 at each box spec, on both grids."""
    out = []
    for k in range(1, 6):
        for eps_top, nu in _BOX_SPECS:
            for n_points in (2101, 4201):
                system = build_system(
                    SystemSpec(k=k, eps_top=eps_top, nu=nu, n_points=n_points), n_max=8)
                gsol = g_for_system(system, "eps0", phi_rel_floor=1e-8)
                out.append((system, build_operator_stencil(gsol)))
    return out


def _restricted(weights, *arrays):
    """Weights and arrays on the finite points of every array."""
    good = np.all([np.isfinite(a) for a in arrays], axis=0)
    return (weights[good],) + tuple(a[good] for a in arrays)


def test_signed_stencil_ratio_on_box_specs(box_systems):
    """Every stored pair carries a positive l^- element, as the tables
    assume: iso pairs up to n = 3 and every new pair."""
    for system, op in box_systems:
        params = LadderCoeffs.from_spec(system.spec)
        pairs = [("iso", n) for n in range(1, 4)] \
            + [("new", j) for j in range(1, system.spec.k)]
        for subspace, n in pairs:
            got = stencil_projection(op, system.state(subspace, n - 1),
                                     system.state(subspace, n), system.weights)
            assert abs(got / natural_down_coeff(n, subspace, params) - 1.0) < 1e-6, \
                (system.spec, subspace, n)


def test_new_family_expectation_matches_table(box_systems):
    """<psi_z| l^- psi_z> on the grid, through the stencil, against the
    table sum sum_j conj(c_{j-1}) c_j e_j, for both new-ladder families."""
    for system, op in box_systems:
        params = CSParams.from_spec(system.spec)
        if params.k == 1:
            continue   # a single new level: no l^- element to compare
        images = [apply_stencil(op, st) for st in system.new_states]
        for family in ("docs_new", "lin_new"):
            for z in _LABELS:
                cs = construct_cs(family, z, params)
                psi, _ = wavefunction(cs, system)
                w, psi, image = _restricted(system.weights, psi,
                                            sum(c * im for c, im in zip(cs.coeffs, images)))
                got = np.sum(w * np.conj(psi) * image) / np.sum(w * np.abs(psi) ** 2)
                want = sum(np.conj(cs.coeffs[j - 1]) * cs.coeffs[j]
                           * natural_down_coeff(j, "new", params) for j in range(1, params.k))
                assert abs(got - want) <= 1e-6 * abs(want), (system.spec, family, z)


def test_aocs_iso_annihilated_in_x_space(box_systems):
    """sum_n c_n l^- phi_n through the grid stencil equals z psi_z on the
    support, a route that does not use the coefficient recurrence."""
    for system, op in box_systems:
        params = CSParams.from_spec(system.spec)
        for z in _LABELS:
            cs = construct_cs("aocs_iso", z, params)
            psi, _ = wavefunction(cs, system)
            image = sum(c * apply_stencil(op, st) for c, st in zip(cs.coeffs, system.iso_states))
            w, psi, image = _restricted(system.weights, psi, image)
            residual = np.sum(w * np.abs(image - z * psi) ** 2) / np.sum(w * np.abs(z * psi) ** 2)
            assert math.sqrt(residual) <= 1e-4, (system.spec, z)


def test_stencil_annihilates_ladder_bottoms(k4_system, k4_stencil):
    """Both kernel states map to numerical noise, measured against the image
    of a state the operator genuinely moves."""
    w = k4_system.weights

    def support_norm(image):
        good = np.isfinite(image)
        return float(np.sqrt(np.sum(w[good] * image[good] ** 2)))

    scale = support_norm(apply_stencil(k4_stencil, k4_system.state("iso", 1)))
    for st in (k4_system.state("iso", 0), k4_system.state("new", 0)):
        assert support_norm(apply_stencil(k4_stencil, st)) / scale < 1e-3


def test_images_are_finite_exactly_on_image_sl(k4_system, k4_stencil):
    want = np.zeros(k4_system.x.size, dtype=bool)
    want[k4_stencil.image_sl] = True
    for st in k4_system.iso_states + k4_system.new_states:
        assert np.array_equal(np.isfinite(apply_stencil(k4_stencil, st)), want)


def test_stencil_requires_contiguous_support(k4_system):
    """The noded ground-image transcendent fragments the support, leaving
    just over half of its unmasked points in one run; one more masked band
    splits that run, and the stencil must then be refused."""
    gsol = g_for_system(k4_system, "half")
    build_operator_stencil(gsol)
    lo, hi = largest_run(gsol.valid)
    g = gsol.g.copy()
    g[(lo + hi) // 2 - 5:(lo + hi) // 2 + 5] = np.nan
    with pytest.raises(InsufficientSupportError):
        build_operator_stencil(dataclasses.replace(gsol, g=g))


def _backlund_on(gsol):
    """backlund_check on a system whose two extremal states both give gsol's
    transcendent: phi = 1 with phi' = -x - g."""
    state = types.SimpleNamespace(values=np.ones(gsol.x.size), derivs=-gsol.x - gsol.g)
    system = types.SimpleNamespace(spec=SystemSpec(k=1, eps_top=-1.0, nu=0.0), x=gsol.x,
                                   potential=np.zeros(gsol.x.size),
                                   state=lambda subspace, n: state)
    return backlund_check(system)


@pytest.mark.parametrize("refuse", [build_operator_stencil, _backlund_on,
                                    lambda gsol: largest_run(gsol.valid)],
                         ids=["stencil", "backlund", "largest_run"])
def test_empty_support_is_insufficient(refuse):
    """An all-masked solution is too little support (exit 3), not a domain error."""
    x = np.linspace(-1.0, 1.0, 201)
    masked = np.zeros(x.size, dtype=bool)
    gsol = GSolution(x=x, g=np.full(x.size, np.nan), window=masked,
                     assignment=Assignment(0.5, 0.0, -1.0))
    with pytest.raises(InsufficientSupportError):
        refuse(gsol)


def test_largest_run_matches_a_scan():
    """The longest True run of random masks, the first of equal ones."""
    rng = np.random.default_rng(3)
    for _ in range(500):
        mask = rng.random(int(rng.integers(1, 40))) < rng.random()
        best, start = None, None
        for i, on in enumerate(list(mask) + [False]):
            if on and start is None:
                start = i
            elif not on and start is not None:
                if best is None or i - start > best[1] - best[0]:
                    best = (start, i)
                start = None
        if best is None:
            with pytest.raises(InsufficientSupportError):
                largest_run(mask)
        else:
            assert largest_run(mask) == best


def test_stencil_needs_assignment(k4_system):
    """h carries the assignment's a = 9.3 on top of its g terms."""
    st = build_operator_stencil(g_for_system(k4_system, "eps0"))
    g, xs = st.g, st.xs
    a = st.h - (0.5 * st.dg - 0.5 * g * g - 2.0 * xs * g - xs * xs)
    assert np.max(np.abs(a - 9.3)) < 1e-12
