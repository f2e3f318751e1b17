"""Partner-system construction: seeds, Wronskians, potential, bound states.

The independent oracle throughout is finite differencing: every analytically
constructed derivative or eigenstate is pushed through five-point stencils
and the defining ODE, so agreement is meaningful rather than circular.
"""

import math
import re

import numpy as np
import pytest
from numpy.polynomial import Hermite, Polynomial

from susyosc.errors import ConstructionError, DomainError, InvalidSpecError, SingularPotentialError
from susyosc.gridops import deriv1, deriv2, simpson_weights
from susyosc.susy import (
    GridState,
    SeedFamily,
    SystemSpec,
    _batched_det,
    build_seed_chain,
    build_system,
    oscillator_eigenstate,
    oscillator_eigenstate_pair,
    potential,
    seed_solution,
    wronskian,
)

_SL = slice(2, -2)   # five-point stencils leave two NaN bands at each end


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        SystemSpec(k=0, eps_top=-1.0, nu=0.0)
    with pytest.raises(InvalidSpecError):
        SystemSpec(k=2, eps_top=0.5, nu=0.0)       # not below E_0
    with pytest.raises(InvalidSpecError):
        SystemSpec(k=2, eps_top=-1.0, nu=1.0)      # seed develops nodes
    with pytest.raises(InvalidSpecError):
        SystemSpec(k=2, eps_top=-1.0, nu=0.0, n_points=2100)   # even grid
    with pytest.raises(InvalidSpecError):
        SystemSpec(k=2, eps_top=-1.0, nu=0.0, x_min=3.0, x_max=-3.0)


def test_spec_derived_quantities(k4_spec):
    assert np.allclose(k4_spec.energies, [-5.8, -4.8, -3.8, -2.8])
    assert k4_spec.eps0 == -5.8
    assert abs(k4_spec.e_gap - 6.3) < 1e-14
    x = k4_spec.grid()
    assert x[0] == -10.5 and x[-1] == 10.5 and x.size == 2101
    assert abs(k4_spec.h - 0.01) < 1e-15


def test_seed_solution_satisfies_its_ode():
    """u'' = (x^2 - 2 eps) u, checked with five-point finite differences."""
    x = np.linspace(-10.5, 10.5, 2101)
    h = x[1] - x[0]
    for eps, nu in ((-2.8, -0.9), (-1.0, 0.5), (0.3, 0.0)):
        u, du = seed_solution(x, eps, nu)
        u = np.asarray(u, dtype=float)
        du = np.asarray(du, dtype=float)
        scale = np.max(np.abs(du))
        assert np.nanmax(np.abs(deriv1(u, h)[_SL] - du[_SL])) / scale < 1e-4
        resid = deriv2(u, h)[_SL] - (x[_SL] ** 2 - 2.0 * eps) * u[_SL]
        assert np.nanmax(np.abs(resid)) / np.max(np.abs((x ** 2 - 2 * eps) * u)) < 1e-5


def test_seed_solution_normalization_and_parity():
    x = np.linspace(-4.0, 4.0, 801)
    u, _ = seed_solution(x, -1.7, 0.0)
    assert abs(u[400] - 1.0) < 1e-14          # u(0) = 1 by construction
    assert np.max(np.abs(u - u[::-1])) < 1e-12 * np.max(np.abs(u))   # nu = 0: even
    u, _ = seed_solution(x, -1.7, 0.4)
    odd = 0.5 * (u - u[::-1])
    assert np.max(np.abs(odd)) > 0.1          # nu != 0 mixes in the odd branch


def test_seed_solution_gamma_pole_rejected():
    # eps = 5/2 puts the even-series parameter at a Gamma pole
    with pytest.raises(DomainError):
        seed_solution(np.linspace(-1, 1, 11), 2.5, 0.3)


def test_seed_chain_energies_descend_by_one(k4_spec):
    """Each chained seed solves the oscillator-form ODE at its own energy."""
    seeds = build_seed_chain(k4_spec)
    x = np.asarray(seeds.x, dtype=float)
    h = x[1] - x[0]
    assert seeds.k == 4
    for j in range(seeds.k):
        v = np.asarray(seeds.values[j], dtype=float)
        eps = seeds.energies[j]
        resid = deriv2(v, h)[_SL] - (x[_SL] ** 2 - 2.0 * eps) * v[_SL]
        assert np.nanmax(np.abs(resid)) / np.max(np.abs((x ** 2 - 2 * eps) * v)) < 1e-5


def test_oscillator_eigenstates_orthonormal():
    x = np.linspace(-10.5, 10.5, 2101)
    w = simpson_weights(x.size, x[1] - x[0])
    psis = [oscillator_eigenstate(n, x) for n in range(9)]
    gram = np.array([[np.sum(w * a * b) for b in psis] for a in psis])
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_oscillator_eigenstate_closed_forms():
    x = np.linspace(-3.0, 3.0, 601)
    psi0 = math.pi ** (-0.25) * np.exp(-x * x / 2.0)
    psi1 = math.pi ** (-0.25) * math.sqrt(2.0) * x * np.exp(-x * x / 2.0)
    assert np.max(np.abs(oscillator_eigenstate(0, x) - psi0)) < 1e-14
    assert np.max(np.abs(oscillator_eigenstate(1, x) - psi1)) < 1e-14
    with pytest.raises(DomainError):
        oscillator_eigenstate(-1, x)


def test_oscillator_pair_derivative_matches_fd():
    x = np.linspace(-10.5, 10.5, 2101)
    h = x[1] - x[0]
    psi, dpsi = oscillator_eigenstate_pair(5, x)
    assert np.nanmax(np.abs(deriv1(psi, h)[_SL] - dpsi[_SL])) < 1e-6


def test_batched_det_matches_lapack():
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(40, 5, 5)) + 3.0 * np.eye(5)
    got = np.asarray(_batched_det(mats.astype(np.longdouble)), dtype=float)
    want = np.linalg.det(mats)
    assert np.max(np.abs(got / want - 1.0)) < 1e-12


def test_batched_det_handles_pivoting():
    # leading zero forces a row swap in the elimination path
    m = np.array([[[0.0, 2.0], [3.0, 1.0]]], dtype=np.longdouble)
    assert float(_batched_det(m)[0]) == -6.0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_laplace_numerator_matches_full_determinant(k):
    """Iso numerator and its derivative: cofactor expansion vs elimination.

    The shared table expands W(u_0..u_{k-1}, psi_n) along the psi_n column;
    the direct route eliminates the whole (k+1)x(k+1) row matrix.
    """
    table = build_seed_chain(SystemSpec(k=k, eps_top=-1.7, nu=0.4))._table
    for n in (12, 0, 3, 31):
        full = np.concatenate([table.rows, table.psi_rows(n)[:, None]], axis=1)
        numer_rows, dnumer_rows = list(range(k + 1)), list(range(k)) + [k + 1]
        for got, rows in zip(table.iso_numerator(n), (numer_rows, dnumer_rows)):
            want = _batched_det(np.moveaxis(full[rows], 2, 0))
            assert float(np.max(np.abs(got - want)) / np.max(np.abs(want))) < 1e-12


def test_psi_rows_match_hermite_closed_form():
    """psi_n^(m), m <= 6: Leibniz rows vs differentiating H_n(x) e^{-x^2/2}.

    Each derivative maps the polynomial prefactor P to P' - x P. Levels go
    down as well as up, so the table's psi ladder restarts on the way.
    """
    seeds = build_seed_chain(SystemSpec(k=5, eps_top=-1.7, nu=0.4))
    x = np.asarray(seeds.x, dtype=float)
    inner = np.abs(x) <= 6.0
    gauss = np.exp(-x[inner] ** 2 / 2.0)
    for n in (9, 0, 16, 4, 1):
        rows = np.asarray(seeds._table.psi_rows(n), dtype=float)
        assert rows.shape[0] == 7
        prefactor = Hermite.basis(n).convert(kind=Polynomial) \
            / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        for m in range(7):
            want = prefactor(x[inner]) * gauss
            scale = np.max(np.abs(want))
            assert np.max(np.abs(rows[m][inner] - want)) < 1e-12 * scale
            prefactor = prefactor.deriv() - Polynomial([0.0, 1.0]) * prefactor


def test_wronskian_order_one_is_the_seed(k1_spec):
    seeds = build_seed_chain(k1_spec)
    w = wronskian(seeds)
    assert np.array_equal(w, np.asarray(seeds.values[0], dtype=float))


def test_potential_order_one_closed_form(k1_spec):
    """V = (u'/u)^2 - x^2/2 + 2 eps for a single seed, straight from the ODE."""
    seeds = build_seed_chain(k1_spec)
    x = np.asarray(seeds.x, dtype=float)
    u = np.asarray(seeds.values[0], dtype=float)
    du = np.asarray(seeds.derivs[0], dtype=float)
    closed = (du / u) ** 2 - x * x / 2.0 + 2.0 * k1_spec.eps0
    assert np.max(np.abs(potential(seeds) - closed)) < 1e-10


def test_potential_tail_constant(k4_spec, k1_spec):
    """(V - x^2/2 + k) x^2 tends to -sum(eps_j) - k^2/2.

    The approach is O(1/x^2), so two sample points and one Richardson step
    recover the constant to much better than either sample alone.
    """
    for spec in (k4_spec, k1_spec, SystemSpec(k=2, eps_top=-0.4, nu=0.2)):
        seeds = build_seed_chain(spec)
        v = potential(seeds)
        x = np.asarray(seeds.x, dtype=float)
        tail = lambda xv: float(((v - x * x / 2.0 + spec.k) * x * x)[np.argmin(np.abs(x - xv))])
        a, b = 8.0, 9.5
        extrap = (tail(b) * b * b - tail(a) * a * a) / (b * b - a * a)
        want = -float(np.sum(spec.energies)) - spec.k ** 2 / 2.0
        assert abs(extrap - want) < 1e-2 * max(1.0, abs(want))


def test_potential_rejects_singular_wronskian():
    x = np.linspace(-2.0, 2.0, 401)
    fake = SeedFamily(x=x, energies=np.array([0.0]),
                      values=x[None, :].copy(), derivs=np.ones((1, x.size)))
    with pytest.raises(SingularPotentialError):
        potential(fake)


def test_system_energy_bookkeeping(k4_system):
    for n, st in enumerate(k4_system.iso_states):
        assert st.energy == n + 0.5
        assert st.subspace == "iso"
    assert [st.energy for st in k4_system.new_states] == [-5.8, -4.8, -3.8, -2.8]
    assert len(k4_system.all_states) == len(k4_system.iso_states) + 4


def test_system_orthonormality(k4_system):
    states = k4_system.all_states[:16]
    gram = np.array([[k4_system.inner(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(len(states)))) < 1e-6


def test_system_hamiltonian_residuals(k1_system):
    for st in k1_system.all_states[:8]:
        assert k1_system.residual(st) < 1e-4


def test_state_check_columns(k4_system):
    """Iso states carry the closed-form norm check, new states the ODE check."""
    for st in k4_system.iso_states[:4]:
        assert st.norm_agreement < 1e-6
        assert math.isnan(st.residual_check)
    for st in k4_system.new_states:
        assert st.residual_check < 1e-4
        assert math.isnan(st.norm_agreement)


def test_state_lookup(k4_system):
    st = k4_system.state("new", 2)
    assert st.energy == -3.8
    with pytest.raises(DomainError):
        k4_system.state("iso", 999)


def test_states_vanish_at_grid_edges(k4_system):
    for st in (k4_system.state("iso", 0), k4_system.state("new", 0)):
        edge = max(abs(st.values[0]), abs(st.values[-1]))
        assert edge < 1e-8 * np.max(np.abs(st.values))


@pytest.mark.parametrize("k, eps_top, nu, n_max, failing_n", [
    (6, -2.8, -0.9, 32, 30),
    (8, -5.0, 0.2, 16, 8),
])
def test_iso_norm_gate_refuses_out_of_envelope(k, eps_top, nu, n_max, failing_n):
    """Past the envelope the build stops at the first state over the gate.

    The refusal names the level and the measured disagreement, so the
    caller learns what failed and by how much.
    """
    with pytest.raises(ConstructionError) as info:
        build_system(SystemSpec(k=k, eps_top=eps_top, nu=nu), n_max=n_max)
    found = re.search(r"iso state n=(\d+): .* by ([0-9.eE+-]+)$", str(info.value))
    assert found is not None, str(info.value)
    assert int(found.group(1)) == failing_n
    assert float(found.group(2)) > 1e-6


def test_build_system_rejects_negative_cap(k1_spec):
    with pytest.raises(InvalidSpecError):
        build_system(k1_spec, n_max=-1)


def test_symmetric_spec_gives_even_potential():
    spec = SystemSpec(k=1, eps_top=-1.0, nu=0.0)
    seeds = build_seed_chain(spec)
    v = potential(seeds)
    assert np.max(np.abs(v - v[::-1])) < 1e-10
