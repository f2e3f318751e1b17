"""Partner-system construction: seeds, Wronskians, potential, bound states.

The independent oracle throughout is finite differencing: every analytically
constructed derivative or eigenstate is pushed through five-point stencils
and the defining ODE, so agreement is meaningful rather than circular.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Hermite, Polynomial

from susyosc import susy
from susyosc.errors import ConstructionError, DomainError, InvalidSpecError, SingularPotentialError
from susyosc.gridops import deriv1, deriv2, simpson_weights
from susyosc.ladder import LadderCoeffs
from susyosc.specfun import gamma_fn
from susyosc.susy import (
    GridState,
    SeedFamily,
    SystemSpec,
    _batched_det,
    _last_column_cofactors,
    _lu_solve,
    _oscillator_ladder,
    _row_table,
    build_seed_chain,
    build_system,
    potential,
    seed_solution,
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


def test_spec_refuses_non_finite_fields_by_name():
    for field, value in (("eps_top", -math.inf), ("nu", math.nan),
                         ("x_min", -math.inf), ("x_max", math.inf), ("x_max", math.nan)):
        fields = dict(k=2, eps_top=-1.0, nu=0.0)
        fields[field] = value
        with pytest.raises(InvalidSpecError, match="^%s must be finite" % field):
            SystemSpec(**fields)


@pytest.mark.parametrize("value", [False, True, np.bool_(False), "-1.0", None, 0.5j],
                         ids=repr)
@pytest.mark.parametrize("field", ["eps_top", "nu", "x_min", "x_max"])
def test_spec_refuses_non_numbers_by_name(field, value):
    """false == 0.0 in Python, so without the type test nu=False would build
    a system; each field is refused by name before the finiteness test."""
    fields = dict(k=2, eps_top=-1.3, nu=0.3)
    fields[field] = value
    with pytest.raises(InvalidSpecError, match="^%s must be a number, got " % field):
        SystemSpec(**fields)


@pytest.mark.parametrize("field", ["eps_top", "nu", "x_min", "x_max"])
def test_spec_refuses_an_integer_past_the_float_range_by_name(field):
    # float() of such an integer overflows; the refusal names the field
    fields = dict(k=2, eps_top=-1.3, nu=0.3)
    fields[field] = -10 ** 400 if field == "x_min" else 10 ** 400
    with pytest.raises(InvalidSpecError, match="^%s must be finite, got an integer of 1329 "
                       "bits$" % field):
        SystemSpec(**fields)


def test_spec_takes_python_and_numpy_reals_as_floats():
    # float32 bounds whose width passes the float32 range make a float64 grid
    spec = SystemSpec(k=2, eps_top=np.float32(-1.5), nu=0, x_min=np.float32(-3e38),
                      x_max=np.longdouble(3e38))
    fields = (spec.eps_top, spec.nu, spec.x_min, spec.x_max)
    assert fields == (-1.5, 0.0, float(np.float32(-3e38)), 3e38)
    assert all(type(value) is float for value in fields)
    assert SystemSpec(k=2, eps_top=-1, nu=0.5, x_min=np.int64(-10), x_max=10).grid()[0] == -10.0


@pytest.mark.parametrize("x_min, x_max", [(-1e308, 1e308), (1e308, 1.7e308), (-1.7e308, -1e308)])
def test_spec_refuses_an_overflowing_grid_by_name(x_min, x_max):
    """x_max - x_min or x_min + x_max past the float range would make grid()
    and h infinite; the spec is refused naming x_max before any grid exists
    (warnings are errors here)."""
    want = "^grid overflows: .* x_max=%s$" % re.escape("%g" % x_max)
    with pytest.raises(InvalidSpecError, match=want):
        SystemSpec(k=2, eps_top=-1.3, nu=0.3, x_min=x_min, x_max=x_max)


@pytest.mark.parametrize("field, value", [
    ("n_points", 2101.0), ("n_points", 2101.5), ("n_points", True), ("k", True), ("k", 2.0)])
def test_spec_refuses_non_integer_sizes_by_name(field, value):
    fields = dict(k=2, eps_top=-1.0, nu=0.0)
    fields[field] = value
    with pytest.raises(InvalidSpecError, match="^%s must be" % field):
        SystemSpec(**fields)


def test_build_system_refuses_non_integer_cap(k1_spec):
    for n_max in (2.5, 2.0, True):
        with pytest.raises(InvalidSpecError, match="^n_max must be a non-negative integer"):
            build_system(k1_spec, n_max=n_max)
    with pytest.raises(InvalidSpecError, match="^k must be"):
        LadderCoeffs(gap=1.5, k=True)
    # numpy integers are sizes too
    assert SystemSpec(k=np.int64(2), eps_top=-1.0, nu=0.0, n_points=np.int32(401)).k == 2


def test_seed_solution_refuses_non_finite_parameters():
    for eps, nu, message in ((math.inf, 0.0, "eps must be finite, got inf"),
                             (-math.inf, 0.0, "eps must be finite, got -inf"),
                             (-1.0, math.nan, "nu must be finite, got nan")):
        with pytest.raises(DomainError, match="^seed_solution %s$" % message):
            seed_solution(np.zeros(3), eps, nu)


@pytest.mark.parametrize("x", [np.array([True, False]), [0.5 + 1j], "0.5"],
                         ids=["bool", "complex", "string"])
def test_seed_solution_refuses_a_grid_that_is_not_real(x):
    # a bool grid would be summed as 0/1, a complex one cut to its real part
    # and a string parsed; each is refused by name instead
    with pytest.raises(DomainError, match="^seed_solution needs a real x, got "):
        seed_solution(x, -1.0, 0.3)


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


def _oscillator_pair(n, x):
    """(psi_n, psi_n') from the ladder the iso states are built on."""
    return next(itertools.islice(_oscillator_ladder(x), n, None))


def _rows(seeds):
    """The family's whole row table, u_j^(m) for m = 0..k+1, which it does not keep."""
    return _row_table(seeds.values, seeds.derivs, seeds.energies, seeds.x, seeds.k + 2)


def test_oscillator_eigenstates_orthonormal():
    x = np.linspace(-10.5, 10.5, 2101)
    w = simpson_weights(x.size, x[1] - x[0])
    psis = [psi for psi, _ in itertools.islice(_oscillator_ladder(x), 9)]
    gram = np.array([[np.sum(w * a * b) for b in psis] for a in psis])
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_oscillator_eigenstate_closed_forms():
    x = np.linspace(-3.0, 3.0, 601)
    psi0 = math.pi ** (-0.25) * np.exp(-x * x / 2.0)
    psi1 = math.pi ** (-0.25) * math.sqrt(2.0) * x * np.exp(-x * x / 2.0)
    assert np.max(np.abs(_oscillator_pair(0, x)[0] - psi0)) < 1e-14
    assert np.max(np.abs(_oscillator_pair(1, x)[0] - psi1)) < 1e-14


def _level_entry_points(system):
    return {"SusySystem.state": lambda n: system.state("iso", n)}


@pytest.mark.parametrize("entry", ["SusySystem.state"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, 2.0, -1], ids=repr)
def test_levels_refuse_non_integers_by_name(k1_system, entry, bad):
    """The level rule of ladder's entry points holds for the states too."""
    with pytest.raises(DomainError, match="level must be a non-negative integer"):
        _level_entry_points(k1_system)[entry](bad)


def test_levels_accept_numpy_integers(k1_system):
    for call in _level_entry_points(k1_system).values():
        got, want = call(np.int64(3)), call(3)
        assert isinstance(got, GridState) and got is want
        assert got.index == 3 and type(got.index) is int


def test_oscillator_pair_derivative_matches_fd():
    x = np.linspace(-10.5, 10.5, 2101)
    h = x[1] - x[0]
    psi, dpsi = _oscillator_pair(5, x)
    assert np.nanmax(np.abs(deriv1(psi, h)[_SL] - dpsi[_SL])) < 1e-6


@pytest.mark.parametrize("r", range(1, 8))
def test_batched_det_matches_lapack(r):
    # stacks are points-last, (r, r, n_points), as the row table slices them;
    # r = 1..7 covers both parities of the row reversal's sign (-1)^(r // 2)
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(40, r, r)) + 3.0 * np.eye(r)
    stack = np.moveaxis(mats, 0, -1)
    got = np.asarray(_batched_det(stack.astype(np.longdouble))[0], dtype=float)
    want = np.linalg.det(mats)
    assert np.max(np.abs(got / want - 1.0)) < 1e-12


def test_batched_det_handles_pivoting():
    # a leading zero forces a row swap in the elimination path, at some
    # points of the stack and not at others
    m = np.array([[[0.0, 2.0], [3.0, 1.0]]], dtype=np.longdouble)
    assert float(_batched_det(np.moveaxis(m, 0, -1))[0][0]) == -6.0
    mats = np.array([[[0.0, 2.0, 1.0], [3.0, 1.0, 4.0], [1.0, 5.0, 9.0]],
                     [[2.0, 7.0, 1.0], [8.0, 2.0, 8.0], [1.0, 8.0, 2.0]],
                     [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]])
    got = _batched_det(np.moveaxis(mats, 0, -1).astype(np.longdouble))[0]
    assert np.max(np.abs(np.asarray(got, dtype=float) - np.linalg.det(mats))) < 1e-12


def _pointwise_elimination(mat):
    """The reference for _batched_det's sign bookkeeping: partial pivoting
    point by point on the rows in their given order, the first maximum on
    ties. Returns the sign of the swaps times the pivots (times the last
    diagonal entry when square) and the row order, as _batched_det does."""
    r, cols, n = mat.shape
    dets, perms = [], []
    for i in range(n):
        a, order, det = mat[:, :, i].copy(), list(range(r)), mat.dtype.type(1.0)
        for c in range(min(r - 1, cols)):
            p = c + int(np.argmax(np.abs(a[c:, c])))
            if p != c:
                a[[c, p]] = a[[p, c]]
                order[c], order[p] = order[p], order[c]
                det = -det
            det = det * a[c, c]
            a[c + 1:, c] /= a[c, c]
            for row in range(c + 1, r):
                a[row, c + 1:] -= a[row, c] * a[c, c + 1:]
        dets.append(det * a[r - 1, r - 1] if r == cols else det)
        perms.append(order)
    return np.array(dets, dtype=mat.dtype), np.array(perms).T


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_batched_det_keeps_the_pivots_of_the_given_row_order(k):
    """Rows 0..k of a seed table, (k + 1) x k, at the points where the last
    (highest-derivative) row is the first pivot, so step 0 swaps nothing
    after the entry reversal and the sign comes from the reversal alone:
    the sign and the row order must be those of pivoting the rows in their
    given order."""
    rows = _rows(build_seed_chain(SystemSpec(k=k, eps_top=-2.8, nu=-0.9)))[:k + 1]
    last_first = np.flatnonzero(np.argmax(np.abs(rows[:, 0]), axis=0) == k)
    assert last_first.size > 0.9 * rows.shape[-1]
    stack = rows[..., last_first[::10]]
    det, _, perm = _batched_det(stack)
    want_det, want_perm = _pointwise_elimination(stack)
    assert np.array_equal(perm, want_perm)
    assert np.array_equal(det, want_det)


def _stack_with_and_without_swaps(r, n_points, seed):
    """(n_points, r, r) matrices: the first half diagonally dominant, so
    partial pivoting keeps every row; the second half the same matrices
    with their rows reversed, so it swaps."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n_points, r, r)) + 10.0 * np.eye(r)
    mats[n_points // 2:] = mats[n_points // 2:, ::-1]
    return mats


def _assert_swaps_at_half_the_points(perm):
    kept = np.all(perm == np.arange(len(perm))[:, None], axis=0)
    half = kept.size // 2
    assert kept[:half].all() and not kept[half:].any()


def test_lu_solve_matches_lapack():
    """A^-1 rhs from the shared elimination's factors vs np.linalg.solve."""
    for r in (1, 3, 6):
        mats = _stack_with_and_without_swaps(r, 40, seed=r)
        _, lu, perm = _batched_det(np.moveaxis(mats, 0, -1).astype(np.longdouble))
        if r > 1:
            _assert_swaps_at_half_the_points(perm)
        rhs = np.random.default_rng(r + 10).normal(size=(r, 2))
        got = np.moveaxis(np.asarray(_lu_solve(lu, perm, rhs), dtype=float), -1, 0)
        want = np.linalg.solve(mats, np.broadcast_to(rhs, mats.shape[:1] + rhs.shape))
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_last_column_cofactors_match_full_determinant():
    """The Schur row c of B, (r, r - 1): c . v vs np.linalg.det([B | v])."""
    for r in (2, 4, 6):
        mats = _stack_with_and_without_swaps(r, 40, seed=r)
        stack = np.moveaxis(mats, 0, -1).astype(np.longdouble)
        _assert_swaps_at_half_the_points(_batched_det(stack[:, :r - 1])[2])
        cof = np.asarray(_last_column_cofactors(stack[:, :r - 1]), dtype=float)
        got = np.sum(cof * np.moveaxis(mats[:, :, r - 1], 0, -1), axis=0)
        want = np.linalg.det(mats)
        assert np.max(np.abs(got / want - 1.0)) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_new_state_ratios_match_minors(k):
    """numerator/W of new state j and its derivative from A^-1 vs (k-1)-column
    minors of the seed rows (the determinant route), and the table's W, bit
    for bit, from the elimination of the seed rows alone."""
    table = build_seed_chain(SystemSpec(k=k, eps_top=-1.7, nu=0.4))
    rows = _rows(table)
    assert np.array_equal(table.w, _batched_det(rows[:k])[0])
    for j in range(k):
        cols = [c for c in range(k) if c != j]
        if k == 1:   # the empty minor is 1
            numer, dnumer = 1.0, 0.0
        else:
            numer = _batched_det(rows[np.ix_(range(k - 1), cols)])[0]
            dnumer = _batched_det(rows[np.ix_(list(range(k - 2)) + [k - 1], cols)])[0]
        for got, want in zip((table.new_ratios[0][j], table.new_ratios[1][j]),
                             (numer / table.w, dnumer / table.w)):
            # for k = 1 the derivative is 0 on both routes
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _block_count(k, n_points):
    return -(-n_points // (susy._BLOCK_VALUES // ((k + 2) * k)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_row_table_runs_three_eliminations(k, monkeypatch):
    """Building the chain eliminates, on each block of points, the seed
    block, then the iso numerator's and its derivative's row sets: W'/W and
    W''/W are read off the cofactors, so no row set of W' or W'' is
    eliminated on its own. The default grid is one block up to k 4, two at k 5."""
    calls = []

    def counted(mat):
        calls.append(mat.shape[:2])
        return _batched_det(mat)

    monkeypatch.setattr(susy, "_batched_det", counted)
    build_seed_chain(SystemSpec(k=k, eps_top=-1.7, nu=0.4))
    blocks = _block_count(k, susy.DEFAULT_N_POINTS)
    assert blocks == (2 if k == 5 else 1)
    assert calls == [(k, k), (k + 1, k), (k + 1, k)] * blocks


@pytest.mark.parametrize("k, n_points, blocks", [(5, 8401, 5), (8, 8401, 11), (8, 1639, 3)])
def test_blocked_family_matches_whole_grid_eliminations(k, n_points, blocks):
    """W, the new-state ratios and cof, built one block of points at a time,
    equal bit for bit _batched_det, _lu_solve and _last_column_cofactors run
    on the whole row table, recomputed by _row_table. Every elimination step is
    per point; the blocks are of near-equal size, because on 1639 points at
    k 8 (two blocks of at most 819 and one point) a one-point block would
    sum the cofactors' terms in another order and move two of them."""
    spec = SystemSpec(k=k, eps_top=-1.45, nu=0.5, x_min=-12.5, x_max=12.5, n_points=n_points)
    assert _block_count(k, n_points) == blocks
    seeds = build_seed_chain(spec)
    rows = _rows(seeds)
    w, lu, perm = _batched_det(rows[:k])
    y = _lu_solve(lu, perm, np.eye(k, 2, 2 - k))
    sign = (-1.0) ** (k - 1 + np.arange(k))[:, None]
    cof = np.zeros_like(seeds.cof)
    for d in (0, 1):
        at = list(range(k)) + [k + d]
        cof[d, at] = _last_column_cofactors(rows[at]) / w
    for got, want in ((seeds.w, w), (seeds.new_ratios[0], sign * y[:, 1]),
                      (seeds.new_ratios[1], -sign * y[:, 0]), (seeds.cof, cof)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_seed_family_never_holds_the_whole_row_table():
    """build_seed_chain's traced peak at k 8 on 8401 points stays below what
    the family keeps plus half the (k + 2) x k x n_points row table. The
    blocks' transients are about a seventh of that table, 1.4 MB over the
    8.7 MB kept (10.1 MB at peak); a build that holds the 10.75 MB table
    whole beside the outputs it fills goes over it (the whole-grid build
    peaked at 44.2 MB, with two copies of a (k + 1) x k stack as well)."""
    spec = SystemSpec(k=8, eps_top=-1.45, nu=0.5, x_min=-12.5, x_max=12.5, n_points=8401)
    tracemalloc.start()
    try:
        seeds = build_seed_chain(spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = _rows(seeds).nbytes
    assert peak < kept + table / 2, (peak, kept, table)


def test_row_table_is_held_once():
    """_row_table's traced peak at k 8 on 8401 points stays below 1.5x the
    table it returns: the table, q ((k, n_points), a tenth of it) and two
    row temporaries (a tenth each) make about 1.3x. A routine that keeps
    its rows in a list of its own and copies them into the table holds them
    twice (2.01x); this one reads 1.21x."""
    spec = SystemSpec(k=8, eps_top=-1.45, nu=0.5, x_min=-12.5, x_max=12.5, n_points=8401)
    seeds = build_seed_chain(spec)
    tracemalloc.start()
    try:
        table = _rows(seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.nbytes, (peak, table.nbytes)


@pytest.mark.parametrize("k, eps_top, nu", [(3, -2.5, 0.3), (5, -1.45, 0.5)])
def test_ratios_match_exact_arithmetic(k, eps_top, nu):
    """Iso ratio and derivative, new-state ratios, W'/W and (ln W)'' vs
    80-digit mpmath.

    The reference is rebuilt exactly from the table's own long-double rows
    and the float64 psi_n, psi_n' of its iso ladder at every 50th grid
    point, so this pins the rounding of the route alone, not the error the
    seed entries carry in. Each bound is
    about 4x the worst figure both this route and the earlier one of
    separate determinants read at k 5 (iso n = 31 2.3e-12 and its derivative
    2.1e-11 relative to their maxima, new states 1.2e-15 and 1.3e-15; W'/W,
    -cof[0, k-1], 1.1e-11 and (ln W)'' 6.9e-9 relative to max(1, |.|); all
    in the tails, where the seed block is worst conditioned), so a route
    that loses a digit fails.
    """
    mpmath = pytest.importorskip("mpmath")
    seeds = build_seed_chain(SystemSpec(k=k, eps_top=eps_top, nu=nu))
    x, table = seeds.x, _rows(seeds)
    lnw2 = x * x / 2.0 - potential(seeds)

    def mp(v):
        num, den = np.longdouble(v).as_integer_ratio()
        return mpmath.mpf(num) / den

    def det(rows, i, extra=None):
        return mpmath.det(mpmath.matrix(
            [[mp(table[m, c, i]) for c in range(k)] + ([extra[m]] if extra else [])
             for m in rows]))

    dlog_w = -seeds.cof[0, k - 1]
    worst = {"iso": 0.0, "diso": 0.0, "new": 0.0, "dlog_w": 0.0, "lnw2": 0.0}
    pairs = {n: _oscillator_pair(n, seeds.x64) for n in (0, 12, 31)}
    iso = {n: (seeds._iso_ratio(n, *pair), pair) for n, pair in pairs.items()}
    with mpmath.workdps(80):
        for i in range(0, x.size, 50):
            w = det(range(k), i)
            dw = det(list(range(k - 1)) + [k], i)
            d2w = det(list(range(k - 1)) + [k + 1], i) \
                + (det(list(range(k - 2)) + [k - 1, k], i) if k > 1 else 0)
            want = dw / w
            worst["dlog_w"] = max(worst["dlog_w"],
                                  float(abs(mp(dlog_w[i]) - want) / max(1, abs(want))))
            want = d2w / w - (dw / w) ** 2
            worst["lnw2"] = max(worst["lnw2"], float(abs(mp(lnw2[i]) - want) / max(1, abs(want))))
            for j in range(k):
                sub = [[mp(table[m, c, i]) for c in range(k) if c != j] for m in range(k - 1)]
                want = (mpmath.det(mpmath.matrix(sub)) if k > 1 else 1) / w
                got = seeds.new_ratios[0][j]
                worst["new"] = max(worst["new"], float(abs(mp(got[i]) - want)) / np.max(np.abs(got)))
            for n, ((got, dgot), (psi, dpsi)) in iso.items():
                xi, q = mp(x[i]), mp(x[i]) ** 2 - (2 * n + 1)
                col = [mp(psi[i]), mp(dpsi[i])]
                for m in range(k):
                    col.append(q * col[m] + 2 * m * xi * (col[m - 1] if m else 0)
                               + m * (m - 1) * (col[m - 2] if m > 1 else 0))
                ratio = det(range(k + 1), i, col) / w
                dratio = det(list(range(k)) + [k + 1], i, col) / w - dw / w * ratio
                worst["iso"] = max(worst["iso"], float(abs(mp(got[i]) - ratio)) / np.max(np.abs(got)))
                worst["diso"] = max(worst["diso"],
                                    float(abs(mp(dgot[i]) - dratio)) / np.max(np.abs(dgot)))
    bounds = {"iso": 1e-11, "diso": 1e-10, "new": 5e-15, "dlog_w": 5e-11, "lnw2": 3e-8}
    assert all(worst[key] < bounds[key] for key in bounds), worst


@pytest.mark.parametrize("k, eps_top, nu, bound, bulk_bound", [
    (1, -1.0, 0.5, 3e-12, 5e-14),
    (3, -2.1, -0.4, 1.5e-8, 1.5e-10),
    (4, -2.8, -0.9, 1e-5, 1.5e-8),
    (5, -1.45, 0.5, 3e-4, 1e-8),
], ids=["k1", "k3", "readme", "k5"])
def test_potential_matches_hankel_tau_functions(k, eps_top, nu, bound, bulk_bound):
    """The built potential against 40-digit Hankel tau functions at every
    50th grid point.

    With u_top = e^{-x^2/2} F, the chain's Wronskian is a constant times
    e^{-k x^2/2} tau_k, tau_k = det[F^(i+j)], i, j < k, so V = x^2/2 - (ln W)'' = x^2/2 + k -
    tau_{k+1} tau_{k-1} / tau_k^2 (tau_0 = 1, Jacobi's identity). F and F'
    are mpmath's 1F1 in seed_solution's form; u'' = (x^2 - 2 eps) u gives
    F^(m+2) = 2x F^(m+1) + (2m + 1 - 2 eps_top) F^(m). The reference shares
    the package's float64 a1 and c_nu (from gamma_fn), with a3 = a1 + 1/2
    exact, so it pins the Wronskian route, not the rounding of (eps_top,
    nu). Each bound is about 4x the worst figure read with x86 long double,
    over the grid
    (7.2e-13, 3.7e-9, 2.5e-6, 7.1e-5: the far tails, where the long-double
    seed block cancels most and grows with k) and over |x| <= 4 (1.1e-14,
    3.9e-11, 3.5e-9, 2.2e-9), so a route that loses a digit fails.
    """
    mpmath = pytest.importorskip("mpmath")
    spec = SystemSpec(k=k, eps_top=eps_top, nu=nu)
    system = build_system(spec, n_max=0)
    x = system.x[::50]
    a1 = (1.0 - 2.0 * eps_top) / 4.0
    c_nu = 2.0 * nu * gamma_fn(a1 + 0.5) / gamma_fn(a1)
    want = []
    with mpmath.workdps(40):
        a1, c_nu, eps = mpmath.mpf(a1), mpmath.mpf(c_nu), mpmath.mpf(eps_top)
        a3 = a1 + mpmath.mpf(1) / 2
        for xi in x.tolist():
            xi = mpmath.mpf(xi)
            w = xi * xi
            m3 = mpmath.hyp1f1(a3, 1.5, w)
            f = [mpmath.hyp1f1(a1, 0.5, w) + c_nu * xi * m3,
                 4 * a1 * xi * mpmath.hyp1f1(a1 + 1, 1.5, w)
                 + c_nu * (m3 + w * 4 * a3 / 3 * mpmath.hyp1f1(a3 + 1, 2.5, w))]
            for m in range(2 * k - 1):
                f.append(2 * xi * f[m + 1] + (2 * m + 1 - 2 * eps) * f[m])
            tau = [mpmath.det(mpmath.matrix([[f[i + j] for j in range(n)] for i in range(n)]))
                   if n else 1 for n in (k - 1, k, k + 1)]
            want.append(float(w / 2 + k - tau[2] * tau[0] / tau[1] ** 2))
    miss = np.abs(np.asarray(system.potential, dtype=float)[::50] - np.array(want))
    assert x.size == 43
    assert miss.max() < bound and miss[np.abs(x) <= 4.0].max() < bulk_bound, \
        (miss.max(), miss[np.abs(x) <= 4.0].max())


def _iso_by_full_elimination(seeds, levels):
    """(numerator/W, its derivative) of each iso level, in long double: the
    seeds' Leibniz rows with psi_n's stacked beside them, the whole
    (k+1)x(k+1) matrix eliminated, psi_n from the long-double ladder.

    W'/W is the table's long-double -cof[0, k-1], the one route the package
    has; test_ratios_match_exact_arithmetic pins it to exact arithmetic. A
    separate W' determinant reads as close to exact (1.10e-11 at k 5), but
    the iso derivatives it gives differ from the cofactor's by up to 4.6e-12
    of their maximum, so it would pin the two routes' rounding difference,
    not the float64 cast."""
    k, x = seeds.k, seeds.x
    rows = _rows(seeds)
    w = _batched_det(rows[:k])[0]
    dlog_w = -seeds.cof[0, k - 1]
    psis = list(itertools.islice(_oscillator_ladder(x), max(levels) + 1))
    for n in levels:
        psi, dpsi = psis[n]
        psi_rows = _row_table(psi[None], dpsi[None], [n + 0.5], x, k + 2)
        full = np.concatenate([rows, psi_rows], axis=1)
        numer = _batched_det(full[:k + 1])[0]
        dnumer = _batched_det(full[list(range(k)) + [k + 1]])[0]
        yield numer / w, dnumer / w - dlog_w * (numer / w)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_laplace_numerator_matches_full_determinant(k):
    """Iso ratio and its derivative: Laplace expansion vs elimination.

    The shared table sums psi_n's Leibniz rows against the cofactors along
    the psi_n column over W; the direct route stacks those rows beside the
    seeds' and eliminates the whole (k+1)x(k+1) matrix.
    """
    seeds = build_seed_chain(SystemSpec(k=k, eps_top=-1.7, nu=0.4))
    levels = (12, 0, 3, 31)
    for n, want in zip(levels, _iso_by_full_elimination(seeds, levels)):
        for got, ref in zip(seeds._iso_ratio(n, *_oscillator_pair(n, seeds.x64)), want):
            assert float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))) < 1e-12


_PIN_SPECS = [(1, -1.0, 0.5), (2, -1.3, 0.3), (3, -2.1, -0.4), (4, -2.8, -0.9),
              (5, -4.2, 0.6), (5, -1.45, 0.5)]


@pytest.mark.parametrize("x_max, n_points", [(10.5, 2101), (12.5, 4201)])
@pytest.mark.parametrize("k, eps_top, nu", _PIN_SPECS)
def test_float64_iso_ladder_matches_long_double_elimination(k, eps_top, nu, x_max, n_points):
    """The iso ladder's one cast to float64 costs float64 rounding, no more.

    The table forms its cofactors and W'/W in long double and rounds them
    once; the psi_n ladder, its Leibniz rows and the cofactor sums run in
    float64. Against the long-double full elimination, every level n <= 32
    reads at most 4.5e-15 (values) and 5.6e-15 (derivatives) of its
    maximum, and n = 0 at most 8.9e-14 pointwise where phi_0 is at least
    1e-8 of its maximum (k 5 on 4201 points); the bounds are 3.5x to 4.5x
    those. The long double that matters sits in the eliminations: run in
    float64, they fail this pin.
    """
    seeds = build_seed_chain(SystemSpec(k=k, eps_top=eps_top, nu=nu, x_min=-x_max,
                                        x_max=x_max, n_points=n_points))
    for n, want in enumerate(_iso_by_full_elimination(seeds, range(33))):
        got = seeds._iso_ratio(n, *_oscillator_pair(n, seeds.x64))
        for g, ref in zip(got, want):
            assert g.dtype == np.float64
            assert np.max(np.abs(g - ref)) < 2e-14 * np.max(np.abs(ref)), n
        if n == 0:
            ref = np.abs(want[0])
            held = ref >= 1e-8 * np.max(ref)
            assert np.max(np.abs(got[0] - want[0])[held] / ref[held]) < 4e-13


def test_psi_rows_match_hermite_closed_form():
    """_row_table on psi_n, m <= 6, vs differentiating H_n(x) e^{-x^2/2}.

    These are the rows each iso level sums against the cofactors, in
    float64; each derivative of the closed form maps its polynomial
    prefactor P to P' - x P.
    """
    x = np.linspace(-6.0, 6.0, 1201)
    gauss = np.exp(-x ** 2 / 2.0)
    for n in (9, 0, 16, 4, 1):
        psi, dpsi = _oscillator_pair(n, x)
        prefactor = Hermite.basis(n).convert(kind=Polynomial) \
            / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        rows = _row_table(psi, dpsi, n + 0.5, x, 7)
        assert len(rows) == 7 and np.array_equal(rows[0], psi) and np.array_equal(rows[1], dpsi)
        for got in rows:
            want = prefactor(x) * gauss
            assert got.dtype == np.float64
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
            prefactor = prefactor.deriv() - Polynomial([0.0, 1.0]) * prefactor


def test_wronskian_order_one_is_the_seed(k1_spec):
    seeds = build_seed_chain(k1_spec)
    assert np.array_equal(seeds.w, seeds.values[0])


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
    with pytest.raises(SingularPotentialError):
        fake = SeedFamily(x=x, energies=np.array([0.0]),
                          values=x[None, :].copy(), derivs=np.ones((1, x.size)))
        potential(fake)


@pytest.mark.parametrize("entry", [potential], ids=["potential"])
def test_vanishing_wronskian_is_refused_before_any_division(entry):
    """W = x vanishes at x = 0: no entry point gets to divide by it. The
    singular-W error comes as the family is built, with no divide-by-zero
    warning on the way (warnings are errors here)."""
    x = np.linspace(-2.0, 2.0, 401)
    with pytest.raises(SingularPotentialError, match="^seed Wronskian vanishes inside the grid$"):
        entry(SeedFamily(x=x, energies=np.array([0.0]),
                         values=x[None, :].copy(), derivs=np.ones((1, x.size))))


def test_vanishing_wronskian_is_refused_at_construction():
    """W = x vanishes at x = 0: building the family raises the singular-W
    error, with no divide-by-zero warning on the way (warnings are errors
    here), so no entry point ever holds a family with a vanishing W."""
    x = np.linspace(-2.0, 2.0, 401)
    with pytest.raises(SingularPotentialError, match="^seed Wronskian vanishes inside the grid$"):
        SeedFamily(x=x, energies=np.array([0.0]),
                   values=x[None, :].copy(), derivs=np.ones((1, x.size)))


def test_wronskian_sign_change_in_a_later_block_is_refused():
    """W = x on 30001 points at k 1 is two blocks of points, and W changes
    sign in the second: that block is tested against the sign at the grid's
    first point, and the family is refused with the whole-grid message, with
    no warning on the way (warnings are errors here)."""
    x = np.linspace(-3.0, 1.0, 30001)
    assert _block_count(1, x.size) == 2 and x[x.size // 2] < 0.0
    with pytest.raises(SingularPotentialError, match="^seed Wronskian vanishes inside the grid$"):
        SeedFamily(x=x, energies=np.array([0.0]),
                   values=x[None, :].copy(), derivs=np.ones((1, x.size)))


def test_far_tail_wronskian_sign_change_refused_without_overflow():
    """At k = 60 the product of two neighbouring tail values of W passes the
    long double range; the sign test compares signs, so the build is refused
    without an overflow warning (warnings are errors here)."""
    with pytest.raises(SingularPotentialError, match="^seed Wronskian vanishes inside the grid$"):
        build_system(SystemSpec(k=60, eps_top=-1.0, nu=0.0, n_points=401))


def test_seed_chain_refuses_a_vanishing_wronskian_itself():
    """The chain is refused as it is built, not by its first consumer."""
    with pytest.raises(SingularPotentialError, match="^seed Wronskian vanishes inside the grid$"):
        build_seed_chain(SystemSpec(k=60, eps_top=-1.0, nu=0.0, n_points=401))


def test_oversized_derivative_table_refused_before_the_grid():
    # (k + 2) k n_points = 46 * 44 * 2101 passes 2^22 values; k = 43 stays inside
    with pytest.raises(InvalidSpecError, match="^k=44 on n_points=2101 .* over the bound 4194304$"):
        build_system(SystemSpec(k=44, eps_top=-1.0, nu=0.0))


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


@pytest.fixture(scope="module")
def k1_fine_system():
    return build_system(SystemSpec(k=1, eps_top=-1.0, nu=0.5, x_min=-12.5, x_max=12.5,
                                   n_points=4201))


def test_states_are_rows_of_one_table(k4_system, k1_fine_system):
    """Each stored state's arrays are its row of the system's values and
    derivs tables, in table order (new j = 0..k-1, then iso n = 0..n_max),
    its build figure is the row's entry of figures, and a lookup returns the
    state made at build time."""
    for system in (k4_system, k1_fine_system):
        k, states = system.spec.k, system.all_states
        assert [(st.subspace, st.index) for st in states] == \
            [("new", j) for j in range(k)] + [("iso", n) for n in range(system.n_max + 1)]
        assert system.values.shape == system.derivs.shape == (len(states), system.x.size)
        assert system.figures.shape == (len(states),)
        for row, st in enumerate(states):
            assert np.shares_memory(st.values, system.values[row])
            assert np.shares_memory(st.derivs, system.derivs[row])
            figure = st.residual_check if st.subspace == "new" else st.norm_agreement
            assert figure == system.figures[row]
            assert system.state(st.subspace, st.index) is st


def test_orthonormality_deviation_is_the_pair_scan(k4_system, k1_fine_system):
    """The table's row-wise pass equals max |<a|b> - delta_ab| over every
    pair of stored states by SusySystem.inner, bit for bit."""
    for system in (k4_system, k1_fine_system):
        states, worst = system.all_states, 0.0
        for i, a in enumerate(states):
            for b in states[i:]:
                worst = max(worst, abs(system.inner(a, b) - (1.0 if b is a else 0.0)))
        assert system.orthonormality_deviation() == worst


def _weak_form_deviation(system, potential_values):
    """max |H_mn - E_n delta_mn| / max(1, |E_m|, |E_n|) over the state table,
    H_mn = 1/2 sum w psi_m' psi_n' + sum w V psi_m psi_n: the stored analytic
    derivatives, no finite difference."""
    w, vals, ders = system.weights, system.values, system.derivs
    h = 0.5 * np.einsum("p,mp,np->mn", w, ders, ders) \
        + np.einsum("p,mp,np->mn", w * potential_values, vals, vals)
    energies = np.array([st.energy for st in system.all_states])
    scale = np.maximum(1.0, np.maximum.outer(np.abs(energies), np.abs(energies)))
    return float(np.max(np.abs(h - np.diag(energies)) / scale))


@pytest.mark.parametrize("k, eps_top, nu", _PIN_SPECS)
def test_state_table_solves_the_hamiltonian_in_weak_form(k, eps_top, nu):
    """The stored states diagonalize the partner Hamiltonian in weak form.

    On these specs (n_max 32, default grid) the figure reads 1.25e-11 (k 1)
    to 2.70e-8 (k 5); its off-diagonal entries are first order in a state's
    error. The bound 1e-7 is 3.7x the worst reading. A shift of V by 1e-6
    adds about 1e-6 to every diagonal entry (the states are normalized), so
    the figure must read it at that size: it is not blind at the bound's
    scale.
    """
    system = build_system(SystemSpec(k=k, eps_top=eps_top, nu=nu))
    assert _weak_form_deviation(system, system.potential) < 1e-7
    shifted = _weak_form_deviation(system, system.potential + 1e-6)
    assert abs(shifted / 1e-6 - 1.0) < 0.1


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


def test_state_refuses_unknown_subspace(k4_system):
    with pytest.raises(DomainError, match="subspace must be 'iso' or 'new', got 'isos'"):
        k4_system.state("isos", 0)


def test_states_vanish_at_grid_edges(k4_system):
    for st in (k4_system.state("iso", 0), k4_system.state("new", 0)):
        edge = max(abs(st.values[0]), abs(st.values[-1]))
        assert edge < 1e-8 * np.max(np.abs(st.values))


@pytest.mark.parametrize("x_max, n_points", [(10.5, 2101), (12.5, 2101), (10.5, 4201),
                                             (12.5, 4201)])
@pytest.mark.parametrize("k, eps_top, nu, n_max, failing_n", [
    (6, -2.8, -0.9, 32, 30),
    (8, -5.0, 0.2, 16, 8),
])
def test_iso_norm_gate_refuses_out_of_envelope(k, eps_top, nu, n_max, failing_n, x_max,
                                               n_points):
    """Past the envelope the build stops at the first state over the gate,
    on each of the benchmark's four probe grids.

    The refusal names the level and the measured disagreement, so the
    caller learns what failed and by how much.
    """
    spec = SystemSpec(k=k, eps_top=eps_top, nu=nu, x_min=-x_max, x_max=x_max, n_points=n_points)
    with pytest.raises(ConstructionError) as info:
        build_system(spec, n_max=n_max)
    found = re.search(r"iso state n=(\d+): .* by ([0-9.eE+-]+)$", str(info.value))
    assert found is not None, str(info.value)
    assert int(found.group(1)) == failing_n
    assert float(found.group(2)) > 1e-6


def test_oversized_state_tables_refused_naming_n_max(k1_spec):
    # 10**16 rows of 2101 float64 values pass numpy's size limit on any host
    with pytest.raises(InvalidSpecError, match="^n_max=10000000000000000 on n_points=2101 "):
        build_system(k1_spec, n_max=10 ** 16)


def test_build_system_rejects_negative_cap(k1_spec):
    with pytest.raises(InvalidSpecError):
        build_system(k1_spec, n_max=-1)


@pytest.mark.parametrize("x_min, x_max, n_points", [(-10.5, 10.5, 2101), (-12.5, 12.5, 4201),
                                                     (-8.0, 12.0, 2001)])
def test_grid_is_a_mirror_with_exact_ends(x_min, x_max, n_points):
    x = SystemSpec(k=1, eps_top=-1.0, nu=0.0, x_min=x_min, x_max=x_max,
                   n_points=n_points).grid()
    centre = (x_min + x_max) / 2.0
    assert x.size == n_points
    assert (x[0], x[n_points // 2], x[-1]) == (x_min, centre, x_max)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(x - np.linspace(x_min, x_max, n_points))) <= 4 * np.spacing(x_max)
    if centre == 0.0:
        # bit for bit, so x^2 holds one value per |x| for the seed series
        assert np.array_equal(x, -x[::-1])
        w = x.astype(np.longdouble) ** 2
        assert np.unique(w).size == n_points // 2 + 1
    else:
        assert np.max(np.abs((x + x[::-1]) / 2.0 - centre)) <= np.spacing(x_max)


def test_new_state_residual_check_is_the_systems_residual(k4_system, k1_system):
    # both take the float64 grid step
    for system in (k4_system, k1_system):
        for st in system.new_states:
            assert st.residual_check == system.residual(st)


def test_symmetric_spec_gives_even_potential():
    spec = SystemSpec(k=1, eps_top=-1.0, nu=0.0)
    seeds = build_seed_chain(spec)
    v = potential(seeds)
    assert np.max(np.abs(v - v[::-1])) < 1e-10
