"""Higher-order SUSY partners of the harmonic oscillator.

Units are fixed so H0 = -(1/2) d^2/dx^2 + x^2/2 with spectrum E_n = n + 1/2.
A k-th order partner is generated by k Schrodinger seed solutions at
factorization energies eps_j = eps_top - (k - 1 - j), j = 0..k-1, all derived
from a single nodeless top seed by repeated application of the oscillator
lowering operator. The partner potential and its bound states are Wronskian
ratios of those seeds.

Wronskian derivatives are taken analytically. Every column (seed or
oscillator eigenstate) solves u'' = q u with q = x^2 - 2 eps, so Leibniz's
rule gives its derivative rows u^(m+2) = q u^(m) + 2 m x u^(m-1) +
m (m - 1) u^(m-2) straight on the grid. A SeedFamily is a system's one
table: the seed rows m = 0..k+1 and every Wronskian ratio over them, from
three points-last eliminations with partial pivoting (_batched_det), each
step of them per point:
- the seed block A = [u_j^(m)], m < k, gives W, and y' = A^-1 e_{k-2},
  y = A^-1 e_{k-1}: the cofactors of A's last two rows over W, which are
  the new states' numerators and their derivatives over W;
- rows 0..k and (0..k-1, k+1) give the cofactors along the psi column of
  an iso numerator W(u_0..u_{k-1}, psi) and of its derivative, the same
  for every n: the last row of L^-1, with the swaps undone, by the
  elimination the full (k+1)-column determinant runs on its seed columns;
  over W they hold W'/W = -cof[0, k-1] and W''/W = cof[0, k-2] - cof[1, k-1].
One routine, _row_table, builds every row table, each row in place from
the table's own earlier rows. The seed rows are built and eliminated one
block of grid points at a time, so the (k + 2) x k x n_points row table is
never held whole. Each block's W is checked before anything is divided by
it, against the sign at the grid's first point, so a family whose W
vanishes is refused as it is built. An iso level is psi_n's own Leibniz
rows, from the same routine, summed against those cofactors.

Each stored state, one row of the system's state table, is s * numerator/W,
normalized, with s = (-1)^n on the iso ladder and s = +1 on the new one.
Unsigned, the l^- stencil reads -d_n between iso levels n-1, n and +e_j
between new levels j-1, j (under either Painleve assignment), so s gives
every l^- element the positive sign the ladder coefficient tables assume.

Seeds, rows, determinants, the potential and the new states are evaluated in
extended precision (x86 long double). The determinants cancel heavily in the
far tails, amplifying entry rounding by several orders of magnitude;
double-precision entries leave visible point-to-point jitter in the states
there, extended-precision entries do not. The cofactors are cast to float64
once per system, after that cancellation; the psi_n ladder, its rows and
the sums run in float64, about 6e-15 of a state's maximum from long double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError, InvalidSpecError, SingularPotentialError
from .gridops import deriv2, simpson_weights
from .specfun import _MAX_VALUES, _finite_number, _is_whole, _real_arg, gamma_fn, hyp1f1

_SQRT2 = math.sqrt(2.0)

# work dtype for seed chains and Wronskian entries; float64 everywhere else
_WORK_DTYPE = np.longdouble

# long-double row values per block of grid points in a seed family's build,
# about 1 MB, so the (k + 2) x k x n_points derivative table is never held whole
_BLOCK_VALUES = 1 << 16

DEFAULT_X_MAX = 10.5
DEFAULT_N_POINTS = 2101
DEFAULT_N_MAX = 32


def _level(value, what: str) -> int:
    """A ladder level as an int; anything but a non-negative integer is refused."""
    if not _is_whole(value) or value < 0:
        raise DomainError("%s must be a non-negative integer, got %r" % (what, value))
    return int(value)


@dataclass(frozen=True)
class SystemSpec:
    """Parameters of one partner system.

    k        order of the transformation (number of seeds)
    eps_top  factorization energy of the top seed, must sit below E_0 = 1/2
    nu       asymmetry of the top seed, |nu| < 1 keeps it nodeless
    """
    k: int
    eps_top: float
    nu: float
    x_min: float = -DEFAULT_X_MAX
    x_max: float = DEFAULT_X_MAX
    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        for name in ("eps_top", "nu", "x_max", "x_min"):
            object.__setattr__(self, name, _finite_number(name, getattr(self, name),
                                                          InvalidSpecError))
        if not _is_whole(self.k) or self.k < 1:
            raise InvalidSpecError("k must be an integer >= 1, got %r" % (self.k,))
        if not self.eps_top < 0.5:
            raise InvalidSpecError(
                "eps_top must lie below the ground energy 1/2, got %g" % self.eps_top)
        if not abs(self.nu) < 1.0:
            raise InvalidSpecError("|nu| < 1 required for a nodeless seed, got %g" % self.nu)
        if not self.x_min < self.x_max:
            raise InvalidSpecError("empty grid: x_min=%g >= x_max=%g" % (self.x_min, self.x_max))
        if not (math.isfinite(self.x_max - self.x_min) and math.isfinite(self.x_min + self.x_max)):
            raise InvalidSpecError("grid overflows: x_max - x_min and x_min + x_max must be "
                                   "finite, got x_min=%g, x_max=%g" % (self.x_min, self.x_max))
        if not _is_whole(self.n_points) or self.n_points < 401 or self.n_points % 2 == 0:
            raise InvalidSpecError("n_points must be an odd integer >= 401, got %r"
                                   % (self.n_points,))

    @property
    def energies(self) -> np.ndarray:
        """Factorization energies eps_j, ascending (j = 0 lowest)."""
        return self.eps_top - (self.k - 1 - np.arange(self.k, dtype=float))

    @property
    def eps0(self) -> float:
        return float(self.eps_top - (self.k - 1))

    @property
    def e_gap(self) -> float:
        """E_0 - eps_0, the gap the new levels sit below the old ground state."""
        return 0.5 - self.eps0

    def grid(self) -> np.ndarray:
        """n_points evenly spaced over [x_min, x_max], mirrored about the
        centre: on a symmetric grid x[i] == -x[n - 1 - i] bit for bit, so the
        seed series run once per |x|."""
        half = np.linspace(0.0, (self.x_max - self.x_min) / 2.0, self.n_points // 2 + 1)
        return (self.x_min + self.x_max) / 2.0 + np.concatenate((-half[:0:-1], half))

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------

def seed_solution(x, eps: float, nu: float):
    """Even/odd mixed Schrodinger solution at energy eps, and its derivative.

    u(x) = e^{-x^2/2} [ 1F1(a1, 1/2; x^2)
                        + 2 nu x Gamma(a3)/Gamma(a1) 1F1(a3, 3/2; x^2) ],
    a1 = (1 - 2 eps)/4, a3 = a1 + 1/2. Normalized so u(0) = 1. The derivative
    uses d/dw 1F1(a, c; w) = (a/c) 1F1(a+1, c+1; w) with w = x^2, so no
    numerical differentiation enters anywhere. eps and nu must be finite, x real.
    """
    eps, nu = _finite_number("seed_solution eps", eps), _finite_number("seed_solution nu", nu)
    a1 = (1.0 - 2.0 * eps) / 4.0
    a3 = a1 + 0.5
    for a in (a1, a3):
        if a <= 0.0 and a == math.floor(a):
            raise DomainError(
                "seed mixing coefficient hits a Gamma pole (eps=%g)" % eps)
    x = _real_arg("seed_solution", "x", x)
    if x.dtype.kind != "f":   # an integer grid; a long-double one keeps its dtype
        x = x.astype(float)
    w = x * x
    cnu = 2.0 * nu * gamma_fn(a3) / gamma_fn(a1)
    m1 = hyp1f1(a1, 0.5, w)
    m3 = hyp1f1(a3, 1.5, w)
    dm1 = 4.0 * a1 * hyp1f1(a1 + 1.0, 1.5, w)          # (1/x) dM1/dx
    dm3 = (4.0 / 3.0) * a3 * hyp1f1(a3 + 1.0, 2.5, w)  # (1/x) dM3/dx
    gauss = np.exp(-w / 2.0)
    u = gauss * (m1 + cnu * x * m3)
    du = gauss * (-x * (m1 + cnu * x * m3) + x * dm1 + cnu * (m3 + w * dm3))
    return u, du


def build_seed_chain(spec: SystemSpec) -> SeedFamily:
    """Top seed from the closed form, the rest by the lowering operator, on
    the spec's grid.

    a^- = (d/dx + x)/sqrt(2) drops the factorization energy by one per step,
    so a single (eps_top, nu) pair fixes the whole family. The top seed must
    be nodeless on the grid; a sign change means the spec escaped its
    constraints and the construction would be singular. A spec whose
    derivative table, (k + 2) x k x n_points values, would pass _MAX_VALUES
    is refused before the grid is made, although the family builds it one
    block of points at a time and never holds it whole. Raises
    SingularPotentialError if W crosses or touches zero anywhere on the
    grid, since the partner then has a singularity.
    """
    size = (spec.k + 2) * spec.k * spec.n_points
    if size > _MAX_VALUES:
        raise InvalidSpecError("k=%d on n_points=%d needs a derivative table of %d "
                               "values, over the bound %d"
                               % (spec.k, spec.n_points, size, _MAX_VALUES))
    x = spec.grid().astype(_WORK_DTYPE)
    u, du = seed_solution(x, spec.eps_top, spec.nu)
    if np.any(u[:-1] * u[1:] < 0.0) or np.any(u == 0.0):
        raise InvalidSpecError("top seed changes sign on the grid; chain would be singular")
    k = spec.k
    vals = np.empty((k, x.size), dtype=_WORK_DTYPE)
    ders = np.empty((k, x.size), dtype=_WORK_DTYPE)
    vals[k - 1] = u
    ders[k - 1] = du
    eps = spec.eps_top
    for j in range(k - 2, -1, -1):
        v = (du + x * u) / _SQRT2
        dv = ((x * x - 2.0 * eps + 1.0) * u + x * du) / _SQRT2
        u, du = v, dv
        eps -= 1.0
        vals[j] = u
        ders[j] = du
    return SeedFamily(x=x, energies=spec.energies, values=vals, derivs=ders)


# ----------------------------------------------------------------------
# Oscillator eigenstates
# ----------------------------------------------------------------------

def _oscillator_ladder(x):
    """(psi_n, psi_n') for n = 0, 1, 2, ... by the stable recurrence."""
    p_prev = np.zeros_like(x)
    p = math.pi ** (-0.25) * np.exp(-x * x / 2.0)
    minus_x = -x
    n = 0
    while True:
        yield p, minus_x * p + math.sqrt(2.0 * n) * p_prev
        p_next = x * math.sqrt(2.0 / (n + 1.0)) * p - math.sqrt(n / (n + 1.0)) * p_prev
        p_prev, p = p, p_next
        n += 1


# ----------------------------------------------------------------------
# The seed family: Leibniz rows and three eliminations
# ----------------------------------------------------------------------

def _row_table(values, derivs, energies, x, n_rows: int):
    """The (n_rows,) + values.shape table of rows u^(m), m = 0..n_rows - 1
    (n_rows >= 2), of columns at energies, each row filled in place from the
    table's earlier rows.

    u^(m+2) = (x^2 - 2 eps) u^(m) + 2 m x u^(m-1) + m (m - 1) u^(m-2).
    values and derivs are (c, n) columns at energies (c,), or one column at
    a scalar energy; the table copies them into its rows 0 and 1.
    """
    q = x * x - 2.0 * np.asarray(energies, dtype=float)[..., None]
    table = np.empty((n_rows,) + values.shape, dtype=values.dtype)
    table[0], table[1] = values, derivs
    for m in range(n_rows - 2):
        row = np.multiply(q, table[m], out=table[m + 2])
        if m > 0:
            row += (2.0 * m) * x * table[m - 1]
        if m > 1:
            row += (m * (m - 1.0)) * table[m - 2]
    return table


def _batched_det(mat: np.ndarray):
    """Gaussian elimination with partial pivoting of small matrices stacked
    points-last, shape (r, c, n_points) with r = c or c + 1, one pivot choice
    per point.

    Works in the stack's own (extended-precision) dtype; the loop is over
    matrix size, each step works on whole rows of points. Returns the sign
    of the row swaps times the pivots of its min(r - 1, c) steps, and times
    the last diagonal entry when the stack is square (the determinant); the
    packed factors of P A = L U, U on and above the diagonal and L's
    multipliers below it; and the row order perm, (P A)[i] = A[perm[i]].
    """
    # highest row first: on a Wronskian table it is the pivot at nearly every
    # point, so most steps swap at few points or none; the pivots, and so
    # every output, are those of the rows in their given order (ties aside)
    m = np.array(mat[::-1], copy=True)
    r, cols, n = m.shape
    det = np.full(n, (-1.0) ** (r // 2), dtype=m.dtype)   # the reversal's sign
    perm = np.repeat(np.arange(r)[::-1, None], n, axis=1)
    for c in range(min(r - 1, cols)):
        piv = np.argmax(np.abs(m[c:, c]), axis=0)
        at = np.flatnonzero(piv)   # the points whose pivot is not row c
        if at.size:
            piv = piv[at] + c
            for a in (m, perm):
                a[c, ..., at], a[piv, ..., at] = a[piv, ..., at], a[c, ..., at]
            det[at] = -det[at]
        p = m[c, c]
        det *= p
        m[c + 1:, c] /= np.where(p == 0.0, 1.0, p)
        m[c + 1:, c, p == 0.0] = 0.0
        # row by row, so no temporary of the whole trailing block is held
        for row in range(c + 1, r):
            m[row, c + 1:] -= m[row, c] * m[c, c + 1:]
    return (det * m[r - 1, r - 1] if r == cols else det), m, perm


def _lu_solve(lu: np.ndarray, perm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs, (r, s, n_points), from _batched_det's factors of a square
    stack A; rhs (r, s) is the same at every point."""
    y = np.moveaxis(rhs[perm], -1, 1).astype(lu.dtype)
    for i in range(len(y)):
        y[i] -= np.sum(lu[i, :i, None] * y[:i], axis=0)
    for i in range(len(y) - 1, -1, -1):
        y[i] = (y[i] - np.sum(lu[i, i + 1:, None] * y[i + 1:], axis=0)) / lu[i, i]
    return y


def _last_column_cofactors(mat: np.ndarray) -> np.ndarray:
    """c with det([B | v]) = c . v at every point, for B = mat, (r, r - 1, n_points).

    The last row of L^-1 from B's elimination, with the row swaps undone,
    times the sign and the pivots: the elimination the full determinant runs
    on B's columns.
    """
    det, lu, perm = _batched_det(mat)
    r, n = mat.shape[0], mat.shape[-1]
    # ell L = e_{r-1}, L unit lower triangular
    ell = np.zeros((r, n), dtype=lu.dtype)
    ell[r - 1] = 1.0
    for i in range(r - 2, -1, -1):
        ell[i] = -np.sum(lu[i + 1:, i] * ell[i + 1:], axis=0)
    out = np.empty_like(ell)
    out[perm, np.arange(n)] = det * ell
    return out


class SeedFamily:
    """The k chained seeds on a grid, energies ascending: the table of their
    Leibniz rows and Wronskian ratios that the module docstring describes.

    values and derivs are the seeds' values and derivatives, (k, n_points);
    w is W; new_ratios the new states' numerators and derivatives over W;
    cof[d, m] the iso cofactors over W, all built one block of points at a
    time from the rows u_j^(m), m = 0..k+1, that _row_table, the one
    Leibniz routine, fills per block; the family does not keep them. A W
    that crosses or touches zero anywhere on the grid raises
    SingularPotentialError as the family is built. _iso_ratio takes psi_n
    and psi_n' from the caller's float64 ladder on x64.
    """

    def __init__(self, x, energies, values, derivs):
        self.x, self.energies, self.values, self.derivs = x, energies, values, derivs
        self.k = k = len(energies)
        n = x.size
        self.w = np.empty(n, dtype=x.dtype)
        # new state j: numerator/W in new_ratios[0, j], its derivative/W in new_ratios[1, j]
        self.new_ratios = np.empty((2, k, n), dtype=x.dtype)
        # cof[d, m]: the signed cofactor of psi^(m) in the d-th derivative of
        # the numerator, over W; deleting psi^(k-1) leaves W', so cof[0, k-1] = -W'/W
        self.cof = np.zeros((2, k + 2, n), dtype=x.dtype)
        # blocks of points of near-equal size, each at most _BLOCK_VALUES row
        # values: every elimination step is per point, so every bit is the
        # whole grid's, but a short last block of one point would have numpy
        # sum the cofactors' terms in another order
        blocks = -(-n // max(1, _BLOCK_VALUES // ((k + 2) * k)))
        for b in range(blocks):
            self._build_block(slice(n * b // blocks, n * (b + 1) // blocks))
        # the iso levels' inputs in float64, the iso route's one cast
        self.x64, self._cof64 = np.asarray(x, dtype=float), self.cof.astype(float)

    def _build_block(self, at: slice):
        """W, new_ratios and cof on the grid points at, from their rows alone;
        the block's rows and factors go as it returns, before the next block's."""
        k = self.k
        rows = _row_table(self.values[:, at], self.derivs[:, at], self.energies, self.x[at], k + 2)
        w, lu, perm = _batched_det(rows[:k])
        self.w[at] = w
        # signs, not products: the product of two far-tail values can overflow;
        # each block is tested against the grid's first point before anything
        # in it is divided by W
        if np.any(np.signbit(w) != np.signbit(self.w[0])) or np.any(np.abs(w) < 1e-280):
            raise SingularPotentialError("seed Wronskian vanishes inside the grid")
        # [y', y] = A^-1 [e_{k-2}, e_{k-1}]; for k = 1 the e_{k-2} column is zero
        y = _lu_solve(lu, perm, np.eye(k, 2, 2 - k))
        del lu, perm   # A's factors, freed before the larger eliminations below
        sign = (-1.0) ** (k - 1 + np.arange(k))[:, None]
        self.new_ratios[0, :, at] = sign * y[:, 1]
        self.new_ratios[1, :, at] = -sign * y[:, 0]
        self.cof[0, :k + 1, at] = _last_column_cofactors(rows[:k + 1]) / w
        # row k + 1 in the place of row k, which no elimination reads again:
        # the derivative's row set 0..k-1, k+1 is a slice too, so each row set
        # is gathered once, by _batched_det's reversed copy
        rows[k] = rows[k + 1]
        self.cof[1, list(range(k)) + [k + 1], at] = _last_column_cofactors(rows[:k + 1]) / w

    def _iso_ratio(self, n: int, psi, dpsi):
        """W(u_0..u_{k-1}, psi_n)/W and its derivative, in float64, from psi_n, psi_n' on x64.

        The cofactor expansion along the psi column, sum_m cof[d, m] psi_n^(m),
        over psi_n's row table; (N/W)' = N'/W - (W'/W) N/W with W'/W = -cof[0, k-1].
        """
        value, deriv = np.zeros_like(psi), np.zeros_like(psi)
        cof, k = self._cof64, self.k
        # psi^(k+1) is not in the numerator's row set, nor psi^(k) in its derivative's
        for m, row in enumerate(_row_table(psi, dpsi, n + 0.5, self.x64, k + 2)):
            if m <= k:
                value += cof[0, m] * row
            if m != k:
                deriv += cof[1, m] * row
        deriv += cof[0, k - 1] * value
        return value, deriv


def potential(seeds: SeedFamily):
    """Partner potential V_k = x^2/2 - (ln W)'' with analytic W, W', W''."""
    cof, k = seeds.cof, seeds.k
    # (ln W)'' = W''/W - (W'/W)^2, formed from ratios to keep the dynamic
    # range of W itself out of the subtraction. Along the iso numerator's psi
    # column, W' (rows 0..k-2, k) is the cofactor of -psi^(k-1), and W'' (rows
    # 0..k-3, k-1, k plus 0..k-2, k+1) those of psi^(k-2) and, in the derivative,
    # -psi^(k-1); for k = 1 the index k - 2 = -1 reads cof[0, k+1], which is zero.
    d2w = cof[0, k - 2] - cof[1, k - 1]
    return np.asarray(seeds.x * seeds.x / 2.0 - (d2w - cof[0, k - 1] ** 2), dtype=float)


# ----------------------------------------------------------------------
# States of the partner system
# ----------------------------------------------------------------------

@dataclass
class GridState:
    """One normalized bound state of the partner Hamiltonian on the grid.

    The stored sign is the coefficient tables' convention, positive l^- on
    both ladders: s * numerator/W with s = (-1)^n (iso) or +1 (new).

    In a built system values and derivs are views of its row of the system's
    tables. derivs holds the analytic first derivative (from row-shifted
    Wronskians, not finite differences); the eigen-equation residual check
    is the one place second derivatives are taken numerically, on purpose,
    so it stays an independent test of the construction.
    """
    values: np.ndarray
    derivs: np.ndarray
    energy: float
    subspace: str          # "iso" or "new"
    index: int
    norm_agreement: float   # |grid norm / closed form - 1| (iso only, else NaN)
    residual_check: float   # eigen-equation residual (new only, else NaN)


def hamiltonian_residual(values, energy, potential_values, h, weights) -> float:
    """Relative L2 residual of (-1/2 phi'' + V phi - E phi) over the interior,
    5 points in from each end."""
    d2 = deriv2(np.asarray(values, dtype=float), h)
    sl = slice(5, -5)
    res = -0.5 * d2[sl] + (potential_values[sl] - energy) * values[sl]
    num = float(np.sum(weights[sl] * res * res))
    den = float(np.sum(weights[sl] * values[sl] * values[sl]))
    return math.sqrt(num / den)


# ----------------------------------------------------------------------
# Assembled system
# ----------------------------------------------------------------------

@dataclass
class SusySystem:
    """A built partner system: grid, Simpson weights, potential and one
    state table. values and derivs are float64, (k + n_max + 1, n_points),
    a row per stored state: new j = 0..k-1, then iso n = 0..n_max, the
    order of all_states; figures holds each row's build figure (a new row's
    eigen-equation residual, an iso row's norm agreement). Each GridState
    is made once, over views of its rows."""
    spec: SystemSpec
    x: np.ndarray
    weights: np.ndarray
    potential: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    figures: np.ndarray
    new_states: list = field(init=False, repr=False)
    iso_states: list = field(init=False, repr=False)

    def __post_init__(self):
        k, energies = self.spec.k, self.spec.energies
        self.new_states = [GridState(self.values[j], self.derivs[j], float(energies[j]), "new", j,
                                     math.nan, float(self.figures[j]))
                           for j in range(k)]
        self.iso_states = [GridState(self.values[k + n], self.derivs[k + n], n + 0.5, "iso", n,
                                     float(self.figures[k + n]), math.nan)
                           for n in range(len(self.values) - k)]

    @property
    def n_max(self) -> int:
        """Highest stored iso level: the ladder's length less one."""
        return len(self.iso_states) - 1

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def state(self, subspace: str, index: int) -> GridState:
        index = _level(index, "state level")
        if subspace not in ("iso", "new"):
            raise DomainError("subspace must be 'iso' or 'new', got %r" % (subspace,))
        pool = self.iso_states if subspace == "iso" else self.new_states
        if index >= len(pool):
            raise DomainError("no stored %s state with index %d" % (subspace, index))
        return pool[index]

    def inner(self, a: GridState, b: GridState) -> float:
        return float((self.weights * a.values * b.values).sum())

    def residual(self, state: GridState) -> float:
        return hamiltonian_residual(state.values, state.energy, self.potential,
                                    self.h, self.weights)

    @property
    def all_states(self):
        return self.new_states + self.iso_states

    def orthonormality_deviation(self) -> float:
        """max |<a|b> - delta_ab| over every pair of stored states.

        One pass over the table: row i against itself and every later row,
        each product summed along its row as inner sums it, so every inner
        product carries inner's bits.
        """
        rows, worst = self.values, 0.0
        for i in range(len(rows)):
            gram = (self.weights * rows[i] * rows[i:]).sum(axis=1)
            gram[0] -= 1.0
            worst = max(worst, float(np.abs(gram).max()))
        return worst


def build_system(spec: SystemSpec, n_max: int = DEFAULT_N_MAX) -> SusySystem:
    """Seeds, potential, and the state table, filled in one pass.

    The iso rows come first, n = 0..n_max up one float64 psi_n ladder. The
    raw Crum map W(u_0..u_{k-1}, psi_n) / W(u_0..u_{k-1}) and its derivative
    are psi_n's rows summed against the seeds' cofactors; the raw L2 norm
    must match the closed form 2^{k/2} prod_j sqrt(E_n - eps_j) within 1e-6
    or the build is refused at that level. The new rows follow, j = 0..k-1:
    the numerator is the Wronskian of the seeds with u_j omitted (1/u_0 for
    k = 1), and a relative Hamiltonian residual above 1e-4 is treated as a
    construction failure rather than a warning. Each row is s * raw / ||raw||.
    """
    if not _is_whole(n_max) or n_max < 0:
        raise InvalidSpecError("n_max must be a non-negative integer, got %r" % (n_max,))
    seeds = build_seed_chain(spec)
    x, k = seeds.x64, spec.k
    weights = simpson_weights(x.size, spec.h)
    v = potential(seeds)
    try:   # past the host's memory (MemoryError) or numpy's size limit (ValueError)
        values = np.empty((k + n_max + 1, x.size))
        derivs = np.empty_like(values)
    except (MemoryError, ValueError):
        raise InvalidSpecError("n_max=%d on n_points=%d needs two state tables of %d x %d "
                               "values, more than can be allocated"
                               % (n_max, x.size, k + n_max + 1, x.size)) from None
    figures = np.empty(len(values))

    def store(row: int, raw, raw_deriv, sign: float) -> float:
        """sign * raw and its derivative, normalized on the grid, into the
        tables' plain float64 row; returns the norm."""
        nrm = math.sqrt(float(np.sum(weights * raw * raw)))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ConstructionError("state has zero or non-finite norm")
        scale = sign * nrm
        values[row] = raw / scale
        derivs[row] = raw_deriv / scale
        return nrm

    for n, (psi, dpsi) in zip(range(n_max + 1), _oscillator_ladder(x)):
        nrm = store(k + n, *seeds._iso_ratio(n, psi, dpsi), (-1.0) ** n)
        analytic = 2.0 ** (k / 2.0) * math.sqrt(float(np.prod(n + 0.5 - seeds.energies)))
        figures[k + n] = agreement = abs(nrm / analytic - 1.0)
        if agreement > 1e-6:
            raise ConstructionError(
                "iso state n=%d: grid norm disagrees with closed form by %.3g" % (n, agreement))
    h = float(x[1] - x[0])   # the float64 step, as SusySystem.residual takes it
    for j in range(k):
        raw = seeds.new_ratios[0][j]
        store(j, raw, seeds.new_ratios[1][j] + seeds.cof[0, k - 1] * raw, 1.0)
        figures[j] = res = hamiltonian_residual(values[j], float(seeds.energies[j]), v, h,
                                                weights)
        if res > 1e-4:
            raise ConstructionError(
                "new state j=%d fails the eigenvalue equation (residual %.3g)" % (j, res))
    return SusySystem(spec=spec, x=x, weights=weights, potential=v, values=values,
                      derivs=derivs, figures=figures)
