"""Coherent-state families over the two energy ladders of a partner system.

Four constructions coexist. Eigenstates of the third-order annihilation
operator live on the oscillator-like ladder (aocs_iso); the factorized
displacement built from the same third-order operators produces normalizable
states only on the finite new ladder (docs_new); the linearized ladder
operators give a displacement family on each subspace (lin_iso, lin_new).
The complementary pair of no-go results is part of the module contract:
applying the factorized displacement on the iso ladder gives a 2F0-type norm
series that diverges for every nonzero label (divergence_witness), while the
annihilation construction on the new ladder is killed by the nilpotency of
the restricted lowering operator (ladder.nilpotent_matrix).

Each family that resolves the identity does so against a radial measure
whose Mellin moments are plain Gamma products. The measure profiles f_i are
built here the same way their positivity is proved: as Mellin convolutions
of e^{-x} with a manifestly positive factor (a Bessel-type tail integral for
mu1/mu2, a binomial kernel for mu3), so every density value is a sum of
non-negative terms. moment_check then compares quadrature moments of those
profiles against the Gamma products they must reproduce.

Labels z are complex numbers; the command-line layer also reads them in
polar form R@theta. Coefficients are stored over the subspace basis, length
k for the new families and a per-z truncation length for the iso families,
chosen so the dropped probability mass stays below 1e-12 with at most
_HARD_CAP levels.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    QuadratureError,
    SeriesError,
    TruncationError,
    UsageError,
)
from .gridops import simpson_weights
from .ladder import LadderCoeffs, natural_down_coeff
from .specfun import (_LOG_CASE_SWITCH, _finite_number, _log_case_u, _positive, _real_arg,
                      _shaped, gamma_fn, hyp0f2, laplace_power_integral, mellin_moment,
                      tricomi_u)

_E0 = 0.5
_TAIL_BOUND = 1e-12
_HARD_CAP = 256          # most iso levels a state may store
_STEP_LIMIT = 4096       # most levels the weight recursion steps to size a refusal
_MIN_LEVELS = 2          # keep at least (1, 0, 0) so z = 0 still has shape
_MOMENT_RTOL = 1e-7


class Family:
    """String tags for the four coherent-state families."""
    AOCS_ISO = "aocs_iso"   # annihilation-operator eigenstates, iso ladder
    DOCS_NEW = "docs_new"   # factorized displacement on the new ladder
    LIN_ISO = "lin_iso"     # linearized displacement, iso ladder
    LIN_NEW = "lin_new"     # linearized displacement, new ladder
    ALL = (AOCS_ISO, DOCS_NEW, LIN_ISO, LIN_NEW)
    ISO = (AOCS_ISO, LIN_ISO)
    NEW = (DOCS_NEW, LIN_NEW)


class MeasureFamily:
    """Radial measures resolving the identity, one per suitable family."""
    MU1 = "mu1"   # aocs_iso
    MU2 = "mu2"   # docs_new
    MU3 = "mu3"   # lin_new
    ALL = (MU1, MU2, MU3)


def _check_family(family: str):
    if family not in Family.ALL:
        raise UsageError("unknown coherent-state family %r" % (family,))


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

# the coherent-state layer's name for the shared (gap, k) type
CSParams = LadderCoeffs


@functools.lru_cache(maxsize=256)
def _new_weights(family: str, params: CSParams) -> tuple:
    """Weight row over j < k: (gap-j)_j (k-j)_j / j! for docs_new,
    1 / ((j!)^2 Gamma(gap-j)) for lin_new. Formed once per (family, params)
    and kept as a tuple for the last 256 keys; a refused row is not kept."""
    a, k = params.gap, params.k
    if family == Family.DOCS_NEW:
        top = gamma_fn(a) * gamma_fn(k)
        return tuple(top / (gamma_fn(a - j) * gamma_fn(k - j) * math.factorial(j))
                     for j in range(k))
    return tuple(1.0 / (math.factorial(j) ** 2 * gamma_fn(a - j)) for j in range(k))


def _row_sum(row, w):
    """sum_j row_j w^j; w may be complex or ndarray."""
    total = 0.0 * w + 0.0
    power = 1.0 + 0.0 * w
    for j, weight in enumerate(row):
        if j:   # no power past the last weight's, which could overflow unused
            power = power * w
        total = total + weight * power
    return total


def _norm_series(family: str, params: CSParams):
    """S(w): 0F2 for aocs_iso, the sum over the weight row for docs_new and
    lin_new, whose row is read from _new_weights' memo; w may be complex or
    ndarray."""
    if family == Family.AOCS_ISO:
        a, k = params.gap, params.k
        return lambda w: hyp0f2(a + 1.0, a - k + 1.0, w)
    row = _new_weights(family, params)
    return lambda w: _row_sum(row, w)


def _finite_norm(series, w: float, family: str) -> float:
    """The real part of S(|z|^2) for a label, refused once it overflows."""
    try:
        total = series(w).real
    except SeriesError:   # aocs_iso's 0F2 overflows inside its own sum
        total = math.inf
    if not math.isfinite(total):
        raise DomainError("label with |z|^2=%g overflows the %s norm series"
                          % (w, family))
    return total


# ----------------------------------------------------------------------
# States
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoherentState:
    family: str
    z: complex
    params: CSParams
    coeffs: np.ndarray       # complex, over the subspace basis from the bottom
    truncation_tail: float   # dropped probability mass (iso families, else 0)

    @property
    def subspace(self) -> str:
        return "iso" if self.family in Family.ISO else "new"

    @property
    def e_bottom(self) -> float:
        return _E0 if self.subspace == "iso" else self.params.eps0

    def level_energies(self) -> np.ndarray:
        """Energy of each basis slot; both ladders are unit-spaced."""
        return self.e_bottom + np.arange(self.coeffs.size, dtype=float)


def _iso_step(family: str, params: CSParams):
    """s(n) with c_{n+1} = c_n z / sqrt(s(n)) on the iso ladder.

    aocs_iso: s(n) = (n+1)(a+1+n)(a-k+1+n), a = gap;  lin_iso: s(n) = n+1.
    The probability weights t_n = |c_n/c_0|^2 then step by |z|^2 / s(n).
    """
    a, k = params.gap, params.k
    if family == Family.AOCS_ISO:
        return lambda n: (n + 1.0) * (a + 1.0 + n) * (a - k + 1.0 + n)
    return lambda n: n + 1.0


def _iso_levels_needed(step, w: float, log_c0sq: float):
    """Smallest N with the dropped probability mass provably below 1e-12.

    The weights t_n = |c_n/c_0|^2 decay faster than geometrically, so once
    the step ratio q = w / s(N+1) falls below 1 the tail is bounded by
    c0sq t_{N+1} / (1 - q). The search steps log t from n = 0 against
    log_c0sq = log c0sq, so a weight that overflows float64 or a c0sq that
    underflows cannot stop it early. An N above _HARD_CAP is refused with
    TruncationError, which reports the N found by stepping on past the cap;
    only a search stopped at _STEP_LIMIT reports a lower bound."""
    if w == 0.0:
        return _MIN_LEVELS, 0.0
    log_w, log_bound, log_t = math.log(w), math.log(_TAIL_BOUND), 0.0
    s = step(0)
    for n in range(_STEP_LIMIT):
        log_t += log_w - math.log(s)
        s = step(n + 1)   # q's step here, the weight's step at level n + 1
        q = w / s
        log_tail = log_c0sq + log_t - math.log1p(-q) if q < 1.0 else math.inf
        if log_tail < log_bound:
            break
    else:
        raise TruncationError(
            "tail bound %g needs at least %d levels, more than the cap of %d"
            % (_TAIL_BOUND, _STEP_LIMIT, _HARD_CAP), required=_STEP_LIMIT, cap=_HARD_CAP)
    needed = max(n, _MIN_LEVELS)
    if needed > _HARD_CAP:
        raise TruncationError(
            "tail bound %g needs %d levels, more than the cap of %d"
            % (_TAIL_BOUND, needed, _HARD_CAP), required=needed, cap=_HARD_CAP)
    return needed, math.exp(log_tail)


def _label(z):
    """(z, |z|^2) for a real or complex scalar label (_real_arg), both finite."""
    if _real_arg("coherent state", "label z", z, "iufc").ndim:
        raise DomainError("coherent state needs a scalar label z, got %r" % (z,))
    z = complex(z)
    try:
        w = abs(z) ** 2
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):
        raise DomainError("label z=%r must be finite, with |z|^2 inside the float "
                          "range" % (z,))
    return z, w


def construct_cs(family: str, z, params: CSParams) -> CoherentState:
    """Coefficient vector of one coherent state.

    aocs_iso:  c_n = c_0 z^n / sqrt(n!) * sqrt(rho_n),
               rho_n = Gamma(a+1)Gamma(a-k+1) / (Gamma(a+1+n)Gamma(a-k+1+n)),
               c_0 = 0F2(a+1, a-k+1; |z|^2)^{-1/2}, a = gap
    docs_new:  c_j = N_z z^j sqrt((a-j)_j (k-j)_j / j!)
    lin_iso:   c_n = e^{-|z|^2/2} z^n / sqrt(n!)
    lin_new:   c_j = C_z (iz)^j / (j! sqrt(Gamma(a-j)))

    The new-family vectors are exact at length k. The iso vectors stop at
    the first level where the dropped probability mass is provably below
    1e-12; if that needs more than _HARD_CAP levels a TruncationError
    reports the required length. Normalization scalars are taken from the
    closed forms, so sum |c|^2 = 1 - truncation_tail. A label that is not
    finite, or whose |z|^2 or new-ladder norm series overflows, raises
    DomainError. The new-ladder weight row is formed once per (family,
    params) and memoized for the last 256 keys (_new_weights).
    """
    _check_family(family)
    z, w = _label(z)
    if family in Family.NEW:
        row = _new_weights(family, params)
        base = z if family == Family.DOCS_NEW else 1j * z
        norm = 1.0 / math.sqrt(_finite_norm(_norm_series(family, params), w, family))
        coeffs = np.array([norm * base ** j * math.sqrt(weight)
                           for j, weight in enumerate(row)], dtype=complex)
        return CoherentState(family, z, params, coeffs, 0.0)

    if family == Family.AOCS_ISO:
        norm = _finite_norm(_norm_series(family, params), w, family)
        c0sq, log_c0sq = 1.0 / norm, -math.log(norm)
    else:
        c0sq, log_c0sq = math.exp(-w), -w
    step = _iso_step(family, params)
    levels, tail = _iso_levels_needed(step, w, log_c0sq)
    coeffs = np.empty(levels + 1, dtype=complex)
    coeffs[0] = math.sqrt(c0sq)
    for n in range(levels):
        coeffs[n + 1] = coeffs[n] * z / math.sqrt(step(n))
    return CoherentState(family, z, params, coeffs, tail)


def probabilities(cs: CoherentState) -> np.ndarray:
    """|c|^2 per level; sums to 1 up to the recorded truncation tail."""
    return np.abs(cs.coeffs) ** 2


def mean_energy(cs: CoherentState) -> float:
    """Closed-form <H>; always equals sum p * E over the coefficients.

    aocs_iso: 1/2 + |z|^2/((a+1)(a-k+1)) * 0F2(a+2, a-k+2)/0F2(a+1, a-k+1)
    docs_new: eps_0 + N_z^2 sum_j j (a-j)_j (k-j)_j |z|^{2j} / j!
    lin_iso:  |z|^2 + 1/2
    lin_new:  eps_0 + C_z^2 sum_j j |z|^{2j} / ((j!)^2 Gamma(a-j))
    """
    a, k = cs.params.gap, cs.params.k
    w = abs(cs.z) ** 2
    if cs.family == Family.LIN_ISO:
        return w + _E0
    if cs.family == Family.AOCS_ISO:
        ratio = hyp0f2(a + 2.0, a - k + 2.0, w) / hyp0f2(a + 1.0, a - k + 1.0, w)
        return _E0 + w / ((a + 1.0) * (a - k + 1.0)) * ratio
    row = _new_weights(cs.family, cs.params)
    s1 = _row_sum([j * weight for j, weight in enumerate(row)], w)
    return cs.params.eps0 + s1 / _row_sum(row, w)


def annihilation_check(cs: CoherentState) -> float:
    """Residual of the eigenstate property under the family's lowering operator.

    aocs_iso states obey l^- |z> = z |z> with the third-order coefficients,
    lin_iso states the same under the linearized sqrt(n) action. The identity
    holds slot by slot along the whole ladder, so the coefficient one past
    the stored cap is taken from the closed-form recurrence and the dropped
    tail can only contribute through its norm bound, added as |z| * tail.
    """
    if cs.family not in (Family.AOCS_ISO, Family.LIN_ISO):
        raise UsageError(
            "annihilation_check applies to aocs_iso or lin_iso states, not %r"
            % (cs.family,))
    down = (functools.partial(natural_down_coeff, subspace="iso", params=cs.params)
            if cs.family == Family.AOCS_ISO else math.sqrt)
    c = cs.coeffs
    top = c.size - 1
    c_past = c[top] * cs.z / math.sqrt(_iso_step(cs.family, cs.params)(top))
    extended = np.append(c, c_past)
    image = extended[1:] * np.array([down(n + 1) for n in range(top + 1)])
    resid = image - cs.z * c
    return float(np.linalg.norm(resid)) + abs(cs.z) * cs.truncation_tail


def kernel(family: str, z_prime, z, params: CSParams) -> complex:
    """Overlap <z'|z>, from the closed-form normalization ratios.

    Every family reduces to S(conj(z') z) / sqrt(S(|z'|^2) S(|z|^2)) where S
    is the family's norm series (0F2 for aocs_iso, the finite sums for the
    new families, exp for lin_iso); equal to the coefficient inner product.
    Both labels are refused as in construct_cs.
    """
    _check_family(family)
    (zp, wp), (z, wz) = _label(z_prime), _label(z)
    w = np.conj(zp) * z
    if family == Family.LIN_ISO:
        # exp(w - (|z'|^2 + |z|^2)/2), with the real part formed as
        # -|z - z'|^2/2 so it neither cancels nor overflows
        d = abs(z - zp)
        return complex(cmath.exp(complex(-0.5 * d * d, w.imag)))
    series = _norm_series(family, params)
    # one root per norm: their product may underflow where each norm does not
    den = (math.sqrt(_finite_norm(series, wp, family))
           * math.sqrt(_finite_norm(series, wz, family)))
    return complex(series(w) / den)


def evolve(cs: CoherentState, t: float):
    """(evolved state, global phase) under e^{-iHt}.

    Both ladders are unit-spaced, so evolution just rotates the label,
    |z> -> e^{-i e_bottom t} |z e^{-it}>; coefficientwise this means
    e^{-i E(level) t} c(level) = phase * c'(level). A t that is not finite,
    or whose phase e_bottom * t overflows, raises DomainError.
    """
    t = _finite_number("evolve t", t)
    if not math.isfinite(cs.e_bottom * t):
        raise DomainError("evolution time t=%r is refused: t must be finite, with "
                          "e_bottom*t inside the float range (e_bottom=%g)" % (t, cs.e_bottom))
    phase = cmath.exp(-1j * cs.e_bottom * t)
    moved = construct_cs(cs.family, cs.z * cmath.exp(-1j * t), cs.params)
    return moved, phase


def divergence_witness(z, params: CSParams) -> np.ndarray:
    """Partial sums of the norm series behind the iso-ladder no-go result.

    Displacing the iso extremal state with the factorized operator gives a
    squared norm proportional to 2F0(gap+1, gap-k+1; |z|^2), whose terms

        t_{n+1}/t_n = (gap+1+n)(gap-k+1+n) |z|^2 / (n+1)

    grow without bound, so the series diverges for every z != 0 (at z = 0
    all partial sums would stay at 1, which is why that label is excluded:
    the extremal state itself is the only member of the family). For a
    small label the terms shrink first, for about 1/|z|^2 terms at a small
    gap, so the sums run until they pass 1e30, however many terms that
    takes. A label whose running term underflows to 0 before that has no
    float64 witness and is refused by name. The loop is its own, not
    specfun._sum_series, because it returns the partial sums of a series
    that loop could only refuse.
    """
    z, w = _label(z)
    if z == 0:
        raise DomainError("divergence witness needs z != 0")
    a, k = params.gap, params.k
    term = 1.0
    sums = [1.0]
    n = 0
    while sums[-1] <= 1e30:
        term *= (a + 1.0 + n) * (a - k + 1.0 + n) * w / (n + 1.0)
        if term == 0.0:
            raise DomainError("label z=%r is too small for a float64 divergence witness: "
                              "the term underflows to 0 after %d terms" % (z, n + 1))
        sums.append(sums[-1] + term)
        n += 1
    return np.asarray(sums)


def wavefunction(cs: CoherentState, system):
    """(psi, |psi|^2) on the system grid, psi = sum_l c_l phi_l over the
    subspace's rows of the system's state table, in one product.

    The system must carry the same (gap, k) the state was built from, and
    must store at least as many basis states as the coefficient vector."""
    ref = CSParams.from_spec(system.spec)
    if ref.k != cs.params.k or abs(ref.gap - cs.params.gap) > 1e-12:
        raise UsageError(
            "state built for (gap=%g, k=%d) but system has (gap=%g, k=%d)"
            % (cs.params.gap, cs.params.k, ref.gap, ref.k))
    k = system.spec.k
    rows = system.values[k:] if cs.subspace == "iso" else system.values[:k]
    if cs.coeffs.size > len(rows):
        raise DomainError(
            "state needs %d basis levels but the system stores %d; rebuild "
            "the system with a larger n_max" % (cs.coeffs.size, len(rows)))
    psi = np.einsum("l,lx->x", cs.coeffs, rows[:cs.coeffs.size])
    return psi, np.abs(psi) ** 2


# ----------------------------------------------------------------------
# Radial measures
# ----------------------------------------------------------------------
#
# mu1(r) = f1(r^2) 0F2(gap+1, gap-k+1; r^2) / (pi Gamma(gap+1) Gamma(gap-k+1))
# mu2(r) = f2(r^2) S2(r^2) / (pi Gamma(gap) Gamma(k))
# mu3(r) = f3(r^2) S3(r^2) / pi
#
# with S2, S3 the finite norm series of the corresponding family. The
# profiles f_i carry the Mellin content, one Gamma product each, stated once
# in _mellin_gammas. All three are Laplace-type superpositions f(x) = sum_i W_i e^{-x rate_i}
# with positive weights, which is how positivity of the densities is
# guaranteed. For f1 and f2 the weights come from the Mellin convolution
# int g(y) e^{-x/y} dy/y of e^{-x} with the positive factor g carrying the
# two remaining Gammas; g itself is evaluated through the Bessel-type tail
# integral int_1^inf e^{-cp} (p^2-1)^lam dp. For f3 the density is the
# beta-like kernel (t/(1+t))^{gap+1} / t of the confluent second-kind
# function at unit second parameter. The weights are cached on a
# log-spaced grid, g evaluated once per grid tried; f1/f2 record the
# disagreement against half that y resolution, f3 is checked against its
# closed form Gamma(gap+1)^2 U(gap+1, 1; x). specfun.laplace_power_integral
# computes both g and U. The Laplace caches are unreliable once e^{-x rate} varies below the smallest
# grid rate, so small x is handled by series instead: f1 and f2 tend to
# finite limits there, while f3 grows logarithmically and switches to the
# log-case Kummer series below _LOG_CASE_SWITCH (specfun._log_case_u, as tricomi_u).
#
# A cache is validated on its full grid and then stores only the live weight
# span, from the first to the last nonzero weight, with the rates ascending:
# the mu1/mu2 amplitude y^power e^{-c} underflows to exact zeros in one run
# at an end of the y window. _laplace_sum evaluates the profile in blocks of
# about _BLOCK_ENTRIES decay entries, so one block's decay matrix stays in
# cache between np.exp and the matrix-vector product, and each block skips
# the rates whose terms underflow to exactly zero at its smallest x.
#
# The mu3 window carries _LOG_INTERVALS = 2048 Simpson intervals. In log y
# the mu1/mu2 cache integrand is analytic and decays doubly exponentially,
# so the rule converges exponentially in the node count, and a converged
# cache's error is set by the tail integral's rtol of 1e-9, not by the grid.
# Measured by cache_agreement (the grid against its even half): on the
# benchmark's measure pool, 1024 intervals already agree with 512 to
# 1.3e-14; over k 1-8 with gap up to k + 89, 1024 refuses mu1 near gap 90
# and reads up to 1e-6 near gap 60, since the mu1 factor's peak is only
# about sqrt(2/gap) wide in log y; 2048 builds every measure an
# 8192-interval grid builds, agreeing to 2.2e-14 up to mu1's overflow edge
# near gap 98.6. So a mu1/mu2 cache is built at _LOG_INTERVALS // 2 = 1024
# first and kept where its agreement is at most _CACHE_SETTLE = 1e-13, and
# otherwise rebuilt at 2048 with g evaluated on the whole grid again, which
# is bitwise the cache a build at 2048 alone makes (mu1 above gap about
# k + 20, mu2 at k 8). mu3 stays at 2048: its check is against the closed
# form, whose floor of about 6e-10 at k 1 the T window sets, not the grid.

_Y_WINDOW = (1e-9, 1.0e15)
_T_WINDOW = (1e-12, 200.0)
_LOG_INTERVALS = 2048
_BLOCK_ENTRIES = 1 << 18   # decay entries per block: 2 MB of float64
_EXP_ZERO = 746.0          # exp(-t) is exactly 0.0 for every t >= 745.14
_CACHE_PROBES = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
_CACHE_RTOL = 1e-6       # largest cache_agreement a measure may be built with
_CACHE_SETTLE = 1e-13    # largest mu1/mu2 agreement kept at _LOG_INTERVALS // 2
_MU3_PROBES = np.array([1.0, 4.0, 25.0])
_TABLE_VALUES = 4096     # most profile values a measure's node table stores
_MOMENTS_KEPT = 256      # most Mellin moments a measure stores


def _bessel_factor(family: str, params: CSParams, y: np.ndarray) -> np.ndarray:
    """Positive convolution factor g of f1 or f2 on the y grid.

    g(y) = 2 sqrt(pi)/Gamma(lam+1) * y^power * int_1^inf e^{-c p}
    (p^2-1)^lam dp, whose Bessel tail is e^{-c} c^{-(lam+1)} times
    laplace_power_integral(lam, 2, lam; c). mu1 carries
    Gamma(gap+s)Gamma(gap-k+s): lam = k-1/2, power = gap, c = 2 sqrt(y).
    mu2 carries Gamma(k+1-s)Gamma(gap+1-s) with c = 2/sqrt(y); the exponent
    of (p^2 - 1) flips sign with gap - k + 1/2: lam = gap-k-1/2 with power
    -(gap+1) for gap-k > -1/2, else lam = k-gap-1/2 with power -(k+1) on the
    remaining strip -1 < gap-k <= -1/2. Its end gap-k = -1/2 is the K_{1/2}
    factor at lam = 0, where the first branch's lam = -1 is not integrable.
    A tail integral that overflows or does not settle is refused with its
    QuadratureError fields, the message naming the family and gap.
    """
    a, k = params.gap, params.k
    if family == MeasureFamily.MU1:
        lam, power, c = k - 0.5, a, 2.0 * np.sqrt(y)
    elif a - k > -0.5:
        lam, power, c = a - k - 0.5, -(a + 1.0), 2.0 / np.sqrt(y)
    else:
        lam, power, c = k - a - 0.5, -(k + 1.0), 2.0 / np.sqrt(y)
    pref = 2.0 * math.sqrt(math.pi) / gamma_fn(lam + 1.0)
    # amplitude in log form: y^power alone can overflow at an end of the y
    # window long before the product with e^{-c} stops being negligible
    amp = np.exp(power * np.log(y) - c)
    try:
        tail = laplace_power_integral(lam, 2.0, lam, c, rtol=1e-9) * c ** (-(lam + 1.0))
    except QuadratureError as exc:
        raise QuadratureError("the %s factor at gap=%g: %s" % (family, a, exc),
                              nodes_used=exc.nodes_used, last_estimate=exc.last_estimate,
                              last_change=exc.last_change) from exc
    g = pref * amp * tail
    if not np.all(np.isfinite(g)):
        raise DomainError("the %s factor overflows on the y window at gap=%g" % (family, a))
    return g


def _log_simpson(lo: float, hi: float, n_intervals: int):
    """Simpson nodes/weights on a log axis; weights absorb dy/y = dv."""
    v = np.linspace(math.log(lo), math.log(hi), n_intervals + 1)
    return np.exp(v), simpson_weights(n_intervals + 1, v[1] - v[0])


def _laplace_sum(rates: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i weights_i e^{-x rates_i} for a batch of x >= 0; rates ascending.

    The batch runs in blocks of _BLOCK_ENTRIES // rates.size values of x.
    Each block evaluates only the prefix of rates with x_min * rate below
    _EXP_ZERO, x_min its smallest x: every other term is exactly 0.0 for
    the whole block, so dropping it changes a sum by regrouping alone, and a
    block with no live rate returns exact zeros.
    """
    out = np.zeros(x.size, dtype=float)
    rows = max(1, _BLOCK_ENTRIES // rates.size)
    for start in range(0, x.size, rows):
        xb = x[start:start + rows]
        x_min = float(xb.min())
        live = int(np.searchsorted(rates, _EXP_ZERO / x_min)) if x_min > 0.0 else rates.size
        if live:
            with np.errstate(over="ignore"):
                decay = np.exp(-xb[:, None] * rates[None, :live])
            out[start:start + rows] = decay @ weights[:live]
    return out


@dataclass(frozen=True, eq=False)
class MeasureFn:
    """One radial measure, positive by construction, and immutable.

    profile(x) is the Mellin-carrying factor f_i on the x = r^2 axis;
    density(r) is the full mu_i including the family norm series. The
    Laplace weights are cached on a log grid; the mu1/mu2 factor is
    evaluated on 1024 intervals and kept there where that grid agrees with
    its even half to 1e-13, else on 2048, and mu3's grid has 2048 intervals.
    cache_agreement records the relative disagreement of the cache
    against its validation route (the even grid nodes for mu1/mu2,
    Gamma(gap+1)^2 U(gap+1, 1; x) by specfun.tricomi_u for mu3) and must
    stay below rtol, a fixed 1e-6 that callers can read but not set. After
    validation the cache keeps only its live weight span, the first to the
    last nonzero weight, with the rates ascending, and profile sums it in
    cache-sized blocks that skip the rates whose terms underflow to zero
    (_laplace_sum). The fields cannot be reassigned and the cached arrays
    are read-only, so measure_fn can hand one instance to every caller.
    An instance compares by identity and owns its memo: the Mellin moments
    moment_check computed, by order, and the profile values those moments
    evaluated, by node batch (_tabled). A value past a table's bound is
    computed and returned but not stored, so a measure holds at most 2049
    rates and 2049 weights, 4096 node values (_TABLE_VALUES) and 256
    moments (_MOMENTS_KEPT), and frees them all when it dies.
    """
    family: str
    params: CSParams
    rtol: float = field(init=False, default=_CACHE_RTOL)
    cache_agreement: float = field(init=False, default=0.0)
    _rates: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _weights: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _moments: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _nodes: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    # an overflow leaves a non-finite agreement, which the gate refuses
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        if self.family not in MeasureFamily.ALL:
            raise UsageError("unknown measure family %r" % (self.family,))
        if self.family == MeasureFamily.MU3:
            a = self.params.gap + 1.0
            gamma_a = gamma_fn(a)
            if not math.isfinite(gamma_a * gamma_a):
                raise DomainError("mu3 needs a finite Gamma(gap+1)^2, gap=%g" % self.params.gap)
            rates, w = _log_simpson(_T_WINDOW[0], _T_WINDOW[1], _LOG_INTERVALS)
            weights = gamma_a * w * (rates / (1.0 + rates)) ** a
            ref = gamma_a ** 2 * tricomi_u(a, _MU3_PROBES, rtol=1e-8)
            got = _laplace_sum(rates, weights, _MU3_PROBES)
            agreement = float(np.max(np.abs(got / ref - 1.0)))
        else:
            # half the intervals first, all of them where that level does not
            # settle; each level evaluates g on its whole grid
            for n in (_LOG_INTERVALS // 2, _LOG_INTERVALS):
                nodes, w = _log_simpson(_Y_WINDOW[0], _Y_WINDOW[1], n)
                g = _bessel_factor(self.family, self.params, nodes)
                # rate = 1/y, reversed to ascend
                rates, weights = 1.0 / nodes[::-1], (w * g)[::-1]
                # validation on the even nodes with half-resolution Simpson
                # weights, so the gap is the y-resolution error alone
                _, w_half = _log_simpson(_Y_WINDOW[0], _Y_WINDOW[1], n // 2)
                half = _laplace_sum(rates[::2], (w_half * g[::2])[::-1], _CACHE_PROBES)
                full = _laplace_sum(rates, weights, _CACHE_PROBES)
                gap = np.abs(half - full) / np.maximum(np.abs(full), 1e-300)
                agreement = float(np.max(gap))
                if agreement <= _CACHE_SETTLE:
                    break
        if not agreement <= self.rtol:
            raise QuadratureError(
                "Laplace cache for %s disagrees with its validation route (%g)"
                % (self.family, agreement),
                nodes_used=_LOG_INTERVALS, last_estimate=None,
                last_change=agreement)
        nonzero = weights != 0.0
        span = slice(int(nonzero.argmax()), nonzero.size - int(nonzero[::-1].argmax()))
        rates, weights = rates[span].copy(), weights[span].copy()
        rates.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "cache_agreement", agreement)
        object.__setattr__(self, "_rates", rates)
        object.__setattr__(self, "_weights", weights)

    def profile(self, x):
        """f_i(x) with x = r^2 >= 0; accepts real scalars or arrays. A complex,
        non-numeric, negative or NaN x is refused with DomainError, naming x."""
        xv, shape = _positive("measure profile", "x", x, closed=True)
        if self.family == MeasureFamily.MU3:
            out = np.empty(xv.size)
            small = xv < _LOG_CASE_SWITCH
            if np.any(small):
                out[small] = _log_case_u(self.params.gap + 1.0, xv[small], "mu3 profile")
            if np.any(~small):
                out[~small] = _laplace_sum(self._rates, self._weights, xv[~small])
        else:
            out = _laplace_sum(self._rates, self._weights, xv)
        return _shaped(out, shape)

    def density(self, r):
        """mu_i(r) >= 0 for r > 0.

        A radius where the value is not finite (the profile underflows to
        zero while the norm series overflows, or 0F2 itself overflows) is
        refused with DomainError rather than returned as NaN, and so is a
        radius whose square overflows or a complex or non-numeric r, naming r.
        """
        rv, shape = _positive("measure density", "r", r)
        with np.errstate(over="ignore"):
            x = rv * rv
        if np.isinf(x).any():
            raise DomainError("measure density: r^2 overflows at r=%g" % rv[np.isinf(x)][0])
        a, k = self.params.gap, self.params.k
        args = {MeasureFamily.MU1: (a + 1.0, a - k + 1.0), MeasureFamily.MU2: (a, k),
                MeasureFamily.MU3: ()}[self.family]
        scale = 1.0 / math.prod([math.pi] + [gamma_fn(v) for v in args])
        not_finite = "%s density is not finite at r=%g"
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                series = _norm_series(_FAMILY_FOR[self.family], self.params)(x)
            except SeriesError:   # mu1's 0F2 overflows; it grows with x
                raise DomainError(not_finite % (self.family, rv.max())) from None
            out = self.profile(x) * series * scale
        bad = ~np.isfinite(out)
        if bad.any():
            raise DomainError(not_finite % (self.family, rv[bad][0]))
        return _shaped(out, shape)

    def _tabled(self, x):
        """self.profile(x) read through the measure's node table, which maps
        the exact bytes of a node batch to its read-only values. The nodes of
        a doubling level depend on the level, not on the order s, so a later
        order reads the batches an earlier one evaluated. A batch is never
        split or merged, since _laplace_sum's summation order depends on its
        block shape, so a stored batch is bitwise the profile's values on it.
        x = 1 sits in the first batch of both halves of mellin_moment and is
        evaluated once in each. There is no lock: inserts are idempotent, so
        two threads racing on one table at worst evaluate one batch twice or
        pass the bound by one batch."""
        key = x.tobytes()
        values = self._nodes.get(key)
        if values is None:
            values = self.profile(x)
            if sum(v.size for v in self._nodes.values()) + values.size <= _TABLE_VALUES:
                values.setflags(write=False)
                self._nodes[key] = values
        return values


# one LRU store of 64 measures by (family, params); a refused build is never stored
_measure_store = functools.lru_cache(maxsize=64)(MeasureFn)


def measure_fn(family: str, params: CSParams) -> MeasureFn:
    """The radial measure of one family tag: one shared, immutable MeasureFn
    per (family, params), built on the first call for its key and kept in
    one LRU store of 64 measures."""
    return _measure_store(family, params)


def _mellin_gammas(m: MeasureFn):
    """(alpha, sigma, n) triples with mellin[f](s) = prod Gamma(alpha + sigma s)^n."""
    a, k = m.params.gap, m.params.k
    if m.family == MeasureFamily.MU1:   # Gamma(gap+s) Gamma(gap-k+s) Gamma(s)
        return (a, 1.0, 1), (a - k, 1.0, 1), (0.0, 1.0, 1)
    if m.family == MeasureFamily.MU2:   # Gamma(1+k-s) Gamma(1+gap-s) Gamma(s)
        return (1.0 + k, -1.0, 1), (1.0 + a, -1.0, 1), (0.0, 1.0, 1)
    return (0.0, 1.0, 2), (a + 1.0, -1.0, 1)   # Gamma(s)^2 Gamma(gap+1-s)


def moment_strip(m: MeasureFn):
    """(lo, hi) of the strip where the measure's Mellin moments converge:
    the nearest pole of its Gamma product on each side."""
    gammas = _mellin_gammas(m)
    return (max(0.0 - alpha for alpha, sigma, _ in gammas if sigma > 0.0),
            min((alpha for alpha, sigma, _ in gammas if sigma < 0.0), default=math.inf))


def _exp_minus(x):
    """e^{-x}, the profile of the flat lin_iso measure e^{-r^2}/pi."""
    return np.exp(-x)


@functools.cache
def _lin_iso_identity() -> float:
    """identity_resolution_check's lin_iso value: the worst of the factorial
    moments of e^{-x} over slots 0..10, each at rtol 1e-10."""
    return max(abs(mellin_moment(_exp_minus, n + 1.0, rtol=1e-10) / math.factorial(n) - 1.0)
               for n in range(11))


def moment_check(m: MeasureFn, s: float):
    """(computed, expected) Mellin moment of the profile at s.

    computed is mellin_moment(m.profile, s, rtol=1e-7), bitwise, memoized
    on m by order, so a repeated order evaluates no profile value and a new
    order evaluates it only on node batches no earlier order of m reached.
    The quadrature reads m.profile and mellin_moment as it runs, so a
    wrapper installed on either still sees it. expected is the Gamma product
    the identity resolution requires. s must lie strictly inside the
    convergence strip.
    """
    s = _finite_number("moment_check s", s)
    lo, hi = moment_strip(m)
    if not lo < s < hi:
        raise DomainError(
            "moment order s=%g outside the %s strip (%g, %g)"
            % (s, m.family, lo, hi))
    computed = m._moments.get(s)
    if computed is None:
        computed = mellin_moment(m._tabled, s, rtol=_MOMENT_RTOL)
        if len(m._moments) < _MOMENTS_KEPT:
            m._moments[s] = computed
    expected = math.prod(gamma_fn(alpha + sigma * s) ** n
                         for alpha, sigma, n in _mellin_gammas(m))
    return computed, expected


_MEASURE_FOR = {
    Family.AOCS_ISO: MeasureFamily.MU1,
    Family.DOCS_NEW: MeasureFamily.MU2,
    Family.LIN_NEW: MeasureFamily.MU3,
}
_FAMILY_FOR = {measure: family for family, measure in _MEASURE_FOR.items()}


def identity_resolution_check(family: str, params: CSParams) -> float:
    """Worst diagonal deviation of the family's identity resolution.

    After the angular integration the identity claim collapses to one
    radial moment condition per basis slot; the off-diagonal terms vanish
    analytically. Returns max over slots of |computed/expected - 1|, over
    slots 0..10 for lin_iso, 0..4 for aocs_iso and the whole new ladder for
    docs_new and lin_new. For lin_iso the measure is the flat Gaussian
    e^{-r^2}/pi and the condition is the factorial moment of e^{-x}, which
    does not depend on params and is computed once.
    """
    _check_family(family)
    if family == Family.LIN_ISO:
        return _lin_iso_identity()
    m = measure_fn(_MEASURE_FOR[family], params)
    count = 5 if family == Family.AOCS_ISO else params.k
    worst = 0.0
    for n in range(count):
        computed, expected = moment_check(m, n + 1.0)
        worst = max(worst, abs(computed / expected - 1.0))
    return worst
