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

Labels z are complex; polar input (modulus, phase) is accepted through the
z_polar property and the command-line layer. Coefficients are
stored over the subspace basis, length k for the new families and a per-z
truncation length for the iso families chosen so the dropped probability
mass stays below 1e-12.
"""

from __future__ import annotations

import cmath
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
from .ladder import LadderCoeffs
from .specfun import (digamma, gamma_fn, hyp0f2, laplace_power_integral, mellin_moment,
                      tricomi_u)

_E0 = 0.5
_TAIL_BOUND = 1e-12
_HARD_CAP = 256
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


def _docs_weight(params: CSParams, j: int) -> float:
    """(gap - j)_j (k - j)_j / j!, the docs_new probability weight."""
    a, k = params.gap, params.k
    return gamma_fn(a) * gamma_fn(float(k)) \
        / (gamma_fn(a - j) * gamma_fn(float(k - j)) * math.factorial(j))


def _lin_new_weight(params: CSParams, j: int) -> float:
    """1 / ((j!)^2 Gamma(gap - j)), the lin_new probability weight."""
    return 1.0 / (math.factorial(j) ** 2 * gamma_fn(params.gap - j))


_NEW_WEIGHT = {Family.DOCS_NEW: _docs_weight, Family.LIN_NEW: _lin_new_weight}


def _finite_sum(params: CSParams, w, weight_fn):
    """sum_j weight_j w^j over the new ladder; w may be complex or ndarray."""
    total = 0.0 * w + 0.0
    power = 1.0 + 0.0 * w
    for j in range(params.k):
        total = total + weight_fn(params, j) * power
        power = power * w
    return total


def _norm_sum(params: CSParams, w: float, family: str) -> float:
    """S(|z|^2) of a new-ladder family, refused once it overflows."""
    total = _finite_sum(params, w, _NEW_WEIGHT[family]).real
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
    def z_polar(self):
        """(modulus, phase) polar form of the label."""
        return abs(self.z), cmath.phase(self.z)

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


def _iso_levels_needed(step, w: float, c0sq: float, n_max: int):
    """Smallest N with the dropped probability mass provably below 1e-12.

    The weights decay faster than geometrically, so once the step ratio q
    falls below 1 the tail is bounded by t_{N+1} / (1 - q)."""
    t = 1.0
    for n in range(_HARD_CAP + 1):
        # multiplying by the reciprocal fixes the rounding of the stored tail
        t_next = t * w * (1.0 / step(n))
        q = w * (1.0 / step(n + 1))
        if q < 1.0 and c0sq * t_next / (1.0 - q) < _TAIL_BOUND:
            needed = max(n, _MIN_LEVELS)
            if needed > n_max:
                break
            tail = c0sq * t_next / (1.0 - q)
            return needed, tail
        t = t_next
    required = max(n, _MIN_LEVELS)
    raise TruncationError(
        "tail bound %g not reached within n_max=%d levels (needs about %d)"
        % (_TAIL_BOUND, n_max, required),
        required=required, cap=n_max)


def _label(z):
    """(z, |z|^2) for a coherent-state label, refused unless both are finite."""
    z = complex(z)
    try:
        w = abs(z) ** 2
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):
        raise DomainError("label z=%r must be finite, with |z|^2 inside the float "
                          "range" % (z,))
    return z, w


def construct_cs(family: str, z, params: CSParams, n_max: int = _HARD_CAP) -> CoherentState:
    """Coefficient vector of one coherent state.

    aocs_iso:  c_n = c_0 z^n / sqrt(n!) * sqrt(rho_n),
               rho_n = Gamma(a+1)Gamma(a-k+1) / (Gamma(a+1+n)Gamma(a-k+1+n)),
               c_0 = 0F2(a+1, a-k+1; |z|^2)^{-1/2}, a = gap
    docs_new:  c_j = N_z z^j sqrt((a-j)_j (k-j)_j / j!)
    lin_iso:   c_n = e^{-|z|^2/2} z^n / sqrt(n!)
    lin_new:   c_j = C_z (iz)^j / (j! sqrt(Gamma(a-j)))

    The new-family vectors are exact at length k. The iso vectors stop at
    the first level where the dropped probability mass is provably below
    1e-12; if that needs more than n_max levels a TruncationError reports
    the required length. Normalization scalars are taken from the closed
    forms, so sum |c|^2 = 1 - truncation_tail. A label that is not finite,
    or whose |z|^2 or new-ladder norm series overflows, raises DomainError.
    """
    _check_family(family)
    z, w = _label(z)
    a, k = params.gap, params.k

    if family in Family.NEW:
        weight = _NEW_WEIGHT[family]
        base = z if family == Family.DOCS_NEW else 1j * z
        norm = 1.0 / math.sqrt(_norm_sum(params, w, family))
        coeffs = np.array([norm * base ** j * math.sqrt(weight(params, j))
                           for j in range(k)], dtype=complex)
        return CoherentState(family, z, params, coeffs, 0.0)

    if family == Family.AOCS_ISO:
        c0sq = 1.0 / hyp0f2(a + 1.0, a - k + 1.0, w)
    else:
        c0sq = math.exp(-w)
    step = _iso_step(family, params)
    levels, tail = _iso_levels_needed(step, w, c0sq, n_max)
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
    weight = _NEW_WEIGHT[cs.family]
    s0 = _finite_sum(cs.params, w, weight)
    s1 = _finite_sum(cs.params, w, lambda params, j: j * weight(params, j))
    return cs.params.eps0 + s1 / s0


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
    down = cs.params.iso_down if cs.family == Family.AOCS_ISO else math.sqrt
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
        return complex(cmath.exp(w - 0.5 * (wp + wz)))
    a, k = params.gap, params.k
    if family == Family.AOCS_ISO:
        num = hyp0f2(a + 1.0, a - k + 1.0, w)
        den = hyp0f2(a + 1.0, a - k + 1.0, wp) * hyp0f2(a + 1.0, a - k + 1.0, wz)
        return complex(num / math.sqrt(den))
    den = _norm_sum(params, wp, family) * _norm_sum(params, wz, family)
    num = _finite_sum(params, w, _NEW_WEIGHT[family])
    return complex(num / math.sqrt(den))


def evolve(cs: CoherentState, t: float):
    """(evolved state, global phase) under e^{-iHt}.

    Both ladders are unit-spaced, so evolution just rotates the label,
    |z> -> e^{-i e_bottom t} |z e^{-it}>; coefficientwise this means
    e^{-i E(level) t} c(level) = phase * c'(level).
    """
    t = float(t)
    phase = cmath.exp(-1j * cs.e_bottom * t)
    moved = construct_cs(cs.family, cs.z * cmath.exp(-1j * t), cs.params)
    return moved, phase


def divergence_witness(z, params: CSParams, n_terms: int = 200) -> np.ndarray:
    """Partial sums of the norm series behind the iso-ladder no-go result.

    Displacing the iso extremal state with the factorized operator gives a
    squared norm proportional to 2F0(gap+1, gap-k+1; |z|^2), whose terms

        t_{n+1}/t_n = (gap+1+n)(gap-k+1+n) |z|^2 / (n+1)

    grow without bound, so the series diverges for every z != 0 (at z = 0
    all partial sums would stay at 1, which is why that label is excluded:
    the extremal state itself is the only member of the family). The sums
    are cut once they pass 1e30, far beyond any divergence threshold a
    caller could reasonably probe. The loop is its own, not
    specfun._sum_series, because it returns the partial sums of a series
    that loop could only refuse.
    """
    z, w = _label(z)
    if z == 0:
        raise DomainError("divergence witness needs z != 0")
    a, k = params.gap, params.k
    term = 1.0
    sums = [1.0]
    for n in range(int(n_terms)):
        term *= (a + 1.0 + n) * (a - k + 1.0 + n) * w / (n + 1.0)
        sums.append(sums[-1] + term)
        if sums[-1] > 1e30:
            break
    return np.asarray(sums)


def wavefunction(cs: CoherentState, system):
    """(psi, |psi|^2) on the system grid, psi = sum_l c_l phi_l.

    The system must carry the same (gap, k) the state was built from, and
    must store at least as many basis states as the coefficient vector."""
    ref = CSParams.from_spec(system.spec)
    if ref.k != cs.params.k or abs(ref.gap - cs.params.gap) > 1e-12:
        raise UsageError(
            "state built for (gap=%g, k=%d) but system has (gap=%g, k=%d)"
            % (cs.params.gap, cs.params.k, ref.gap, ref.k))
    pool = system.iso_states if cs.subspace == "iso" else system.new_states
    if cs.coeffs.size > len(pool):
        raise DomainError(
            "state needs %d basis levels but the system stores %d; rebuild "
            "the system with a larger n_max" % (cs.coeffs.size, len(pool)))
    psi = np.zeros(system.x.size, dtype=complex)
    for level in range(cs.coeffs.size):
        psi += cs.coeffs[level] * pool[level].values
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
# profiles f_i carry the Mellin content:
#
#   mellin[f1](s) = Gamma(gap+s) Gamma(gap-k+s) Gamma(s)
#   mellin[f2](s) = Gamma(1+k-s) Gamma(1+gap-s) Gamma(s)
#   mellin[f3](s) = Gamma(s)^2 Gamma(gap+1-s)
#
# All three are Laplace-type superpositions f(x) = sum_i W_i e^{-x rate_i}
# with positive weights, which is how positivity of the densities is
# guaranteed. For f1 and f2 the weights come from the Mellin convolution
# int g(y) e^{-x/y} dy/y of e^{-x} with the positive factor g carrying the
# two remaining Gammas; g itself is evaluated through the Bessel-type tail
# integral int_1^inf e^{-cp} (p^2-1)^lam dp. For f3 the density is the
# beta-like kernel (t/(1+t))^{gap+1} / t of the confluent second-kind
# function at unit second parameter. The weights are cached on a fixed
# log-spaced grid, g evaluated once per cache; f1/f2 record the
# disagreement against half that y resolution, f3 is checked against its
# closed form Gamma(gap+1)^2 U(gap+1, 1; x). specfun.laplace_power_integral
# computes both g and U. The Laplace caches are unreliable once e^{-x rate} varies below the smallest
# grid rate, so small x is handled by series instead: f1 and f2 tend to
# finite limits there, while f3 grows logarithmically and switches to the
# log-case Kummer series below _MU3_SWITCH.

_Y_WINDOW = (1e-9, 1.0e15)
_T_WINDOW = (1e-12, 200.0)
_LOG_INTERVALS = 8192
_CHUNK = 512
_CACHE_PROBES = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
_CACHE_RTOL = 1e-6       # largest cache_agreement a measure may be built with
_MU3_PROBES = np.array([1.0, 4.0, 25.0])
_MU3_SWITCH = 0.5


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
    tail = laplace_power_integral(lam, 2.0, lam, c, rtol=1e-9) * c ** (-(lam + 1.0))
    return pref * amp * tail


def _mu3_series(params: CSParams, x: np.ndarray, cap: int = 400) -> np.ndarray:
    """f3(x) for 0 < x < 1 by the log-case confluent series,

    f3(x) = -Gamma(a) sum_k (a)_k x^k / (k!)^2
            * [ln x + psi(a+k) - 2 psi(k+1)],   a = gap + 1.

    The logarithm makes the x -> 0 end exact where quadrature routes fail;
    mild cancellation keeps it accurate up to x of order one. The loop is
    its own, not specfun._sum_series, because the digamma bracket makes this
    no term-ratio series.
    """
    a = params.gap + 1.0
    if np.any(x <= 0.0):
        raise DomainError("the mu3 profile diverges logarithmically at x = 0")
    lx = np.log(x)
    psi_a = digamma(a)
    psi_k = -float(np.euler_gamma)
    coeff = np.ones_like(x)
    total = np.zeros_like(x)
    quiet = 0
    for k in range(cap):
        term = coeff * (lx + psi_a - 2.0 * psi_k)
        total = total + term
        if np.all(np.abs(term) <= 1e-16 * np.abs(total) + 1e-300):
            quiet += 1
            if quiet >= 2:
                return -gamma_fn(a) * total
        else:
            quiet = 0
        coeff = coeff * (a + k) * x / ((k + 1.0) ** 2)
        psi_a += 1.0 / (a + k)
        psi_k += 1.0 / (k + 1.0)
    raise SeriesError("mu3 profile series did not converge within %d terms" % cap,
                      terms_used=cap, partial_sum=float(np.max(np.abs(total))))


def _log_simpson(lo: float, hi: float, n_intervals: int):
    """Simpson nodes/weights on a log axis; weights absorb dy/y = dv."""
    v = np.linspace(math.log(lo), math.log(hi), n_intervals + 1)
    return np.exp(v), simpson_weights(n_intervals + 1, v[1] - v[0])


def _laplace_sum(rates: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i weights_i e^{-x rates_i} for a batch of x >= 0, chunked."""
    out = np.empty(x.size, dtype=float)
    for start in range(0, x.size, _CHUNK):
        xc = x[start:start + _CHUNK]
        with np.errstate(over="ignore"):
            decay = np.exp(-xc[:, None] * rates[None, :])
        out[start:start + _CHUNK] = decay @ weights
    return out


@dataclass(frozen=True)
class MeasureFn:
    """One radial measure, positive by construction, and immutable.

    profile(x) is the Mellin-carrying factor f_i on the x = r^2 axis;
    density(r) is the full mu_i including the family norm series. The
    Laplace weights are cached on a log grid, the mu1/mu2 factor evaluated
    once; cache_agreement records the relative disagreement of the cache
    against its validation route (the even grid nodes for mu1/mu2,
    Gamma(gap+1)^2 U(gap+1, 1; x) by specfun.tricomi_u for mu3) and must
    stay below rtol, a fixed 1e-6 that callers can read but not set. The
    fields cannot be reassigned and the cached arrays are read-only, so
    measure_fn can hand one instance to every caller.
    """
    family: str
    params: CSParams
    rtol: float = field(init=False, default=_CACHE_RTOL)
    cache_agreement: float = field(init=False, default=0.0)
    _rates: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _weights: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.family not in MeasureFamily.ALL:
            raise UsageError("unknown measure family %r" % (self.family,))
        if self.family == MeasureFamily.MU3:
            a = self.params.gap + 1.0
            rates, w = _log_simpson(_T_WINDOW[0], _T_WINDOW[1], _LOG_INTERVALS)
            weights = gamma_fn(a) * w * (rates / (1.0 + rates)) ** a
            ref = gamma_fn(a) ** 2 * tricomi_u(a, _MU3_PROBES, rtol=1e-8)
            got = _laplace_sum(rates, weights, _MU3_PROBES)
            agreement = float(np.max(np.abs(got / ref - 1.0)))
        else:
            nodes, w = _log_simpson(_Y_WINDOW[0], _Y_WINDOW[1], _LOG_INTERVALS)
            g = _bessel_factor(self.family, self.params, nodes)
            rates, weights = 1.0 / nodes, w * g
            # validation on the even nodes with half-resolution Simpson
            # weights, so the gap is the y-resolution error alone
            _, w_half = _log_simpson(_Y_WINDOW[0], _Y_WINDOW[1], _LOG_INTERVALS // 2)
            half = _laplace_sum(rates[::2], w_half * g[::2], _CACHE_PROBES)
            full = _laplace_sum(rates, weights, _CACHE_PROBES)
            gap = np.abs(half - full) / np.maximum(np.abs(full), 1e-300)
            agreement = float(np.max(gap))
        if agreement > self.rtol:
            raise QuadratureError(
                "Laplace cache for %s disagrees with its validation route (%g)"
                % (self.family, agreement),
                nodes_used=_LOG_INTERVALS, last_estimate=None,
                last_change=agreement)
        rates.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "cache_agreement", agreement)
        object.__setattr__(self, "_rates", rates)
        object.__setattr__(self, "_weights", weights)

    def profile(self, x):
        """f_i(x) with x = r^2; accepts scalars or arrays."""
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        xv = np.atleast_1d(x_arr).astype(float).ravel()
        if np.any(xv < 0.0):
            raise DomainError("measure profile needs x >= 0")
        if self.family == MeasureFamily.MU3:
            out = np.empty(xv.size)
            small = xv < _MU3_SWITCH
            if np.any(small):
                out[small] = _mu3_series(self.params, xv[small])
            if np.any(~small):
                out[~small] = _laplace_sum(self._rates, self._weights, xv[~small])
        else:
            out = _laplace_sum(self._rates, self._weights, xv)
        return float(out[0]) if scalar else out.reshape(x_arr.shape)

    def density(self, r):
        """mu_i(r) >= 0 for r > 0.

        A radius where the value is not finite (the profile underflows to
        zero while the norm series overflows, or 0F2 itself overflows) is
        refused with DomainError rather than returned as NaN.
        """
        r_arr = np.asarray(r, dtype=float)
        scalar = r_arr.ndim == 0
        rv = np.atleast_1d(r_arr).astype(float)
        if np.any(rv <= 0.0):
            raise DomainError("measure density needs r > 0")
        x = rv * rv
        a, k = self.params.gap, self.params.k
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == MeasureFamily.MU1:
                series = hyp0f2(a + 1.0, a - k + 1.0, x)
                scale = 1.0 / (math.pi * gamma_fn(a + 1.0) * gamma_fn(a - k + 1.0))
            elif self.family == MeasureFamily.MU2:
                series = _finite_sum(self.params, x, _docs_weight)
                scale = 1.0 / (math.pi * gamma_fn(a) * gamma_fn(float(k)))
            else:
                series = _finite_sum(self.params, x, _lin_new_weight)
                scale = 1.0 / math.pi
            out = np.atleast_1d(self.profile(x) * series * scale)
        bad = ~np.isfinite(out)
        if bad.any():
            raise DomainError("%s density is not finite at r=%g"
                              % (self.family, rv[bad][0]))
        return float(out[0]) if scalar else out.reshape(r_arr.shape)


# one shared, immutable MeasureFn per (family, params); the oldest entry
# goes once the store is full, and a refused build is never stored
_MEASURES = {}
_MEASURES_CAP = 64


def measure_fn(family: str, params: CSParams) -> MeasureFn:
    """The radial measure of one family tag: one shared, immutable MeasureFn
    per (family, params), built on the first call for its key."""
    key = (family, params)
    m = _MEASURES.get(key)
    if m is None:
        m = MeasureFn(family=family, params=params)
        if len(_MEASURES) >= _MEASURES_CAP:
            del _MEASURES[next(iter(_MEASURES))]
        _MEASURES[key] = m
    return m


def moment_strip(m: MeasureFn):
    """(lo, hi) of the strip where the measure's Mellin moments converge."""
    a, k = m.params.gap, m.params.k
    if m.family == MeasureFamily.MU1:
        return max(0.0, k - a), math.inf
    if m.family == MeasureFamily.MU2:
        return 0.0, 1.0 + min(float(k), a)
    return 0.0, a + 1.0


def moment_check(m: MeasureFn, s: float):
    """(computed, expected) Mellin moment of the profile at s.

    computed integrates the quadrature-built profile with mellin_moment;
    expected is the Gamma product the identity resolution requires. s must
    lie strictly inside the convergence strip.
    """
    s = float(s)
    lo, hi = moment_strip(m)
    if not lo < s < hi:
        raise DomainError(
            "moment order s=%g outside the %s strip (%g, %g)"
            % (s, m.family, lo, hi))
    a, k = m.params.gap, m.params.k
    computed = mellin_moment(m.profile, s, rtol=_MOMENT_RTOL)
    if m.family == MeasureFamily.MU1:
        expected = gamma_fn(a + s) * gamma_fn(a - k + s) * gamma_fn(s)
    elif m.family == MeasureFamily.MU2:
        expected = gamma_fn(1.0 + k - s) * gamma_fn(1.0 + a - s) * gamma_fn(s)
    else:
        expected = gamma_fn(s) ** 2 * gamma_fn(a + 1.0 - s)
    return computed, expected


_MEASURE_FOR = {
    Family.AOCS_ISO: MeasureFamily.MU1,
    Family.DOCS_NEW: MeasureFamily.MU2,
    Family.LIN_NEW: MeasureFamily.MU3,
}


def identity_resolution_check(family: str, params: CSParams, n_max: int = None) -> float:
    """Worst diagonal deviation of the family's identity resolution.

    After the angular integration the identity claim collapses to one
    radial moment condition per basis slot; the off-diagonal terms vanish
    analytically. Returns max over slots of |computed/expected - 1|. For
    lin_iso the measure is the flat Gaussian e^{-r^2}/pi and the condition
    is the factorial moment of e^{-x}.
    """
    _check_family(family)
    if family == Family.LIN_ISO:
        count = 11 if n_max is None else n_max + 1
        worst = 0.0
        for n in range(count):
            got = mellin_moment(lambda x: np.exp(-x), n + 1.0, rtol=1e-10)
            worst = max(worst, abs(got / math.factorial(n) - 1.0))
        return worst
    m = measure_fn(_MEASURE_FOR[family], params)
    if family == Family.AOCS_ISO:
        count = 5 if n_max is None else n_max + 1
    else:
        count = params.k
    worst = 0.0
    for n in range(count):
        computed, expected = moment_check(m, n + 1.0)
        worst = max(worst, abs(computed / expected - 1.0))
    return worst
