"""Special functions and semi-infinite quadrature.

The whole construction downstream (seed solutions, orthogonality measures,
moment checks) reduces to a short list of primitives: the Gamma function
(math.gamma behind the package's pole and overflow checks), the digamma
function (math has none, so it is summed here), the confluent series 1F1
and 0F2, the modified Bessel function K_nu through its real integral
representation, one Laplace-type integral for Tricomi U (a series below
x = 1/2) and the mu1/mu2 measure factors, and Mellin moments on (0, inf).

Series are summed plainly by term recurrence, and each point stops at the
first term after which no later term can change its sum, so every sum is
bitwise that of the loop run forever. _sum_series is the one front end that
reads a series argument: a float64 scalar or 0-d array runs a plain loop on
Python numbers, and a real array is summed in order of |x| with its final
leading points retired, so a grid pays for the terms each point needs rather
than for those of its largest |x|. Equal arguments (the mirror points of x^2
on a symmetric grid) share one series, and the stop is tested only on the
band where the final prefix can end, at every term until the first point
retires and at every 8th term after that. This is the package's one loop for
term-ratio series; complex x, as 1F1 and 0F2 take it, runs the scalar loop
in complex128 (complex64 widened, clongdouble refused), once per distinct
value of an array. A NaN or infinite parameter is refused by name.
Every adaptive integral runs over (0, inf) in integral_zero_inf, the
package's one node-doubling loop: composite Simpson in u = t / (1 + t),
doubling the nodes until two successive estimates agree. Each level's nodes
are the even nodes of the next, so a doubling run evaluates its integrand
once per node and every later level only on its new odd nodes. The run
keeps two Simpson sums, over the odd and the even nodes of its level; the
even sum of the next level is exactly a quarter of the odd sum plus half the
even one, so each level dots its new values with their weights and drops
them, and no array of a whole level's values is built. A level is refused
before the run would evaluate more than _MAX_VALUES integrand values, and the
quadrature entry points refuse a NaN parameter by name, as the series do.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, QuadratureError, SeriesError
from .gridops import simpson_weights

_SERIES_CAP = 100_000
_SERIES_QUIET = 50       # terms between the finiteness tests of a running sum
_STOP_BAND = 64          # active points tested first for a final sum
_STOP_EVERY = 8          # terms between the stop tests once a point has retired
_MAX_NODES = 2 ** 20
# the most float64 values (32 MB) that one doubling run may evaluate, nodes
# times batch width, or that a derivative table may hold (susy); a doubling
# level holds only the values of its n/2 new nodes
_MAX_VALUES = 2 ** 22
_CHUNK = 512            # values of c or z per shared node-doubling run
_SMALL64 = float(np.finfo(np.float64).eps) / 8.0   # the stop test's eps/8 in float64
_LOG_CASE_SWITCH = 0.5   # below it _log_case_u sums Gamma(a)^2 U(a, 1; x) (tricomi_u, mu3)


# ----------------------------------------------------------------------
# Gamma and friends
# ----------------------------------------------------------------------

def _require_finite(label, **params):
    """Refuse the first NaN or infinite scalar parameter, naming it."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError("%s needs a finite %s, got %s" % (label, name, value))


def _real_arg(label, name, value, kinds="iuf"):
    """value as an uncast array, refused with DomainError naming the argument
    unless its numpy kind is in kinds: real by default (no bool, string or
    ragged nesting), "iufc" admits complex. The one array coercion."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in kinds:
        raise DomainError("%s needs a %s %s, got %r"
                          % (label, "real or complex" if "c" in kinds else "real", name, value))
    return arr


def _positive(label, name, values):
    """values as a float64 array, refused unless real (_real_arg) and every
    entry is > 0 (NaN is not); +inf passes, for the limits at infinity."""
    values = _real_arg(label, name, values).astype(float)
    bad = ~(values > 0.0)
    if bad.any():
        raise DomainError("%s needs %s > 0, got %s" % (label, name, values[bad][0]))
    return values


def gamma_fn(x: float) -> float:
    """Gamma(x) for finite real x from math.gamma, poles excluded, refused
    where it overflows float64."""
    x = float(x)
    _require_finite("gamma_fn", x=x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError("gamma_fn pole at non-positive integer x=%g" % x)
    if x > 171.62:
        raise DomainError("Gamma(%g) overflows float64 (argument above 171.62)" % x)
    try:
        return math.gamma(x)
    except OverflowError:  # 0 < |x| < 5.6e-309
        raise DomainError("Gamma(%g) overflows float64 (argument next to the pole at 0)"
                          % x) from None


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for real x, poles excluded.

    Recurrence pushes the argument to 12 or beyond, then the asymptotic
    expansion (Bernoulli terms through x^-10) is accurate to ~1e-15. x must
    be finite."""
    x = float(x)
    _require_finite("digamma", x=x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError("digamma pole at non-positive integer x=%g" % x)
    if x < 0.5:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (
        1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
    return acc + math.log(x) - 0.5 / x - tail


# ----------------------------------------------------------------------
# Hypergeometric series
# ----------------------------------------------------------------------

def _sum_series(term_ratio, x, label="series", steady=0, nonnegative=False):
    """Sum_{n>=0} t_n with t_0 = 1 and t_{n+1} = t_n * x * term_ratio(n).

    term_ratio(n) is the rational part of t_{n+1}/t_n; from n = steady on it
    is non-zero and its modulus never increases. x may be a real or complex
    scalar or ndarray of any shape, refused by name unless every entry is
    finite and, for nonnegative, every real one >= 0; a real float dtype is
    kept, and complex x sums in complex128 (complex64 widened, clongdouble
    refused), for at most _SERIES_CAP terms.

    Each point adds its terms plainly and stops at the first n >= steady
    with |x| <= 1/|term_ratio(n)|, so that no later term outgrows t_{n+1},
    and |t_{n+1}| <= eps/8 times a finite |S| (the smaller of |Re S| and
    |Im S| when x is complex with a non-zero imaginary part; eps of the
    dtype), so that under round-to-nearest no such term moves S. A complex
    x whose imaginary part is 0 has real terms, so it stops where the real
    x would, with the real sum and a +0 imaginary part. Every sum is thus
    bitwise that of the plain loop run forever. A finite Python or numpy
    float64 or complex128 scalar, and a 0-d array that is or is cast to
    one, runs the loop on a Python number (numpy's scalar arithmetic would
    move last bits), a complex array once per distinct value; any other x
    is summed as an array in order of |x|, one series per distinct value,
    and its final leading points retire, tested from the first active point
    over a band of _STOP_BAND points that doubles while all of it is final.
    The first retirement is tested at every term, later ones every
    _STOP_EVERY terms; a final point that waits adds only terms that cannot
    move its sum, so the wait changes no bit. A sum that is not finite is
    refused at the next finiteness test, every _SERIES_QUIET terms.
    """
    if isinstance(x, (float, complex)) and cmath.isfinite(x):
        x = float(x) if isinstance(x, float) else complex(x)
        if nonnegative and type(x) is float and x < 0.0:
            raise DomainError("%s argument must be non-negative" % label)
    else:
        x = _real_arg(label, "x", x, "iufc")
        if not np.isfinite(x).all():
            raise DomainError("%s argument x must be finite, got %s"
                              % (label, x[~np.isfinite(x)][0]))
        if nonnegative and x.dtype.kind != "c" and np.any(x < 0.0):
            raise DomainError("%s argument must be non-negative" % label)
        if x.dtype.kind == "c" and not np.can_cast(x.dtype, np.complex128):
            raise DomainError("%s will not narrow a %s x to complex128" % (label, x.dtype))
        if x.dtype.kind != "f":
            x = x.astype(complex if x.dtype.kind == "c" else float)
        if x.ndim == 0 and x.dtype in (np.float64, np.complex128):
            x = x.item()
        elif x.dtype == np.complex128:
            values, inverse = np.unique(x, return_inverse=True)
            sums = [_sum_scalar(term_ratio, v, _SMALL64, _SERIES_CAP, label, steady)
                    for v in values.tolist()]
            return np.array(sums, dtype=complex)[inverse].reshape(x.shape)
        else:
            # a point that overflows is refused with SeriesError, without numpy's
            # overflow and invalid-value warnings from the terms on the way there;
            # a 0-d x of another dtype comes back as a scalar of that dtype
            small = float(np.finfo(x.dtype).eps) / 8.0
            with np.errstate(over="ignore", invalid="ignore"):
                return _sum_array(term_ratio, x, small, _SERIES_CAP, label, steady)[()]
    return _sum_scalar(term_ratio, x, _SMALL64, _SERIES_CAP, label, steady)


def _sum_scalar(term_ratio, xv, small, cap, label, steady):
    num = type(xv)
    finite = math.isfinite if num is float else cmath.isfinite
    term = total = num(1.0)
    try:
        # blocks of _SERIES_QUIET terms keep the finiteness test off the per-term path
        for block in range(0, cap, _SERIES_QUIET):
            for n in range(block, min(block + _SERIES_QUIET, cap)):
                ratio = term_ratio(n)
                term = term * xv * ratio
                total = total + term
                if (abs(term) <= small * abs(total) and n >= steady
                        and abs(xv) <= 1.0 / abs(ratio) and finite(total)
                        and (num is float or xv.imag == 0.0
                             or abs(term) <= small * min(abs(total.real), abs(total.imag)))):
                    return total
            if not finite(total):
                raise _series_error(label, n + 1, cap, float(abs(total)))
        raise _series_error(label, cap, cap, float(abs(total)))
    except OverflowError:  # a complex modulus past the float range, its parts finite
        raise _series_error(label, n + 1, cap, math.inf) from None


def _series_error(label, terms, cap, partial):
    """The refusal of a series that hit its cap or whose partial sum is no
    longer finite; an overflowed sum is never final and never finite again,
    so waiting for the cap would change no answer."""
    if terms < cap:
        why = "partial sum is not finite after %d terms" % terms
    else:
        why = "did not converge within %d terms" % cap
    return SeriesError("%s %s" % (label, why), terms_used=terms, partial_sum=partial)


def _final(term, total, small):
    """Mask of the finite sums that their last terms can no longer move."""
    return (np.abs(term) <= small * np.abs(total)) & np.isfinite(total)


def _sum_array(term_ratio, x, small, cap, label, steady):
    flat = x.ravel()
    if not flat.size:
        return np.empty_like(x)
    # one series per distinct value (a NaN is never equal to another), run
    # in order of |x| with ties in order of first occurrence; each sum stays
    # in total where it retired, and all scatter once the last one retires
    values, first, inverse = np.unique(flat, return_index=True, return_inverse=True,
                                       equal_nan=False)
    mags = np.abs(values)
    order = np.lexsort((first, mags))   # NaN sorts last
    xs, mags = values[order], mags[order]
    small = mags.dtype.type(small)
    term, total = np.ones_like(xs), np.ones_like(xs)
    start, sliced = 0, -1
    for n in range(cap):
        if sliced != start:
            tv, xv, sv = term[start:], xs[start:], total[start:]
            sliced = start
        # the plain loop's operations in its order: term = term * x * ratio;
        # total = total + term
        np.multiply(tv, xv, out=tv)
        ratio = term_ratio(n)
        np.multiply(tv, ratio, out=tv)
        np.add(sv, tv, out=sv)
        # retired points were final, hence finite; test the active suffix
        if (n + 1) % _SERIES_QUIET == 0 and not np.isfinite(sv).all():
            raise _series_error(label, n + 1, cap, float(np.max(np.abs(total))))
        # the final prefix: the first active point is tested on its own, then
        # points up to the |x| reach of the ratio in bands that double; after
        # the first retirement only every _STOP_EVERY-th term is tested, which
        # retires a final point later but with the same sum
        if (n < steady or (start and (n + 1) % _STOP_EVERY)
                or not abs(tv[0]) <= small * abs(sv[0])):
            continue
        reach = int(mags.searchsorted(1.0 / abs(ratio), side="right")) - start
        end, band = 0, _STOP_BAND
        while end < reach:
            hi = min(end + band, reach)
            final = _final(tv[end:hi], sv[end:hi], small)
            i = int(final.argmin())
            if not final[i]:
                end += i
                break
            end, band = hi, 2 * band
        start += end
        if start == xs.size:
            sums = np.empty_like(total)
            sums[order] = total
            return sums[inverse].reshape(x.shape)
    raise _series_error(label, cap, cap, float(np.max(np.abs(total))))


def hyp1f1(a: float, c: float, x):
    """Confluent hypergeometric 1F1(a; c; x) by direct series.

    x may be a real or complex scalar or ndarray, and must be finite; the
    scalar loop sums a complex x in complex128 (complex64 widened,
    clongdouble refused). a and c must be finite, c not a non-positive integer.
    """
    _require_finite("hyp1f1", a=a, c=c)
    if c <= 0.0 and c == math.floor(c):
        raise DomainError("hyp1f1 undefined at non-positive integer c=%g" % c)
    return _sum_series(lambda n: (a + n) / ((c + n) * (n + 1.0)), x, label="hyp1f1",
                       steady=_hyp1f1_steady(a, c))


def _hyp1f1_steady(a, c):
    """The first n with a + n > 0, c + n > 0 and (c - a)(n + 1) <=
    (a + n)(c + n + 1). The last is |ratio(n + 1)| <= |ratio(n)| for the 1F1
    ratio (a + n) / ((c + n)(n + 1)); its two sides differ by a quadratic in
    n that grows once a + n > 0, so all three hold for every later n."""
    n = max(0, math.floor(-a) + 1, math.floor(-c) + 1)
    while (c - a) * (n + 1) > (a + n) * (c + n + 1):
        n += 1
    return n


def hyp0f2(b1: float, b2: float, x):
    """Generalized hypergeometric 0F2(; b1, b2; x) for b1, b2 > 0.

    x may be a real or complex scalar or ndarray, and must be finite. A real
    x must be >= 0, the radial axis r^2 of the measures; a complex x may
    have any phase, as the overlap argument conj(z') z of the kernel does.
    The scalar loop sums it in complex128 (complex64 widened, clongdouble
    refused). b1 and b2 must be finite.
    """
    _require_finite("hyp0f2", b1=b1, b2=b2)
    if b1 <= 0.0 or b2 <= 0.0:
        raise DomainError("hyp0f2 needs positive lower parameters, got (%g, %g)" % (b1, b2))
    # with b1, b2 > 0 the ratio shrinks from n = 0, the default steady index
    return _sum_series(lambda n: 1.0 / ((b1 + n) * (b2 + n) * (n + 1.0)), x, label="hyp0f2",
                       nonnegative=True)


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------

def _semi_infinite_rule(n_intervals: int):
    """(nodes, weights) of Simpson in u on [0, 1) pushed through t = u / (1 - u).

    The u = 1 endpoint is dropped, so the integrand is assumed to vanish at
    infinity.
    """
    if n_intervals < 16:
        raise DomainError("quadrature rule needs at least 16 nodes")
    w = simpson_weights(n_intervals + 1, 1.0 / n_intervals)[:-1]
    u = np.linspace(0.0, 1.0, n_intervals + 1)[:-1]
    return u / (1.0 - u), w * (1.0 / (1.0 - u) ** 2)


def integral_zero_inf(f, rtol: float = 1e-10):
    """Integral of f over (0, inf) with node doubling until agreement.

    f must accept an ndarray of nodes and may return extra trailing axes
    (a batch of integrands sharing the nodes); integration runs along the
    first axis. The integrand has to vanish at infinity. Each rule's nodes
    are the even nodes of the next one, so each doubling evaluates f only on
    the new odd nodes: f sees every node once, n/2 of them per call after
    the first 32, and should not make a node's value depend on the rest of
    its batch. The estimate is the sum O + E of two running Simpson sums over
    the odd and the even nodes. The coarse rule's weights, halved for the
    even and quartered for the odd nodes, are the fine rule's weights on its
    even nodes, so doubling sets E to O/4 + E/2, exactly in powers of two,
    and O to the new values dotted with their weights; the values are then
    dropped. Every level takes its nodes and weights from _semi_infinite_rule,
    each after the first its [1::2] slices. The rule stops doubling at
    _MAX_NODES, and refuses a level whose nodes times the batch width would
    pass _MAX_VALUES values. rtol must be finite and >= 0.
    """
    _require_finite("integral_zero_inf", rtol=rtol)
    if rtol < 0.0:
        raise DomainError("integral_zero_inf needs rtol >= 0, got %g" % rtol)
    n = 32
    nodes, weights = _semi_infinite_rule(n)
    vals = np.asarray(f(nodes), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        odd = np.tensordot(weights[1::2], vals[1::2], axes=(0, 0))
        even = np.tensordot(weights[0::2], vals[0::2], axes=(0, 0))
    prev = change = None
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            est = odd + even
        if not np.all(np.isfinite(est)):
            # refused at once: more nodes cannot undo an overflow
            raise QuadratureError("semi-infinite integral overflowed at %d nodes" % n,
                                  nodes_used=n, last_estimate=est)
        if prev is not None:
            scale = np.max(np.abs(est))
            tol = rtol * np.maximum(np.abs(est), 1e-9 * scale) + 1e-300
            change = np.abs(est - prev)
            if np.all(change <= tol):
                return est
        prev = est
        n *= 2
        if n > _MAX_NODES:
            break
        if n * est.size > _MAX_VALUES:
            raise QuadratureError(
                "semi-infinite integral would evaluate %d values at %d nodes, more than %d"
                % (n * est.size, n, _MAX_VALUES), nodes_used=n // 2, last_estimate=est)
        nodes, weights = (part[1::2] for part in _semi_infinite_rule(n))
        new = np.asarray(f(nodes), dtype=float)
        # with h halved, the coarse weights 4h/3 (odd) and 2h/3 (even; h/3 at
        # u = 0) become h/3 (h/6 at u = 0) on the fine rule's even nodes
        even = odd / 4.0 + even / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            odd = np.tensordot(weights, new, axes=(0, 0))
        del new   # the level's values go before f runs on the next one
    raise QuadratureError(
        "semi-infinite integral did not settle below rtol=%g within %d nodes" % (rtol, _MAX_NODES),
        nodes_used=n // 2,
        last_estimate=est,
        last_change=float(np.max(change)),
    )


# ----------------------------------------------------------------------
# Bessel K, the Laplace-type integral and Tricomi U
# ----------------------------------------------------------------------

def bessel_k(nu: float, z):
    """Modified Bessel K_nu(z) for real order and z > 0.

    Uses K_nu = K_|nu| and the representation

        K_nu(z) = sqrt(pi) (z/2)^nu / Gamma(nu + 1/2)
                  * int_1^inf e^{-z p} (p^2 - 1)^{nu - 1/2} dp,

    with p = 1 + t^2 and then t = w / sqrt(z), which turns the integral into
    a Gaussian-weighted one whose shape barely depends on z:

        K_nu(z) = [2^{1-nu} sqrt(pi) e^{-z} / (Gamma(nu+1/2) sqrt(z))]
                  * int_0^inf e^{-w^2} w^{2 nu} (w^2/z + 2)^{nu - 1/2} dw.

    For |nu| < 1/2 the endpoint power w^{2 nu} would hold the node-doubling
    rule to O(h^{1 + 2 nu}), so, as in laplace_power_integral, w = v^m is
    substituted: the integrand is m v^{m (1 + 2 nu) - 1} e^{-v^{2m}}
    (v^{2m}/z + 2)^{nu - 1/2}, with m = 2 / (1 + 2 nu) below 1/2, where it
    rises linearly from v = 0, and m = 1, the w integrand itself, from 1/2 up.

    z may be a scalar or an ndarray (all entries positive); nu must be finite.
    """
    _require_finite("bessel_k", nu=nu)
    z_arr = _positive("bessel_k", "z", z)
    scalar = z_arr.ndim == 0
    zv = z_arr.ravel()
    nu = abs(float(nu))
    pref = (2.0 ** (1.0 - nu) * math.sqrt(math.pi) / gamma_fn(nu + 0.5)) \
        * np.exp(-zv) / np.sqrt(zv)
    # power = m (1 + 2 nu) - 1, set exactly: rounded, it can miss 1 by an ulp
    m, power = (1.0, 2.0 * nu) if nu >= 0.5 else (2.0 / (1.0 + 2.0 * nu), 1.0)
    out = np.empty_like(zv)
    # _CHUNK values of z at a time share their nodes, as in laplace_power_integral
    for start in range(0, zv.size, _CHUNK):
        zc = zv[None, start:start + _CHUNK]

        # at the far nodes e^{-w^2} is exactly 0 while the powers may overflow;
        # those nodes are zeroed, as in laplace_power_integral
        def integrand(v):
            v = v[:, None]
            s = v ** (2.0 * m)   # w^2
            decay = np.exp(-s)
            with np.errstate(over="ignore", invalid="ignore"):
                val = m * v ** power * decay * (s / zc + 2.0) ** (nu - 0.5)
            val[decay[:, 0] == 0.0] = 0.0
            return val

        out[start:start + _CHUNK] = integral_zero_inf(integrand)
    out *= pref
    return float(out[0]) if scalar else out.reshape(z_arr.shape)


def laplace_power_integral(p: float, b: float, q: float, c, rtol: float = 1e-10):
    """int_0^inf e^{-s} s^p (b + s/c)^q ds for p > -1, b > 0 and a batch of c > 0.

    The endpoint power s^p would ruin the node-doubling rule for fractional p
    (Simpson degrades to O(h^{1+p}), which for small p escalates the node
    count past memory limits), so s = v^m with m = 2 / (1 + p) is substituted:
    the transformed integrand rises linearly from zero for every p > -1 and
    its residual fractional power sits at order m (p + 1) + 1 = 3 or higher.
    For p >= 2 the plain integrand is already smooth enough and the
    substitution would only slow the tail decay, so it is skipped. c may be
    an ndarray; _CHUNK values of c at a time share their nodes. The slices
    run in ascending order of their smallest c: for q > 0 the factor
    (s/c + b)^q is largest at the smallest c, so an integral that overflows
    is refused by the first slice that runs. The order changes no value.
    """
    p = float(p)
    _require_finite("laplace_power_integral", p=p, b=b, q=q)
    if p <= -1.0:
        raise DomainError("Laplace integral needs p > -1 (tricomi_u: a > 0), got p=%g" % p)
    c_arr = _positive("laplace_power_integral", "c", c)
    cv = c_arr.ravel()
    m = 1.0 if p >= 2.0 else 2.0 / (1.0 + p)
    power = m * (p + 1.0) - 1.0
    out = np.empty_like(cv)
    for start in sorted(range(0, cv.size, _CHUNK), key=lambda i: cv[i:i + _CHUNK].min()):
        cc = cv[start:start + _CHUNK]

        def integrand(v):
            v = v[:, None]
            vp = np.where(v > 0.0, v, 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                s = vp ** m
                decay = np.exp(-s)
                # (s/c + b)^q times the (nodes, 1) factor, all in one array
                val = s / cc[None, :]
                val += b
                np.power(val, q, out=val)
                val *= m * decay * vp ** power
            val[~((decay > 0.0) & (v > 0.0))[:, 0]] = 0.0
            return val

        out[start:start + _CHUNK] = integral_zero_inf(integrand, rtol=rtol)
    return out.reshape(c_arr.shape)


def _log_case_u(a: float, x: np.ndarray, label: str) -> np.ndarray:
    """Gamma(a)^2 U(a, 1; x) for a > 0 and 0 < x < 1 by the log-case
    confluent series (DLMF 13.2.9),

        Gamma(a)^2 U(a, 1; x) = -Gamma(a) sum_k (a)_k x^k / (k!)^2
                                * [ln x + psi(a+k) - 2 psi(k+1)].

    The logarithm makes the x -> 0 end exact where quadrature routes fail;
    mild cancellation keeps it accurate up to x of order one. The loop is
    its own, not _sum_series, because the digamma bracket makes this no
    term-ratio series. label names the caller in the refusals.
    """
    if np.any(x <= 0.0):
        raise DomainError("the %s diverges logarithmically at x = 0" % label)
    lx = np.log(x)
    psi_a = digamma(a)
    psi_k = -float(np.euler_gamma)
    coeff = np.ones_like(x)
    total = np.zeros_like(x)
    quiet = 0
    for k in range(400):
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
    raise SeriesError("%s series did not converge within 400 terms" % label,
                      terms_used=400, partial_sum=float(np.max(np.abs(total))))


def tricomi_u(a: float, x, rtol: float = 1e-10):
    """Tricomi confluent U(a, 1; x) for a > 0, x > 0: below x = 1/2 the
    log-case series _log_case_u over Gamma(a)^2, from 1/2 up the Laplace integral

        U(a, 1; x) = (1 / Gamma(a)) int_0^inf e^{-x t} t^{a-1} (1 + t)^{-a} dt,

    which the scaling t = s/x turns into x^{-a} / Gamma(a) times
    laplace_power_integral(a - 1, 1, -a; x), whose endpoint substitution
    absorbs the power s^{a-1}. For a in (2, 3) that substitution s = v^m has
    m < 1, and the factor (1 + s/x)^{-a} keeps a power v^m weighted by 1/x,
    which no node count up to 2^20 settles at x = 1e-3. Gamma(a)^2 U(a, 1; x)
    is the lin_new measure profile f3 at a = gap + 1. x may be an ndarray; a
    must be finite.
    """
    a = float(a)
    _require_finite("tricomi_u", a=a)
    x_arr = _positive("tricomi_u", "x", x)
    gamma_a = gamma_fn(a)
    xv = x_arr.ravel()
    out = np.empty_like(xv)
    small = xv < _LOG_CASE_SWITCH
    if small.any():
        out[small] = _log_case_u(a, xv[small], "tricomi_u") / gamma_a / gamma_a
    if not small.all():
        big = xv[~small]
        integral = laplace_power_integral(a - 1.0, 1.0, -a, big, rtol=rtol)
        out[~small] = big ** (-a) / gamma_a * integral
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


# ----------------------------------------------------------------------
# Mellin moments
# ----------------------------------------------------------------------

def mellin_moment(f, s: float, rtol: float = 1e-8) -> float:
    """int_0^inf x^{s-1} f(x) dx for s > 0.

    Both halves are taken on a log axis (x = e^{+-v}), which soaks up power
    and logarithmic endpoint behaviour at x = 0 without the caller having to
    pre-substitute anything. f must accept ndarrays and decay fast enough at
    infinity for the moment to exist; if it does not, the node doubling fails
    to settle and a QuadratureError comes back.
    """
    s = float(s)
    _require_finite("mellin_moment", s=s)
    if s <= 0.0:
        raise DomainError("mellin_moment needs s > 0, got %g" % s)

    # x = e^{sign v}: arguments handed to f stay strictly inside
    # (e^-690, e^690) so callers never see an exact 0 or inf; the true v is
    # kept in the weight exponent
    def half(v, sign):
        fv = np.asarray(f(np.exp(sign * np.minimum(v, 690.0))), dtype=float)
        out = np.zeros_like(fv)
        m = fv != 0.0
        # multiply in log space so a huge x^{s} never meets a tiny f(x) head on
        with np.errstate(over="ignore"):
            out[m] = np.sign(fv[m]) * np.exp(sign * s * v[m] + np.log(np.abs(fv[m])))
        return out

    hi = integral_zero_inf(lambda v: half(v, 1.0), rtol=rtol)
    lo = integral_zero_inf(lambda v: half(v, -1.0), rtol=rtol)
    return float(hi + lo)
