"""Special-function kernel against precomputed high-precision references.

The reference numbers were generated once with mpmath at 30 digits and are
frozen here. Only the complex-argument series, the Tricomi U grid, the seed
and measure series and the small- and large-order Bessel K values are
checked against mpmath live, since they span more points than a frozen
table would be worth; those tests skip where mpmath is absent.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyosc import specfun
from susyosc.errors import DomainError, QuadratureError, SeriesError
from susyosc.specfun import (
    _SERIES_CAP,
    _SERIES_QUIET,
    _semi_infinite_rule,
    _sum_array,
    _sum_scalar,
    _sum_series,
    bessel_k,
    digamma,
    gamma_fn,
    hyp0f2,
    hyp1f1,
    integral_zero_inf,
    laplace_power_integral,
    mellin_moment,
    tricomi_u,
)
from susyosc.susy import SystemSpec


def test_gamma_reference_values():
    assert abs(gamma_fn(6.3) - 201.8132751847475) < 1e-11
    assert abs(gamma_fn(0.37) - 2.4035500200786532) < 1e-13
    assert abs(gamma_fn(14.2) - 10495590191.787774) < 1e-3
    # reflection side
    assert abs(gamma_fn(-2.3) - (-1.4471073942559173)) < 1e-13
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-14


def test_gamma_poles_raise():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            gamma_fn(x)


def test_gamma_near_the_float_ceiling():
    # frozen 40-digit mpmath values of Gamma at the float arguments; on
    # [142.215, 142.369] the power t^(y+1/2) of a Lanczos form overflows to
    # inf without raising, while Gamma itself is near 1e244
    for x, want in ((142.22, "5.643778402658161407356924820308152086202e243"),
                    (142.3, "8.388693393101249167476005263940452084607e243"),
                    (142.36, "1.129276943365498504709924688392153164725e244"),
                    (143.0, "2.695364137888162776588507508037290267094e245"),
                    (150.0, "3.808922637630569726985955243507369335460e260"),
                    (171.0, "7.257415615307998967396728211129263114717e306")):
        assert abs(gamma_fn(x) / float(want) - 1.0) < 1e-15
    with pytest.raises(DomainError, match="overflows"):
        gamma_fn(172.0)
    with pytest.raises(DomainError, match="overflows"):
        gamma_fn(1e-310)


@settings(max_examples=60, derandomize=True)
@given(st.floats(min_value=0.1, max_value=25.0))
def test_gamma_recurrence(x):
    assert abs(gamma_fn(x + 1.0) / (x * gamma_fn(x)) - 1.0) < 1e-12


def test_digamma_reference_values():
    gamma_e = 0.5772156649015329
    assert abs(digamma(1.0) + gamma_e) < 1e-14
    assert abs(digamma(0.5) + gamma_e + 2.0 * math.log(2.0)) < 1e-13
    assert abs(digamma(7.3) - 1.9178203356379861) < 1e-13
    assert abs(digamma(0.3) - (-3.502524222200133)) < 1e-12
    assert abs(digamma(40.7) - 3.6938927760240245) < 1e-13
    with pytest.raises(DomainError):
        digamma(-3.0)


@settings(max_examples=60, derandomize=True)
@given(st.floats(min_value=0.05, max_value=30.0))
def test_digamma_recurrence(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-11


def test_hyp1f1_reference_values():
    assert abs(hyp1f1(-5.8, 0.5, 2.1) / 2.1494969003540717 - 1.0) < 1e-11
    assert abs(hyp1f1(0.65, 1.5, -3.4) / 0.36837380947498638 - 1.0) < 1e-11
    assert abs(hyp1f1(2.25, 0.5, 6.25) / 27133.925812379176 - 1.0) < 1e-11


def test_hyp1f1_kummer_transformation():
    # 1F1(a, c, x) = e^x 1F1(c-a, c, -x)
    for a, c, x in ((0.65, 1.5, 2.7), (1.9, 0.5, 1.3)):
        lhs = hyp1f1(a, c, x)
        rhs = math.exp(x) * hyp1f1(c - a, c, -x)
        assert abs(lhs / rhs - 1.0) < 1e-11


def test_hyp0f2_reference_values():
    assert abs(hyp0f2(7.3, 3.3, 5.0) / 1.2225949296261737 - 1.0) < 1e-12
    assert abs(hyp0f2(2.5, 1.5, 0.8) / 1.2232521742516955 - 1.0) < 1e-12
    assert abs(hyp0f2(1.2, 0.4, 30.0) / 1035.9190495231375 - 1.0) < 1e-12
    assert hyp0f2(2.0, 1.0, 0.0) == 1.0


def test_hyp0f2_rejects_bad_parameters():
    with pytest.raises(DomainError):
        hyp0f2(-1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        hyp0f2(2.0, 1.0, -0.5)


# moderate moduli at assorted phases, where the direct series is accurate
_COMPLEX_ARGS = (2j, 0.5 + 3j, -1.5 + 2.5j, 4.0 * complex(math.cos(2.2), math.sin(2.2)),
                 -0.7 - 0.2j, 6.0 - 1.0j)


def test_complex_series_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    cases = (
        (lambda w: hyp1f1(0.5, 1.5, w), lambda w: mpmath.hyp1f1(0.5, 1.5, w)),
        (lambda w: hyp0f2(2.5, 1.5, w), lambda w: mpmath.hyper([], [2.5, 1.5], w)),
    )
    for ours, ref in cases:
        scalars = [ours(w) for w in _COMPLEX_ARGS]
        for w, got in zip(_COMPLEX_ARGS, scalars):
            assert type(got) is complex
            assert abs(got / complex(ref(w)) - 1.0) < 1e-14
        grid = ours(np.array(_COMPLEX_ARGS).reshape(2, 3))
        assert grid.dtype == np.complex128 and grid.shape == (2, 3)
        # bitwise: the array runs the scalar loop on each of its values
        assert np.array_equal(grid.ravel().view(np.uint64),
                              np.array(scalars).view(np.uint64))


def test_series_refuse_non_finite_arguments():
    calls = (
        (hyp0f2, (2.5, 1.5, np.array([0.5, np.nan]))),
        (hyp0f2, (2.5, 1.5, complex(1.0, math.inf))),
        (hyp1f1, (0.5, 1.5, np.array([np.inf]))),
        (hyp1f1, (0.5, 1.5, math.nan)),
    )
    for fn, args in calls:
        with pytest.raises(DomainError, match="%s argument x must be finite" % fn.__name__):
            fn(*args)


def test_non_finite_parameters_refused_by_name():
    calls = (
        (gamma_fn, (-math.inf,), "gamma_fn x must be finite, got -inf"),
        (gamma_fn, (math.nan,), "gamma_fn x must be finite, got nan"),
        (digamma, (-math.inf,), "digamma x must be finite, got -inf"),
        (hyp1f1, (0.5, -math.inf, 1.0), "hyp1f1 c must be finite, got -inf"),
        (hyp1f1, (math.nan, 0.5, 1.0), "hyp1f1 a must be finite, got nan"),
        (hyp0f2, (math.inf, 1.5, 1.0), "hyp0f2 b1 must be finite, got inf"),
        (hyp0f2, (2.5, math.nan, np.array([1.0])), "hyp0f2 b2 must be finite, got nan"),
    )
    for fn, args, message in calls:
        with pytest.raises(DomainError, match="^%s$" % message):
            fn(*args)


def _exp_minus(t):
    return np.exp(-t)


@pytest.mark.parametrize("fn, args, kwargs, message", [
    (integral_zero_inf, (_exp_minus,), {"rtol": math.nan},
     "integral_zero_inf rtol must be finite, got nan"),
    (integral_zero_inf, (_exp_minus,), {"rtol": -1.0},
     "integral_zero_inf needs rtol >= 0, got -1"),
    (mellin_moment, (_exp_minus, math.nan), {}, "mellin_moment s must be finite, got nan"),
    (mellin_moment, (_exp_minus, math.inf), {}, "mellin_moment s must be finite, got inf"),
    (mellin_moment, (_exp_minus, 1.5), {"rtol": math.nan},
     "integral_zero_inf rtol must be finite, got nan"),
    (laplace_power_integral, (math.nan, 1.0, 1.0, 1.0), {},
     "laplace_power_integral p must be finite, got nan"),
    (laplace_power_integral, (0.5, 1.0, math.nan, 1.0), {},
     "laplace_power_integral q must be finite, got nan"),
    (laplace_power_integral, (0.5, 1.0, 1.0, np.array([1.0, math.nan])), {},
     "laplace_power_integral needs c > 0, got nan"),
    (laplace_power_integral, (0.5, -1.0, 1.5, 1.0), {}, "Laplace integral needs b > 0, got b=-1"),
    (laplace_power_integral, (0.5, 0.0, 1.5, 1.0), {}, "Laplace integral needs b > 0, got b=0"),
    (tricomi_u, (math.nan, 1.0), {}, "tricomi_u a must be finite, got nan"),
    # below x = 1/2 the series answers; the rtol is read at entry all the same
    (tricomi_u, (2.0, 0.1), {"rtol": -5.0}, "integral_zero_inf needs rtol >= 0, got -5"),
    (tricomi_u, (2.0, 0.1), {"rtol": math.nan}, "integral_zero_inf rtol must be finite, got nan"),
    (tricomi_u, (2.0, math.nan), {}, "tricomi_u needs x > 0, got nan"),
    (bessel_k, (1.0, math.nan), {}, "bessel_k needs z > 0, got nan"),
    (bessel_k, (math.inf, 1.0), {}, "bessel_k nu must be finite, got inf"),
], ids=["rtol-nan", "rtol-negative", "mellin-s-nan", "mellin-s-inf", "mellin-rtol-nan",
        "laplace-p-nan", "laplace-q-nan", "laplace-c-nan", "laplace-b-negative", "laplace-b-zero",
        "tricomi-a-nan", "tricomi-small-x-rtol-negative", "tricomi-small-x-rtol-nan",
        "tricomi-x-nan", "bessel-z-nan", "bessel-nu-inf"])
def test_quadrature_refuses_unusable_parameters_by_name(fn, args, kwargs, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
            fn(*args, **kwargs)


def test_quadrature_keeps_zero_rtol_and_limits_at_infinity():
    # two equal estimates settle at rtol = 0
    assert integral_zero_inf(lambda t: np.zeros_like(t), rtol=0.0) == 0.0
    assert tricomi_u(2.0, math.inf) == 0.0
    assert bessel_k(1.0, math.inf) == 0.0


def test_doubling_level_values_are_bounded():
    # 512 values of c need 2^18 nodes at x = 1e-3: _MAX_VALUES bounds the
    # values a run would evaluate (n nodes x batch width; a level holds only
    # its n/2 x width new ones), and the level that would pass it is refused
    # before it is evaluated
    with pytest.raises(QuadratureError, match="more than %d" % specfun._MAX_VALUES) as info:
        laplace_power_integral(2.3, 1.0, -3.3, np.geomspace(1e-3, 1.0, 512))
    assert info.value.nodes_used * 2 * 512 > specfun._MAX_VALUES
    assert info.value.last_estimate.shape == (512,)


def _reference_sum(term_ratio, x):
    """The plain whole-array loop: every point adds every term, until all
    terms are negligible and shrinking everywhere, and then 200 terms more."""
    small = np.finfo(x.dtype).eps / 8
    term = np.ones_like(x)
    total = np.ones_like(x)
    n, last = 0, None
    while last is None or n < last + 200:
        ratio = term_ratio(n)
        term = term * x * ratio
        total = total + term
        n += 1
        if (last is None and abs(term_ratio(n)) <= abs(ratio)
                and np.all(np.abs(x * ratio) <= 1.0)
                and np.all(np.abs(term) <= small * np.abs(total))):
            last = n
    return total


def test_array_series_matches_whole_array_loop_bitwise():
    # shuffled, 2-D and of both signs, so the |x| sort and the scatter back
    # into input order and shape are both exercised
    rng = np.random.default_rng(11)
    x = rng.permutation(np.linspace(-60.0, 110.0, 391).astype(np.longdouble)).reshape(17, 23)
    for a, c in ((0.3, 0.5), (-2.7, 0.5), (1.8, 2.5)):
        got = hyp1f1(a, c, x)
        want = _reference_sum(lambda n: (a + n) / ((c + n) * (n + 1.0)), x)
        assert got.dtype == np.longdouble and got.shape == x.shape
        assert np.array_equal(got, want)


def _seed_grid(x_max, n_points):
    """The long-double grid the seed series run on."""
    spec = SystemSpec(k=1, eps_top=-1.0, nu=0.0, x_min=-x_max, x_max=x_max, n_points=n_points)
    return spec.grid().astype(np.longdouble)


def _ratio_1f1(a, c):
    return lambda n: (a + n) / ((c + n) * (n + 1.0))


@pytest.mark.parametrize("x_max, n_points", [(10.5, 2101), (10.5, 4201),
                                              (12.5, 2101), (12.5, 4201)])
def test_seed_argument_grids_match_whole_array_loop_bitwise(x_max, n_points):
    # w = x^2 on the seeds' mirror grid holds each value at both mirror
    # points, so each distinct w is summed once and scattered to both; the
    # quiet test runs on a band past the last quiet-prefix end
    x = _seed_grid(x_max, n_points)
    w = x * x
    assert np.unique(w).size == n_points // 2 + 1
    for a, c in _seed_series(-2.8):   # all four series of the top seed
        got = hyp1f1(a, c, w)
        assert got.dtype == np.longdouble
        assert np.array_equal(got, _reference_sum(_ratio_1f1(a, c), w))


def test_repeated_float_arguments_match_whole_array_loop_bitwise():
    # repeats of both signs, with -0.0 and +0.0 as one value, shuffled into 2-D
    rng = np.random.default_rng(5)
    base = rng.uniform(-45.0, 45.0, 120)
    x = np.concatenate([base, base[::2], -base[::3], [0.0, -0.0, 0.0, -0.0]])
    x = rng.permutation(x).reshape(8, -1)
    for a, c in ((0.3, 0.5), (-2.7, 0.5), (1.8, 2.5)):
        got = hyp1f1(a, c, x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got, _reference_sum(_ratio_1f1(a, c), x))
    got = hyp1f1(0.3, 0.5, np.array([-0.0, 0.0, -0.0]))
    assert np.array_equal(got, [1.0, 1.0, 1.0])


def test_repeated_complex_arguments_match_scalar_loop_bitwise():
    # a complex array runs the scalar loop once per distinct value, so each
    # repeat holds that loop's sum of its value
    rng = np.random.default_rng(6)
    z = rng.uniform(-15.0, 15.0, 60) + 1j * rng.uniform(-15.0, 15.0, 60)
    z = rng.permutation(np.concatenate(
        [z, z[::2], np.conj(z[::3]), [0j, complex(-0.0, 0.0), complex(0.0, -0.0)]]))
    for fn, p, q in ((hyp1f1, 0.3, 0.5), (hyp1f1, -2.7, 0.5), (hyp0f2, 2.5, 1.5)):
        got = fn(p, q, z)
        assert got.dtype == np.complex128
        assert np.array_equal(got, [fn(p, q, complex(v)) for v in z])


def test_repeated_arguments_keep_the_refusal_fields(monkeypatch):
    # an overflow among repeats is refused at the first finiteness test with
    # an infinite partial sum; a capped run reports the largest partial sum,
    # as the plain whole-array loop over the distinct values gives it at the
    # cap (frozen from that loop)
    with pytest.raises(SeriesError, match="not finite") as info:
        hyp0f2(2.5, 1.5, np.array([3.0, 1e200, 0.5, 3.0, 1e200, 0.5, 2.0]))
    assert info.value.terms_used == _SERIES_QUIET and info.value.partial_sum == math.inf
    ratio = lambda n: 1.0 / (n + 1.0)
    for x, cap, partial in (([60.0, 0.5, -60.0, 60.0, 0.5, -60.0], 64, 8.269784546547297e+25),
                            ([30.0, 0.5, 30.0, 0.5, 7.0, 7.0], 80, 10686474581524.34)):
        monkeypatch.setattr(specfun, "_SERIES_CAP", cap)
        with pytest.raises(SeriesError, match="did not converge") as info:
            _sum_series(ratio, np.array(x))
        assert info.value.terms_used == cap and info.value.partial_sum == partial


def test_quadrature_rule_validation():
    with pytest.raises(DomainError):
        _semi_infinite_rule(7)


def test_integral_zero_inf_gamma_value():
    got = integral_zero_inf(lambda t: t ** 3 * np.exp(-t))
    assert abs(got - 6.0) < 1e-9


def test_integral_zero_inf_batched():
    def f(t):
        return np.stack([np.exp(-t), t * np.exp(-t)], axis=-1)

    got = integral_zero_inf(f)
    assert np.max(np.abs(got - 1.0)) < 1e-9


def test_integral_zero_inf_reports_failure(monkeypatch):
    # a node cap too small to settle a slowly decaying integrand
    monkeypatch.setattr(specfun, "_MAX_NODES", 256)
    with pytest.raises(QuadratureError) as info:
        integral_zero_inf(lambda t: 1.0 / (1.0 + t) ** 1.01)
    assert info.value.nodes_used == 256


def test_integral_zero_inf_refuses_overflow_at_once():
    # more nodes cannot undo an overflow, so the first rule refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="overflowed") as info:
            integral_zero_inf(lambda t: np.full(t.shape, np.inf))
    assert info.value.nodes_used == 32


def test_bessel_k_reference_values():
    assert abs(bessel_k(0.0, 1.0) / 0.42102443824070833 - 1.0) < 1e-10
    assert abs(bessel_k(4.0, 3.6) / 0.11426037539569911 - 1.0) < 1e-10
    assert abs(bessel_k(2.3, 0.7) / 5.975961761210582 - 1.0) < 1e-10
    assert abs(bessel_k(6.3, 14.0) / 1.0669156088068249e-6 - 1.0) < 1e-10


def test_bessel_k_half_order_closed_form():
    want = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
    assert abs(bessel_k(0.5, 2.0) / want - 1.0) < 1e-11


def test_bessel_k_symmetry_and_recurrence():
    assert bessel_k(-2.3, 0.7) == bessel_k(2.3, 0.7)
    nu, z = 1.3, 2.4
    lhs = bessel_k(nu + 1.0, z)
    rhs = bessel_k(nu - 1.0, z) + (2.0 * nu / z) * bessel_k(nu, z)
    assert abs(lhs / rhs - 1.0) < 1e-9
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)


def test_bessel_k_vectorized():
    z = np.array([0.5, 1.0, 2.0])
    vals = bessel_k(0.0, z)
    assert vals.shape == z.shape
    assert abs(vals[1] / 0.42102443824070833 - 1.0) < 1e-10
    grid = z[:, None] * np.array([1.0, 3.0])
    assert np.array_equal(bessel_k(1.3, grid), bessel_k(1.3, grid.ravel()).reshape(grid.shape))
    # a batch wider than one level's value budget runs in chunks of z
    wide = np.linspace(1.0, 2.0, 9001)
    got = bessel_k(1.0, wide)
    assert np.allclose(got[::1500], [bessel_k(1.0, v) for v in wide[::1500]], rtol=1e-9, atol=0.0)


def test_bessel_k_small_orders_match_mpmath():
    # below order 1/2 the integrand's endpoint power w^(2 nu) takes the
    # endpoint substitution; without it these runs did not settle
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 20
    assert abs(bessel_k(0.1, 0.05) / float(mpmath.besselk(0.1, 0.05)) - 1.0) < 1e-10
    z = np.random.default_rng(12).uniform(0.05, 30.0, 512)
    got = bessel_k(0.3, z)
    want = np.array([float(mpmath.besselk(0.3, v)) for v in z])
    assert np.max(np.abs(got / want - 1.0)) < 1e-10


def test_bessel_k_large_order_matches_mpmath():
    # far out, e^{-w^2} is exactly 0 while the integrand's powers overflow;
    # those nodes count as 0 instead of 0 * inf = nan
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bessel_k(50.0, 0.01)
    assert abs(got / float(mpmath.besselk(50, 0.01)) - 1.0) < 1e-12


def test_bessel_k_overflowing_order_refused():
    # K_150(1) ~ 1e305: the integral itself overflows and is refused, typed
    # and without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="overflowed"):
            bessel_k(150.0, 1.0)


def test_tricomi_u_reference_values():
    # U(1,1,x) = e^x E_1(x)
    assert abs(tricomi_u(1.0, 1.0) / 0.59634736232319407 - 1.0) < 1e-9
    assert abs(tricomi_u(7.3, 2.25) / 7.5222518164704052e-7 - 1.0) < 1e-9
    assert abs(tricomi_u(2.5, 0.9) / 0.10840550978568394 - 1.0) < 1e-9


def test_tricomi_u_power_tail():
    # U(a,1,x) ~ x^{-a} (1 + O(1/x)) for large x
    got = tricomi_u(2.5, 50.0) * 50.0 ** 2.5
    assert abs(got - 1.0) < 0.2
    with pytest.raises(DomainError):
        tricomi_u(-1.0, 2.0)
    with pytest.raises(DomainError):
        tricomi_u(1.0, -2.0)


def test_tricomi_u_matches_mpmath():
    # both sides of a = 3, where the endpoint substitution switches off, a in
    # [2, 3), which it reaches through the shared rule p = a - 1 < 2, and a
    # just above 1, where the plain integrand's endpoint power is weakest
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    xs = np.array([0.5, 1.0, 4.0, 25.0, 100.0])
    for a in (0.3, 0.7, 1.0, 1.05, 1.2, 1.6, 2.0, 2.5, 2.9, 3.5, 7.3, 15.0):
        got = tricomi_u(a, xs)
        want = np.array([float(mpmath.hyperu(a, 1, x)) for x in xs])
        assert np.max(np.abs(got / want - 1.0)) < 1e-9


def test_tricomi_u_small_x_matches_mpmath():
    # for a in (2, 3) the Laplace integral's substitution leaves a power v^m,
    # m < 1, weighted by 1/x, which did not settle within 2^20 nodes at
    # x = 1e-3; the log-case series takes x below 1/2
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    xs = np.array([1e-6, 1e-4, 1e-3, 3e-3, 1e-2])
    for a in (2.05, 2.2, 2.5, 2.9):
        got = tricomi_u(a, xs)
        want = np.array([float(mpmath.hyperu(a, 1, x)) for x in xs])
        assert np.max(np.abs(got / want - 1.0)) < 1e-12
        assert tricomi_u(a, 1e-3) == got[2]


def test_mellin_moment_gamma_and_nontrivial():
    got = mellin_moment(lambda x: np.exp(-x), 2.7)
    assert abs(got / 1.5446858458505938 - 1.0) < 1e-9
    got = mellin_moment(lambda x: np.exp(-x) / (1.0 + x), 1.6)
    assert abs(got / 0.41641130295467471 - 1.0) < 1e-8


def test_series_nan_point_never_counts_as_quiet():
    # a NaN point is never returned as converged; its total is not finite,
    # so the refusal comes at the first finiteness test, not at the cap.
    # _sum_series refuses a NaN argument, so the loops are fed one directly
    ratio = lambda n: 1.0 / (n + 1.0)
    small = float(np.finfo(np.float64).eps) / 8.0
    for loop, x in ((_sum_array, np.array([0.5, np.nan])), (_sum_scalar, math.nan)):
        with pytest.raises(SeriesError) as info:
            loop(ratio, x, small, 300, "series", 0)
        assert info.value.terms_used == _SERIES_QUIET
        assert math.isnan(info.value.partial_sum)


def test_series_cap_reached_on_a_retiring_term(monkeypatch):
    # 0.5 retires on term 64 of e^x; with the cap there the refusal must
    # still be a SeriesError carrying the unconverged 60.0 partial sum
    monkeypatch.setattr(specfun, "_SERIES_CAP", 64)
    with pytest.raises(SeriesError) as info:
        _sum_series(lambda n: 1.0 / (n + 1.0), np.array([0.5, 60.0]))
    assert info.value.terms_used == 64 and info.value.partial_sum > 1e20


def test_series_return_types():
    assert type(hyp1f1(0.3, 0.5, 2.0)) is float
    assert type(hyp0f2(2.5, 1.5, np.float64(0.8))) is float
    assert type(hyp1f1(0.3, 0.5, 3)) is float
    got = hyp1f1(0.3, 0.5, np.longdouble(2.0))
    assert type(got) is np.longdouble
    assert got == hyp1f1(0.3, 0.5, np.array([2.0], dtype=np.longdouble))[0]
    grid = np.linspace(0.0, 5.0, 12).reshape(3, 4)
    got = hyp0f2(2.5, 1.5, grid)
    assert got.shape == (3, 4) and got.dtype == np.float64
    assert np.array_equal(got.ravel(), [hyp0f2(2.5, 1.5, w) for w in grid.ravel()])


def _bits(value):
    return type(value), np.array(value).tobytes()


def test_scalar_front_end_sums_as_a_0d_array_bitwise(monkeypatch):
    # a finite float64 or complex128 scalar and a 0-d array of its value take
    # the one scalar branch, with the same bits and Python type. The
    # kernel's overlap argument conj(z') z is an np.complex128, which the loop
    # must see as a Python complex: numpy's scalar arithmetic moves last bits
    args = [0.8, np.float64(2.3), 0.0, -0.0, np.float64(-0.0), 1.2 - 0.7j, complex(2.5, -0.0),
            np.complex128(-3.1 + 0.4j), np.conj(0.5 + 0.2j) * (0.9 + 0.4j)]
    seen = []
    loop = specfun._sum_scalar
    monkeypatch.setattr(specfun, "_sum_scalar",
                        lambda ratio, xv, *rest: seen.append(type(xv)) or loop(ratio, xv, *rest))
    for fn, p, q, extra in ((hyp0f2, 2.5, 1.5, []), (hyp1f1, 0.3, 0.5, [-4.0, np.float64(-0.6)])):
        for x in args + extra:
            kind = float if isinstance(x, float) else complex
            seen.clear()
            got = fn(p, q, x)
            assert seen == [kind], (fn, x)
            # the 0-d array of the value reaches the same loop once, as a Python number
            seen.clear()
            assert _bits(got) == _bits(fn(p, q, np.array(x))), (fn, x)
            assert seen == [kind], (fn, x)


def test_scalar_front_end_refuses_as_the_array_path():
    big = complex(1.5e308, 1.5e308)
    cases = [
        (hyp0f2, math.nan, DomainError, "hyp0f2 argument x must be finite, got nan"),
        (hyp0f2, np.float64(math.inf), DomainError, "hyp0f2 argument x must be finite, got inf"),
        (hyp1f1, -math.inf, DomainError, "hyp1f1 argument x must be finite, got -inf"),
        (hyp1f1, complex(math.nan, 0.0), DomainError,
         r"hyp1f1 argument x must be finite, got \(nan\+0j\)"),
        (hyp0f2, np.complex128(complex(0.0, -math.inf)), DomainError,
         "hyp0f2 argument x must be finite, got -infj"),
        (hyp0f2, -3.5, DomainError, "hyp0f2 argument must be non-negative"),
        (hyp0f2, np.float64(-1e-300), DomainError, "hyp0f2 argument must be non-negative"),
        (hyp0f2, big, SeriesError, "hyp0f2 partial sum is not finite after 50 terms"),
        (hyp1f1, np.complex128(big), SeriesError, "hyp1f1 partial sum is not finite after 50 terms"),
    ]
    for fn, x, error, message in cases:
        p, q = (2.5, 1.5) if fn is hyp0f2 else (0.3, 0.5)
        for arg in (x, np.array(x)):
            with pytest.raises(error, match="^%s$" % message):
                fn(p, q, arg)
    # a parameter is refused before the argument, as on the array path
    with pytest.raises(DomainError, match="^hyp0f2 b1 must be finite, got nan$"):
        hyp0f2(math.nan, 1.5, -3.5)
    with pytest.raises(DomainError, match="^hyp1f1 undefined at non-positive integer c=-2$"):
        hyp1f1(0.5, -2.0, math.nan)


def test_semi_infinite_rule_positive_weights():
    nodes, weights = _semi_infinite_rule(64)
    assert np.all(weights > 0.0)
    assert np.all(np.isfinite(nodes))


def test_overflowing_series_refused_at_once():
    # an overflowed partial sum is never final and never finite again; the
    # refusal comes within _SERIES_QUIET terms of the overflow, not at the cap.
    # A real sum reads inf; the complex one turns NaN in the term itself,
    # where Python's complex-by-float product forms inf * 0
    for x, partial in ((1e200, math.inf), (1e200 + 1e100j, math.nan),
                       (np.array([0.5, 3.0, 1e200, 2.0]), math.inf)):
        with np.errstate(all="ignore"), \
                pytest.raises(SeriesError, match="not finite") as info:
            hyp0f2(2.5, 1.5, x)
        assert info.value.terms_used <= 2 * _SERIES_QUIET < _SERIES_CAP
        assert repr(info.value.partial_sum) == repr(partial)


def test_sum_that_overflows_past_its_largest_term_refused():
    # the terms of e^710.2, formed from x = 1e-10 so that no product
    # overflows: the sum overflows at term 721, where every term is finite
    # and |x ratio(n)| <= 1 already; inf <= eps * inf holds, so an infinite
    # sum must never count as final, only be refused at the next test
    ratio = lambda n: 7.102e12 / (n + 1.0)
    for x in (1e-10, np.array([1e-12, 1e-10])):
        with pytest.raises(SeriesError, match="not finite") as info:
            _sum_series(ratio, x)
        assert info.value.terms_used == 750 and info.value.partial_sum == math.inf


def _plain_scalar(term_ratio, x, terms=400):
    """The plain loop on a Python number, run for a fixed number of terms."""
    term = total = x * 0.0 + 1.0
    for n in range(terms):
        term = term * x * term_ratio(n)
        total = total + term
    return total


def test_series_runs_on_while_its_terms_still_grow():
    # a ratio that dips at n = 0 and shrinks from n = 1 on: the second term
    # is far below the sum 1, but |x ratio(n)| > 1 until n = 99, so later
    # terms outgrow it and the sum is near 1e-30 e^100
    ratio = lambda n: 1e-30 if n == 0 else 1.0 / (n + 1.0)
    want = _plain_scalar(ratio, 100.0)
    assert want > 1e13
    assert _sum_series(ratio, 100.0, steady=1) == want
    got = _sum_series(ratio, np.array([100.0, 0.5]), steady=1)
    assert np.array_equal(got, [want, _plain_scalar(ratio, 0.5)])


def test_complex_sum_final_only_when_both_parts_are():
    # next to the zero of 0F2(; 2.5, 1.5; x) at x0 = -5.06820..., Re S is a
    # small share of |S|, so a sum stopped against |S| would keep a Re S
    # that later terms still move
    ratio = lambda n: 1.0 / ((2.5 + n) * (1.5 + n) * (n + 1.0))
    z = [complex(-5.068203613589482, d) for d in (1e-3, 1e-6, 1e-9, 1e-12)]
    want = [_plain_scalar(ratio, v) for v in z]
    assert [hyp0f2(2.5, 1.5, v) for v in z] == want
    assert np.array_equal(hyp0f2(2.5, 1.5, np.array(z)), want)


def test_complex_series_with_zero_imaginary_part_sums_as_real():
    # every term of a real x is real, so a complex x with imaginary part 0
    # stops where the real x does; against min(|Re S|, |Im S|) = 0 it could
    # stop only once its terms underflow
    def counted(x):
        calls = []
        ratio = lambda n: calls.append(n) or 1.0 / ((7.3 + n) * (3.3 + n) * (n + 1.0))
        return _sum_series(ratio, x), calls

    def plus_zero(values):
        values = np.atleast_1d(values)
        return (values.imag == 0.0).all() and not np.signbit(values.imag).any()

    for x in (5.0, 0.5, -4.0, 0.0):
        want, want_calls = counted(x)
        for xc in (complex(x, 0.0), complex(x, -0.0)):
            got, calls = counted(xc)
            assert type(got) is complex and got.real == want and plus_zero(got)
            assert len(calls) <= len(want_calls)
    x = np.array([5.0, 2.0, 0.5, -4.0, 5.0])
    got, calls = counted(x.astype(complex))
    assert got.dtype == complex and np.array_equal(got.real, counted(x)[0]) and plus_zero(got)
    # each distinct value runs its own loop from n = 0, in np.unique's order,
    # and adds no more terms than its real twin
    runs = np.split(calls, np.flatnonzero(np.equal(calls, 0))[1:])
    values = np.unique(x)
    assert len(runs) == len(values)
    for v, run in zip(values, runs):
        assert len(run) <= len(counted(v)[1])
    # a real point beside complex ones still sums as the real x
    mixed = np.array([5.0, 2.0 + 1.0j, 0.5])
    got, _ = counted(mixed)
    assert np.array_equal(got[[0, 2]].real, counted(np.array([5.0, 0.5]))[0])
    assert plus_zero(got[[0, 2]])
    assert hyp0f2(7.3, 3.3, 5.0 + 0.0j) == hyp0f2(7.3, 3.3, 5.0)


def test_complex64_arguments_sum_widened_in_the_scalar_loop():
    ratio = lambda n: 1.0 / ((2.5 + n) * (1.5 + n) * (n + 1.0))
    small = float(np.finfo(np.float64).eps) / 8.0
    z = np.array([[0.5 + 3j, -1.5 + 2.5j], [0.5 + 3j, -7.25 - 0.5j]], dtype=np.complex64)
    want = np.array([_sum_scalar(ratio, v, small, _SERIES_CAP, "series", 0)
                     for v in z.astype(np.complex128).ravel().tolist()]).reshape(z.shape)
    got = _sum_series(ratio, z)
    assert got.dtype == np.complex128 and got.shape == z.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for x in (z[1, 1], np.array(z[1, 1])):
        got = _sum_series(ratio, x)
        assert type(got) is complex and got == want[1, 1]
    assert np.array_equal(hyp0f2(2.5, 1.5, z), want)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="clongdouble is complex128 on this platform")
def test_clongdouble_arguments_refused_naming_their_dtype():
    # summed in complex128 they would lose their extra precision silently
    name = str(np.dtype(np.clongdouble))
    for fn, p, q in ((hyp0f2, 2.5, 1.5), (hyp1f1, 0.5, 1.5)):
        for x in (np.array([1.0 + 2.0j, 0.5j], dtype=np.clongdouble), np.clongdouble(1.0 + 2.0j)):
            with pytest.raises(DomainError, match="%s will not narrow a %s x" % (fn.__name__, name)):
                fn(p, q, x)


def test_complex_modulus_past_the_float_range_refused():
    # abs() of a Python complex whose parts are finite but whose modulus is
    # not raises OverflowError; such an x, or a term that grows by |x| = 1.06
    # into that range, is refused as an overflowed sum
    big = complex(1.5e308, 1.5e308)
    for x in (big, np.array([0.5 + 1j, big])):
        with pytest.raises(SeriesError, match="not finite") as info:
            hyp0f2(2.5, 1.5, x)
        assert info.value.terms_used <= 2 * _SERIES_QUIET
    for x in (0.75 + 0.75j, np.array([0.75 + 0.75j, 0.1])):
        with pytest.raises(SeriesError, match="not finite") as info:
            _sum_series(lambda n: 1.0, x)
        assert info.value.terms_used < _SERIES_CAP and info.value.partial_sum == math.inf


def _ratio_falls(a, c, ms):
    """|r(m + 1)| <= |r(m)| for every m in ms, r(m) = (a + m) / ((c + m)(m + 1)),
    in exact integers: a and c are dyadic, so d a and d c are integers."""
    fa, fc = Fraction(a), Fraction(c)
    d = fa.denominator * fc.denominator
    p, q = int(fa * d), int(fc * d)
    return all(abs(p + (m + 1) * d) * abs(q + m * d) * (m + 1)
               <= abs(p + m * d) * abs(q + (m + 1) * d) * (m + 2) for m in ms)


@settings(max_examples=60, derandomize=True)
@given(st.floats(min_value=-40.0, max_value=40.0),
       st.one_of(st.floats(min_value=0.0, max_value=40.0, exclude_min=True),
                 st.floats(min_value=-40.0, max_value=0.0, exclude_max=True)
                 .filter(lambda c: c != math.floor(c))))
def test_hyp1f1_ratio_never_grows_from_its_steady_index(a, c):
    # the stop rule relies on no later term outgrowing the current one
    steady = specfun._hyp1f1_steady(a, c)
    assert a + steady > 0.0 and c + steady > 0.0
    assert _ratio_falls(a, c, range(steady, steady + 5001))


# the four series of a top seed: 1F1(a1; 1/2), 1F1(a3; 3/2) and the
# derivative series 1F1(a1 + 1; 3/2), 1F1(a3 + 1; 5/2), a1 = (1 - 2 eps)/4
def _seed_series(eps_top):
    a1 = (1.0 - 2.0 * eps_top) / 4.0
    a3 = a1 + 0.5
    return ((a1, 0.5), (a3, 1.5), (a1 + 1.0, 1.5), (a3 + 1.0, 2.5))


@pytest.mark.parametrize("x_max, n_points", [(10.5, 2101), (12.5, 4201)])
def test_seed_series_accuracy_against_mpmath(x_max, n_points):
    # a precision guard, not a bit pin: long-double sums on the seed grids
    # w = x^2 stay within 6e-15 of 30-digit mpmath at 64 sampled points
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    x = _seed_grid(x_max, n_points)
    half = x[n_points // 2:]
    w = (half * half)[np.linspace(0, half.size - 1, 64).round().astype(int)]
    for eps_top in (-0.6, -2.8, -5.0):
        for a, c in _seed_series(eps_top):
            got = hyp1f1(a, c, w)
            for wi, gi in zip(w, got):
                ref = mpmath.hyp1f1(a, c, mpmath.mpf(wi.as_integer_ratio()[0])
                                    / wi.as_integer_ratio()[1])
                exact = mpmath.mpf(gi.as_integer_ratio()[0]) / gi.as_integer_ratio()[1]
                assert abs(exact / ref - 1) <= 6e-15


def test_measure_norm_series_accuracy_against_mpmath():
    # float64 0F2(a + 1, a - k + 1; r^2) of the aocs_iso norm, over the
    # (gap, k) pool of the benchmark's measures workload, for r^2 <= 64
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    w = np.linspace(0.0, 64.0, 65)
    for gap, k in ((6.3, 4), (1.5, 1), (4.5, 3), (6.0, 5)):
        b1, b2 = gap + 1.0, gap - k + 1.0
        got = hyp0f2(b1, b2, w)
        assert np.array_equal(got, [hyp0f2(b1, b2, v) for v in w])
        for wi, gi in zip(w, got):
            assert abs(gi / mpmath.hyper([], [b1, b2], wi) - 1) <= 2e-15


def test_overflowing_array_series_refused_without_warnings():
    # the typed refusal is all a caller sees, with warnings turned into errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.array([0.5, 1e200]), np.array([0.5 + 1j, 1e200 + 1e100j, 2j, 0.5 + 1j])):
            with pytest.raises(SeriesError, match="not finite") as info:
                hyp0f2(2.5, 1.5, x)
            assert info.value.terms_used <= 2 * _SERIES_QUIET


def test_overflowing_numpy_scalar_series_refused_without_warnings():
    # 0-d arguments of other float dtypes take the array loop and its errstate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.longdouble(1e300), np.float32(1e30)):
            with pytest.raises(SeriesError, match="not finite"):
                hyp0f2(2.5, 1.5, x)
        got = hyp0f2(2.5, 1.5, np.float32(0.8))
    assert type(got) is np.float32
    assert got == hyp0f2(2.5, 1.5, np.array([0.8], dtype=np.float32))[0]


# ----------------------------------------------------------------------
# Node doubling: each node evaluated once, estimates as rule by rule
# ----------------------------------------------------------------------

def _reference_doubling(f, rtol, max_nodes=2 ** 20, levels=None):
    """The rule-by-rule loop: every level applies its whole rule to f. The
    node count of the level that settles is appended to levels."""
    n, prev = 32, None
    while n <= max_nodes:
        nodes, weights = _semi_infinite_rule(n)
        est = np.tensordot(weights, np.asarray(f(nodes), dtype=float), axes=(0, 0))
        if prev is not None:
            scale = np.max(np.abs(est))
            tol = rtol * np.maximum(np.abs(est), 1e-9 * scale) + 1e-300
            if np.all(np.abs(est - prev) <= tol):
                if levels is not None:
                    levels.append(n)
                return est
        prev = est
        n *= 2
    raise AssertionError("reference loop did not settle")


def test_doubled_rules_keep_the_coarse_nodes_bitwise():
    n = 32
    while n <= 2 ** 14:
        assert np.array_equal(_semi_infinite_rule(2 * n)[0][::2], _semi_infinite_rule(n)[0])
        n *= 2


def _counting(f):
    seen = []

    def g(t):
        seen.append(np.array(t, copy=True))
        return f(t)
    return g, seen


def test_doubling_evaluates_each_node_once():
    # the nodes handed to f over the whole run are the final rule's, once each
    for f in (lambda t: np.exp(-t) / (1.0 + t * t),
              lambda t: np.exp(-t[:, None] * np.array([0.5, 1.0, 3.0]))):
        g, seen = _counting(f)
        integral_zero_inf(g)
        nodes = np.concatenate(seen)
        assert len(seen) >= 3
        assert np.array_equal(np.sort(nodes), _semi_infinite_rule(nodes.size)[0])


def test_doubling_levels_hand_f_only_their_new_nodes():
    # the first call takes the 32 nodes of the first rule; every later one
    # exactly the n/2 new odd nodes of its level n, whose values then go
    g, seen = _counting(lambda t: np.exp(-t[:, None] * np.array([0.5, 1.0, 3.0])))
    integral_zero_inf(g)
    assert len(seen) >= 3
    assert len(seen[0]) == 32
    for level, t in enumerate(seen[1:], start=1):
        n = 32 * 2 ** level
        assert len(t) == n // 2
        assert np.array_equal(t, _semi_infinite_rule(n)[0][1::2])


def test_unsettled_doubling_reports_its_last_change():
    # t^-1/2 e^-t (0 at the u = 0 node) converges only as h^(1/2): the run
    # ends at _MAX_NODES with the change of its last doubling
    with pytest.raises(QuadratureError, match="did not settle") as info:
        integral_zero_inf(lambda t: np.exp(-t) / np.sqrt(np.where(t > 0.0, t, np.inf)),
                          rtol=1e-12)
    assert info.value.nodes_used == specfun._MAX_NODES
    assert 1e-5 < info.value.last_change < 1e-2
    assert abs(info.value.last_estimate - math.sqrt(math.pi)) < 1e-2


def test_doubling_estimates_agree_with_rule_by_rule(monkeypatch):
    # the running sums stop at the rule-by-rule loop's level, and agree with
    # its estimate to rounding (2.9e-15 relative at worst over these cases)
    def batched(t):
        return np.stack([t ** 2.5 * np.exp(-t), np.exp(-t) / (1.0 + t)], axis=-1)

    def cases():
        z = np.array([0.1, 0.7, 3.0, 14.0])
        xs = np.array([0.5, 1.0, 25.0])
        quad = specfun.integral_zero_inf
        return [quad(lambda t: t ** 3 * np.exp(-t)), quad(batched),
                bessel_k(2.3, z), bessel_k(0.3, 1.7), tricomi_u(2.5, xs), tricomi_u(1.05, xs)]

    got_levels, want_levels = [], []
    running = specfun.integral_zero_inf

    def counted(f, rtol=1e-10):
        g, seen = _counting(f)
        est = running(g, rtol)
        got_levels.append(sum(len(t) for t in seen))
        return est

    monkeypatch.setattr(specfun, "integral_zero_inf", counted)
    got = cases()
    # the same public routines with the rule-by-rule loop underneath
    monkeypatch.setattr(specfun, "integral_zero_inf",
                        lambda f, rtol=1e-10: _reference_doubling(f, rtol, levels=want_levels))
    want = cases()
    assert got_levels == want_levels
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-13, atol=0.0)
