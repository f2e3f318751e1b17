"""Special-function kernel against precomputed high-precision references.

The reference numbers were generated once with mpmath at 30 digits and are
frozen here. Only the complex-argument series and the Tricomi U grid are
checked against mpmath live, since they span more points than a frozen
table would be worth; those tests skip where mpmath is absent.
"""

import math
import warnings

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
    _sum_series,
    bessel_k,
    digamma,
    gamma_fn,
    hyp0f2,
    hyp1f1,
    integral_zero_inf,
    mellin_moment,
    tricomi_u,
)


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
        # bitwise: the array path rounds its complex products as Python does
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


def _reference_sum(term_ratio, x, eps):
    """The array loop before points retired: all run until the slowest is quiet."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    comp = np.zeros_like(x)
    n = quiet = 0
    while quiet < _SERIES_QUIET:
        term = term * x * term_ratio(n)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        denom = np.maximum(np.abs(total), 1e-300)
        quiet = quiet + 1 if np.max(np.abs(term) / denom) < eps else 0
        n += 1
    return total


def test_array_series_matches_whole_array_loop_bitwise():
    # shuffled, 2-D and of both signs, so the |x| sort and the scatter back
    # into input order and shape are both exercised
    rng = np.random.default_rng(11)
    x = rng.permutation(np.linspace(-60.0, 110.0, 391).astype(np.longdouble)).reshape(17, 23)
    eps = 1.5 * float(np.finfo(np.longdouble).eps)
    for a, c in ((0.3, 0.5), (-2.7, 0.5), (1.8, 2.5)):
        got = hyp1f1(a, c, x)
        want = _reference_sum(lambda n: (a + n) / ((c + n) * (n + 1.0)), x, eps)
        assert got.dtype == np.longdouble and got.shape == x.shape
        assert np.array_equal(got, want)


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


def test_integral_zero_inf_reports_failure():
    # a node cap too small to settle a slowly decaying integrand
    with pytest.raises(QuadratureError):
        integral_zero_inf(lambda t: 1.0 / (1.0 + t) ** 1.01, max_nodes=256)


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


def test_mellin_moment_gamma_and_nontrivial():
    got = mellin_moment(lambda x: np.exp(-x), 2.7)
    assert abs(got / 1.5446858458505938 - 1.0) < 1e-9
    got = mellin_moment(lambda x: np.exp(-x) / (1.0 + x), 1.6)
    assert abs(got / 0.41641130295467471 - 1.0) < 1e-8


def test_series_nan_point_never_counts_as_quiet():
    # a NaN point is never returned as converged; its total is not finite,
    # so the refusal comes at the first finiteness test, not at the cap
    ratio = lambda n: 1.0 / (n + 1.0)
    for x in (np.array([0.5, np.nan]), np.nan):
        with pytest.raises(SeriesError) as info:
            _sum_series(ratio, x, cap=300)
        assert info.value.terms_used == _SERIES_QUIET
        assert math.isnan(info.value.partial_sum)


def test_series_cap_reached_on_a_retiring_term():
    # 0.5 retires on term 64 of e^x; with the cap there the refusal must
    # still be a SeriesError carrying the unconverged 60.0 partial sum
    with pytest.raises(SeriesError) as info:
        _sum_series(lambda n: 1.0 / (n + 1.0), np.array([0.5, 60.0]), cap=64)
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


def test_semi_infinite_rule_positive_weights():
    nodes, weights = _semi_infinite_rule(64)
    assert np.all(weights > 0.0)
    assert np.all(np.isfinite(nodes))


def test_overflowing_series_refused_at_once():
    # an overflowed partial sum turns NaN and can never settle; the refusal
    # comes within _SERIES_QUIET terms of the overflow instead of at the cap
    for x in (1e200, 1e200 + 1e100j, np.array([0.5, 3.0, 1e200, 2.0])):
        with np.errstate(all="ignore"), \
                pytest.raises(SeriesError, match="not finite") as info:
            hyp0f2(2.5, 1.5, x)
        assert info.value.terms_used <= 2 * _SERIES_QUIET < _SERIES_CAP
        assert math.isnan(info.value.partial_sum)


def test_overflowing_array_series_refused_without_warnings():
    # the typed refusal is all a caller sees, with warnings turned into errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesError, match="not finite"):
            hyp0f2(2.5, 1.5, np.array([0.5, 1e200]))


# ----------------------------------------------------------------------
# Node doubling: each node evaluated once, estimates as rule by rule
# ----------------------------------------------------------------------

def _reference_doubling(f, rtol, max_nodes=2 ** 20):
    """The rule-by-rule loop: every level applies its whole rule to f."""
    n, prev = 32, None
    while n <= max_nodes:
        nodes, weights = _semi_infinite_rule(n)
        est = np.tensordot(weights, np.asarray(f(nodes), dtype=float), axes=(0, 0))
        if prev is not None:
            scale = np.max(np.abs(est))
            tol = rtol * np.maximum(np.abs(est), 1e-9 * scale) + 1e-300
            if np.all(np.abs(est - prev) <= tol):
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


def test_doubling_estimates_bitwise_as_rule_by_rule(monkeypatch):
    def batched(t):
        return np.stack([t ** 2.5 * np.exp(-t), np.exp(-t) / (1.0 + t)], axis=-1)

    for f in (lambda t: t ** 3 * np.exp(-t), batched):
        want = _reference_doubling(f, 1e-10)
        assert np.array_equal(integral_zero_inf(f), want)
    z = np.array([0.1, 0.7, 3.0, 14.0])
    xs = np.array([0.5, 1.0, 25.0])
    got = [bessel_k(2.3, z), bessel_k(0.3, 1.7), tricomi_u(2.5, xs), tricomi_u(1.05, xs)]
    # the same public routines with the rule-by-rule loop underneath
    monkeypatch.setattr(specfun, "integral_zero_inf",
                        lambda f, rtol=1e-10: _reference_doubling(f, rtol))
    want = [bessel_k(2.3, z), bessel_k(0.3, 1.7), tricomi_u(2.5, xs), tricomi_u(1.05, xs)]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
