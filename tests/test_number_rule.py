"""One number rule for every real scalar the package reads.

specfun._finite_number reads each real parameter of a public function and
each spec field: a Python or numpy real, never a bool or a string, finite,
an integer past the float range included. A function's parameter is refused
with DomainError naming the function and the parameter (a spec field keeps
InvalidSpecError and its own name, as test_susy pins). The bounded array
readers hand a float back for a 0-d argument.
"""

import dataclasses
import re

import numpy as np
import pytest

from susyosc import (
    CSParams,
    Family,
    MeasureFamily,
    apply_stencil,
    bessel_k,
    build_operator_stencil,
    construct_cs,
    digamma,
    evolve,
    g_for_system,
    gamma_fn,
    hyp0f2,
    hyp1f1,
    integral_zero_inf,
    measure_fn,
    mellin_moment,
    moment_check,
    piv_residual,
    potential_from_g,
    tricomi_u,
)
from susyosc.errors import DomainError
from susyosc.specfun import laplace_power_integral
from susyosc.susy import seed_solution


def _exp_minus(t):
    return np.exp(-t)


@pytest.fixture(scope="module")
def ctx(k4_system):
    stencil = build_operator_stencil(g_for_system(k4_system, "eps0", phi_rel_floor=1e-8))
    return {
        "system": k4_system,
        "gsol": g_for_system(k4_system, "half"),
        "cs": construct_cs(Family.LIN_NEW, 1.5 + 0.5j, CSParams(gap=6.3, k=4)),
        "measure": measure_fn(MeasureFamily.MU3, CSParams(gap=2.5, k=2)),
        "stencil": stencil,
        "state": k4_system.state("iso", 1),
    }


# (entry point and parameter, call with the value in its place, name in the
# refusal); an rtol is read by integral_zero_inf, the one node-doubling loop,
# whichever entry point passed it on
_RTOL = "integral_zero_inf rtol"
_SCALARS = [
    ("gamma_fn x", lambda c, v: gamma_fn(v), None),
    ("digamma x", lambda c, v: digamma(v), None),
    ("hyp1f1 a", lambda c, v: hyp1f1(v, 0.5, 1.0), None),
    ("hyp1f1 c", lambda c, v: hyp1f1(0.5, v, 1.0), None),
    ("hyp0f2 b1", lambda c, v: hyp0f2(v, 1.5, 1.0), None),
    ("hyp0f2 b2", lambda c, v: hyp0f2(2.5, v, 1.0), None),
    ("integral_zero_inf rtol", lambda c, v: integral_zero_inf(_exp_minus, rtol=v), None),
    ("mellin_moment s", lambda c, v: mellin_moment(_exp_minus, v), None),
    ("mellin_moment rtol", lambda c, v: mellin_moment(_exp_minus, 1.5, rtol=v), _RTOL),
    ("bessel_k nu", lambda c, v: bessel_k(v, 1.0), None),
    ("laplace_power_integral p", lambda c, v: laplace_power_integral(v, 1.0, 1.0, 1.0), None),
    ("laplace_power_integral b", lambda c, v: laplace_power_integral(0.5, v, 1.0, 1.0), None),
    ("laplace_power_integral q", lambda c, v: laplace_power_integral(0.5, 1.0, v, 1.0), None),
    ("laplace_power_integral rtol",
     lambda c, v: laplace_power_integral(0.5, 1.0, 1.0, 1.0, rtol=v), _RTOL),
    ("tricomi_u a", lambda c, v: tricomi_u(v, 1.0), None),
    ("tricomi_u rtol", lambda c, v: tricomi_u(2.0, 1.0, rtol=v), _RTOL),
    # below x = 1/2 the series branch answers, without integral_zero_inf
    ("tricomi_u rtol at small x", lambda c, v: tricomi_u(2.0, 0.1, rtol=v), _RTOL),
    ("seed_solution eps", lambda c, v: seed_solution(np.zeros(3), v, 0.0), None),
    ("seed_solution nu", lambda c, v: seed_solution(np.zeros(3), -1.0, v), None),
    ("evolve t", lambda c, v: evolve(c["cs"], v), None),
    ("moment_check s", lambda c, v: moment_check(c["measure"], v), None),
    ("g_for_system phi_rel_floor",
     lambda c, v: g_for_system(c["system"], "half", phi_rel_floor=v), None),
    ("piv_residual a", lambda c, v: piv_residual(c["gsol"], v, -2.0), None),
    ("piv_residual b", lambda c, v: piv_residual(c["gsol"], 1.0, v), None),
    ("potential_from_g e1", lambda c, v: potential_from_g(c["gsol"], v), None),
    ("apply_stencil state energy",
     lambda c, v: apply_stencil(c["stencil"], dataclasses.replace(c["state"], energy=v)), None),
]

_NOT_NUMBERS = [
    (True, "must be a number, got True"),
    ("2", "must be a number, got '2'"),
    (1j, "must be a number, got 1j"),
    (10 ** 400, "must be finite, got an integer of 1329 bits"),
]


@pytest.mark.parametrize("value, why", _NOT_NUMBERS, ids=["bool", "string", "complex", "huge"])
@pytest.mark.parametrize("entry, call, named", _SCALARS,
                         ids=[entry.replace(" ", "-") for entry, _, _ in _SCALARS])
def test_every_real_parameter_is_refused_by_name(ctx, entry, call, named, value, why):
    message = "%s %s" % (named or entry, why)
    with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
        call(ctx, value)


def test_bounded_array_readers_return_a_float_for_a_0d_argument(ctx):
    m = ctx["measure"]
    calls = {
        "bessel_k": lambda v: bessel_k(1.0, v),
        "tricomi_u": lambda v: tricomi_u(2.0, v),
        "laplace_power_integral": lambda v: laplace_power_integral(0.5, 1.0, 1.0, v),
        "profile": m.profile,
        "density": m.density,
    }
    for name, call in calls.items():
        one = call(2.0)
        for arg in (np.array(2.0), np.float64(2.0), 2):
            got = call(arg)
            assert type(got) is float and got == one, (name, arg)
        assert call(np.array([2.0])).shape == (1,), name
        grid = call(np.full((2, 3), 2.0))
        assert grid.shape == (2, 3) and grid.dtype == np.float64, name
        assert np.allclose(grid, one, rtol=1e-14, atol=0.0), name
