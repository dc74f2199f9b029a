import json
import math
import os
import sys

import numpy as np
import pytest

from semiflow import InvalidArgument, TrigPolynomial, classify, extrema
from semiflow import ceiling
from semiflow.ceiling import MAX_HARMONIC, _refine_roots
from semiflow.ceiling import eval as feval
from semiflow.cli import parse_config

from conftest import parse_violations, random_positive_ceiling
from oracles import dense_max_abs_deriv, eval_full, per_bracket_roots

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import workloads  # noqa: E402

TOP_HARMONIC = TrigPolynomial(1.0, ((MAX_HARMONIC, 0.0, 0.2),), 2)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


# zero coefficients of either sign, alone or together, beside a mean of
# either sign; at x = 0 the sine products are signed zeros, so the sign of a
# zero sum depends on every product
_ZERO_COEFFICIENT_CEILINGS = [
    TrigPolynomial(mean, harmonics, 2)
    for mean in (1.0, -0.0, 0.0)
    for harmonics in (((1, 0.0, 0.2),), ((1, -0.0, -0.2),), ((1, 0.3, 0.0),),
                      ((1, -0.3, -0.0),), ((1, 0.0, 0.0),), ((1, -0.0, -0.0),),
                      ((1, 0.0, -0.2), (2, 0.1, -0.0), (3, -0.0, 0.0), (5, 0.05, 0.02)))
]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_eval_matches_the_full_formula_bitwise(order):
    # skipping a zero coefficient's transcendental keeps every bit, the sign
    # of a zero included
    finite = np.concatenate([[0.0, -0.0, 0.25, 0.5, 0.75, 1.0],
                             np.random.default_rng(41).random(200)])
    x = np.concatenate([finite, [np.nan, -np.nan, np.inf, -np.inf]])
    for f in _ZERO_COEFFICIENT_CEILINGS:
        with np.errstate(invalid="ignore"):     # sin and cos of inf
            assert np.array_equal(_bits(feval(f, x, order)), _bits(eval_full(f, x, order)))
        assert np.array_equal(_bits(feval(f, finite.reshape(2, -1), order)),
                              _bits(eval_full(f, finite.reshape(2, -1), order)))
        for point in (0.0, -0.0, 0.3):
            got = feval(f, point, order)
            assert type(got) is float
            assert _bits(got) == _bits(eval_full(f, point, order))
    # the case the repair exists for: -0.0 + (0.0 + -0.0) is +0.0, not -0.0
    assert _bits(feval(TrigPolynomial(-0.0, ((1, 0.0, -0.2),), 2), 0.0)) == _bits(0.0)


def test_eval_constant_derivative(f_const):
    assert feval(f_const, 0.37, 1) == 0.0


def test_eval_sin_first_derivative_closed_form(f_sin):
    assert feval(f_sin, 0.0, 1) == pytest.approx(0.4 * math.pi, abs=1e-14)


def test_eval_sin_second_derivative_closed_form(f_sin):
    assert feval(f_sin, 0.25, 2) == pytest.approx(-0.8 * math.pi ** 2, abs=1e-12)


def test_eval_third_derivative_available(f_sin):
    assert feval(f_sin, 0.1, 3) == pytest.approx(
        -0.2 * (2 * math.pi) ** 3 * math.cos(2 * math.pi * 0.1), rel=1e-12)


def test_eval_rejects_order_four(f_sin):
    with pytest.raises(InvalidArgument):
        feval(f_sin, 0.1, 4)


def test_eval_matches_finite_differences(f_generic):
    rng = np.random.default_rng(3)
    h = 1e-5
    for x in rng.random(20):
        fd = (feval(f_generic, x + h) - feval(f_generic, x - h)) / (2 * h)
        exact = feval(f_generic, x, 1)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_classify_constant(f_const):
    cls = classify(f_const, 0.9)
    assert cls.theta_f == 0.0
    assert extrema(f_const, 0) == (1.0, 1.0)
    assert cls.theta_K * (0.9 * 2 - 1) > 1.0


def test_classify_sin_closed_form(f_sin):
    cls = classify(f_sin, 0.9)
    assert cls.theta_f == pytest.approx(math.pi / 2, abs=1e-10)
    f_min, f_max = extrema(f_sin, 0)
    assert f_min == pytest.approx(0.8, abs=1e-10)
    assert f_max == pytest.approx(1.2, abs=1e-10)


def test_classify_generic_against_dense_grid_oracle(f_generic):
    # frozen from the 1e6-point oracle: max |f'| of 1 + 0.3 sin(2 pi x)
    # + 0.1 cos(4 pi x)
    oracle_max = dense_max_abs_deriv(f_generic, 1)
    cls = classify(f_generic, 0.9)
    assert cls.theta_f == pytest.approx(oracle_max / 0.8, rel=1e-9)
    assert max(map(abs, extrema(f_generic, 1))) >= oracle_max - 1e-10


def test_classify_rejects_nonpositive():
    # classify takes a positive ceiling on trust: positivity has its one
    # check at parse, for every subcommand
    ceiling = {"ell": 2, "mean": 0.5, "harmonics": [[1, 0.0, 0.8]]}
    assert "ceiling violates positivity" in parse_violations(
        experiment="genericity", ceiling=ceiling)


def test_classify_rejects_bad_gamma0():
    # classify takes gamma0 in (1/ell, 1) on trust; parse refuses both ends
    for gamma0 in (0.4, 0.5, 1.0):
        assert "gamma0 must lie in (1/ell, 1) = (1/2, 1)" in parse_violations(
            experiment="genericity", gamma0=gamma0)


def test_theta_f_antitone_in_gamma0(f_generic):
    # theta_f = max|f'|/(gamma0*ell - 1): a larger gamma0 enlarges the
    # denominator and so shrinks theta_f
    values = [classify(f_generic, g).theta_f for g in (0.6, 0.75, 0.9)]
    assert values[0] > values[1] > values[2]


def test_class_constant_inequalities(f_generic):
    # theta_K = K / (gamma0*ell - 1), and K bounds 1/min f, max f and max|f'|
    K = classify(f_generic, 0.9).theta_K * (0.9 * 2 - 1)
    f_min, f_max = extrema(f_generic, 0)
    assert 1.0 / K < f_min <= f_max < K
    assert max(map(abs, extrema(f_generic, 1))) < K


def test_k_is_power_of_two(f_sin):
    K = classify(f_sin, 0.9).theta_K * (0.9 * 2 - 1)
    assert math.log2(K) == pytest.approx(round(math.log2(K)), abs=1e-12)


def test_extrema_certify_f_and_its_derivative(f_sin, f_generic):
    lo, hi = extrema(f_sin, 0)
    assert lo == pytest.approx(0.8, abs=1e-12) and hi == pytest.approx(1.2, abs=1e-12)
    lo, hi = extrema(f_sin, 1)
    assert -lo == pytest.approx(0.4 * math.pi, abs=1e-12) == hi
    assert max(map(abs, extrema(f_generic, 1))) >= dense_max_abs_deriv(f_generic, 1)
    with pytest.raises(InvalidArgument):
        extrema(f_sin, 2)


def test_extrema_cached_per_ceiling_value(f_generic):
    extrema.cache_clear()
    twin = TrigPolynomial(1.0, ((2, 0.1, 0.0), (1, 0.0, 0.3)), 2)
    assert twin == f_generic and twin is not f_generic
    assert extrema(f_generic, 1) is extrema(twin, 1)
    classify(twin, 0.9)
    classify(f_generic, 0.6)
    assert extrema.cache_info().misses == 2


def test_harmonic_index_capped_at_a_quarter_of_the_certification_grid():
    # at the cap every period holds four grid points, so the bisection
    # still finds the true extrema
    lo, hi = extrema(TOP_HARMONIC, 0)
    assert lo == pytest.approx(0.8, abs=1e-12) and hi == pytest.approx(1.2, abs=1e-12)
    with pytest.raises(InvalidArgument, match="harmonic index"):
        TrigPolynomial(1.0, ((MAX_HARMONIC + 1, 0.0, 0.2),), 2)


def test_array_bisection_matches_the_scalar_loop():
    # bit for bit, on every benchmark ceiling and on random ones
    ceilings = {parse_config(job["config"]).ceiling
                for workload in workloads.WORKLOADS for seed in (0, 1)
                for job in workloads.jobs(workload, seed)}
    rng = np.random.default_rng(21)
    ceilings |= {random_positive_ceiling(rng) for _ in range(40)}
    for f in ceilings | {TOP_HARMONIC}:
        for order in (1, 2):
            assert np.array_equal(_refine_roots(f, order), per_bracket_roots(f, order))


def test_bisection_cost_does_not_grow_with_the_bracket_count(monkeypatch):
    # 2048 brackets of f' at the top harmonic, bisected together: one grid
    # pass, one pass over the bracket ends and at most 60 halvings
    calls = []
    real = ceiling.eval

    def counting(*args):
        calls.append(np.size(args[1]))
        return real(*args)

    monkeypatch.setattr(ceiling, "eval", counting)
    roots = _refine_roots(TOP_HARMONIC, 1)
    assert roots.size == 2 * MAX_HARMONIC
    assert len(calls) <= 62


def test_harmonics_sorted_and_distinct():
    f = TrigPolynomial(1.0, ((3, 0.0, 0.01), (1, 0.0, 0.02)), 2)
    assert [k for k, _, _ in f.harmonics] == [1, 3]
    with pytest.raises(InvalidArgument):
        TrigPolynomial(1.0, ((1, 0.0, 0.1), (1, 0.1, 0.0)), 2)


def test_config_round_trip(f_generic):
    spec = {"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.3], [2, 0.1, 0.0]]}
    assert parse_config(json.dumps({"ceiling": spec}), "mixing").ceiling == f_generic
