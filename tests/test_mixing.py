import json
import math

import numpy as np
import pytest

from semiflow import (InvalidArgument, PreconditionViolation, TrigPolynomial, Verdict,
                      cobounding_potential, cocycle_residual, eigenfunction_check,
                      weak_mixing_test)
from semiflow.cli import main
from semiflow.mixing import default_tolerances, sample_psi, tail_bound

from oracles import (dense_max_abs_deriv, fft_potential, series_psi, trig_interpolate,
                     unstable_slope)


def test_unstable_slope_constant(f_const):
    assert unstable_slope(f_const, 0.3, 10) == 0.0


def test_unstable_slope_sin_vanishes(f_sin):
    # each level's equally spaced cosine sum cancels exactly
    for x in (0.0, 0.21, 0.73):
        assert abs(unstable_slope(f_sin, x, 18)) <= 1e-12


def test_unstable_slope_coboundary_telescopes(f_cob):
    for x in (0.1, 0.3, 0.9):
        expect = 0.1 * math.pi * math.cos(2 * math.pi * x)
        got = unstable_slope(f_cob, x, 20)
        assert abs(got - expect) <= tail_bound(f_cob, 20) + 1e-10


def test_sample_psi_matches_direct_path(f_cob, f_generic):
    # the closed form's derivative and the level-skipping series both agree
    # with full direct enumeration
    xs = np.array([0.0, 0.17, 0.46, 0.88])
    for f in (f_cob, f_generic):
        direct = np.array([unstable_slope(f, float(x), 16) for x in xs])
        assert np.max(np.abs(series_psi(f, xs, 16) - direct)) <= 1e-13
        assert np.max(np.abs(sample_psi(f, 16)(xs, 1) - direct)) <= 1e-13


def _random_ceiling(rng, ell):
    """Up to four harmonics k = m ell^j <= 1024 with small m, so that Psi
    reaches deep levels.  Harmonic k has coefficients below 0.2/(n k), n
    the harmonic count, so max|f'| < 0.8 pi: the argument 2 pi k x of a
    float evaluation is off by ~eps 2 pi k, and a 1e-14 match needs the
    amplitudes of high harmonics to fall off."""
    ks = set()
    for _ in range(int(rng.integers(1, 5))):
        m = int(rng.integers(1, 2 * ell))
        ks.add(m * ell ** int(rng.integers(0, int(math.log(1024 / m, ell)) + 1)))
    amp = 0.2 / len(ks)
    return TrigPolynomial(
        1.0, tuple((k, *rng.uniform(-amp / k, amp / k, 2)) for k in ks), ell)


def _valuation(k, ell):
    n = 0
    while k % ell == 0:
        k, n = k // ell, n + 1
    return n


def test_closed_form_matches_series_fft_oracle():
    # depth 1 to past the deepest level; every other case truncates below it
    rng = np.random.default_rng(16)
    xs = np.arange(4096) / 4096
    queries = rng.random(16)
    truncated = 0
    for case in range(8):
        f = _random_ceiling(rng, 2 + case % 2)
        deepest = max(_valuation(k, f.ell) for k, _, _ in f.harmonics)
        depth = int(rng.integers(1, deepest)) if case % 4 < 2 and deepest > 1 else deepest + 1
        truncated += depth < deepest
        Psi = sample_psi(f, depth)
        ref = fft_potential(f, 4096, depth)
        assert np.max(np.abs(Psi(xs) - ref)) <= 1e-14
        assert np.max(np.abs(Psi(queries) - trig_interpolate(ref, queries))) <= 1e-14
    assert truncated >= 2


def test_mixing_high_harmonic_coboundary_on_a_small_grid(capsys):
    # Psi = 0.0005 sin(2 pi 300 x) lies above the Nyquist frequency of a
    # 256-point grid, where an FFT antiderivative aliases it
    argv = ["mixing", "--set",
            'ceiling={"ell":2,"mean":1.0,"harmonics":[[300,0.0,-0.0005],[600,0.0,0.0005]]}',
            "--set", "params.grid=256", "--set", "params.eigenfunction_times=[]"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["verdict"] == "NotWeaklyMixing"
    assert payload["residual_sup"] <= 1e-12


def test_cobounding_potential_constant(f_const):
    rep = cobounding_potential(f_const, 256, 8)
    assert np.all(rep.Psi(rep.grid_points) == 0.0)
    assert rep.c == 1.0


def test_cobounding_potential_sin(f_sin):
    rep = cobounding_potential(f_sin, 1024, 20)
    assert np.max(np.abs(series_psi(f_sin, rep.grid_points, rep.depth))) <= 1e-12
    assert np.max(np.abs(rep.Psi(rep.grid_points))) <= 1e-12
    assert rep.c == 1.0


def test_cobounding_potential_coboundary(f_cob):
    rep = cobounding_potential(f_cob, 4096, 24)
    xs = rep.grid_points
    assert np.max(np.abs(rep.Psi(xs) - 0.05 * np.sin(2 * np.pi * xs))) \
        <= rep.tail_bound + 1e-10
    assert rep.c == 1.0


def test_cobounding_potential_grid_validation(f_sin):
    with pytest.raises(InvalidArgument):
        cobounding_potential(f_sin, 100, 8)
    with pytest.raises(InvalidArgument):
        cobounding_potential(f_sin, 300, 8)


def test_psi_mean_zero(f_cob, f_generic, f_cob2):
    for f in (f_cob, f_cob2, f_generic):
        rep = cobounding_potential(f, 1024, 16)
        psi = rep.Psi(rep.grid_points, 1)
        assert abs(float(np.mean(psi))) <= rep.tail_bound + 1e-10


def test_tail_bound_formula(f_cob):
    mx = 0.05 * (4 * math.pi + 2 * math.pi)  # coefficient bound on |f'|
    got = tail_bound(f_cob, 12)
    assert got <= mx * 2.0 ** -12 / (2 - 1) + 1e-12
    assert got > 0


def test_tail_bound_is_a_bound(f_generic):
    # the grid maximum of |f'| undercuts the true one on these ceilings, so a
    # tail bound from a grid is not a bound
    f_gen3 = TrigPolynomial(1.3, ((1, 0.0, 0.3), (2, 0.1, 0.0), (3, 0.05, 0.05)), 3)
    for f in (f_generic, f_gen3):
        oracle = dense_max_abs_deriv(f, 1)
        for depth in (1, 12, 24):
            assert tail_bound(f, depth) >= oracle * f.ell ** -depth / (f.ell - 1)


def test_functional_equation_at_truncation(f_const, f_cob, f_cob2):
    # holds for cobounding ceilings, where the series limit is a true
    # invariant slope field; generic ceilings have no such field
    rng = np.random.default_rng(2)
    xs = rng.random(100)
    for f in (f_const, f_cob, f_cob2):
        N = 16
        Psi = sample_psi(f, N)
        lhs = Psi((f.ell * xs) % 1.0, 1)
        rhs = (np.asarray(f(xs, 1)) + Psi(xs, 1)) / f.ell
        assert np.max(np.abs(lhs - rhs)) <= 2 * tail_bound(f, N) + 1e-12


def test_cocycle_residual_constant(f_const):
    rep = cobounding_potential(f_const, 256, 8)
    assert cocycle_residual(rep, f_const) == 0.0


def test_cocycle_residual_coboundary(f_cob):
    rep = cobounding_potential(f_cob, 4096, 24)
    assert cocycle_residual(rep, f_cob) <= 1e-8


def test_cocycle_residual_sin_is_amplitude(f_sin):
    # Psi = 0 so the residual is sup |f - 1| = 0.2
    rep = cobounding_potential(f_sin, 4096, 24)
    assert cocycle_residual(rep, f_sin) == pytest.approx(0.2, abs=1e-6)


def test_verdicts(f_const, f_cob, f_sin):
    assert weak_mixing_test(f_const).verdict is Verdict.NOT_WEAKLY_MIXING
    assert weak_mixing_test(f_cob).verdict is Verdict.NOT_WEAKLY_MIXING
    assert weak_mixing_test(f_sin).verdict is Verdict.WEAKLY_MIXING


def test_verdict_inconclusive_band(f_sin):
    # force the band around the measured residual
    rep = weak_mixing_test(f_sin, tol_strict=0.1, tol_clear=0.5,
                           grid=1024, depth=16)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_verdict_tolerance_ordering(f_sin):
    with pytest.raises(InvalidArgument):
        weak_mixing_test(f_sin, tol_strict=1e-3, tol_clear=1e-6)


def test_eigenfunction_constant(f_const):
    rep = weak_mixing_test(f_const)
    assert eigenfunction_check(rep, f_const, [0.7]) <= 1e-10


def test_eigenfunction_coboundary(f_cob):
    rep = weak_mixing_test(f_cob)
    assert eigenfunction_check(rep, f_cob, [1.3, 2.7]) <= 1e-6


def test_eigenfunction_check_leaves_the_report_alone(f_cob):
    # the defect is only returned; the report's fields stay as they were
    rep = weak_mixing_test(f_cob)
    before = dict(vars(rep))
    eigenfunction_check(rep, f_cob, [1.3])
    assert vars(rep).keys() == before.keys()
    assert all(vars(rep)[key] is value for key, value in before.items())


def test_eigenfunction_constant_two():
    f2 = TrigPolynomial(2.0, (), 2)
    rep = weak_mixing_test(f2)
    assert rep.c == 2.0
    assert eigenfunction_check(rep, f2, [2.0]) <= 1e-10


def test_eigenfunction_rejects_large_residual(f_sin):
    rep = weak_mixing_test(f_sin)
    with pytest.raises(PreconditionViolation):
        eigenfunction_check(rep, f_sin, [1.0])


def test_constant_shift_moves_c_not_psi(f_sin):
    shifted = TrigPolynomial(f_sin.mean_coeff + 0.5, f_sin.harmonics, f_sin.ell)
    a = cobounding_potential(f_sin, 512, 12)
    b = cobounding_potential(shifted, 512, 12)
    assert a.Psi == b.Psi
    assert b.c == a.c + 0.5


def test_trig_interpolation_reproduces_samples():
    G = 256
    xs = np.arange(G) / G
    samples = np.sin(2 * np.pi * xs) + 0.3 * np.cos(6 * np.pi * xs)
    at_nodes = trig_interpolate(samples, xs)
    assert np.max(np.abs(at_nodes - samples)) <= 1e-12
    queries = np.array([0.123, 0.456, 0.789])
    expect = np.sin(2 * np.pi * queries) + 0.3 * np.cos(6 * np.pi * queries)
    assert np.max(np.abs(trig_interpolate(samples, queries) - expect)) <= 1e-12


def test_default_tolerances_couple_to_tail(f_sin):
    strict, clear = default_tolerances(f_sin, 12)
    assert strict == pytest.approx(1e-6 + tail_bound(f_sin, 12))
    assert clear == pytest.approx(1e3 * strict)
